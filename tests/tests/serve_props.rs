//! The serving front-end: concurrent clients on one warm service,
//! single-flight de-duplication of identical requests, warm restarts
//! proven through the wire (`stats` op), not just through in-process
//! counters, and bounded input: hostile lines and oversized requests are
//! refused, not fatal.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::Duration;

use isl_serve::{parse_response, Client, Op, Request, ServeConfig, ServeError, Server};

fn state_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "isl-serve-props-{}-{test}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn start(dir: &Path) -> isl_serve::ServerHandle {
    Server::start(ServeConfig {
        state_dir: Some(dir.to_path_buf()),
        ..ServeConfig::default()
    })
    .unwrap()
}

fn certify_request(seed: u64) -> Request {
    Request {
        op: Op::Certify,
        algo: "igf".into(),
        width: 20,
        height: 14,
        seed,
        window: 2,
        depth: 1,
        cores: 1,
        ..Request::default()
    }
}

/// Two clients racing the *same* request trigger exactly one compute:
/// the store's single-flight builds the certificate once and both
/// responses are byte-identical.
#[test]
fn concurrent_identical_requests_compute_once() {
    let dir = state_dir("single-flight");
    let handle = start(&dir);
    let addr = handle.addr();

    let threads: Vec<_> = (0..2)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                client.request(certify_request(3)).unwrap()
            })
        })
        .collect();
    let results: Vec<_> = threads.into_iter().map(|t| t.join().unwrap()).collect();
    assert_eq!(results[0], results[1], "racing clients saw different answers");

    let mut client = Client::connect(addr).unwrap();
    let stats = client.stats("igf").unwrap();
    assert_eq!(stats.certificate_misses, 1, "the race computed twice");
    assert_eq!(stats.vector_misses, 1);
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Four concurrent clients with a mixed workload, then a restart on the
/// same state directory: the restarted service replays every request
/// with **zero** build misses — the warm-restart evidence arrives over
/// the wire via the `stats` op.
#[test]
fn restarted_service_answers_warm() {
    let dir = state_dir("restart-warm");

    let drive = |addr: std::net::SocketAddr| -> Vec<String> {
        let threads: Vec<_> = (0..4)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    client.ping().unwrap();
                    let request = match i {
                        0 => Request {
                            op: Op::Explore,
                            algo: "igf".into(),
                            width: 20,
                            height: 14,
                            max_side: 3,
                            max_depth: 2,
                            max_cores: 2,
                            ..Request::default()
                        },
                        1 | 2 => certify_request(3),
                        _ => Request {
                            op: Op::SearchFormat,
                            algo: "igf".into(),
                            width: 20,
                            height: 14,
                            seed: 3,
                            window: 2,
                            depth: 1,
                            cores: 1,
                            max_abs: 1e-2,
                            ..Request::default()
                        },
                    };
                    format!("{:?}", client.request(request).unwrap())
                })
            })
            .collect();
        threads.into_iter().map(|t| t.join().unwrap()).collect()
    };

    // Cold service: builds everything, checkpoints after each batch.
    let handle = start(&dir);
    let first = drive(handle.addr());
    let mut client = Client::connect(handle.addr()).unwrap();
    let cold = client.stats("igf").unwrap();
    assert!(cold.build_misses() > 0, "cold service must build");
    drop(client);
    handle.shutdown();

    // Restarted service: same state dir, fresh process state. The whole
    // mixed workload replays from disk — zero new builds of any kind.
    let handle = start(&dir);
    let second = drive(handle.addr());
    let mut client = Client::connect(handle.addr()).unwrap();
    let warm = client.stats("igf").unwrap();
    assert_eq!(
        warm.build_misses(),
        0,
        "restarted service rebuilt artifacts: {warm:?}"
    );
    assert!(warm.disk_hits > 0, "nothing was served from disk");
    assert_eq!(warm.corrupt, 0);

    // Same answers, byte for byte (results are parsed+normalised JSON).
    let (mut a, mut b) = (first.clone(), second.clone());
    a.sort();
    b.sort();
    assert_eq!(a, b, "restart changed an answer");
    drop(client);
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// One client's over-deep and over-long lines are answered with
/// structured errors — the deep one on a connection that stays usable,
/// the long one closing its connection — while another client's requests
/// are still answered.
#[test]
fn hostile_lines_are_refused_and_others_still_served() {
    let handle = Server::start(ServeConfig::default()).unwrap();
    let mut other = Client::connect(handle.addr()).unwrap();
    let stream = TcpStream::connect(handle.addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut reply = || {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        parse_response(line.trim()).unwrap().1
    };

    // Nested 10 000 deep: inside the line cap, far past the nesting cap.
    let deep = format!(
        "{{\"op\":\"ping\",\"x\":{}0{}}}\n",
        "[".repeat(10_000),
        "]".repeat(10_000)
    );
    writer.write_all(deep.as_bytes()).unwrap();
    let err = reply().unwrap_err();
    assert!(err.contains("nesting deeper than"), "{err}");
    writer.write_all(b"{\"op\":\"ping\"}\n").unwrap();
    assert!(reply().is_ok(), "the deep line closed its connection");
    other.ping().unwrap();

    // An 8 MiB line: refused after the first 64 KiB, then the connection
    // closes cleanly — the client writes the whole line, reads the `err`
    // line and then an EOF, never a reset.
    let sender = std::thread::spawn(move || {
        let mut line = vec![b'x'; 8 << 20];
        line.push(b'\n');
        writer.write_all(&line)
    });
    let err = reply().unwrap_err();
    assert!(err.contains("request line longer than"), "{err}");
    let mut rest = String::new();
    match reader.read_line(&mut rest) {
        Ok(0) => {}
        other => panic!("expected a clean EOF after the refusal: {other:?} {rest:?}"),
    }
    sender
        .join()
        .unwrap()
        .expect("the refused line is read whole");

    other.ping().unwrap();
    assert!(other.stats("igf").is_ok());
    handle.shutdown();
}

/// A certify over the frame-area cap and an explore over the design-space
/// caps are each answered with an `err` line before anything is built, and
/// the connection then answers a ping.
#[test]
fn oversized_requests_are_refused() {
    let handle = Server::start(ServeConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let huge_frames = Request {
        width: 100_000,
        height: 100_000,
        ..certify_request(1)
    };
    let huge_space = Request {
        op: Op::Explore,
        algo: "igf".into(),
        max_side: 100_000,
        ..Request::default()
    };
    for (request, field) in [(huge_frames, "frame area"), (huge_space, "max_side")] {
        match client.request(request) {
            Err(ServeError::Remote(e)) => assert!(e.contains(field), "{e}"),
            other => panic!("over-limit {field} not refused: {other:?}"),
        }
        client.ping().unwrap();
    }
    assert_eq!(client.stats("igf").unwrap().build_misses(), 0);
    handle.shutdown();
}
