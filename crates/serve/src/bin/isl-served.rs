//! `isl-served` — the HLS service's command line.
//!
//! ```text
//! isl-served serve [--addr 127.0.0.1:7878] [--state-dir DIR]
//!                  [--timeout-ms 120000] [--batch-ms 5] [--threads N]
//! isl-served call  --addr HOST:PORT --op OP [--algo NAME] [--device NAME]
//!                  [--width W] [--height H] [--seed S]
//!                  [--max-side N] [--max-depth N] [--max-cores N]
//!                  [--window N] [--depth N] [--cores N]
//!                  [--max-abs X] [--rms X] [--max-width N]
//!                  [--timeout-ms 300000]
//! ```
//!
//! * `serve` — run the service in the foreground until a client sends the
//!   `shutdown` op (or the process is killed; persistent stores are
//!   checkpointed after every batch, so even `kill -9` answers warm after
//!   a restart).
//! * `call` — one request against a running service; prints the response
//!   line's `result` JSON to stdout and exits non-zero on any error. Ops:
//!   `ping`, `stats`, `explore`, `certify`, `search_format`, `shutdown`.
//!
//! Every option takes a value. An option the subcommand does not list
//! above, an option without a value or given twice, and a stray argument
//! print the usage and exit non-zero.

#![forbid(unsafe_code)]

use std::process::ExitCode;
use std::time::Duration;

use isl_serve::protocol::value_to_json;
use isl_serve::{Client, Op, Request, ServeConfig, Server};

const USAGE: &str = "usage:\n  isl-served serve [--addr A] [--state-dir D] [--timeout-ms N] [--batch-ms N] [--threads N]\n  isl-served call --addr A --op OP [request flags] [--timeout-ms N]";

/// Each subcommand, one a line, with the options its doc block lists.
const COMMANDS: &str = "serve --addr --state-dir --timeout-ms --batch-ms --threads
call --addr --op --algo --device --width --height --seed --max-side --max-depth --max-cores \
--window --depth --cores --max-abs --rms --max-width --timeout-ms";

fn arg_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn parse_u64(args: &[String], name: &str, default: u64) -> Result<u64, String> {
    match arg_value(args, name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|e| format!("bad {name} `{v}`: {e}")),
    }
}

fn parse_f64(args: &[String], name: &str, default: f64) -> Result<f64, String> {
    match arg_value(args, name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|e| format!("bad {name} `{v}`: {e}")),
    }
}

/// A checked command line.
enum Command {
    Serve(ServeConfig),
    Call {
        addr: String,
        request: Request,
        timeout: Duration,
    },
}

/// Refuse what the subcommand would otherwise ignore — an option its doc
/// block does not list, an option without a value or given twice, and a
/// positional argument — then read the options.
fn parse_args(argv: &[String]) -> Result<Command, String> {
    let (cmd, args) = argv.split_first().ok_or("no command given")?;
    let known: Vec<&str> = COMMANDS
        .lines()
        .map(|line| line.split(' ').collect::<Vec<_>>())
        .find(|words| words[0] == cmd)
        .ok_or_else(|| format!("unknown command `{cmd}`"))?;
    let mut seen = Vec::new();
    let mut words = args.iter();
    while let Some(arg) = words.next() {
        if !arg.starts_with("--") {
            return Err(format!("`{cmd}` takes no argument `{arg}`"));
        } else if !known[1..].contains(&arg.as_str()) {
            return Err(format!("`{cmd}` has no option `{arg}`"));
        } else if seen.contains(&arg) {
            return Err(format!("option `{arg}` given twice"));
        } else if words.next().is_none_or(|value| value.starts_with("--")) {
            return Err(format!("option `{arg}` needs a value"));
        }
        seen.push(arg);
    }
    if cmd == "serve" {
        return Ok(Command::Serve(ServeConfig {
            addr: arg_value(args, "--addr").unwrap_or_else(|| "127.0.0.1:7878".into()),
            state_dir: arg_value(args, "--state-dir").map(Into::into),
            request_timeout: Duration::from_millis(parse_u64(args, "--timeout-ms", 120_000)?),
            batch_window: Duration::from_millis(parse_u64(args, "--batch-ms", 5)?),
            threads: parse_u64(args, "--threads", 0)? as usize,
        }));
    }
    let addr = arg_value(args, "--addr").ok_or("call needs --addr HOST:PORT")?;
    let op = arg_value(args, "--op").ok_or("call needs --op")?;
    let op = Op::parse(&op).ok_or_else(|| format!("unknown op `{op}`"))?;
    let d = Request::default();
    let request = Request {
        id: 0, // assigned by the client
        op,
        algo: arg_value(args, "--algo").unwrap_or(d.algo),
        device: arg_value(args, "--device").unwrap_or(d.device),
        width: parse_u64(args, "--width", u64::from(d.width))? as u32,
        height: parse_u64(args, "--height", u64::from(d.height))? as u32,
        seed: parse_u64(args, "--seed", d.seed)?,
        max_side: parse_u64(args, "--max-side", u64::from(d.max_side))? as u32,
        max_depth: parse_u64(args, "--max-depth", u64::from(d.max_depth))? as u32,
        max_cores: parse_u64(args, "--max-cores", u64::from(d.max_cores))? as u32,
        window: parse_u64(args, "--window", u64::from(d.window))? as u32,
        depth: parse_u64(args, "--depth", u64::from(d.depth))? as u32,
        cores: parse_u64(args, "--cores", u64::from(d.cores))? as u32,
        max_abs: parse_f64(args, "--max-abs", d.max_abs)?,
        rms: parse_f64(args, "--rms", d.rms)?,
        max_width: parse_u64(args, "--max-width", u64::from(d.max_width))? as u32,
    };
    let timeout = Duration::from_millis(parse_u64(args, "--timeout-ms", 300_000)?);
    Ok(Command::Call {
        addr,
        request,
        timeout,
    })
}

fn serve(cfg: ServeConfig) -> Result<(), String> {
    let state = cfg
        .state_dir
        .as_ref()
        .map_or("memory only".to_string(), |d| d.display().to_string());
    let handle = Server::start(cfg).map_err(|e| format!("bind: {e}"))?;
    println!("isl-served listening on {} (state: {state})", handle.addr());
    handle.join(); // until a client sends the shutdown op
    println!("isl-served: drained and flushed, bye");
    Ok(())
}

fn call(addr: &str, request: Request, timeout: Duration) -> Result<(), String> {
    let mut client = Client::connect(addr)
        .map_err(|e| format!("connect {addr}: {e}"))?
        .with_timeout(timeout)
        .map_err(|e| format!("timeout: {e}"))?;
    let value = client.request(request).map_err(|e| e.to_string())?;
    println!("{}", value_to_json(&value));
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse_args(&args) {
        Ok(command) => command,
        Err(e) => {
            eprintln!("isl-served: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match command {
        Command::Serve(cfg) => serve(cfg),
        Command::Call {
            addr,
            request,
            timeout,
        } => call(&addr, request, timeout),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("isl-served: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{parse_args, Command};

    fn parse(line: &str) -> Result<Command, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&args)
    }

    #[test]
    fn unknown_options_and_stray_arguments_are_refused() {
        // The first two once ran on defaults and exited 0.
        for line in [
            "call --addr a:1 --op ping --bogus 1",
            "call --addr a:1 --op explore --max-sides 100",
            "serve --batch-ms 5 --rms 1",
            "call --addr a:1 --op ping --seed",
            "call --addr a:1 --op ping --seed --width 4",
            "call --addr a:1 --addr b:2 --op ping",
            "serve extra",
            "call --addr a:1 ping",
            "status",
            "",
        ] {
            assert!(parse(line).is_err(), "`{line}` was accepted");
        }
        let Ok(Command::Call {
            request, timeout, ..
        }) = parse("call --addr a:1 --op search_format --rms 0.5 --timeout-ms 10")
        else {
            panic!("a listed call was refused");
        };
        assert_eq!((request.rms, timeout.as_millis()), (0.5, 10));
    }

    #[test]
    fn ci_command_lines_are_accepted() {
        let ci = include_str!("../../../../.github/workflows/ci.yml").replace("\\\n", " ");
        let lines: Vec<&str> = ci
            .lines()
            .filter_map(|line| line.split_once("/isl-served "))
            .map(|(_, args)| args.trim_end_matches([' ', '&', ')']))
            .collect();
        assert!(lines.len() >= 10, "{lines:?}");
        for line in lines {
            parse(line).unwrap_or_else(|e| panic!("`{line}` refused: {e}"));
        }
    }
}
