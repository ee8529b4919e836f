//! The service: a TCP front-end over warm, persistent [`IslSession`]s.
//!
//! One [`Server`] owns one session per built-in algorithm, created lazily
//! on first request and — when a state directory is configured — backed by
//! a persistent artifact store ([`IslSession::with_persistent_store`]), so
//! a restarted service answers warm: repeated explorations, certifications
//! and format searches are served from disk with **zero** new cone builds,
//! pattern compiles or calibration syntheses (observable through the
//! `stats` op).
//!
//! Concurrency model: each client connection gets a reader thread that
//! decodes request lines and enqueues jobs; a single dispatcher drains the
//! queue in admission batches, fanning each batch through the session's
//! batch surface ([`IslSession::explore_many`] /
//! [`IslSession::verify_many`]) onto the shared worker pool. Two clients
//! racing on the same artifact trigger exactly one compute (the store's
//! single-flight builds). The persistent stores are checkpointed *before*
//! the replies go out, so every answered request is durable: a `kill -9`
//! right after a response still restarts warm, losing at most requests
//! that never saw an answer.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write as _};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use isl_hls::algorithms;
use isl_hls::dse::DesignSpace;
use isl_hls::estimate::Architecture;
use isl_hls::fpga::Device;
use isl_hls::ir::Window;
use isl_hls::sim::{synthetic, FrameSet};
use isl_hls::{
    ArchitectureCertificate, ErrorBudget, ExploreRequest, FormatSearchOutcome, IslSession,
    StoreStats, VerifyRequest,
};

use crate::protocol::{err_line, ok_line, Op, Request, MAX_REQUEST_LINE};

/// Configuration of one [`Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Address to bind (`127.0.0.1:0` picks a free loopback port).
    pub addr: String,
    /// Directory of the per-algorithm persistent store files
    /// (`<algo>.islstore`). `None` serves from memory only.
    pub state_dir: Option<PathBuf>,
    /// Per-request deadline: a request still unanswered after this long
    /// gets an error response (the computation itself is not cancelled —
    /// its artifact lands in the store for the retry).
    pub request_timeout: Duration,
    /// How long the dispatcher waits for more requests to coalesce into
    /// one admission batch after the first arrives.
    pub batch_window: Duration,
    /// Worker threads per session (0 = one per core).
    pub threads: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            state_dir: None,
            request_timeout: Duration::from_secs(120),
            batch_window: Duration::from_millis(5),
            threads: 0,
        }
    }
}

/// One queued request with its reply slot.
struct Job {
    request: Request,
    reply: mpsc::Sender<String>,
}

struct ServiceState {
    cfg: ServeConfig,
    addr: SocketAddr,
    sessions: Mutex<HashMap<String, IslSession>>,
    shutdown: AtomicBool,
}

impl ServiceState {
    /// Checkpoint `algo`'s persistent store (a no-op without one, or when
    /// nothing is dirty). Called before replies are sent, so any answered
    /// request is already durable — `kill -9` after a response restarts
    /// warm.
    fn checkpoint(&self, algo: &str) {
        if let Ok(session) = self.session_for(algo) {
            if let Err(e) = session.checkpoint() {
                eprintln!("isl-served: checkpoint {algo}: {e}");
            }
        }
    }

    /// The (shared, warm) session of `algo`, created on first use.
    fn session_for(&self, algo: &str) -> Result<IslSession, String> {
        let mut sessions = self.sessions.lock().expect("session map");
        if let Some(s) = sessions.get(algo) {
            return Ok(s.clone());
        }
        let def = algorithms::all()
            .into_iter()
            .find(|a| a.name == algo)
            .ok_or_else(|| {
                let known: Vec<&str> = algorithms::all().iter().map(|a| a.name).collect();
                format!("unknown algorithm {algo:?} (known: {})", known.join(", "))
            })?;
        let mut session = IslSession::from_algorithm(&def)
            .map_err(|e| format!("compile {algo}: {e}"))?
            .with_threads(self.cfg.threads);
        if let Some(dir) = &self.cfg.state_dir {
            std::fs::create_dir_all(dir).map_err(|e| format!("state dir: {e}"))?;
            session = session
                .with_persistent_store(dir.join(format!("{algo}.islstore")))
                .map_err(|e| format!("open store for {algo}: {e}"))?;
        }
        sessions.insert(algo.to_string(), session.clone());
        Ok(session)
    }

    fn device_for(name: &str) -> Result<Device, String> {
        match name {
            "virtex6" => Ok(Device::virtex6_xc6vlx760()),
            "virtex2pro" => Ok(Device::virtex2_pro_xc2vp30()),
            "small" => Ok(Device::small_multimedia()),
            other => Err(format!(
                "unknown device {other:?} (known: virtex6, virtex2pro, small)"
            )),
        }
    }

    /// Deterministic init frames: one noise frame per pattern field, so
    /// the same `(algo, width, height, seed)` always certifies the same
    /// run — across clients and across process restarts.
    fn init_frames(session: &IslSession, req: &Request) -> FrameSet {
        let fields = session.pattern().fields().len();
        FrameSet::from_frames(
            (0..fields)
                .map(|i| {
                    synthetic::noise(
                        req.width as usize,
                        req.height as usize,
                        req.seed ^ ((i as u64) << 32),
                    )
                })
                .collect(),
        )
        .expect("congruent noise frames")
    }
}

// ---------------------------------------------------------------------------
// Result JSON.
// ---------------------------------------------------------------------------

fn explore_json(explored: &isl_hls::Explored) -> String {
    let mut s = String::with_capacity(160);
    let _ = write!(
        s,
        "{{\"points\":{},\"pareto\":{}",
        explored.points().len(),
        explored.pareto().len()
    );
    if let Some(best) = explored.fastest() {
        let _ = write!(
            s,
            ",\"fastest\":{{\"window\":{},\"depth\":{},\"cores\":{},\"fps\":{},\"estimated_luts\":{}}}",
            best.arch.window.w, best.arch.depth, best.arch.cores, best.fps, best.estimated_luts
        );
    }
    s.push('}');
    s
}

fn certificate_json(cert: &ArchitectureCertificate) -> String {
    format!(
        "{{\"window\":{},\"depth\":{},\"cores\":{},\"format_width\":{},\"format_frac\":{},\
         \"quantized_elements\":{},\"vector_records\":{},\"vector_words\":{},\
         \"max_fixed_error\":{},\"max_quant_error\":{}}}",
        cert.arch.window.w,
        cert.arch.depth,
        cert.arch.cores,
        cert.format.width,
        cert.format.frac,
        cert.quantized_elements,
        cert.vector_records,
        cert.vector_words,
        cert.max_fixed_error,
        cert.max_quant_error,
    )
}

fn search_json(outcome: &FormatSearchOutcome) -> String {
    format!(
        "{{\"chosen_width\":{},\"chosen_frac\":{},\"default_width\":{},\"default_frac\":{},\
         \"default_area_luts\":{},\"chosen_area_luts\":{},\"probes\":{},\
         \"certificate\":{}}}",
        outcome.chosen.width,
        outcome.chosen.frac,
        outcome.default_format.width,
        outcome.default_format.frac,
        outcome.default_area_luts,
        outcome.chosen_area_luts,
        outcome.probes.len(),
        certificate_json(&outcome.certificate),
    )
}

fn stats_json(stats: &StoreStats) -> String {
    let mut s = String::with_capacity(360);
    s.push('{');
    for (name, cs) in stats.rows() {
        let _ = write!(s, "\"{name}\":{{\"hits\":{},\"misses\":{}}},", cs.hits, cs.misses);
    }
    let _ = write!(
        s,
        "\"disk\":{{\"hits\":{},\"misses\":{},\"corrupt\":{},\"bytes\":{}}},\
         \"total_hits\":{},\"total_misses\":{}}}",
        stats.disk_hits,
        stats.disk_misses,
        stats.load_skipped_corrupt,
        stats.bytes_on_disk,
        stats.total_hits(),
        stats.total_misses(),
    );
    s
}

// ---------------------------------------------------------------------------
// Dispatcher: admission batching onto the session batch surface.
// ---------------------------------------------------------------------------

fn dispatch_loop(state: &ServiceState, rx: &mpsc::Receiver<Job>) {
    while let Ok(first) = rx.recv() {
        let mut batch = vec![first];
        let deadline = Instant::now() + state.cfg.batch_window;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match rx.recv_timeout(left) {
                Ok(job) => batch.push(job),
                Err(_) => break,
            }
        }
        process_batch(state, batch);
    }
}

fn process_batch(state: &ServiceState, batch: Vec<Job>) {
    let _span = isl_telemetry::span!("serve", "batch of {}", batch.len());
    isl_telemetry::add("serve.batches", 1);
    isl_telemetry::add("serve.requests", batch.len() as u64);

    let mut explores: Vec<Job> = Vec::new();
    let mut certifies: Vec<Job> = Vec::new();
    let mut searches: Vec<Job> = Vec::new();
    for job in batch {
        match job.request.op {
            Op::Explore => explores.push(job),
            Op::Certify => certifies.push(job),
            Op::SearchFormat => searches.push(job),
            // Ping/stats/shutdown are answered in the connection thread
            // and never reach the queue; anything else is a bug upstream.
            other => {
                let id = job.request.id;
                let _ = job
                    .reply
                    .send(err_line(id, &format!("op {:?} not dispatchable", other.as_str())));
            }
        }
    }

    // Explorations, grouped per algorithm, through explore_many.
    let mut by_algo: HashMap<String, Vec<Job>> = HashMap::new();
    for job in explores {
        by_algo.entry(job.request.algo.clone()).or_default().push(job);
    }
    for (algo, jobs) in by_algo {
        let _span = isl_telemetry::span!("serve", "explore x{} {}", jobs.len(), algo);
        let session = match state.session_for(&algo) {
            Ok(s) => s,
            Err(e) => {
                for job in jobs {
                    let _ = job.reply.send(err_line(job.request.id, &e));
                }
                continue;
            }
        };
        let mut prepared = Vec::with_capacity(jobs.len());
        for job in jobs {
            match ServiceState::device_for(&job.request.device) {
                Ok(device) => {
                    let space = DesignSpace::new(
                        1..=job.request.max_side,
                        1..=job.request.max_depth,
                        job.request.max_cores,
                    );
                    prepared.push((job, device, space));
                }
                Err(e) => {
                    let _ = job.reply.send(err_line(job.request.id, &e));
                }
            }
        }
        let requests: Vec<ExploreRequest<'_>> = prepared
            .iter()
            .map(|(job, device, space)| ExploreRequest {
                device,
                workload: session.workload(job.request.width, job.request.height),
                space,
            })
            .collect();
        let results = session.explore_many(&requests);
        state.checkpoint(&algo); // durable before anyone is answered
        for ((job, _, _), result) in prepared.iter().zip(results) {
            let line = match result {
                Ok(explored) => ok_line(job.request.id, &explore_json(&explored)),
                Err(e) => err_line(job.request.id, &e.to_string()),
            };
            let _ = job.reply.send(line);
        }
    }

    // Certifications, grouped per algorithm, through verify_many.
    let mut by_algo: HashMap<String, Vec<Job>> = HashMap::new();
    for job in certifies {
        by_algo.entry(job.request.algo.clone()).or_default().push(job);
    }
    for (algo, jobs) in by_algo {
        let _span = isl_telemetry::span!("serve", "certify x{} {}", jobs.len(), algo);
        let session = match state.session_for(&algo) {
            Ok(s) => s,
            Err(e) => {
                for job in jobs {
                    let _ = job.reply.send(err_line(job.request.id, &e));
                }
                continue;
            }
        };
        let prepared: Vec<(Job, FrameSet, Architecture)> = jobs
            .into_iter()
            .map(|job| {
                let init = ServiceState::init_frames(&session, &job.request);
                let arch = Architecture::new(
                    Window::square(job.request.window),
                    job.request.depth,
                    job.request.cores,
                );
                (job, init, arch)
            })
            .collect();
        let requests: Vec<VerifyRequest<'_>> = prepared
            .iter()
            .map(|(_, init, arch)| VerifyRequest { init, arch: *arch })
            .collect();
        let results = session.verify_many(&requests);
        state.checkpoint(&algo); // durable before anyone is answered
        for ((job, _, _), result) in prepared.iter().zip(results) {
            let line = match result {
                Ok(certified) => ok_line(job.request.id, &certificate_json(certified.certificate())),
                Err(e) => err_line(job.request.id, &e.to_string()),
            };
            let _ = job.reply.send(line);
        }
    }

    // Format searches: individually (each is internally batched and
    // heavily store-served already). Same durability order: the searched
    // outcome and its chosen format's certificate hit disk before the
    // reply.
    for job in searches {
        let _span = isl_telemetry::span!("serve", "search_format {}", job.request.algo);
        let line = match serve_search(state, &job.request) {
            Ok(result) => ok_line(job.request.id, &result),
            Err(e) => err_line(job.request.id, &e),
        };
        state.checkpoint(&job.request.algo);
        let _ = job.reply.send(line);
    }
}

fn serve_search(state: &ServiceState, req: &Request) -> Result<String, String> {
    let session = state.session_for(&req.algo)?;
    let device = ServiceState::device_for(&req.device)?;
    let init = ServiceState::init_frames(&session, req);
    let arch = Architecture::new(Window::square(req.window), req.depth, req.cores);
    let mut budget = ErrorBudget::max_abs(req.max_abs).with_max_width(req.max_width);
    if req.rms.is_finite() {
        budget = budget.with_rms(req.rms);
    }
    let searched = session
        .search_format(&device, &init, arch, budget)
        .map_err(|e| e.to_string())?;
    Ok(search_json(searched.outcome()))
}

// ---------------------------------------------------------------------------
// Connection handling.
// ---------------------------------------------------------------------------

fn handle_request(state: &Arc<ServiceState>, jobs: &mpsc::Sender<Job>, line: &str) -> String {
    let request = match Request::from_line(line) {
        Ok(r) => r,
        Err(e) => return err_line(0, &e),
    };
    let id = request.id;
    if let Err(e) = request.check_limits() {
        return err_line(id, &e);
    }
    match request.op {
        // Control-plane ops are answered inline — stats must not queue
        // behind a long exploration to be useful as liveness evidence.
        Op::Ping => ok_line(id, "\"pong\""),
        Op::Stats => match state.session_for(&request.algo) {
            Ok(session) => ok_line(id, &stats_json(&session.store_stats())),
            Err(e) => err_line(id, &e),
        },
        Op::Shutdown => {
            state.shutdown.store(true, Ordering::SeqCst);
            // The acceptor blocks in accept(); a throwaway connection wakes
            // it so a wire shutdown actually terminates the process.
            let _ = TcpStream::connect(state.addr);
            ok_line(id, "\"shutting down\"")
        }
        Op::Explore | Op::Certify | Op::SearchFormat => {
            let (tx, rx) = mpsc::channel();
            if jobs.send(Job { request, reply: tx }).is_err() {
                return err_line(id, "service is shutting down");
            }
            match rx.recv_timeout(state.cfg.request_timeout) {
                Ok(response) => response,
                Err(_) => {
                    isl_telemetry::add("serve.timeouts", 1);
                    err_line(id, "request timed out (the artifact may still land in the store)")
                }
            }
        }
    }
}

/// Read and discard what a refused client is still sending: a socket
/// closed with unread input resets the connection, which can cost the
/// client the `err` line. Stops when the client closes or pauses for a
/// read timeout, and after 16 MiB or 2 s at most, so that a slow-drip
/// client cannot hold the thread.
fn drain(reader: &mut impl Read) {
    let deadline = Instant::now() + Duration::from_secs(2);
    let mut left = 16u64 << 20;
    let mut buf = [0u8; 16 * 1024];
    while left > 0 && Instant::now() < deadline {
        match reader.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => left = left.saturating_sub(n as u64),
        }
    }
}

fn handle_client(state: Arc<ServiceState>, jobs: mpsc::Sender<Job>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    loop {
        // Never buffer more than one maximal line, however long the
        // client's line is.
        let room = MAX_REQUEST_LINE - line.len() as u64;
        match (&mut reader).take(room).read_until(b'\n', &mut line) {
            Ok(_) if line.len() as u64 == MAX_REQUEST_LINE && line.last() != Some(&b'\n') => {
                let refusal =
                    err_line(0, &format!("request line longer than {MAX_REQUEST_LINE} bytes"));
                let _ = writer.write_all(format!("{refusal}\n").as_bytes());
                let _ = writer.shutdown(Shutdown::Write);
                drain(&mut reader);
                break;
            }
            Ok(0) => break,
            Ok(_) => {
                let response = match std::str::from_utf8(&line).map(str::trim) {
                    Ok("") => None,
                    Ok(request) => Some(handle_request(&state, &jobs, request)),
                    Err(_) => Some(err_line(0, "request line is not UTF-8")),
                };
                if let Some(response) = response {
                    if writer
                        .write_all(response.as_bytes())
                        .and_then(|()| writer.write_all(b"\n"))
                        .is_err()
                    {
                        break;
                    }
                }
                line.clear();
                if state.shutdown.load(Ordering::SeqCst) {
                    break;
                }
            }
            // Read timeout: poll the shutdown flag, keep any partial line.
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if state.shutdown.load(Ordering::SeqCst) {
                    break;
                }
            }
            Err(_) => break,
        }
    }
}

// ---------------------------------------------------------------------------
// The server.
// ---------------------------------------------------------------------------

/// The `isl-served` service. [`Server::start`] binds, spawns the acceptor
/// and dispatcher, and returns a [`ServerHandle`].
pub struct Server;

impl Server {
    /// Start serving `cfg`. Returns once the listener is bound — requests
    /// can be sent immediately.
    ///
    /// # Errors
    ///
    /// [`std::io::Error`] when the address cannot be bound.
    pub fn start(cfg: ServeConfig) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let state = Arc::new(ServiceState {
            cfg,
            addr,
            sessions: Mutex::new(HashMap::new()),
            shutdown: AtomicBool::new(false),
        });
        let (jobs_tx, jobs_rx) = mpsc::channel::<Job>();

        let dispatch_state = Arc::clone(&state);
        let dispatch = std::thread::spawn(move || dispatch_loop(&dispatch_state, &jobs_rx));

        let accept_state = Arc::clone(&state);
        let accept = std::thread::spawn(move || {
            let mut clients: Vec<JoinHandle<()>> = Vec::new();
            for stream in listener.incoming() {
                if accept_state.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                if let Ok(stream) = stream {
                    let state = Arc::clone(&accept_state);
                    let jobs = jobs_tx.clone();
                    clients.push(std::thread::spawn(move || handle_client(state, jobs, stream)));
                }
            }
            drop(jobs_tx); // dispatcher exits once the last client is done
            for client in clients {
                let _ = client.join();
            }
        });

        Ok(ServerHandle {
            addr,
            state,
            accept: Some(accept),
            dispatch: Some(dispatch),
        })
    }
}

/// Handle of a running [`Server`]: the bound address plus graceful
/// shutdown. A remote `shutdown` op stops the service too; [`ServerHandle::join`]
/// then reaps it.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServiceState>,
    accept: Option<JoinHandle<()>>,
    dispatch: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves `:0` to the picked port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Request shutdown and wait for the service to drain: stops
    /// accepting, lets in-flight requests finish, then flushes every
    /// persistent store. Idempotent with a remote `shutdown` op.
    pub fn shutdown(mut self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        self.reap();
    }

    /// Wait for the service to stop (e.g. after a remote `shutdown` op)
    /// and flush every persistent store.
    pub fn join(mut self) {
        self.reap();
    }

    fn reap(&mut self) {
        // Wake the acceptor out of its blocking accept.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        if let Some(t) = self.dispatch.take() {
            let _ = t.join();
        }
        let sessions = self.state.sessions.lock().expect("session map");
        for (algo, session) in sessions.iter() {
            if let Err(e) = session.checkpoint() {
                eprintln!("isl-served: final checkpoint {algo}: {e}");
            }
        }
    }
}

impl Drop for ServerHandle {
    /// Dropping the handle shuts the service down gracefully (tests and
    /// panics don't leave threads accepting forever).
    fn drop(&mut self) {
        if self.accept.is_some() || self.dispatch.is_some() {
            self.state.shutdown.store(true, Ordering::SeqCst);
            self.reap();
        }
    }
}
