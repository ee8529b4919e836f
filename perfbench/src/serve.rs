//! An in-process `isl_serve::Server` with the shipped `ServeConfig`
//! defaults and a fresh state directory, driven by two client threads in a
//! closed loop through a seeded schedule with a fixed request count.
//!
//! The schedule is served in segments of `SEGMENT` steps, each on a freshly
//! started server, so the store a miss checkpoints grows over one segment
//! only and the misses of every segment, spread over the run, are alike.
//!
//! The two clients run in lockstep: before each step both wait on a
//! barrier, then each sends one request and waits for its reply, so the
//! two requests of a step share one admission batch. The schedule fixes
//! the collision pattern: a step is either two hits (explore, certify or
//! search_format on keys warmed when the server started) or two misses
//! (certify on fresh seeds), never a hit next to a miss, so hit latency
//! stays one population. Each miss computes, grows the persistent store
//! and checkpoints it before the reply.

use std::collections::BTreeMap;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use isl_hls::algorithms::Algorithm;
use isl_hls::isl_telemetry::json::Value;
use isl_hls::prelude::*;
use isl_hls::sim::synthetic;
use isl_serve::{Client, Op, Request, ServeConfig, Server, ServerHandle};

use crate::util::{secs, Rng};

/// Steps of the schedule (two requests each).
pub const STEPS: usize = 150;
/// Steps served by one server.
pub const SEGMENT: usize = 30;
/// Two-miss steps per segment.
pub const SEGMENT_MISS_STEPS: usize = 5;
/// Frame size of certify / search keys.
pub const KEY_W: u32 = 24;
pub const KEY_H: u32 = 18;
/// Frame size of the explore key.
pub const EXPLORE_W: u32 = 64;
pub const EXPLORE_H: u32 = 48;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hit {
    Explore,
    Certify,
    Search,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    Hits([Hit; 2]),
    /// Fresh certify seeds.
    Misses([u64; 2]),
}

/// The warm keys and the step sequence of one run.
#[derive(Debug, Clone)]
pub struct Schedule {
    pub algo: &'static str,
    pub warm_seed: u64,
    pub steps: Vec<Step>,
}

fn keyed(algo: &str, op: Op, seed: u64) -> Request {
    Request {
        op,
        algo: algo.into(),
        width: KEY_W,
        height: KEY_H,
        seed,
        window: 4,
        depth: 2,
        cores: 2,
        ..Request::default()
    }
}

impl Schedule {
    /// The seeded schedule: `SEGMENT_MISS_STEPS` two-miss steps at seeded
    /// positions in each segment, hit kinds drawn per request, all seeds
    /// distinct.
    pub fn new(algo: &'static str, seed: u64) -> Self {
        let mut rng = Rng::stream(seed, "serve-schedule");
        let mut used = std::collections::BTreeSet::new();
        let mut fresh = |rng: &mut Rng| loop {
            let s = rng.next_u64() >> 16;
            if used.insert(s) {
                return s;
            }
        };
        let warm_seed = fresh(&mut rng);
        let mut is_miss = vec![false; STEPS];
        for segment in is_miss.chunks_mut(SEGMENT) {
            let mut placed = 0;
            while placed < SEGMENT_MISS_STEPS {
                let i = rng.below(SEGMENT as u64) as usize;
                if !segment[i] {
                    segment[i] = true;
                    placed += 1;
                }
            }
        }
        let hit = |rng: &mut Rng| [Hit::Explore, Hit::Certify, Hit::Search][rng.below(3) as usize];
        let steps = is_miss
            .into_iter()
            .map(|m| {
                if m {
                    Step::Misses([fresh(&mut rng), fresh(&mut rng)])
                } else {
                    Step::Hits([hit(&mut rng), hit(&mut rng)])
                }
            })
            .collect();
        Schedule {
            algo,
            warm_seed,
            steps,
        }
    }

    pub fn hit_request(&self, hit: Hit) -> Request {
        match hit {
            Hit::Explore => Request {
                op: Op::Explore,
                algo: self.algo.into(),
                width: EXPLORE_W,
                height: EXPLORE_H,
                ..Request::default()
            },
            Hit::Certify => keyed(self.algo, Op::Certify, self.warm_seed),
            Hit::Search => keyed(self.algo, Op::SearchFormat, self.warm_seed),
        }
    }

    pub fn request(&self, step: usize, client: usize) -> Request {
        match self.steps[step] {
            Step::Hits(h) => self.hit_request(h[client]),
            Step::Misses(s) => keyed(self.algo, Op::Certify, s[client]),
        }
    }

    pub fn is_miss(&self, step: usize) -> bool {
        matches!(self.steps[step], Step::Misses(_))
    }

    /// `steps` cut into maximal stretches of hit steps and of miss steps.
    pub fn stretches(&self, steps: Range<usize>) -> Vec<Range<usize>> {
        let mut out: Vec<Range<usize>> = Vec::new();
        for i in steps {
            match out.last_mut() {
                Some(r) if self.is_miss(r.start) == self.is_miss(i) => r.end = i + 1,
                _ => out.push(i..i + 1),
            }
        }
        out
    }

    /// Scheduled hits of one kind over `steps`.
    pub fn hits(&self, kind: Hit, steps: Range<usize>) -> usize {
        self.steps[steps]
            .iter()
            .map(|s| match s {
                Step::Hits(h) => h.iter().filter(|&&k| k == kind).count(),
                Step::Misses(_) => 0,
            })
            .sum()
    }
}

/// One answered request.
#[derive(Debug, Clone)]
pub struct Reply {
    pub step: usize,
    pub client: usize,
    pub ms: f64,
    pub result: Result<Value, String>,
}

/// A running server with its two connected clients.
pub struct Rig {
    handle: Option<ServerHandle>,
    clients: Vec<Client>,
    pub dir: PathBuf,
    /// `stats` after the warm-up.
    pub base: Value,
}

fn connect(handle: &ServerHandle) -> Result<Client, String> {
    Client::connect(handle.addr())
        .and_then(|c| c.with_timeout(Duration::from_secs(120)))
        .map_err(|e| format!("connect: {e}"))
}

impl Rig {
    /// Start a server on a fresh state directory, connect both clients and
    /// warm the three hit keys. `base` holds the store counters after it.
    pub fn start(dir: &Path, sched: &Schedule) -> Result<Rig, String> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("state dir: {e}"))?;
        let handle = Server::start(ServeConfig {
            state_dir: Some(dir.to_path_buf()),
            threads: crate::THREADS,
            ..ServeConfig::default()
        })
        .map_err(|e| format!("server start: {e}"))?;
        let clients = vec![connect(&handle)?, connect(&handle)?];
        let mut rig = Rig {
            handle: Some(handle),
            clients,
            dir: dir.to_path_buf(),
            base: Value::Null,
        };
        for hit in [Hit::Explore, Hit::Certify, Hit::Search] {
            rig.clients[0]
                .request(sched.hit_request(hit))
                .map_err(|e| format!("warm-up {hit:?}: {e}"))?;
        }
        rig.base = rig.stats(sched.algo)?;
        Ok(rig)
    }

    pub fn stats(&mut self, algo: &str) -> Result<Value, String> {
        self.clients[0]
            .request(Request {
                op: Op::Stats,
                algo: algo.into(),
                ..Request::default()
            })
            .map_err(|e| format!("stats: {e}"))
    }

    /// Round trips of `n` pings (inline, no admission batch), ms.
    pub fn pings(&mut self, n: usize) -> Vec<f64> {
        (0..n)
            .filter_map(|_| {
                let t0 = Instant::now();
                self.clients[0].ping().ok().map(|()| secs(t0) * 1e3)
            })
            .collect()
    }

    /// Run `steps` of the schedule in lockstep on both clients.
    pub fn run(&mut self, sched: &Schedule, steps: Range<usize>) -> Vec<Reply> {
        let barrier = Barrier::new(self.clients.len());
        std::thread::scope(|s| {
            let threads: Vec<_> = self
                .clients
                .iter_mut()
                .enumerate()
                .map(|(ci, client)| {
                    let (barrier, steps) = (&barrier, steps.clone());
                    s.spawn(move || {
                        let mut out = Vec::with_capacity(steps.len());
                        for step in steps {
                            let request = sched.request(step, ci);
                            barrier.wait();
                            let t0 = Instant::now();
                            let result = client.request(request).map_err(|e| e.to_string());
                            out.push(Reply {
                                step,
                                client: ci,
                                ms: secs(t0) * 1e3,
                                result,
                            });
                        }
                        out
                    })
                })
                .collect();
            threads
                .into_iter()
                .flat_map(|t| t.join().expect("client thread panicked"))
                .collect()
        })
    }

    /// The persistent store file of `algo`.
    pub fn store_file(&self, algo: &str) -> PathBuf {
        self.dir.join(format!("{algo}.islstore"))
    }

    /// Close the clients, shut the server down (drain + flush) and remove
    /// its state directory.
    pub fn stop(mut self) {
        self.clients.clear();
        if let Some(h) = self.handle.take() {
            h.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn counter(stats: &Value, cache: &str, field: &str) -> i64 {
    stats
        .get(cache)
        .and_then(|c| c.get(field))
        .and_then(Value::as_num)
        .map_or(-1, |n| n as i64)
}

/// The store counters over `steps` (one server's segment) must match the
/// schedule exactly: one certificate built per miss, one certificate /
/// search / calibration hit per scheduled hit of that kind, nothing else
/// built.
pub fn check_stats(
    sched: &Schedule,
    steps: Range<usize>,
    base: &Value,
    last: &Value,
) -> Result<(), String> {
    let delta =
        |cache: &str, field: &str| counter(last, cache, field) - counter(base, cache, field);
    let misses = steps.clone().filter(|&i| sched.is_miss(i)).count();
    let want = [
        ("certificates", "misses", 2 * misses),
        (
            "certificates",
            "hits",
            sched.hits(Hit::Certify, steps.clone()),
        ),
        ("searches", "misses", 0),
        ("searches", "hits", sched.hits(Hit::Search, steps.clone())),
        ("calibrations", "misses", 0),
        ("calibrations", "hits", sched.hits(Hit::Explore, steps)),
    ];
    for (cache, field, n) in want {
        let got = delta(cache, field);
        if got != n as i64 {
            return Err(format!(
                "stats {cache}.{field} moved by {got}, scheduled {n}"
            ));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// The oracle: the in-process session's answer for each key.
// ---------------------------------------------------------------------------

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect::<BTreeMap<_, _>>(),
    )
}

fn n(v: impl Into<f64>) -> Value {
    Value::Num(v.into())
}

fn certificate_value(c: &ArchitectureCertificate) -> Value {
    obj(vec![
        ("window", n(c.arch.window.w)),
        ("depth", n(c.arch.depth)),
        ("cores", n(c.arch.cores)),
        ("format_width", n(c.format.width)),
        ("format_frac", n(c.format.frac)),
        ("quantized_elements", n(c.quantized_elements as f64)),
        ("vector_records", n(c.vector_records as f64)),
        ("vector_words", n(c.vector_words as f64)),
        ("max_fixed_error", n(c.max_fixed_error)),
        ("max_quant_error", n(c.max_quant_error)),
    ])
}

/// The init frames a request names: one noise frame per field, as the
/// protocol defines them.
fn request_frames(session: &IslSession, req: &Request) -> FrameSet {
    FrameSet::from_frames(
        (0..session.pattern().fields().len())
            .map(|i| {
                synthetic::noise(
                    req.width as usize,
                    req.height as usize,
                    req.seed ^ ((i as u64) << 32),
                )
            })
            .collect(),
    )
    .expect("congruent frames")
}

/// The answer an in-process session gives for `req`, as the reply value.
pub fn answer(session: &IslSession, req: &Request) -> Result<Value, String> {
    let e = |e: FlowError| e.to_string();
    let device = Device::virtex6_xc6vlx760();
    let arch = Architecture::new(Window::square(req.window), req.depth, req.cores);
    match req.op {
        Op::Explore => {
            let space = DesignSpace::new(1..=req.max_side, 1..=req.max_depth, req.max_cores);
            let explored = session
                .explore(&device, session.workload(req.width, req.height), &space)
                .map_err(e)?;
            let mut fields = vec![
                ("points", n(explored.points().len() as f64)),
                ("pareto", n(explored.pareto().len() as f64)),
            ];
            if let Some(b) = explored.fastest() {
                fields.push((
                    "fastest",
                    obj(vec![
                        ("window", n(b.arch.window.w)),
                        ("depth", n(b.arch.depth)),
                        ("cores", n(b.arch.cores)),
                        ("fps", n(b.fps)),
                        ("estimated_luts", n(b.estimated_luts)),
                    ]),
                ));
            }
            Ok(obj(fields))
        }
        Op::Certify => {
            let certified = session
                .certify(&request_frames(session, req), arch)
                .map_err(e)?;
            Ok(certificate_value(certified.certificate()))
        }
        Op::SearchFormat => {
            let budget = ErrorBudget::max_abs(req.max_abs).with_max_width(req.max_width);
            let searched = session
                .search_format(&device, &request_frames(session, req), arch, budget)
                .map_err(e)?;
            let o = searched.outcome();
            Ok(obj(vec![
                ("chosen_width", n(o.chosen.width)),
                ("chosen_frac", n(o.chosen.frac)),
                ("default_width", n(o.default_format.width)),
                ("default_frac", n(o.default_format.frac)),
                ("default_area_luts", n(o.default_area_luts as f64)),
                ("chosen_area_luts", n(o.chosen_area_luts as f64)),
                ("probes", n(o.probes.len() as f64)),
                ("certificate", certificate_value(&o.certificate)),
            ]))
        }
        other => Err(format!("no oracle for {other:?}")),
    }
}

/// Check every reply against the in-process answer for its key. Returns
/// the number of failed replies, the first failure, and the in-process
/// compute time (ms) of each miss key.
pub fn verify(
    algo: &Algorithm,
    sched: &Schedule,
    replies: &[Reply],
) -> (usize, Option<String>, Vec<f64>) {
    let mut failed = 0;
    let mut first = None;
    let mut compute = Vec::new();
    let mut fail = |msg: String, failed: &mut usize| {
        *failed += 1;
        if first.is_none() {
            first = Some(msg);
        }
    };
    let session = match IslSession::from_algorithm(algo) {
        Ok(s) => s,
        Err(e) => {
            fail(format!("oracle session: {e}"), &mut failed);
            return (replies.len().max(1), first, compute);
        }
    };
    let mut hits: BTreeMap<u8, Result<Value, String>> = BTreeMap::new();
    for r in replies {
        let req = sched.request(r.step, r.client);
        let want = match sched.steps[r.step] {
            Step::Hits(h) => hits
                .entry(h[r.client] as u8)
                .or_insert_with(|| answer(&session, &req))
                .clone(),
            Step::Misses(_) => {
                let t0 = Instant::now();
                let a = answer(&session, &req);
                compute.push(secs(t0) * 1e3);
                a
            }
        };
        match (&r.result, want) {
            (Ok(got), Ok(want)) if *got == want => {}
            (Ok(got), Ok(want)) => fail(
                format!(
                    "step {} client {}: reply {got:?}, in-process {want:?}",
                    r.step, r.client
                ),
                &mut failed,
            ),
            (Err(e), _) => fail(
                format!("step {} client {}: error reply {e}", r.step, r.client),
                &mut failed,
            ),
            (_, Err(e)) => fail(format!("oracle for step {}: {e}", r.step), &mut failed),
        }
    }
    (failed, first, compute)
}

#[cfg(test)]
mod tests {
    use super::*;
    use isl_hls::algorithms;

    #[test]
    fn schedule_is_seeded_and_fixed() {
        let a = Schedule::new("igf", 5);
        let b = Schedule::new("igf", 5);
        let c = Schedule::new("igf", 6);
        assert_eq!(a.steps, b.steps);
        assert_ne!(a.steps, c.steps);
        for seg in (0..STEPS).step_by(SEGMENT) {
            assert_eq!(
                (seg..seg + SEGMENT).filter(|&i| a.is_miss(i)).count(),
                SEGMENT_MISS_STEPS
            );
        }
        assert_eq!(
            a.hits(Hit::Explore, 0..STEPS)
                + a.hits(Hit::Certify, 0..STEPS)
                + a.hits(Hit::Search, 0..STEPS),
            2 * (STEPS - STEPS / SEGMENT * SEGMENT_MISS_STEPS)
        );
        // Stretches cover the range in order, each one kind, kinds alternating.
        let runs = a.stretches(3..STEPS);
        assert_eq!(runs.first().unwrap().start, 3);
        assert_eq!(runs.last().unwrap().end, STEPS);
        for w in runs.windows(2) {
            assert_eq!(w[0].end, w[1].start);
            assert_ne!(a.is_miss(w[0].start), a.is_miss(w[1].start));
        }
        for r in &runs {
            assert!(r.clone().all(|i| a.is_miss(i) == a.is_miss(r.start)));
        }
    }

    #[test]
    fn oracle_rejects_a_corrupted_reply() {
        let algo = algorithms::gaussian_igf();
        let mut sched = Schedule::new("igf", 9);
        sched.steps.truncate(1);
        sched.steps[0] = Step::Hits([Hit::Certify, Hit::Explore]);
        let session = IslSession::from_algorithm(&algo).unwrap();
        let good: Vec<Reply> = (0..2)
            .map(|client| Reply {
                step: 0,
                client,
                ms: 1.0,
                result: answer(&session, &sched.request(0, client)),
            })
            .collect();
        assert_eq!(verify(&algo, &sched, &good).0, 0);
        let mut bad = good.clone();
        if let Ok(Value::Obj(m)) = &mut bad[0].result {
            m.insert("vector_words".into(), Value::Num(1.0));
        }
        assert_eq!(verify(&algo, &sched, &bad).0, 1);
        let mut refused = good;
        refused[1].result = Err("server error".into());
        assert_eq!(verify(&algo, &sched, &refused).0, 1);
    }

    #[test]
    fn stats_check_rejects_an_extra_build() {
        let mut sched = Schedule::new("igf", 2);
        for s in &mut sched.steps {
            *s = Step::Misses([0, 0]);
        }
        let stats = |cert_misses: f64| {
            obj(["certificates", "searches", "calibrations"]
                .iter()
                .map(|&c| {
                    let m = if c == "certificates" {
                        cert_misses
                    } else {
                        0.0
                    };
                    (c, obj(vec![("hits", n(0.0)), ("misses", n(m))]))
                })
                .collect())
        };
        let base = stats(3.0);
        // Four all-miss steps build eight certificates, no more.
        assert!(check_stats(&sched, 2..6, &base, &stats(11.0)).is_ok());
        assert!(check_stats(&sched, 2..6, &base, &stats(12.0)).is_err());
        assert!(check_stats(&sched, 2..5, &base, &stats(11.0)).is_err());
    }
}
