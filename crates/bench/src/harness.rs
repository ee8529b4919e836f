//! A self-contained benchmark harness with a Criterion-compatible surface.
//!
//! The repository builds fully offline, so the benches cannot depend on the
//! `criterion` crate. This module provides the subset of its API the bench
//! uses — [`Criterion`], [`Bencher::iter`] and benchmark groups — with
//! simple, robust timing: every benchmark is warmed up, batched until a batch
//! lasts long enough for `Instant` noise to be negligible, and reported as
//! the median per-iteration time over several batches.
//!
//! Set `ISL_BENCH_JSON=<path>` to additionally write the results as JSON
//! (used by CI for the perf trajectory), and `ISL_BENCH_FAST=1` to shrink
//! the measurement budget for smoke runs.

use std::fmt::Display;
use std::time::{Duration, Instant};

/// One measured benchmark.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Fully-qualified benchmark name (`group/id`).
    pub name: String,
    /// Median per-iteration wall time, nanoseconds.
    pub median_ns: f64,
    /// Total iterations executed while measuring.
    pub iterations: u64,
}

/// Collects benchmark results (Criterion-style driver).
#[derive(Debug, Default)]
pub struct Criterion {
    results: Vec<Sample>,
}

impl Criterion {
    /// Run one benchmark.
    pub fn bench_function<F>(&mut self, name: impl Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut b = Bencher::default();
        f(&mut b);
        let sample = b.finish(name.to_string());
        println!(
            "bench {:<48} {:>12}/iter ({} iters)",
            sample.name,
            format_ns(sample.median_ns),
            sample.iterations
        );
        self.results.push(sample);
        self
    }

    /// Open a named group; benchmark ids inside it are prefixed `group/`.
    pub fn benchmark_group(&mut self, name: impl Display) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            prefix: name.to_string(),
        }
    }

    /// All results measured so far.
    pub fn results(&self) -> &[Sample] {
        &self.results
    }

    /// Print a closing summary and honour `ISL_BENCH_JSON`.
    pub fn final_summary(&self) {
        println!("\n{} benchmarks measured", self.results.len());
        if let Ok(path) = std::env::var("ISL_BENCH_JSON") {
            if !path.is_empty() {
                match std::fs::write(&path, self.to_json()) {
                    Ok(()) => println!("results written to {path}"),
                    Err(e) => eprintln!("could not write {path}: {e}"),
                }
            }
        }
    }

    /// The results as a JSON document (no external serialiser available).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"benchmarks\": [\n");
        for (i, r) in self.results.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"name\": \"{}\", \"median_ns\": {:.1}, \"iterations\": {}}}{}\n",
                r.name.replace('"', "'"),
                r.median_ns,
                r.iterations,
                if i + 1 < self.results.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }
}

/// A benchmark group (adds a name prefix).
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    prefix: String,
}

impl BenchmarkGroup<'_> {
    /// Run one benchmark inside the group.
    pub fn bench_function<F>(&mut self, id: impl Display, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let name = format!("{}/{}", self.prefix, id);
        self.criterion.bench_function(name, f);
        self
    }

    /// Close the group (no-op; kept for API compatibility).
    pub fn finish(self) {}
}

/// Measures one closure.
#[derive(Debug, Default)]
pub struct Bencher {
    batches: Vec<(Duration, u64)>,
}

impl Bencher {
    /// Measure `f`, keeping its return value alive via [`std::hint::black_box`].
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        let fast = std::env::var("ISL_BENCH_FAST").is_ok_and(|v| v == "1");
        let (budget, min_batches) = if fast {
            (Duration::from_millis(30), 3)
        } else {
            (Duration::from_millis(250), 5)
        };
        // Warm-up and batch-size calibration: grow the batch until it runs
        // for at least ~1/20 of the budget.
        let mut batch: u64 = 1;
        let mut warm;
        loop {
            let t0 = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(f());
            }
            warm = t0.elapsed();
            if warm * 20 >= budget || batch >= 1 << 20 {
                break;
            }
            batch *= 4;
        }
        self.batches.push((warm, batch));
        let start = Instant::now();
        while start.elapsed() < budget || self.batches.len() < min_batches {
            let t0 = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(f());
            }
            self.batches.push((t0.elapsed(), batch));
        }
    }

    fn finish(self, name: String) -> Sample {
        assert!(!self.batches.is_empty(), "Bencher::iter was never called for {name}");
        let mut per_iter: Vec<f64> = self
            .batches
            .iter()
            .map(|(d, n)| d.as_secs_f64() * 1e9 / *n as f64)
            .collect();
        per_iter.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        let median_ns = per_iter[per_iter.len() / 2];
        let iterations = self.batches.iter().map(|(_, n)| n).sum();
        Sample {
            name,
            median_ns,
            iterations,
        }
    }
}

fn format_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_and_reports() {
        // Closures here are cheap, so even the full measurement budget keeps
        // this test fast; no env mutation (racy in a threaded test binary).
        let mut c = Criterion::default();
        c.bench_function("noop_sum", |b| {
            b.iter(|| (0..100u64).sum::<u64>())
        });
        let mut g = c.benchmark_group("grouped");
        g.bench_function("id", |b| b.iter(|| 3u64 * 2));
        g.finish();
        assert_eq!(c.results().len(), 2);
        assert_eq!(c.results()[1].name, "grouped/id");
        assert!(c.results().iter().all(|r| r.median_ns > 0.0));
        let json = c.to_json();
        assert!(json.contains("\"benchmarks\""));
        assert!(json.contains("noop_sum"));
    }
}
