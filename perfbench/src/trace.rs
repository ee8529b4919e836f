//! The benchmark's own span recorder. Spans are taken around the public
//! calls the benchmark makes into each layer, kept in memory, and written
//! out once when the run ends. A disabled recorder only runs the closure.

use std::fmt::Write as _;
use std::time::Instant;

use crate::util::Samples;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the enclosing span, when one was open.
    pub parent: Option<usize>,
    /// The benchmark operation the span belongs to.
    pub op: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// A span opened by [`Tracer::begin`].
#[must_use = "close the span with Tracer::end"]
pub struct Open {
    id: Option<usize>,
    start_us: f64,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    op: u64,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            t0: Instant::now(),
            op: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Start a new operation: spans opened from now on carry a fresh id.
    pub fn next_op(&mut self) -> u64 {
        self.op += 1;
        self.op
    }

    fn now_us(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e6
    }

    /// Open a span; close it with [`Tracer::end`]. A disabled recorder
    /// keeps no span but still times the interval.
    pub fn begin(&mut self, name: &'static str) -> Open {
        let start_us = self.now_us();
        if !self.enabled {
            return Open { id: None, start_us };
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_us,
            end_us: f64::NAN,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(id);
        Open {
            id: Some(id),
            start_us,
        }
    }

    /// Close `open`; returns its duration (ms).
    pub fn end(&mut self, open: Open) -> f64 {
        let end_us = self.now_us();
        if let Some(id) = open.id {
            self.spans[id].end_us = end_us;
            self.stack.retain(|&s| s != id);
        }
        (end_us - open.start_us) / 1e3
    }

    /// Run `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.timed(name, f).0
    }

    /// Run `f` inside a span named `name`; returns its value and the
    /// span's duration (ms).
    pub fn timed<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let open = self.begin(name);
        let out = f();
        (out, self.end(open))
    }

    /// Durations (ms) of every closed span named `name`.
    pub fn durations(&self, name: &str) -> Samples {
        Samples(
            self.spans
                .iter()
                .filter(|s| s.name == name && s.end_us.is_finite())
                .map(Span::ms)
                .collect(),
        )
    }

    /// Per operation, the summed duration (ms) of the spans named `name`.
    pub fn per_op_totals(&self, name: &str) -> Samples {
        let mut totals: Vec<(u64, f64)> = Vec::new();
        for s in self
            .spans
            .iter()
            .filter(|s| s.name == name && s.end_us.is_finite())
        {
            match totals.iter_mut().find(|(op, _)| *op == s.op) {
                Some((_, t)) => *t += s.ms(),
                None => totals.push((s.op, s.ms())),
            }
        }
        Samples(totals.into_iter().map(|(_, t)| t).collect())
    }

    /// Self time (ms) of span `i`: its duration minus the part its direct
    /// children cover.
    pub fn self_ms(&self, i: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(i) && s.end_us.is_finite())
            .map(Span::ms)
            .sum();
        self.spans[i].ms() - children
    }

    /// Every span as a JSON document (`name`, `start_us`, `end_us`,
    /// `parent`, `op`, `self_ms`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"id\":{i},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1},\"parent\":{parent},\"op\":{},\"self_ms\":{:.4}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.start_us,
                if s.end_us.is_finite() { s.end_us } else { s.start_us },
                s.op,
                if s.end_us.is_finite() { self.self_ms(i) } else { 0.0 },
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_have_parents_and_self_time() {
        let mut t = Tracer::new(true);
        t.next_op();
        let outer = t.begin("outer");
        let ((), inner_ms) = t.timed("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let outer_ms = t.end(outer);
        assert!(inner_ms >= 2.0 && outer_ms >= inner_ms);
        assert_eq!(t.spans[1].ms(), inner_ms);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[1].op, 1);
        assert!(t.self_ms(0) < t.spans[0].ms());
        assert_eq!(t.durations("inner").len(), 1);
        assert!(t.to_json().contains("\"parent\":0"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.time("x", || 3), 3);
        let (_, ms) = t.timed("y", || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        assert!(ms >= 1.0);
        assert!(t.spans.is_empty());
    }
}
