//! The line-oriented JSON wire protocol of `isl-served`.
//!
//! One request per line, one response per line, in order. Requests are
//! JSON objects with an `op` discriminant plus op-specific fields (all
//! optional — [`Request::default`] supplies the defaults); responses are
//! `{"id": …, "ok": true, "result": {…}}` or
//! `{"id": …, "ok": false, "error": "…"}`. Both directions reuse the
//! in-repo JSON support from `isl-telemetry` — no external dependencies.
//!
//! Input is bounded: a request nested deeper than
//! [`isl_telemetry::json::MAX_DEPTH`] or asking for more than the `MAX_*`
//! sizes below is answered with an error line, and a line longer than
//! [`MAX_REQUEST_LINE`] bytes is answered with an error line and closes
//! its connection.
//!
//! ```text
//! → {"op":"explore","id":1,"algo":"igf","width":64,"height":48}
//! ← {"id":1,"ok":true,"result":{"points":12,"pareto":3,"fastest":{…}}}
//! ```

use std::fmt::Write as _;

use isl_telemetry::json::{escape_into, parse, Value};

/// The longest request line the service reads, newline included. The
/// longest valid request is a few hundred bytes.
pub const MAX_REQUEST_LINE: u64 = 64 * 1024;

/// The largest `width × height` a `certify` or `search_format` request may
/// ask for, in elements. Certification records every cone firing of the
/// run: at this size a window-1 depth-1 Chambolle certify already takes
/// ~0.6 s on one worker thread and lifts the service's peak RSS to ~90 MB.
pub const MAX_FRAME_AREA: u64 = 64 * 64;

/// The largest window side: a certified instance's `window` and an
/// exploration's `max_side`.
pub const MAX_WINDOW_SIDE: u32 = 16;

/// The largest cone depth: a certified instance's `depth` and an
/// exploration's `max_depth`.
pub const MAX_CONE_DEPTH: u32 = 10;

/// The largest `max_cores` of an exploration.
pub const MAX_CORES: u32 = 64;

/// The operations the service answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Liveness probe; echoes the id.
    Ping,
    /// Per-algorithm [`isl_hls::StoreStats`] snapshot (the warm-restart
    /// evidence: a warm service answers with zero build misses).
    Stats,
    /// Design-space exploration (stage 4) of one built-in algorithm.
    Explore,
    /// Architecture certification (stage 6) of one explored instance.
    Certify,
    /// Precision format search (stage 7) under a max-abs error budget.
    SearchFormat,
    /// Graceful shutdown: drain in-flight requests, flush every
    /// persistent store, stop accepting.
    Shutdown,
}

impl Op {
    /// Wire name of the op.
    pub fn as_str(self) -> &'static str {
        match self {
            Op::Ping => "ping",
            Op::Stats => "stats",
            Op::Explore => "explore",
            Op::Certify => "certify",
            Op::SearchFormat => "search_format",
            Op::Shutdown => "shutdown",
        }
    }

    /// Parse a wire name.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "ping" => Op::Ping,
            "stats" => Op::Stats,
            "explore" => Op::Explore,
            "certify" => Op::Certify,
            "search_format" => Op::SearchFormat,
            "shutdown" => Op::Shutdown,
            _ => return None,
        })
    }
}

/// One decoded request line. Fields not meaningful for the op are carried
/// at their defaults and ignored by the service.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// The operation.
    pub op: Op,
    /// Built-in algorithm name (`isl_algorithms::all`).
    pub algo: String,
    /// Target device name: `virtex6`, `virtex2pro` or `small`.
    pub device: String,
    /// Frame width of the workload / init frames.
    pub width: u32,
    /// Frame height of the workload / init frames.
    pub height: u32,
    /// Seed of the deterministic init frames (certify / search).
    pub seed: u64,
    /// Largest window side of the explored design space.
    pub max_side: u32,
    /// Largest cone depth of the explored design space.
    pub max_depth: u32,
    /// Largest core count of the explored design space.
    pub max_cores: u32,
    /// Window side of the certified instance (square windows).
    pub window: u32,
    /// Cone depth of the certified instance.
    pub depth: u32,
    /// Core count of the certified instance.
    pub cores: u32,
    /// Max-abs error bound of the format-search budget.
    pub max_abs: f64,
    /// RMS error bound of the budget (`inf` = unbounded).
    pub rms: f64,
    /// Widest word the format search may probe.
    pub max_width: u32,
}

impl Default for Request {
    fn default() -> Self {
        Request {
            id: 0,
            op: Op::Ping,
            algo: "igf".into(),
            device: "virtex6".into(),
            width: 48,
            height: 32,
            seed: 42,
            max_side: 4,
            max_depth: 2,
            max_cores: 4,
            window: 2,
            depth: 1,
            cores: 1,
            max_abs: 1e-3,
            rms: f64::INFINITY,
            max_width: 54,
        }
    }
}

fn num(v: &Value, key: &str) -> Option<f64> {
    v.get(key).and_then(Value::as_num)
}

fn num_u32(v: &Value, key: &str, default: u32) -> u32 {
    num(v, key).map_or(default, |n| n as u32)
}

impl Request {
    /// Decode one request line.
    ///
    /// # Errors
    ///
    /// A human-readable message on malformed JSON, a missing/unknown `op`,
    /// or a non-object document.
    pub fn from_line(line: &str) -> Result<Self, String> {
        let v = parse(line).map_err(|e| format!("bad JSON: {e}"))?;
        if !matches!(v, Value::Obj(_)) {
            return Err("request must be a JSON object".into());
        }
        let op = v
            .get("op")
            .and_then(Value::as_str)
            .ok_or("missing \"op\"")?;
        let op = Op::parse(op).ok_or_else(|| format!("unknown op {op:?}"))?;
        let d = Request::default();
        Ok(Request {
            id: num(&v, "id").map_or(0, |n| n as u64),
            op,
            algo: v
                .get("algo")
                .and_then(Value::as_str)
                .unwrap_or(&d.algo)
                .to_string(),
            device: v
                .get("device")
                .and_then(Value::as_str)
                .unwrap_or(&d.device)
                .to_string(),
            width: num_u32(&v, "width", d.width).max(4),
            height: num_u32(&v, "height", d.height).max(4),
            seed: num(&v, "seed").map_or(d.seed, |n| n as u64),
            max_side: num_u32(&v, "max_side", d.max_side).max(1),
            max_depth: num_u32(&v, "max_depth", d.max_depth).max(1),
            max_cores: num_u32(&v, "max_cores", d.max_cores).max(1),
            window: num_u32(&v, "window", d.window).max(1),
            depth: num_u32(&v, "depth", d.depth).max(1),
            cores: num_u32(&v, "cores", d.cores).max(1),
            max_abs: num(&v, "max_abs").unwrap_or(d.max_abs),
            rms: num(&v, "rms").unwrap_or(d.rms),
            max_width: num_u32(&v, "max_width", d.max_width),
        })
    }

    /// Refuse sizes over the `MAX_*` caps, before the service allocates a
    /// frame or builds a cone for them.
    pub(crate) fn check_limits(&self) -> Result<(), String> {
        let area = u64::from(self.width) * u64::from(self.height);
        let caps: [(&str, u64, u64); 3] = match self.op {
            Op::Certify | Op::SearchFormat => [
                ("frame area (width x height)", area, MAX_FRAME_AREA),
                ("window", self.window.into(), MAX_WINDOW_SIDE.into()),
                ("depth", self.depth.into(), MAX_CONE_DEPTH.into()),
            ],
            Op::Explore => [
                ("max_side", self.max_side.into(), MAX_WINDOW_SIDE.into()),
                ("max_depth", self.max_depth.into(), MAX_CONE_DEPTH.into()),
                ("max_cores", self.max_cores.into(), MAX_CORES.into()),
            ],
            Op::Ping | Op::Stats | Op::Shutdown => return Ok(()),
        };
        match caps.into_iter().find(|&(_, value, limit)| value > limit) {
            Some((what, value, limit)) => {
                Err(format!("{what} {value} is over the limit of {limit}"))
            }
            None => Ok(()),
        }
    }

    /// Encode as one request line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut s = String::with_capacity(160);
        let _ = write!(s, "{{\"op\":\"{}\",\"id\":{}", self.op.as_str(), self.id);
        if self.op != Op::Ping && self.op != Op::Shutdown {
            s.push_str(",\"algo\":");
            escape_into(&mut s, &self.algo);
        }
        match self.op {
            Op::Ping | Op::Stats | Op::Shutdown => {}
            Op::Explore => {
                let _ = write!(
                    s,
                    ",\"device\":{},\"width\":{},\"height\":{},\"max_side\":{},\"max_depth\":{},\"max_cores\":{}",
                    isl_telemetry::json::escape(&self.device),
                    self.width, self.height, self.max_side, self.max_depth, self.max_cores
                );
            }
            Op::Certify => {
                let _ = write!(
                    s,
                    ",\"width\":{},\"height\":{},\"seed\":{},\"window\":{},\"depth\":{},\"cores\":{}",
                    self.width, self.height, self.seed, self.window, self.depth, self.cores
                );
            }
            Op::SearchFormat => {
                let _ = write!(
                    s,
                    ",\"device\":{},\"width\":{},\"height\":{},\"seed\":{},\"window\":{},\"depth\":{},\"cores\":{},\"max_abs\":{}",
                    isl_telemetry::json::escape(&self.device),
                    self.width, self.height, self.seed,
                    self.window, self.depth, self.cores, self.max_abs
                );
                if self.rms.is_finite() {
                    let _ = write!(s, ",\"rms\":{}", self.rms);
                }
                let _ = write!(s, ",\"max_width\":{}", self.max_width);
            }
        }
        s.push('}');
        s
    }
}

/// Re-serialise a parsed [`Value`] as JSON (object keys sorted — the
/// parser holds objects in a `BTreeMap`). Non-finite numbers become
/// `null`, keeping the output parseable.
pub fn value_to_json(v: &Value) -> String {
    let mut s = String::new();
    write_value(&mut s, v);
    s
}

fn write_value(out: &mut String, v: &Value) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(n) if n.is_finite() => {
            let _ = write!(out, "{n}");
        }
        Value::Num(_) => out.push_str("null"),
        Value::Str(s) => escape_into(out, s),
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(out, item);
            }
            out.push(']');
        }
        Value::Obj(map) => {
            out.push('{');
            for (i, (k, item)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                escape_into(out, k);
                out.push(':');
                write_value(out, item);
            }
            out.push('}');
        }
    }
}

/// Encode a success response line: `{"id":…,"ok":true,"result":RESULT}`.
/// `result` must already be a JSON document.
pub fn ok_line(id: u64, result: &str) -> String {
    format!("{{\"id\":{id},\"ok\":true,\"result\":{result}}}")
}

/// Encode an error response line.
pub fn err_line(id: u64, error: &str) -> String {
    let mut s = format!("{{\"id\":{id},\"ok\":false,\"error\":");
    escape_into(&mut s, error);
    s.push('}');
    s
}

/// Decode one response line into `(id, Ok(result) | Err(message))`.
///
/// # Errors
///
/// A message when the line is not a protocol response at all.
pub fn parse_response(line: &str) -> Result<(u64, Result<Value, String>), String> {
    let v = parse(line).map_err(|e| format!("bad JSON: {e}"))?;
    let id = num(&v, "id").map_or(0, |n| n as u64);
    match v.get("ok") {
        Some(Value::Bool(true)) => {
            let result = v.get("result").cloned().unwrap_or(Value::Null);
            Ok((id, Ok(result)))
        }
        Some(Value::Bool(false)) => {
            let msg = v
                .get("error")
                .and_then(Value::as_str)
                .unwrap_or("unknown error")
                .to_string();
            Ok((id, Err(msg)))
        }
        _ => Err("response missing \"ok\"".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_lines_round_trip() {
        for op in [
            Op::Ping,
            Op::Stats,
            Op::Explore,
            Op::Certify,
            Op::SearchFormat,
            Op::Shutdown,
        ] {
            let req = Request {
                id: 7,
                op,
                algo: "jacobi4".into(),
                ..Request::default()
            };
            let back = Request::from_line(&req.to_line()).unwrap();
            assert_eq!(back.op, op);
            assert_eq!(back.id, 7);
            if !matches!(op, Op::Ping | Op::Shutdown) {
                assert_eq!(back.algo, "jacobi4");
            }
        }
    }

    #[test]
    fn defaults_fill_missing_fields() {
        let req = Request::from_line(r#"{"op":"explore"}"#).unwrap();
        assert_eq!(req, Request { op: Op::Explore, ..Request::default() });
    }

    #[test]
    fn malformed_lines_are_errors_not_panics() {
        for line in ["", "{", "42", r#"{"op":"launch_missiles"}"#, r#"{"id":1}"#] {
            assert!(Request::from_line(line).is_err(), "{line:?}");
        }
    }

    #[test]
    fn sizes_are_capped_per_op() {
        let admits = |line: &str| Request::from_line(line).unwrap().check_limits().is_ok();
        assert!(admits(
            r#"{"op":"certify","width":64,"height":64,"window":16,"depth":10}"#
        ));
        assert!(!admits(r#"{"op":"certify","width":65,"height":64}"#));
        assert!(!admits(r#"{"op":"search_format","window":17}"#));
        assert!(!admits(r#"{"op":"certify","depth":11}"#));
        assert!(admits(
            r#"{"op":"explore","max_side":16,"max_depth":10,"max_cores":64}"#
        ));
        assert!(admits(r#"{"op":"explore","width":4096,"height":4096}"#));
        assert!(!admits(r#"{"op":"explore","max_side":17}"#));
        assert!(!admits(r#"{"op":"explore","max_depth":11}"#));
        assert!(!admits(r#"{"op":"explore","max_cores":65}"#));
    }

    #[test]
    fn response_lines_round_trip() {
        let (id, res) = parse_response(&ok_line(3, r#"{"points":5}"#)).unwrap();
        assert_eq!(id, 3);
        assert_eq!(res.unwrap().get("points").and_then(Value::as_num), Some(5.0));
        let (id, res) = parse_response(&err_line(9, "no \"such\" algo")).unwrap();
        assert_eq!(id, 9);
        assert_eq!(res.unwrap_err(), "no \"such\" algo");
    }
}
