//! The golden-vector exchange format.
//!
//! A *vector file* is the contract between the bit-true co-simulator
//! (`isl-cosim`) and the VHDL backend: per cone firing — one output window
//! at one level of one architecture instance — it records the raw
//! fixed-point stimulus word of every data input port and the raw response
//! word expected on every output port. The co-simulator generates these
//! files; [`crate::generate_vector_testbench`] turns one into a
//! self-checking testbench that replays every firing against the generated
//! entity in any VHDL simulator, and [`crate::check::verify_vectors`]
//! re-derives every response with the independent fixed-point graph
//! interpreter ([`isl_fpga::eval_fixed`]) so a file can be certified without
//! any simulator at all.
//!
//! The on-disk form is a line-oriented text format, chosen so vectors can be
//! diffed, versioned and consumed by non-Rust tooling:
//!
//! ```text
//! # isl golden vectors v1
//! entity blur_w4x4_d2
//! format 18 10
//! window 4 4
//! depth 2
//! in in_f0_xm2_ym2 in_f0_xm1_ym2 ...
//! out out_f0_x0_y0 out_f0_x1_y0 ...
//! vec <level> <tile_x> <tile_y> | <stimulus words> | <response words>
//! ```
//!
//! Words are decimal two's-complement raw values of the declared
//! fixed-point format, in the column order of the `in`/`out` headers —
//! which is exactly the data-port declaration order of the generated
//! entity.

use std::error::Error;
use std::fmt;

use isl_fpga::FixedFormat;
use isl_ir::Window;

/// One cone firing: the stimulus applied to every data input port and the
/// response expected on every output port, as raw fixed-point words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VectorRecord {
    /// Level index inside the architecture's iteration decomposition
    /// (0-based; levels of a run share the file when they share the depth).
    pub level: u32,
    /// Frame coordinates of the tile origin this firing computed.
    pub tile: (i64, i64),
    /// Raw stimulus words, aligned to [`VectorFile::ports_in`].
    pub stimulus: Vec<i64>,
    /// Raw response words, aligned to [`VectorFile::ports_out`].
    pub response: Vec<i64>,
}

/// A golden-vector set for one generated cone entity.
#[derive(Debug, Clone, PartialEq)]
pub struct VectorFile {
    /// Entity the vectors drive (the cone's sanitised signature).
    pub entity: String,
    /// Fixed-point format of every word.
    pub format: FixedFormat,
    /// Output window of the cone.
    pub window: Window,
    /// Cone depth.
    pub depth: u32,
    /// Data input port names, in entity declaration order (parameters,
    /// dynamic inputs, static inputs).
    pub ports_in: Vec<String>,
    /// Output port names, in entity declaration order.
    pub ports_out: Vec<String>,
    /// The recorded firings.
    pub records: Vec<VectorRecord>,
}

/// Parse / structure errors of the vector format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VectorError(pub String);

impl fmt::Display for VectorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed vector file: {}", self.0)
    }
}

impl Error for VectorError {}

impl VectorFile {
    /// Render the file in the text exchange format (see module docs).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str("# isl golden vectors v1\n");
        out.push_str(&format!("entity {}\n", self.entity));
        out.push_str(&format!("format {} {}\n", self.format.width, self.format.frac));
        out.push_str(&format!("window {} {}\n", self.window.w, self.window.h));
        out.push_str(&format!("depth {}\n", self.depth));
        out.push_str(&format!("in {}\n", self.ports_in.join(" ")));
        out.push_str(&format!("out {}\n", self.ports_out.join(" ")));
        for r in &self.records {
            let stim: Vec<String> = r.stimulus.iter().map(i64::to_string).collect();
            let resp: Vec<String> = r.response.iter().map(i64::to_string).collect();
            out.push_str(&format!(
                "vec {} {} {} | {} | {}\n",
                r.level,
                r.tile.0,
                r.tile.1,
                stim.join(" "),
                resp.join(" ")
            ));
        }
        out
    }

    /// Parse the text exchange format back into a file.
    ///
    /// # Errors
    ///
    /// [`VectorError`] on any structural violation: missing headers, word
    /// counts that disagree with the port lists, unparsable words.
    pub fn parse(text: &str) -> Result<VectorFile, VectorError> {
        let mut entity = None;
        let mut format = None;
        let mut window = None;
        let mut depth = None;
        let mut ports_in: Option<Vec<String>> = None;
        let mut ports_out: Option<Vec<String>> = None;
        let mut records = Vec::new();
        let bad = |m: &str| VectorError(m.to_string());
        for (ln, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, rest) = match line.split_once(' ') {
                Some(kv) => kv,
                // A cone with a constant-only update has no data ports at
                // all: `in`/`out` headers legally carry an empty list.
                None if line == "in" || line == "out" => (line, ""),
                None => return Err(bad(&format!("line {}: bare keyword `{line}`", ln + 1))),
            };
            match key {
                "entity" => entity = Some(rest.trim().to_string()),
                "format" => {
                    let mut it = rest.split_whitespace();
                    let w: u32 = it
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| bad("format: missing width"))?;
                    let f: u32 = it
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| bad("format: missing frac"))?;
                    // Raw words are `i64`, so 64 bits is the widest
                    // format a file can carry.
                    if w == 0 || w > 64 || f >= w {
                        return Err(bad(&format!("format: invalid Q format {w}/{f}")));
                    }
                    format = Some(FixedFormat::new(w, f));
                }
                "window" => {
                    let mut it = rest.split_whitespace();
                    let w: u32 = it
                        .next()
                        .and_then(|s| s.parse().ok())
                        .filter(|&w| w > 0)
                        .ok_or_else(|| bad("window: missing width"))?;
                    let h: u32 = it
                        .next()
                        .and_then(|s| s.parse().ok())
                        .filter(|&h| h > 0)
                        .ok_or_else(|| bad("window: missing height"))?;
                    window = Some(if h > 1 { Window::rect(w, h) } else { Window::line(w) });
                }
                "depth" => {
                    depth = Some(
                        rest.trim()
                            .parse()
                            .map_err(|_| bad("depth: not an integer"))?,
                    );
                }
                "in" => ports_in = Some(rest.split_whitespace().map(String::from).collect()),
                "out" => ports_out = Some(rest.split_whitespace().map(String::from).collect()),
                "vec" => {
                    let n_in = ports_in
                        .as_ref()
                        .ok_or_else(|| bad("vec before `in` header"))?
                        .len();
                    let n_out = ports_out
                        .as_ref()
                        .ok_or_else(|| bad("vec before `out` header"))?
                        .len();
                    let mut parts = rest.splitn(3, '|');
                    let head = parts.next().unwrap_or("");
                    let stim_s = parts
                        .next()
                        .ok_or_else(|| bad(&format!("line {}: missing stimulus", ln + 1)))?;
                    let resp_s = parts
                        .next()
                        .ok_or_else(|| bad(&format!("line {}: missing response", ln + 1)))?;
                    let mut hw = head.split_whitespace();
                    let level: u32 = hw
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| bad("vec: missing level"))?;
                    let tx: i64 = hw
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| bad("vec: missing tile x"))?;
                    let ty: i64 = hw
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| bad("vec: missing tile y"))?;
                    let words = |s: &str| -> Result<Vec<i64>, VectorError> {
                        s.split_whitespace()
                            .map(|w| {
                                w.parse::<i64>()
                                    .map_err(|_| bad(&format!("unparsable word `{w}`")))
                            })
                            .collect()
                    };
                    let stimulus = words(stim_s)?;
                    let response = words(resp_s)?;
                    if stimulus.len() != n_in {
                        return Err(bad(&format!(
                            "vec at level {level} tile ({tx},{ty}): {} stimulus words for {n_in} input ports",
                            stimulus.len()
                        )));
                    }
                    if response.len() != n_out {
                        return Err(bad(&format!(
                            "vec at level {level} tile ({tx},{ty}): {} response words for {n_out} output ports",
                            response.len()
                        )));
                    }
                    records.push(VectorRecord {
                        level,
                        tile: (tx, ty),
                        stimulus,
                        response,
                    });
                }
                other => return Err(bad(&format!("line {}: unknown keyword `{other}`", ln + 1))),
            }
        }
        Ok(VectorFile {
            entity: entity.ok_or_else(|| bad("missing `entity` header"))?,
            format: format.ok_or_else(|| bad("missing `format` header"))?,
            window: window.ok_or_else(|| bad("missing `window` header"))?,
            depth: depth.ok_or_else(|| bad("missing `depth` header"))?,
            ports_in: ports_in.ok_or_else(|| bad("missing `in` header"))?,
            ports_out: ports_out.ok_or_else(|| bad("missing `out` header"))?,
            records,
        })
    }

    /// The column index of input port `name`, if present.
    pub fn input_column(&self, name: &str) -> Option<usize> {
        self.ports_in.iter().position(|p| p == name)
    }

    /// The column index of output port `name`, if present.
    pub fn output_column(&self, name: &str) -> Option<usize> {
        self.ports_out.iter().position(|p| p == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_port_lists_round_trip() {
        // A constant-only cone has no data input ports; the `in` header is
        // then a bare keyword and must still round-trip.
        let file = VectorFile {
            entity: "const_w1x1_d1".into(),
            format: FixedFormat::default(),
            window: Window::line(1),
            depth: 1,
            ports_in: vec![],
            ports_out: vec!["out_f0_x0_y0".into()],
            records: vec![VectorRecord {
                level: 0,
                tile: (0, 0),
                stimulus: vec![],
                response: vec![512],
            }],
        };
        let reparsed = VectorFile::parse(&file.to_text()).unwrap();
        assert_eq!(reparsed, file);
    }

    fn sample() -> VectorFile {
        VectorFile {
            entity: "avg_w2x1_d1".into(),
            format: FixedFormat::default(),
            window: Window::line(2),
            depth: 1,
            ports_in: vec!["in_f0_xm1_y0".into(), "in_f0_x0_y0".into()],
            ports_out: vec!["out_f0_x0_y0".into()],
            records: vec![
                VectorRecord {
                    level: 0,
                    tile: (0, 0),
                    stimulus: vec![-1024, 512],
                    response: vec![-256],
                },
                VectorRecord {
                    level: 1,
                    tile: (2, 0),
                    stimulus: vec![7, -9],
                    response: vec![0],
                },
            ],
        }
    }

    #[test]
    fn text_round_trip_is_exact() {
        let f = sample();
        let parsed = VectorFile::parse(&f.to_text()).unwrap();
        assert_eq!(f, parsed);
    }

    #[test]
    fn rejects_word_count_mismatch() {
        let text = sample().to_text().replace("| -256", "| -256 3");
        assert!(VectorFile::parse(&text).unwrap_err().0.contains("response"));
    }

    #[test]
    fn rejects_missing_headers() {
        let text = sample().to_text().replace("entity avg_w2x1_d1\n", "");
        assert!(VectorFile::parse(&text).unwrap_err().0.contains("entity"));
    }

    #[test]
    fn rejects_formats_wider_than_raw_words() {
        // 64 bits is exactly an i64 raw word: accepted, and lossless.
        let text = sample().to_text().replace("format 18 10", "format 64 10");
        let wide = VectorFile::parse(&text).expect("64-bit format parses");
        assert_eq!(wide.format, FixedFormat::new(64, 10));
        assert_eq!(wide.to_text(), text);
        // 65 bits would not fit an i64 raw word.
        let text = sample().to_text().replace("format 18 10", "format 65 10");
        assert!(VectorFile::parse(&text).unwrap_err().0.contains("65"));
    }

    #[test]
    fn rejects_garbage_words() {
        let text = sample().to_text().replace("-1024", "banana");
        assert!(VectorFile::parse(&text).unwrap_err().0.contains("banana"));
    }

    #[test]
    fn column_lookup() {
        let f = sample();
        assert_eq!(f.input_column("in_f0_x0_y0"), Some(1));
        assert_eq!(f.output_column("out_f0_x0_y0"), Some(0));
        assert_eq!(f.input_column("ghost"), None);
    }
}
