//! Structural validation of generated VHDL and golden-vector certification.
//!
//! Not a VHDL compiler — a disciplined checker for the shapes this backend
//! emits, used by the test suite to guarantee that every generated design
//! is internally consistent: one entity/architecture pair, balanced
//! `begin`/`end`, all referenced identifiers declared, single driver per
//! signal, and input ports never driven.
//!
//! [`verify_vectors`] extends the discipline to *numerics*: every response
//! word of a golden-vector file is re-derived through the independent
//! fixed-point graph interpreter ([`isl_fpga::eval_fixed_raw`]) — a tree walk
//! over the cone's dataflow graph, sharing no code with the bytecode VM
//! that generated the file — and compared bit-for-bit.

use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::fmt;

use isl_fpga::{eval_fixed_raw, FixedFormat};
use isl_ir::Cone;

use crate::codegen;
use crate::vectors::VectorFile;

/// Check failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckError {
    /// Structure problems (missing entity, unbalanced blocks...).
    Malformed(String),
    /// A referenced identifier is not declared.
    Undeclared(String),
    /// A signal is driven by more than one assignment.
    MultipleDrivers(String),
    /// An input port appears on the left of an assignment.
    InputDriven(String),
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::Malformed(m) => write!(f, "malformed VHDL: {m}"),
            CheckError::Undeclared(n) => write!(f, "undeclared identifier `{n}`"),
            CheckError::MultipleDrivers(n) => write!(f, "signal `{n}` has multiple drivers"),
            CheckError::InputDriven(n) => write!(f, "input port `{n}` is driven"),
        }
    }
}

impl Error for CheckError {}

/// Summary facts of a validated design.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VhdlStructure {
    /// Entity name.
    pub entity: String,
    /// Number of ports.
    pub ports: usize,
    /// Number of declared signals.
    pub signals: usize,
    /// Number of signal assignments (`<=`).
    pub assignments: usize,
}

const KEYWORDS: &[&str] = &[
    "library", "use", "all", "entity", "is", "port", "in", "out", "end", "architecture", "of",
    "signal", "begin", "process", "if", "then", "else", "elsif", "rising_edge", "std_logic",
    "std_logic_vector", "signed", "unsigned", "downto", "to", "others", "not", "and", "or",
    "when", "constant", "integer", "subtype", "function", "return", "variable", "loop", "for",
    "work", "ieee", "numeric_std", "std_logic_1164", "fixed_t", "resize", "shift_left",
    "shift_right", "to_signed", "to_unsigned", "abs", "rst", "clk", "rtl", "generic", "map",
    "component", "package", "body", "null", "data_width", "data_frac", "isl_fixed_pkg",
];

fn is_builtin(word: &str) -> bool {
    let w = word.to_ascii_lowercase();
    KEYWORDS.contains(&w.as_str()) || w.starts_with("fx_") || w.parse::<i64>().is_ok()
}

/// The identifier-like tokens of `line` (maximal runs of ASCII
/// alphanumerics and `_`), borrowed from it.
fn words(line: &str) -> impl Iterator<Item = &str> {
    line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
}

fn strip_comment(line: &str) -> &str {
    match line.find("--") {
        Some(i) => &line[..i],
        None => line,
    }
}

/// Count block openers vs `end` tokens over the whole source.
fn block_balance(code: &str) -> (i64, i64) {
    let tokens: Vec<&str> = code.lines().flat_map(|l| words(strip_comment(l))).collect();
    let mut opens = 0i64;
    let mut ends = 0i64;
    for (i, &w) in tokens.iter().enumerate() {
        let prev = if i > 0 { tokens[i - 1] } else { "" };
        let next = tokens.get(i + 1).copied().unwrap_or("");
        match w {
            "end" => ends += 1,
            // `entity work.X` in an instantiation is a reference, not an opener.
            "entity" if prev != "end" && next != "work" => opens += 1,
            "architecture" if prev != "end" => opens += 1,
            "process" if prev != "end" => opens += 1,
            "if" if prev != "end" => opens += 1,
            "loop" if prev != "end" => opens += 1,
            "package" if prev != "end" => opens += 1,
            "case" if prev != "end" => opens += 1,
            _ => {}
        }
    }
    // Function *bodies* open a block (`function ... is`); declarations in a
    // package spec (`function ...;`) do not. Distinguish line-wise.
    for line in code.lines() {
        let line = strip_comment(line).trim();
        if line.starts_with("function ") && line.ends_with(" is") {
            opens += 1;
        }
    }
    (opens, ends)
}

/// Validate a generated cone entity (see module docs for the checks).
///
/// # Errors
///
/// The first violated rule as a [`CheckError`].
pub fn validate(code: &str) -> Result<VhdlStructure, CheckError> {
    let entity = {
        let mut name = None;
        for line in code.lines() {
            let line = strip_comment(line).trim();
            if let Some(rest) = line.strip_prefix("entity ") {
                if let Some(n) = rest.strip_suffix(" is") {
                    name = Some(n.trim().to_string());
                    break;
                }
            }
        }
        name.ok_or_else(|| CheckError::Malformed("no entity declaration".into()))?
    };
    if !code.contains(&format!("architecture rtl of {entity} is")) {
        return Err(CheckError::Malformed(format!(
            "no architecture `rtl` for entity `{entity}`"
        )));
    }

    // Block balance: every opener (entity, architecture, process, if, loop,
    // function body) must have a matching `end`.
    let (opens, ends) = block_balance(code);
    if ends != opens {
        return Err(CheckError::Malformed(format!(
            "unbalanced blocks: {opens} openers / {ends} ends"
        )));
    }

    // Declarations.
    let mut in_ports: HashSet<String> = HashSet::new();
    let mut out_ports: HashSet<String> = HashSet::new();
    let mut signals: HashSet<String> = HashSet::new();
    for raw in code.lines() {
        let line = strip_comment(raw).trim();
        if let Some(rest) = line.strip_prefix("signal ") {
            if let Some((name, _)) = rest.split_once(':') {
                signals.insert(name.trim().to_string());
            }
        } else if line.contains(" : in ") {
            if let Some((name, _)) = line.split_once(':') {
                in_ports.insert(name.trim().to_string());
            }
        } else if line.contains(" : out ") {
            if let Some((name, _)) = line.split_once(':') {
                out_ports.insert(name.trim().to_string());
            }
        }
    }

    // Assignments.
    let mut drivers: HashMap<String, usize> = HashMap::new();
    let mut assignments = 0usize;
    for raw in code.lines() {
        let line = strip_comment(raw).trim();
        let Some((lhs, rhs)) = line.split_once("<=") else {
            continue;
        };
        // Skip comparisons inside if-conditions (they contain `then`).
        if line.starts_with("if ") || line.contains(" then") {
            continue;
        }
        assignments += 1;
        let lhs_name = words(lhs)
            .next()
            .ok_or_else(|| CheckError::Malformed(format!("empty assignment target: {line}")))?;
        if in_ports.contains(lhs_name) {
            return Err(CheckError::InputDriven(lhs_name.into()));
        }
        if !signals.contains(lhs_name) && !out_ports.contains(lhs_name) {
            return Err(CheckError::Undeclared(lhs_name.into()));
        }
        *drivers.entry(lhs_name.into()).or_insert(0) += 1;
        for w in words(rhs) {
            if is_builtin(w) {
                continue;
            }
            if !signals.contains(w) && !in_ports.contains(w) && !out_ports.contains(w) {
                return Err(CheckError::Undeclared(w.into()));
            }
        }
    }
    for (name, n) in &drivers {
        // A signal may be assigned once per control path; our generator
        // drives each signal from exactly one statement except valid_sr,
        // which has a reset branch plus shifted updates.
        if *n > 1 && name != "valid_sr" {
            return Err(CheckError::MultipleDrivers(name.clone()));
        }
    }

    Ok(VhdlStructure {
        entity,
        ports: in_ports.len() + out_ports.len(),
        signals: signals.len(),
        assignments,
    })
}

/// Block-balance check only (used by the wrapper validator, whose array
/// types and instantiations fall outside the cone checker's discipline).
///
/// # Errors
///
/// [`CheckError::Malformed`] when openers and `end`s disagree.
pub fn balance_only(code: &str) -> Result<(), CheckError> {
    let (opens, ends) = block_balance(code);
    if opens != ends {
        return Err(CheckError::Malformed(format!(
            "unbalanced blocks: {opens} openers / {ends} ends"
        )));
    }
    Ok(())
}

// -- golden-vector certification --------------------------------------------

/// Summary of a successful [`verify_vectors`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VectorCheckReport {
    /// Cone firings (vector records) checked.
    pub records: usize,
    /// Response words compared bit-for-bit.
    pub words: usize,
}

/// Why a golden-vector file failed certification.
#[derive(Debug, Clone, PartialEq)]
pub enum VectorCheckError {
    /// The file does not describe this cone (entity, shape, format or port
    /// mismatch).
    Incompatible(String),
    /// A response word disagrees with the independent re-evaluation.
    Mismatch(VectorMismatch),
}

/// The first diverging response word of a failed certification: which
/// firing (record, level, tile), which output port, and both raw words.
#[derive(Debug, Clone, PartialEq)]
pub struct VectorMismatch {
    /// Record index in file order.
    pub record: usize,
    /// Level of the architecture decomposition the firing belongs to.
    pub level: u32,
    /// Tile origin of the firing, frame coordinates.
    pub tile: (i64, i64),
    /// Output port that diverged.
    pub port: String,
    /// Raw word the checker derived.
    pub expected: i64,
    /// Raw word the file recorded.
    pub got: i64,
}

impl fmt::Display for VectorCheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VectorCheckError::Incompatible(m) => {
                write!(f, "vector file incompatible with cone: {m}")
            }
            VectorCheckError::Mismatch(m) => write!(
                f,
                "vector mismatch at record {} (level {}, tile ({}, {})), port `{}`: expected {}, file has {}",
                m.record, m.level, m.tile.0, m.tile.1, m.port, m.expected, m.got
            ),
        }
    }
}

impl Error for VectorCheckError {}

/// Certify a golden-vector file against `cone`: every record's stimulus is
/// fed through the independent fixed-point graph interpreter
/// ([`isl_fpga::eval_fixed_raw`], in the raw-word domain so widths past
/// `f64`'s mantissa stay exact) and every response word must match
/// bit-for-bit. The first divergence is reported with its record, level,
/// tile and port — enough for `isl-cosim`'s triage to pinpoint the
/// offending instruction.
///
/// # Errors
///
/// [`VectorCheckError::Incompatible`] when the file does not describe this
/// cone; [`VectorCheckError::Mismatch`] on the first diverging word.
pub fn verify_vectors(
    cone: &Cone,
    fmt: FixedFormat,
    file: &VectorFile,
) -> Result<VectorCheckReport, VectorCheckError> {
    let expect_entity = codegen::entity_name(cone);
    if file.entity != expect_entity {
        return Err(VectorCheckError::Incompatible(format!(
            "file is for `{}`, cone is `{expect_entity}`",
            file.entity
        )));
    }
    if file.window != cone.window() || file.depth != cone.depth() {
        return Err(VectorCheckError::Incompatible(format!(
            "file shape w{} d{} vs cone w{} d{}",
            file.window,
            file.depth,
            cone.window(),
            cone.depth()
        )));
    }
    if file.format != fmt {
        return Err(VectorCheckError::Incompatible(format!(
            "file format {} vs requested {fmt}",
            file.format
        )));
    }
    // Column of every input the cone will read; strict — a missing port
    // means the file cannot drive this cone.
    let mut in_cols: HashMap<String, usize> = HashMap::new();
    for (i, name) in file.ports_in.iter().enumerate() {
        in_cols.insert(name.clone(), i);
    }
    let col_of = |name: &str| -> Result<usize, VectorCheckError> {
        in_cols
            .get(name)
            .copied()
            .ok_or_else(|| VectorCheckError::Incompatible(format!("missing input port `{name}`")))
    };
    let dyn_cols: Vec<usize> = cone
        .inputs()
        .iter()
        .map(|i| col_of(&codegen::input_port_name(i.field, i.point)))
        .collect::<Result<_, _>>()?;
    let static_cols: Vec<usize> = cone
        .static_inputs()
        .iter()
        .map(|i| col_of(&codegen::static_port_name(i.field, i.point)))
        .collect::<Result<_, _>>()?;
    // Parameter columns, by ParamId index (absent params read as zero).
    let param_cols: Vec<Option<usize>> = {
        let max_param = file
            .ports_in
            .iter()
            .filter_map(|p| p.strip_prefix("param_p").and_then(|s| s.parse::<usize>().ok()))
            .max()
            .map(|m| m + 1)
            .unwrap_or(0);
        (0..max_param)
            .map(|i| in_cols.get(&codegen::param_port_name(i)).copied())
            .collect()
    };
    let out_cols: Vec<(usize, String)> = cone
        .outputs()
        .iter()
        .map(|o| {
            let name = codegen::output_port_name(o.field, o.point);
            file.output_column(&name)
                .map(|c| (c, name.clone()))
                .ok_or(VectorCheckError::Incompatible(format!(
                    "missing output port `{name}`"
                )))
        })
        .collect::<Result<_, _>>()?;

    let mut words = 0usize;
    for (ri, record) in file.records.iter().enumerate() {
        // Raw-word lookup: stimulus words drive the evaluation directly.
        // Dequantising first would round words wider than f64's mantissa
        // (width > 53) and break bit-exact certification.
        let lookup: HashMap<(u16, i32, i32), i64> = cone
            .inputs()
            .iter()
            .zip(&dyn_cols)
            .chain(cone.static_inputs().iter().zip(&static_cols))
            .map(|(inp, &c)| {
                (
                    (inp.field.index() as u16, inp.point.x, inp.point.y),
                    record.stimulus[c],
                )
            })
            .collect();
        let params: Vec<i64> = param_cols
            .iter()
            .map(|c| c.map(|c| record.stimulus[c]).unwrap_or(0))
            .collect();
        let outs = eval_fixed_raw(
            cone,
            fmt,
            |f, p| {
                lookup
                    .get(&(f.index() as u16, p.x, p.y))
                    .copied()
                    .unwrap_or(0)
            },
            &params,
        );
        for ((_, _, value), (col, name)) in outs.iter().zip(&out_cols) {
            let expected = *value;
            let got = record.response[*col];
            words += 1;
            if expected != got {
                return Err(VectorCheckError::Mismatch(VectorMismatch {
                    record: ri,
                    level: record.level,
                    tile: record.tile,
                    port: name.clone(),
                    expected,
                    got,
                }));
            }
        }
    }
    Ok(VectorCheckReport {
        records: file.records.len(),
        words,
    })
}

/// Validate the support package: presence of `package` and `package body`
/// and balanced function/if/loop blocks.
///
/// # Errors
///
/// [`CheckError::Malformed`] on violations.
pub fn validate_package(code: &str) -> Result<(), CheckError> {
    if !code.contains("package isl_fixed_pkg is") {
        return Err(CheckError::Malformed("missing package declaration".into()));
    }
    if !code.contains("package body isl_fixed_pkg is") {
        return Err(CheckError::Malformed("missing package body".into()));
    }
    let (opens, ends) = block_balance(code);
    if opens != ends {
        return Err(CheckError::Malformed(format!(
            "unbalanced package blocks: {opens} openers / {ends} ends"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"
entity t is
  port (
    clk : in  std_logic;
    a : in fixed_t;
    y : out fixed_t
  );
end entity t;

architecture rtl of t is
  signal n0 : fixed_t;
begin
  p : process (clk)
  begin
    if rising_edge(clk) then
      n0 <= fx_add(a, a);
    end if;
  end process p;
  y <= n0;
end architecture rtl;
"#;

    #[test]
    fn accepts_well_formed() {
        let s = validate(GOOD).unwrap();
        assert_eq!(s.entity, "t");
        assert_eq!(s.signals, 1);
        assert_eq!(s.assignments, 2);
    }

    #[test]
    fn rejects_undeclared_rhs() {
        let bad = GOOD.replace("fx_add(a, a)", "fx_add(a, ghost)");
        assert_eq!(
            validate(&bad).unwrap_err(),
            CheckError::Undeclared("ghost".into())
        );
    }

    #[test]
    fn rejects_undeclared_lhs() {
        let bad = GOOD.replace("n0 <= fx_add(a, a);", "nx <= fx_add(a, a);");
        assert!(matches!(validate(&bad), Err(CheckError::Undeclared(_))));
    }

    #[test]
    fn rejects_driven_input() {
        let bad = GOOD.replace("y <= n0;", "y <= n0;\n  a <= n0;");
        assert_eq!(
            validate(&bad).unwrap_err(),
            CheckError::InputDriven("a".into())
        );
    }

    #[test]
    fn rejects_double_driver() {
        let bad = GOOD.replace("y <= n0;", "y <= n0;\n  y <= n0;");
        assert_eq!(
            validate(&bad).unwrap_err(),
            CheckError::MultipleDrivers("y".into())
        );
    }

    #[test]
    fn rejects_unbalanced() {
        let bad = GOOD.replace("end process p;", "");
        assert!(matches!(validate(&bad), Err(CheckError::Malformed(_))));
    }

    #[test]
    fn rejects_missing_entity() {
        assert!(matches!(
            validate("architecture rtl of t is begin end;"),
            Err(CheckError::Malformed(_))
        ));
    }
}
