//! Cone → VHDL entity generation.

use std::collections::HashMap;
use std::fmt::Write as _;

use isl_fpga::FixedFormat;
use isl_ir::{BinaryOp, Cone, FieldId, Leaf, Node, NodeId, Point, UnaryOp};

use crate::vectors::{VectorFile, VectorRecord};

/// Options for VHDL generation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct VhdlOptions {
    /// Fixed-point format; must match the `isl_fixed_pkg` the design is
    /// compiled against.
    pub format: FixedFormat,
}

/// Port direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortDirection {
    /// Input port.
    In,
    /// Output port.
    Out,
}

/// One port of a generated entity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortInfo {
    /// Port name.
    pub name: String,
    /// Direction.
    pub direction: PortDirection,
    /// Whether this is a control port (clock/reset/valid) rather than data.
    pub is_control: bool,
}

/// A generated VHDL module.
#[derive(Debug, Clone, PartialEq)]
pub struct VhdlModule {
    /// Entity name.
    pub entity_name: String,
    /// Complete VHDL source (entity + architecture; compile together with
    /// [`crate::fixed_package`]).
    pub code: String,
    /// All ports, in declaration order.
    pub ports: Vec<PortInfo>,
    /// Pipeline depth in clock cycles (input window to `out_valid`).
    pub pipeline_stages: u32,
    /// Operation register signals (= the cone's register count).
    pub signal_count: usize,
    /// Balancing delay registers inserted to align pipeline stages.
    pub delay_registers: usize,
}

fn sanitize(name: &str) -> String {
    let mut s: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    if !s.chars().next().is_some_and(|c| c.is_ascii_alphabetic()) {
        s.insert_str(0, "cone_");
    }
    while s.contains("__") {
        s = s.replace("__", "_");
    }
    s.trim_end_matches('_').to_string()
}

fn coord(c: i32) -> String {
    if c < 0 {
        format!("m{}", -c)
    } else {
        c.to_string()
    }
}

/// The entity name a cone is generated under (its sanitised signature).
/// Golden-vector files carry this name so a vector set and an entity can be
/// matched without regenerating the VHDL.
pub fn entity_name(cone: &Cone) -> String {
    sanitize(&cone.signature().to_string())
}

/// Port name of a dynamic-field input element (`in_f{F}_x{X}_y{Y}`,
/// negative coordinates rendered as `m{N}`).
pub fn input_port_name(field: FieldId, point: Point) -> String {
    format!("in_f{}_x{}_y{}", field.index(), coord(point.x), coord(point.y))
}

/// Port name of a static-field input element (`st_f{F}_x{X}_y{Y}`).
pub fn static_port_name(field: FieldId, point: Point) -> String {
    format!("st_f{}_x{}_y{}", field.index(), coord(point.x), coord(point.y))
}

/// Port name of a runtime parameter (`param_p{I}`).
pub fn param_port_name(index: usize) -> String {
    format!("param_p{index}")
}

/// Port name of an output element (`out_f{F}_x{X}_y{Y}`).
pub fn output_port_name(field: FieldId, point: Point) -> String {
    format!("out_f{}_x{}_y{}", field.index(), coord(point.x), coord(point.y))
}

fn leaf_port_name(leaf: &Leaf) -> Option<String> {
    match leaf {
        Leaf::Input { field, point } => Some(input_port_name(*field, *point)),
        Leaf::Static { field, point } => Some(static_port_name(*field, *point)),
        Leaf::Param(p) => Some(param_port_name(p.index())),
        Leaf::Const(_) => None,
    }
}

/// Indices of the runtime parameters a cone reads, ascending — the order of
/// its `param_p*` ports.
fn cone_params(cone: &Cone) -> Vec<usize> {
    let graph = cone.graph();
    let roots: Vec<NodeId> = cone.outputs().iter().map(|o| o.node).collect();
    let mask = graph.reachable(&roots);
    let mut ids: Vec<usize> = graph
        .nodes()
        .filter(|(id, _)| mask[id.index()])
        .filter_map(|(_, n)| match n {
            Node::Leaf(Leaf::Param(p)) => Some(p.index()),
            _ => None,
        })
        .collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// The data ports of a cone's entity in declaration order: inputs
/// (parameters `params`, dynamic inputs, static inputs), then outputs.
fn data_ports(cone: &Cone, params: &[usize]) -> (Vec<String>, Vec<String>) {
    let ports_in = params
        .iter()
        .map(|&p| param_port_name(p))
        .chain(cone.inputs().iter().map(|i| input_port_name(i.field, i.point)))
        .chain(
            cone.static_inputs()
                .iter()
                .map(|i| static_port_name(i.field, i.point)),
        )
        .collect();
    let ports_out = cone
        .outputs()
        .iter()
        .map(|o| output_port_name(o.field, o.point))
        .collect();
    (ports_in, ports_out)
}

/// The golden-vector layout of one cone entity — the one definition of how
/// a cone firing becomes a [`VectorRecord`]: the entity name, the data
/// ports in the order [`generate_cone`] declares them, and the quantised
/// parameter words that open every stimulus row. The bit-true
/// co-simulator and the quantised cone-DAG engine both assemble their
/// vector files through it.
#[derive(Debug, Clone, PartialEq)]
pub struct VectorLayout {
    file: VectorFile,
    param_words: Vec<i64>,
}

impl VectorLayout {
    /// The empty vector file of `cone`'s entity at `fmt`, with the
    /// parameter binding `params` (by [`isl_ir::ParamId`] index).
    pub fn new(cone: &Cone, fmt: FixedFormat, params: &[f64]) -> Self {
        let param_ids = cone_params(cone);
        let (ports_in, ports_out) = data_ports(cone, &param_ids);
        VectorLayout {
            param_words: param_ids
                .iter()
                .map(|&i| fmt.quantize(params.get(i).copied().unwrap_or(0.0)))
                .collect(),
            file: VectorFile {
                entity: entity_name(cone),
                format: fmt,
                window: cone.window(),
                depth: cone.depth(),
                ports_in,
                ports_out,
                records: Vec::new(),
            },
        }
    }

    /// Append one firing at `tile` of `level`: `inputs` are the
    /// border-resolved base-input words in [`Cone::inputs`] then
    /// [`Cone::static_inputs`] order, `response` every output word in
    /// [`Cone::outputs`] order.
    pub fn push(&mut self, level: u32, tile: (i64, i64), inputs: &[i64], response: Vec<i64>) {
        let mut stimulus = Vec::with_capacity(self.file.ports_in.len());
        stimulus.extend_from_slice(&self.param_words);
        stimulus.extend_from_slice(inputs);
        debug_assert_eq!(stimulus.len(), self.file.ports_in.len());
        debug_assert_eq!(response.len(), self.file.ports_out.len());
        self.file.records.push(VectorRecord {
            level,
            tile,
            stimulus,
            response,
        });
    }

    /// The assembled vector file.
    pub fn into_file(self) -> VectorFile {
        self.file
    }
}

/// Render a cone into a pipelined VHDL entity.
///
/// Every operation node is registered (one stage). Operands that cross more
/// than one stage are carried by inserted delay registers, so every path to
/// an output has the same registered depth and `out_valid` marks exactly
/// when the window's results are simultaneously valid. The input window must
/// be held stable for the whole pipeline depth (standard window-buffer
/// discipline).
pub fn generate_cone(cone: &Cone, options: &VhdlOptions) -> VhdlModule {
    let graph = cone.graph();
    let entity = sanitize(&cone.signature().to_string());
    let levels = graph.asap_levels();
    let roots: Vec<NodeId> = cone.outputs().iter().map(|o| o.node).collect();
    let mask = graph.reachable(&roots);
    let max_stage = cone
        .outputs()
        .iter()
        .map(|o| levels[o.node.index()])
        .max()
        .unwrap_or(0)
        .max(1);

    let fmt = options.format;
    let quant = |v: f64| fmt.quantize(v);

    // Base name of a node's registered value (None for constants, which are
    // inlined as literals).
    let base_name = |id: NodeId| -> Option<String> {
        match graph.node(id) {
            Node::Leaf(l) => leaf_port_name(l),
            _ => Some(format!("n{}", id.index())),
        }
    };

    // Pass 1: determine how many delayed copies of each node are needed.
    let mut delays: HashMap<NodeId, u32> = HashMap::new();
    {
        let mut need = |id: NodeId, k: u32| {
            if k > 0 && base_name(id).is_some() {
                let e = delays.entry(id).or_insert(0);
                *e = (*e).max(k);
            }
        };
        for (id, node) in graph.nodes() {
            if !mask[id.index()] || matches!(node, Node::Leaf(_)) {
                continue;
            }
            let stage = levels[id.index()];
            for op in node.operands() {
                // Constants and parameters are stable: no delays.
                match graph.node(op) {
                    Node::Leaf(Leaf::Const(_))
                    | Node::Leaf(Leaf::Param(_))
                    | Node::Leaf(Leaf::Input { .. })
                    | Node::Leaf(Leaf::Static { .. }) => continue,
                    _ => {}
                }
                let avail = levels[op.index()];
                need(op, stage - 1 - avail);
            }
        }
        // Outputs must align to max_stage.
        for o in cone.outputs() {
            let avail = levels[o.node.index()];
            if matches!(graph.node(o.node), Node::Leaf(_)) {
                need(o.node, max_stage);
            } else {
                need(o.node, max_stage - avail);
            }
        }
    }

    // Operand reference at a given consuming stage.
    let operand_ref = |id: NodeId, consumer_stage: u32| -> String {
        match graph.node(id) {
            Node::Leaf(Leaf::Const(c)) => {
                format!("to_signed({}, DATA_WIDTH)", quant(c.value()))
            }
            Node::Leaf(_) => base_name(id).expect("non-const leaf has a port"),
            _ => {
                let avail = levels[id.index()];
                let k = consumer_stage - 1 - avail;
                let base = base_name(id).expect("ops have names");
                if k == 0 {
                    base
                } else {
                    format!("{base}_d{k}")
                }
            }
        }
    };

    // Ports.
    let mut ports: Vec<PortInfo> = vec![
        PortInfo { name: "clk".into(), direction: PortDirection::In, is_control: true },
        PortInfo { name: "rst".into(), direction: PortDirection::In, is_control: true },
        PortInfo { name: "in_valid".into(), direction: PortDirection::In, is_control: true },
        PortInfo { name: "out_valid".into(), direction: PortDirection::Out, is_control: true },
    ];
    let (ports_in, ports_out) = data_ports(cone, &cone_params(cone));
    ports.extend(ports_in.into_iter().map(|name| PortInfo {
        name,
        direction: PortDirection::In,
        is_control: false,
    }));
    ports.extend(ports_out.iter().map(|name| PortInfo {
        name: name.clone(),
        direction: PortDirection::Out,
        is_control: false,
    }));
    let out_port_names: Vec<(String, NodeId)> = ports_out
        .into_iter()
        .zip(cone.outputs().iter().map(|o| o.node))
        .collect();

    // Emit.
    let mut code = String::new();
    let _ = writeln!(
        code,
        "-- Generated by isl-vhdl for cone `{}` (depth {}, window {}, {} registers).",
        cone.signature(),
        cone.depth(),
        cone.window(),
        cone.registers()
    );
    code.push_str("library ieee;\nuse ieee.std_logic_1164.all;\nuse ieee.numeric_std.all;\nuse work.isl_fixed_pkg.all;\n\n");
    let _ = writeln!(code, "entity {entity} is");
    code.push_str("  port (\n");
    for (i, p) in ports.iter().enumerate() {
        let dir = match p.direction {
            PortDirection::In => "in ",
            PortDirection::Out => "out",
        };
        let ty = if p.is_control { "std_logic" } else { "fixed_t" };
        let sep = if i + 1 == ports.len() { "" } else { ";" };
        let _ = writeln!(code, "    {} : {dir} {ty}{sep}", p.name);
    }
    code.push_str("  );\n");
    let _ = writeln!(code, "end entity {entity};");
    code.push('\n');
    let _ = writeln!(code, "architecture rtl of {entity} is");

    // Signal declarations: op registers, delay chains, valid shift register.
    let mut signal_count = 0usize;
    let mut delay_registers = 0usize;
    for (id, node) in graph.nodes() {
        if !mask[id.index()] || matches!(node, Node::Leaf(_)) {
            continue;
        }
        let _ = writeln!(code, "  signal n{} : fixed_t;", id.index());
        signal_count += 1;
    }
    let mut delay_list: Vec<(String, u32)> = delays
        .iter()
        .filter(|(_, &k)| k > 0)
        .map(|(&id, &k)| (base_name(id).expect("delayed nodes have names"), k))
        .collect();
    delay_list.sort();
    for (base, k) in &delay_list {
        for j in 1..=*k {
            let _ = writeln!(code, "  signal {base}_d{j} : fixed_t;");
            delay_registers += 1;
        }
    }
    let _ = writeln!(
        code,
        "  signal valid_sr : std_logic_vector(1 to {max_stage});"
    );
    code.push_str("begin\n");

    // The pipeline process.
    code.push_str("  pipeline : process (clk)\n  begin\n    if rising_edge(clk) then\n");
    code.push_str("      if rst = '1' then\n        valid_sr <= (others => '0');\n      else\n");
    code.push_str("        valid_sr(1) <= in_valid;\n");
    if max_stage > 1 {
        let _ = writeln!(
            code,
            "        valid_sr(2 to {max_stage}) <= valid_sr(1 to {});",
            max_stage - 1
        );
    }
    code.push_str("      end if;\n");

    // Stage-ordered operation registers.
    let mut by_stage: Vec<Vec<NodeId>> = vec![Vec::new(); max_stage as usize + 1];
    for (id, node) in graph.nodes() {
        if mask[id.index()] && !matches!(node, Node::Leaf(_)) {
            by_stage[levels[id.index()] as usize].push(id);
        }
    }
    for (stage, nodes) in by_stage.iter().enumerate().skip(1) {
        if nodes.is_empty() {
            continue;
        }
        let _ = writeln!(code, "      -- stage {stage}");
        for &id in nodes {
            let stage = stage as u32;
            let expr = match graph.node(id) {
                Node::Unary { op, arg } => {
                    let a = operand_ref(*arg, stage);
                    let f = match op {
                        UnaryOp::Neg => "fx_neg",
                        UnaryOp::Abs => "fx_abs",
                        UnaryOp::Sqrt => "fx_sqrt",
                    };
                    format!("{f}({a})")
                }
                Node::Binary { op, lhs, rhs } => {
                    let a = operand_ref(*lhs, stage);
                    let b = operand_ref(*rhs, stage);
                    let f = match op {
                        BinaryOp::Add => "fx_add",
                        BinaryOp::Sub => "fx_sub",
                        BinaryOp::Mul => "fx_mul",
                        BinaryOp::Div => "fx_div",
                        BinaryOp::Min => "fx_min",
                        BinaryOp::Max => "fx_max",
                        BinaryOp::Lt => "fx_lt",
                        BinaryOp::Le => "fx_le",
                        BinaryOp::Gt => "fx_gt",
                        BinaryOp::Ge => "fx_ge",
                    };
                    format!("{f}({a}, {b})")
                }
                Node::Select { cond, then_, else_ } => {
                    let c = operand_ref(*cond, stage);
                    let t = operand_ref(*then_, stage);
                    let e = operand_ref(*else_, stage);
                    format!("fx_sel({c}, {t}, {e})")
                }
                Node::Leaf(_) => unreachable!("leaves are filtered out"),
            };
            let _ = writeln!(code, "      n{} <= {expr};", id.index());
        }
    }

    if !delay_list.is_empty() {
        code.push_str("      -- pipeline balancing delays\n");
        for (base, k) in &delay_list {
            let _ = writeln!(code, "      {base}_d1 <= {base};");
            for j in 2..=*k {
                let _ = writeln!(code, "      {base}_d{j} <= {base}_d{};", j - 1);
            }
        }
    }
    code.push_str("    end if;\n  end process pipeline;\n\n");

    // Output wiring, aligned to max_stage.
    for (name, node) in &out_port_names {
        let avail = if matches!(graph.node(*node), Node::Leaf(_)) {
            0
        } else {
            levels[node.index()]
        };
        let k = max_stage - avail;
        let base = match graph.node(*node) {
            Node::Leaf(Leaf::Const(c)) => format!("to_signed({}, DATA_WIDTH)", quant(c.value())),
            _ => base_name(*node).expect("outputs are named"),
        };
        let src = if k == 0 || matches!(graph.node(*node), Node::Leaf(Leaf::Const(_))) {
            base
        } else {
            format!("{base}_d{k}")
        };
        let _ = writeln!(code, "  {name} <= {src};");
    }
    let _ = writeln!(code, "  out_valid <= valid_sr({max_stage});");
    let _ = writeln!(code, "end architecture rtl;");

    VhdlModule {
        entity_name: entity,
        code,
        ports,
        pipeline_stages: max_stage,
        signal_count,
        delay_registers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isl_ir::{Expr, FieldKind, Offset, StencilPattern, Window};

    fn avg_pattern() -> StencilPattern {
        let mut p = StencilPattern::new(1).with_name("avg");
        let f = p.add_field("f", FieldKind::Dynamic);
        let sum = Expr::binary(
            BinaryOp::Add,
            Expr::binary(
                BinaryOp::Add,
                Expr::input(f, Offset::d1(-1)),
                Expr::input(f, Offset::d1(0)),
            ),
            Expr::input(f, Offset::d1(1)),
        );
        p.set_update(
            f,
            Expr::binary(BinaryOp::Mul, sum, Expr::constant(0.25)),
        )
        .unwrap();
        p
    }

    fn build(window: u32, depth: u32) -> VhdlModule {
        let p = avg_pattern();
        let cone = Cone::build(&p, Window::line(window), depth).unwrap();
        generate_cone(&cone, &VhdlOptions::default())
    }

    #[test]
    fn entity_and_ports() {
        let m = build(2, 1);
        assert_eq!(m.entity_name, "avg_w2x1_d1");
        assert!(m.code.contains("entity avg_w2x1_d1 is"));
        // 4 control + 4 inputs (window 2 + halo 2) + 2 outputs.
        let data_in = m
            .ports
            .iter()
            .filter(|p| !p.is_control && p.direction == PortDirection::In)
            .count();
        let data_out = m
            .ports
            .iter()
            .filter(|p| !p.is_control && p.direction == PortDirection::Out)
            .count();
        assert_eq!(data_in, 4);
        assert_eq!(data_out, 2);
    }

    #[test]
    fn signals_match_registers() {
        let p = avg_pattern();
        let cone = Cone::build(&p, Window::line(3), 2).unwrap();
        let m = generate_cone(&cone, &VhdlOptions::default());
        assert_eq!(m.signal_count, cone.registers());
    }

    #[test]
    fn code_passes_structural_check() {
        for (w, d) in [(1, 1), (2, 1), (3, 2), (4, 3)] {
            let m = build(w, d);
            crate::check::validate(&m.code)
                .unwrap_or_else(|e| panic!("w{w} d{d}: {e}\n{}", m.code));
        }
    }

    #[test]
    fn negative_coordinates_sanitised() {
        let m = build(2, 2);
        assert!(m.code.contains("in_f0_xm"));
        assert!(!m.code.contains("--1")); // no raw negative in identifiers
    }

    #[test]
    fn pipeline_depth_grows_with_cone_depth() {
        let shallow = build(2, 1);
        let deep = build(2, 3);
        assert!(deep.pipeline_stages > shallow.pipeline_stages);
        assert!(deep
            .code
            .contains(&format!("valid_sr({})", deep.pipeline_stages)));
    }

    #[test]
    fn deterministic_output() {
        assert_eq!(build(3, 2).code, build(3, 2).code);
    }

    #[test]
    fn constants_are_quantised_literals() {
        let m = build(1, 1);
        // 0.25 in Q8.10 is 256.
        assert!(m.code.contains("to_signed(256, DATA_WIDTH)"), "{}", m.code);
    }

    #[test]
    fn select_and_compare_render() {
        let mut p = StencilPattern::new(1).with_name("clamp");
        let f = p.add_field("f", FieldKind::Dynamic);
        let x = Expr::input(f, Offset::d1(0));
        let e = Expr::select(
            Expr::binary(BinaryOp::Gt, x.clone(), Expr::constant(1.0)),
            Expr::constant(1.0),
            x,
        );
        p.set_update(f, e).unwrap();
        let cone = Cone::build(&p, Window::line(1), 1).unwrap();
        let m = generate_cone(&cone, &VhdlOptions::default());
        assert!(m.code.contains("fx_gt("));
        assert!(m.code.contains("fx_sel("));
        crate::check::validate(&m.code).unwrap();
    }

    #[test]
    fn multi_field_ports() {
        let mut p = StencilPattern::new(1).with_name("pair");
        let u = p.add_field("u", FieldKind::Dynamic);
        let v = p.add_field("v", FieldKind::Dynamic);
        let g = p.add_field("g", FieldKind::Static);
        p.set_update(
            u,
            Expr::binary(
                BinaryOp::Add,
                Expr::input(v, Offset::d1(0)),
                Expr::input(g, Offset::d1(0)),
            ),
        )
        .unwrap();
        p.set_update(v, Expr::input(u, Offset::d1(0))).unwrap();
        let cone = Cone::build(&p, Window::line(1), 2).unwrap();
        let m = generate_cone(&cone, &VhdlOptions::default());
        assert!(m.ports.iter().any(|pt| pt.name.starts_with("st_f2")));
        assert!(m.ports.iter().any(|pt| pt.name.starts_with("out_f0")));
        assert!(m.ports.iter().any(|pt| pt.name.starts_with("out_f1")));
        crate::check::validate(&m.code).unwrap();
    }
}
