//! Cone construction: unrolling a stencil pattern through `m` iterations.
//!
//! A *cone* (paper, Sections 1 and 3.1) is the hardware module that computes
//! an output window of iteration `i + m` directly from elements of iteration
//! `i`. Construction expands the per-iteration update expressions level by
//! level, memoising every `(field, point, level)` element and interning every
//! operation into one shared [`Graph`] — so the "large number of operations
//! on the same elements repeated multiple times" (Figure 4) is computed, and
//! registered, exactly once.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use crate::expr::Expr;
use crate::geometry::{Extent, Point, Window};
use crate::graph::{Graph, Leaf, NodeId, OpStats};
use crate::pattern::{FieldId, FieldKind, PatternError, StencilPattern};

/// One produced element: `field` at `point` of iteration `i + depth`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConeOutput {
    /// Field produced.
    pub field: FieldId,
    /// Window-local coordinate (inside `0..w × 0..h`).
    pub point: Point,
    /// Graph node holding the value.
    pub node: NodeId,
}

/// One consumed element of the base iteration `i` (or of a static field).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConeInput {
    /// Field read.
    pub field: FieldId,
    /// Cone-local coordinate; may be negative (halo).
    pub point: Point,
}

/// A compact identity for a cone shape, independent of the graph contents.
/// Used to name VHDL entities and to seed the deterministic synthesis jitter.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ConeSignature {
    /// Algorithm name (from the pattern).
    pub algorithm: String,
    /// Output window.
    pub window: Window,
    /// Cone depth (iterations fused).
    pub depth: u32,
}

impl fmt::Display for ConeSignature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}_w{}_d{}", self.algorithm, self.window, self.depth)
    }
}

/// Errors from cone construction.
#[derive(Debug, Clone, PartialEq)]
pub enum ConeError {
    /// Depth must be at least 1.
    ZeroDepth,
    /// The underlying pattern is not well-formed.
    Pattern(PatternError),
}

impl fmt::Display for ConeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConeError::ZeroDepth => write!(f, "cone depth must be at least 1"),
            ConeError::Pattern(e) => write!(f, "invalid pattern: {e}"),
        }
    }
}

impl Error for ConeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ConeError::Pattern(e) => Some(e),
            ConeError::ZeroDepth => None,
        }
    }
}

impl From<PatternError> for ConeError {
    fn from(e: PatternError) -> Self {
        ConeError::Pattern(e)
    }
}

/// A multi-iteration stencil compute module with register reuse.
///
/// See the [crate-level documentation](crate) for a construction example.
#[derive(Debug, Clone)]
pub struct Cone {
    signature: ConeSignature,
    simplified: bool,
    rank: usize,
    radius: u32,
    graph: Graph,
    outputs: Vec<ConeOutput>,
    inputs: Vec<ConeInput>,
    static_inputs: Vec<ConeInput>,
    registers: usize,
    op_stats: OpStats,
    tree_ops: f64,
}

impl Cone {
    /// Build a cone of the given output window and depth, with algebraic
    /// simplification enabled (the flow default).
    ///
    /// # Errors
    ///
    /// Returns [`ConeError::ZeroDepth`] for `depth == 0` and
    /// [`ConeError::Pattern`] if the pattern fails validation.
    pub fn build(pattern: &StencilPattern, window: Window, depth: u32) -> Result<Cone, ConeError> {
        Self::build_with(pattern, window, depth, true)
    }

    /// [`Cone::build`] with explicit control over algebraic simplification
    /// (disable it for ablation studies).
    ///
    /// # Errors
    ///
    /// Same as [`Cone::build`].
    pub fn build_with(
        pattern: &StencilPattern,
        window: Window,
        depth: u32,
        simplify: bool,
    ) -> Result<Cone, ConeError> {
        if depth == 0 {
            return Err(ConeError::ZeroDepth);
        }
        pattern.validate()?;

        let mut builder = ConeBuilder {
            pattern,
            graph: if simplify {
                Graph::new()
            } else {
                Graph::without_simplification()
            },
            memo: HashMap::new(),
        };

        let mut outputs = Vec::new();
        for field in pattern.dynamic_fields() {
            for point in window.points() {
                let node = builder.element(field, point, depth);
                outputs.push(ConeOutput { field, point, node });
            }
        }

        let graph = builder.graph;
        let roots: Vec<NodeId> = outputs.iter().map(|o| o.node).collect();
        let mask = graph.reachable(&roots);

        let mut inputs = Vec::new();
        let mut static_inputs = Vec::new();
        let mut registers = 0usize;
        for (id, node) in graph.nodes() {
            if !mask[id.index()] {
                continue;
            }
            match node {
                crate::graph::Node::Leaf(Leaf::Input { field, point }) => {
                    inputs.push(ConeInput { field: *field, point: *point });
                }
                crate::graph::Node::Leaf(Leaf::Static { field, point }) => {
                    static_inputs.push(ConeInput { field: *field, point: *point });
                }
                crate::graph::Node::Leaf(_) => {}
                _ => registers += 1,
            }
        }
        inputs.sort_unstable();
        static_inputs.sort_unstable();
        let op_stats = graph.op_stats(Some(&mask));
        let tree_ops = tree_op_count(pattern, window, depth);

        Ok(Cone {
            signature: ConeSignature {
                algorithm: pattern.name().to_string(),
                window,
                depth,
            },
            simplified: simplify,
            rank: pattern.rank(),
            radius: pattern.radius(),
            graph,
            outputs,
            inputs,
            static_inputs,
            registers,
            op_stats,
            tree_ops,
        })
    }

    /// Shape identity (algorithm, window, depth).
    pub fn signature(&self) -> &ConeSignature {
        &self.signature
    }

    /// Whether algebraic simplification was enabled during construction.
    /// Part of the cone's cache identity: the same shape built with and
    /// without simplification yields different graphs.
    pub fn simplified(&self) -> bool {
        self.simplified
    }

    /// Output window.
    pub fn window(&self) -> Window {
        self.signature.window
    }

    /// Number of iterations fused by this cone.
    pub fn depth(&self) -> u32 {
        self.signature.depth
    }

    /// Stencil radius of the underlying pattern.
    pub fn radius(&self) -> u32 {
        self.radius
    }

    /// Spatial rank of the underlying pattern.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// The shared dataflow graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Produced elements, one per `(dynamic field, window point)`.
    pub fn outputs(&self) -> &[ConeOutput] {
        &self.outputs
    }

    /// Consumed dynamic-field elements of the base iteration, sorted.
    pub fn inputs(&self) -> &[ConeInput] {
        &self.inputs
    }

    /// Consumed static-field elements, sorted.
    pub fn static_inputs(&self) -> &[ConeInput] {
        &self.static_inputs
    }

    /// Number of operation registers after reuse — the paper's `Reg`
    /// quantity feeding the area model (Eq. 1).
    pub fn registers(&self) -> usize {
        self.registers
    }

    /// Operation statistics (reachable operations only).
    pub fn op_stats(&self) -> &OpStats {
        &self.op_stats
    }

    /// Number of operations a naive per-output expression *tree* would
    /// instantiate (no reuse at all). The ratio `tree_op_count / registers`
    /// measures what the data-reuse technique of Section 3.2 saves.
    pub fn tree_op_count(&self) -> f64 {
        self.tree_ops
    }

    /// The theoretical input extent: the output window grown by
    /// `radius × depth` on every used axis. Every actual input lies inside.
    pub fn input_extent(&self) -> Extent {
        self.signature.window.grown(self.radius * self.signature.depth)
    }

    /// Evaluate the cone on concrete inputs with `f64` semantics.
    ///
    /// * `read(field, point)` supplies dynamic-field base values and
    ///   static-field values (the field id tells which is which);
    /// * `params` supplies parameter values by [`crate::ParamId`] index.
    ///
    /// Returns `(field, point, value)` for every output element.
    pub fn eval<R>(&self, read: R, params: &[f64]) -> Vec<(FieldId, Point, f64)>
    where
        R: Fn(FieldId, Point) -> f64,
    {
        let vals = self.graph.eval(|leaf| match leaf {
            Leaf::Input { field, point } | Leaf::Static { field, point } => read(*field, *point),
            Leaf::Const(c) => c.value(),
            Leaf::Param(p) => params.get(p.index()).copied().unwrap_or(f64::NAN),
        });
        self.outputs
            .iter()
            .map(|o| (o.field, o.point, vals[o.node.index()]))
            .collect()
    }
}

impl fmt::Display for Cone {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cone {} (regs={}, inputs={}, outputs={})",
            self.signature,
            self.registers,
            self.inputs.len(),
            self.outputs.len()
        )
    }
}

struct ConeBuilder<'p> {
    pattern: &'p StencilPattern,
    graph: Graph,
    memo: HashMap<(FieldId, Point, u32), NodeId>,
}

impl<'p> ConeBuilder<'p> {
    /// The graph node computing `field` at `point` of relative level `level`
    /// (level 0 = cone base input).
    fn element(&mut self, field: FieldId, point: Point, level: u32) -> NodeId {
        if let Some(&id) = self.memo.get(&(field, point, level)) {
            return id;
        }
        let id = if level == 0 {
            self.graph.input(field, point)
        } else {
            // The pattern outlives the builder, so the update is borrowed
            // from it rather than cloned per instantiated element.
            let pattern: &'p StencilPattern = self.pattern;
            let expr = pattern
                .update(field)
                .expect("validated pattern has updates for all dynamic fields");
            self.instantiate(expr, point, level)
        };
        self.memo.insert((field, point, level), id);
        id
    }

    /// Instantiate an update expression at an absolute point, with reads
    /// resolving one level down.
    fn instantiate(&mut self, expr: &Expr, point: Point, level: u32) -> NodeId {
        match expr {
            Expr::Input { field, offset } => {
                let target = point.offset(*offset);
                if self.pattern.field(*field).kind == FieldKind::Static {
                    self.graph.static_input(*field, target)
                } else {
                    self.element(*field, target, level - 1)
                }
            }
            Expr::Const(v) => self.graph.constant(*v),
            Expr::Param(p) => self.graph.param(*p),
            Expr::Unary { op, arg } => {
                let a = self.instantiate(arg, point, level);
                self.graph.unary(*op, a)
            }
            Expr::Binary { op, lhs, rhs } => {
                let l = self.instantiate(lhs, point, level);
                let r = self.instantiate(rhs, point, level);
                self.graph.binary(*op, l, r)
            }
            Expr::Select { cond, then_, else_ } => {
                let c = self.instantiate(cond, point, level);
                let t = self.instantiate(then_, point, level);
                let e = self.instantiate(else_, point, level);
                self.graph.select(c, t, e)
            }
        }
    }
}

/// Closed-form count of the operations a reuse-free expression *tree* for
/// this cone would contain. Computed by the vector recurrence
/// `T_f(l) = ops(update_f) + Σ_{f'} mult(f, f') · T_{f'}(l − 1)`, `T_f(0)=0`,
/// where `mult(f, f')` counts (with multiplicity) the dynamic reads of `f'`
/// in the update of `f`. The result grows exponentially in depth, hence the
/// `f64` return type.
fn tree_op_count(pattern: &StencilPattern, window: Window, depth: u32) -> f64 {
    let dyn_fields = pattern.dynamic_fields();
    let n = dyn_fields.len();
    let index_of: HashMap<FieldId, usize> =
        dyn_fields.iter().enumerate().map(|(i, f)| (*f, i)).collect();

    // ops[i] and mult[i][j]: tree ops of one element of field i, and dynamic
    // read multiplicities of field j inside update of field i.
    let mut ops = vec![0.0f64; n];
    let mut mult = vec![vec![0.0f64; n]; n];
    for (i, f) in dyn_fields.iter().enumerate() {
        let update = pattern.update(*f).expect("validated");
        ops[i] = update.op_count() as f64;
        update.visit(&mut |e| {
            if let Expr::Input { field, .. } = e {
                if pattern.field(*field).kind == FieldKind::Dynamic {
                    mult[i][index_of[field]] += 1.0;
                }
            }
        });
    }

    let mut t = vec![0.0f64; n];
    for _ in 0..depth {
        let mut next = vec![0.0f64; n];
        for i in 0..n {
            next[i] = ops[i];
            for j in 0..n {
                next[i] += mult[i][j] * t[j];
            }
        }
        t = next;
    }
    t.iter().sum::<f64>() * window.area() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::BinaryOp;

    /// f'(x) = (f(x-1) + f(x) + f(x+1)) / 3
    fn avg_1d() -> StencilPattern {
        let mut p = StencilPattern::new(1).with_name("avg1d");
        let f = p.add_field("f", FieldKind::Dynamic);
        let sum = Expr::sum([
            Expr::input(f, crate::Offset::d1(-1)),
            Expr::input(f, crate::Offset::d1(0)),
            Expr::input(f, crate::Offset::d1(1)),
        ]);
        p.set_update(f, Expr::binary(BinaryOp::Div, sum, Expr::constant(3.0)))
            .unwrap();
        p
    }

    /// 2D 4-neighbour Jacobi.
    fn jacobi_2d() -> StencilPattern {
        let mut p = StencilPattern::new(2).with_name("jacobi");
        let f = p.add_field("f", FieldKind::Dynamic);
        let sum = Expr::sum([
            Expr::input(f, crate::Offset::d2(0, -1)),
            Expr::input(f, crate::Offset::d2(-1, 0)),
            Expr::input(f, crate::Offset::d2(1, 0)),
            Expr::input(f, crate::Offset::d2(0, 1)),
        ]);
        p.set_update(
            f,
            Expr::binary(BinaryOp::Mul, sum, Expr::constant(0.25)),
        )
        .unwrap();
        p
    }

    #[test]
    fn zero_depth_is_rejected() {
        let p = avg_1d();
        assert_eq!(
            Cone::build(&p, Window::line(1), 0).unwrap_err(),
            ConeError::ZeroDepth
        );
    }

    #[test]
    fn single_element_single_depth() {
        let p = avg_1d();
        let cone = Cone::build(&p, Window::line(1), 1).unwrap();
        assert_eq!(cone.inputs().len(), 3);
        assert_eq!(cone.outputs().len(), 1);
        // 2 adds + 1 div
        assert_eq!(cone.registers(), 3);
        assert_eq!(cone.tree_op_count(), 3.0);
    }

    #[test]
    fn input_window_grows_with_depth() {
        let p = avg_1d();
        for depth in 1..=4u32 {
            let cone = Cone::build(&p, Window::line(4), depth).unwrap();
            assert_eq!(cone.inputs().len() as u32, 4 + 2 * depth);
            let ext = cone.input_extent();
            assert_eq!(ext.count() as u32, 4 + 2 * depth);
        }
    }

    #[test]
    fn reuse_beats_tree_expansion() {
        let p = avg_1d();
        let cone = Cone::build(&p, Window::line(4), 3).unwrap();
        // The tree recurrence: T(1)=3, T(2)=3+3*3=12, T(3)=3+3*12=39; x4 outputs.
        assert_eq!(cone.tree_op_count(), 156.0);
        assert!(
            (cone.registers() as f64) < cone.tree_op_count(),
            "reuse must shrink the implementation: {} vs {}",
            cone.registers(),
            cone.tree_op_count()
        );
    }

    #[test]
    fn deeper_cones_share_intermediate_elements() {
        let p = jacobi_2d();
        let c1 = Cone::build(&p, Window::square(4), 1).unwrap();
        let c2 = Cone::build(&p, Window::square(4), 2).unwrap();
        // Depth-2 cone includes depth-1 work plus the next level, but reuse
        // keeps the growth far below doubling the tree.
        assert!(c2.registers() > c1.registers());
        assert!((c2.registers() as f64) < c2.tree_op_count());
    }

    #[test]
    fn jacobi_geometry_2d() {
        let p = jacobi_2d();
        let cone = Cone::build(&p, Window::square(2), 2).unwrap();
        let ext = cone.input_extent();
        assert_eq!(ext.lo, Point::d2(-2, -2));
        assert_eq!(ext.hi, Point::d2(3, 3));
        // Von-Neumann stencil does not read the corners, so actual inputs
        // are fewer than the bounding extent.
        assert!(cone.inputs().len() as u64 <= ext.count());
        assert!(!cone.inputs().is_empty());
        for inp in cone.inputs() {
            assert!(ext.contains(inp.point));
        }
    }

    #[test]
    fn eval_depth_two_matches_manual_iteration() {
        let p = avg_1d();
        let cone = Cone::build(&p, Window::line(1), 2).unwrap();
        // Base: f(x) = x for x in -2..=2.
        let read = |_f: FieldId, pt: Point| pt.x as f64;
        let out = cone.eval(read, &[]);
        assert_eq!(out.len(), 1);
        // One iteration of avg keeps f(x) = x (linear fixed point), so two
        // iterations at x=0 give 0.
        assert!((out[0].2 - 0.0).abs() < 1e-12);
    }

    #[test]
    fn eval_quadratic_input() {
        let p = avg_1d();
        let cone = Cone::build(&p, Window::line(1), 1).unwrap();
        // f(x) = x^2 over {-1,0,1} -> avg = 2/3.
        let out = cone.eval(|_, pt| (pt.x * pt.x) as f64, &[]);
        assert!((out[0].2 - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn static_fields_stay_at_level_zero() {
        let mut p = StencilPattern::new(1).with_name("relax");
        let f = p.add_field("f", FieldKind::Dynamic);
        let g = p.add_field("g", FieldKind::Static);
        // f' = (f(-1) + f(1)) * 0.5 + g(0)
        let e = Expr::binary(
            BinaryOp::Add,
            Expr::binary(
                BinaryOp::Mul,
                Expr::binary(
                    BinaryOp::Add,
                    Expr::input(f, crate::Offset::d1(-1)),
                    Expr::input(f, crate::Offset::d1(1)),
                ),
                Expr::constant(0.5),
            ),
            Expr::input(g, crate::Offset::d1(0)),
        );
        p.set_update(f, e).unwrap();
        let cone = Cone::build(&p, Window::line(2), 3).unwrap();
        // Static inputs appear at every level's absolute points but always
        // read iteration-0 (frame) data; they never become dynamic inputs.
        assert!(!cone.static_inputs().is_empty());
        for si in cone.static_inputs() {
            assert_eq!(si.field, g);
        }
        for di in cone.inputs() {
            assert_eq!(di.field, f);
        }
    }

    #[test]
    fn signature_display_is_stable() {
        let p = jacobi_2d();
        let cone = Cone::build(&p, Window::square(3), 2).unwrap();
        assert_eq!(cone.signature().to_string(), "jacobi_w3x3_d2");
    }

    #[test]
    fn simplification_prunes_zero_taps() {
        // Kernel with a zero tap: f' = f(-1)*0 + f(0) — simplification must
        // remove the multiply and the add entirely.
        let mut p = StencilPattern::new(1).with_name("zerotap");
        let f = p.add_field("f", FieldKind::Dynamic);
        let e = Expr::binary(
            BinaryOp::Add,
            Expr::binary(
                BinaryOp::Mul,
                Expr::input(f, crate::Offset::d1(-1)),
                Expr::constant(0.0),
            ),
            Expr::input(f, crate::Offset::d1(0)),
        );
        p.set_update(f, e.clone()).unwrap();
        let simplified = Cone::build(&p, Window::line(1), 1).unwrap();
        assert_eq!(simplified.registers(), 0);
        assert_eq!(simplified.inputs().len(), 1);
        let raw = Cone::build_with(&p, Window::line(1), 1, false).unwrap();
        assert_eq!(raw.registers(), 2);
        assert_eq!(raw.inputs().len(), 2);
    }

    #[test]
    fn multi_field_coupled_pattern() {
        // u' = v(0), v' = u(0) — a swap; depth 2 returns the original.
        let mut p = StencilPattern::new(1).with_name("swap");
        let u = p.add_field("u", FieldKind::Dynamic);
        let v = p.add_field("v", FieldKind::Dynamic);
        p.set_update(u, Expr::input(v, crate::Offset::d1(0))).unwrap();
        p.set_update(v, Expr::input(u, crate::Offset::d1(0))).unwrap();
        let cone = Cone::build(&p, Window::line(1), 2).unwrap();
        let out = cone.eval(
            |f, _| if f == u { 1.0 } else { 2.0 },
            &[],
        );
        let u_out = out.iter().find(|(f, _, _)| *f == u).unwrap().2;
        let v_out = out.iter().find(|(f, _, _)| *f == v).unwrap().2;
        assert_eq!(u_out, 1.0);
        assert_eq!(v_out, 2.0);
    }
}
