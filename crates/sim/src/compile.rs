//! Lowering of [`Expr`] trees into flat bytecode.
//!
//! The tree-walking interpreter in `isl-ir` chases a `Box` per node, re-reads
//! duplicated subtrees and resolves borders on every sample — fine as a
//! golden reference, far too slow for whole-frame iteration at production
//! sizes. This module lowers each dynamic field's update expression **once**
//! into a [`CompiledKernel`]: a register-indexed instruction buffer in
//! dependency (postfix) order, with
//!
//! * **parameters bound up front** — every [`Expr::Param`] leaf becomes a
//!   literal constant of the simulator's current parameter binding;
//! * **constant folding** — operations whose operands are all constants are
//!   evaluated at compile time (with the exact same `f64` operation the
//!   runtime would use, so results stay bit-identical);
//! * **common-subexpression elimination** — structurally identical
//!   subexpressions share one register, mirroring the paper's register-reuse
//!   rule at software level;
//! * **dead-code elimination** — registers orphaned by folding are dropped.
//!
//! Programs lowered with folding off keep every operation node, which is
//! what the quantised engines run: one such program serves every
//! fixed-point format, since the engines quantise each [`Instr::Const`]
//! where it is read.
//!
//! Execution lives in the crate's VM modules; the [`crate::Simulator`]
//! compiles lazily and serves programs from a [`ProgramCache`].

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use isl_ir::{BinaryOp, Cone, Expr, FieldKind, Leaf, Node, NodeId, StencilPattern, UnaryOp};

/// A borrowed view of one freshly compiled program, in whichever of the
/// three forms the compiler emits — what the [compile verifier
/// hook](set_compile_verifier) receives.
#[derive(Clone, Copy)]
pub enum ProgramView<'a> {
    /// An SSA `f64` kernel ([`CompiledKernel`]).
    Kernel(&'a CompiledKernel),
    /// A multi-field fold-free step program ([`QuantizedStep`]).
    Step(&'a QuantizedStep),
    /// A slot-allocated cone program ([`CompiledCone`]).
    Cone(&'a CompiledCone),
}

impl ProgramView<'_> {
    /// Short human name of the program form (for diagnostics).
    pub fn kind(&self) -> &'static str {
        match self {
            ProgramView::Kernel(_) => "kernel",
            ProgramView::Step(_) => "quantized step",
            ProgramView::Cone(_) => "cone",
        }
    }
}

/// A bytecode verifier installed with [`set_compile_verifier`]: receives
/// every freshly compiled program and returns a description of the first
/// violated contract, if any.
pub type CompileVerifier = fn(ProgramView<'_>) -> Result<(), String>;

static COMPILE_VERIFIER: OnceLock<CompileVerifier> = OnceLock::new();

/// Install a process-wide bytecode verifier, called after **every**
/// compile in debug builds (release builds skip the call entirely); a
/// verifier finding is a compiler bug and panics. First installation
/// wins and later calls are no-ops (returning `false`), so every entry
/// point can install unconditionally. The canonical verifier lives in
/// `isl-analyze` (`install_debug_verifier`) — this crate only provides
/// the hook, keeping the dependency arrow pointing analyzer → compiler.
pub fn set_compile_verifier(hook: CompileVerifier) -> bool {
    COMPILE_VERIFIER.set(hook).is_ok()
}

/// Debug-assert the installed verifier on a freshly compiled program.
#[inline]
fn notify_compiled(view: ProgramView<'_>) {
    if cfg!(debug_assertions) {
        if let Some(hook) = COMPILE_VERIFIER.get() {
            if let Err(e) = hook(view) {
                panic!("compiled {} failed bytecode verification: {e}", view.kind());
            }
        }
    }
}

/// Index of an instruction (or, after slot allocation, of a value slot).
/// In a [`CompiledKernel`] instruction `i` writes virtual register `i`.
pub type Reg = u32;

/// One bytecode instruction. Operands always reference earlier instructions
/// (slots, for slot-allocated cone programs), so a single forward pass
/// evaluates the whole program. The one instruction set of every engine:
/// the `f64` engines execute it on samples, and the quantised engines and
/// the bit-true integer VM of `isl-cosim` execute a fold-free program on
/// raw fixed-point words of a format chosen at run time, quantising each
/// [`Instr::Const`] where it is read.
#[derive(Debug, Clone, Copy, PartialEq)]
#[allow(missing_docs)] // variant fields are documented on the variants
pub enum Instr {
    /// A literal (folded constants and bound parameters included).
    Const(f64),
    /// Read field `field` at relative offset `(dx, dy)`.
    Input { field: u16, dx: i32, dy: i32 },
    /// Unary operation on register `a`.
    Unary { op: UnaryOp, a: Reg },
    /// Binary operation on registers `a`, `b`.
    Binary { op: BinaryOp, a: Reg, b: Reg },
    /// `regs[c] != 0 ? regs[t] : regs[e]`.
    Select { c: Reg, t: Reg, e: Reg },
}

/// Structural key used for common-subexpression elimination (constants are
/// keyed by bit pattern so `-0.0`/`0.0` and NaNs are kept distinct).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Key {
    Const(u64),
    Input(u16, i32, i32),
    Unary(UnaryOp, Reg),
    Binary(BinaryOp, Reg, Reg),
    Select(Reg, Reg, Reg),
}

/// Operand access and operand rewriting for the compiler passes
/// (dead-code elimination, kill-first scheduling, linear-scan slot
/// allocation).
impl Instr {
    /// Write the operand registers (≤ 3, with multiplicity) into `out`,
    /// returning how many there are.
    fn operands(&self, out: &mut [Reg; 3]) -> usize {
        match *self {
            Instr::Const(_) | Instr::Input { .. } => 0,
            Instr::Unary { a, .. } => {
                out[0] = a;
                1
            }
            Instr::Binary { a, b, .. } => {
                out[0] = a;
                out[1] = b;
                2
            }
            Instr::Select { c, t, e } => {
                out[0] = c;
                out[1] = t;
                out[2] = e;
                3
            }
        }
    }

    /// The same instruction with every operand register rewritten.
    fn remap(self, fix: impl Fn(Reg) -> Reg) -> Self {
        match self {
            Instr::Const(_) | Instr::Input { .. } => self,
            Instr::Unary { op, a } => Instr::Unary { op, a: fix(a) },
            Instr::Binary { op, a, b } => Instr::Binary {
                op,
                a: fix(a),
                b: fix(b),
            },
            Instr::Select { c, t, e } => Instr::Select {
                c: fix(c),
                t: fix(t),
                e: fix(e),
            },
        }
    }

    /// The `(field, dx, dy)` of an input tap, if this is one.
    fn tap(&self) -> Option<(u16, i32, i32)> {
        match *self {
            Instr::Input { field, dx, dy } => Some((field, dx, dy)),
            _ => None,
        }
    }
}

/// Per-side halo of a kernel: how far reads reach beyond the centre element.
/// The interior plane of a frame is the region where every read stays
/// in-bounds, i.e. at least `left`/`right`/`up`/`down` samples away from the
/// respective frame edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Halo {
    /// Reach in `-x`.
    pub left: u32,
    /// Reach in `+x`.
    pub right: u32,
    /// Reach in `-y`.
    pub up: u32,
    /// Reach in `+y`.
    pub down: u32,
}

impl Halo {
    /// The per-side read reach of an SSA program's input taps.
    fn of(code: &[Instr]) -> Self {
        let mut halo = Halo::default();
        for (_, dx, dy) in code.iter().filter_map(Instr::tap) {
            halo.left = halo.left.max(dx.unsigned_abs() * u32::from(dx < 0));
            halo.right = halo.right.max(dx.unsigned_abs() * u32::from(dx > 0));
            halo.up = halo.up.max(dy.unsigned_abs() * u32::from(dy < 0));
            halo.down = halo.down.max(dy.unsigned_abs() * u32::from(dy > 0));
        }
        halo
    }
}

/// The compiled update program of one dynamic field.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledKernel {
    pub(crate) code: Vec<Instr>,
    pub(crate) result: Reg,
    halo: Halo,
}

impl CompiledKernel {
    /// Lower `expr` with `params` bound as constants. With `fold == true`
    /// constant subexpressions are evaluated at compile time; with
    /// `fold == false` every intermediate value still exists for
    /// per-operation rounding, as in the quantised engines' programs.
    ///
    /// # Panics
    ///
    /// Panics on offsets with a `dz` component (the frame engine is 1D/2D;
    /// [`crate::Simulator::new`] rejects rank-3 patterns before this runs).
    pub fn compile(expr: &Expr, params: &[f64], fold: bool) -> Self {
        let mut b = Builder {
            params,
            fold,
            code: Vec::new(),
            cse: HashMap::new(),
        };
        let result = b.lower(expr);
        let (code, result) = eliminate_dead_code(b.code, result);
        let halo = Halo::of(&code);
        let k = CompiledKernel { code, result, halo };
        notify_compiled(ProgramView::Kernel(&k));
        k
    }

    /// Number of instructions in the flattened program.
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// Whether the program is empty (never: even a constant emits one
    /// instruction).
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// The per-side read reach of this kernel.
    pub fn halo(&self) -> Halo {
        self.halo
    }

    /// Number of field-read instructions after CSE (deduplicated taps).
    pub fn input_count(&self) -> usize {
        self.code
            .iter()
            .filter(|i| matches!(i, Instr::Input { .. }))
            .count()
    }

    /// The instruction buffer; instruction `i` writes register `i`.
    pub fn code(&self) -> &[Instr] {
        &self.code
    }

    /// Register holding the kernel's result.
    pub fn result(&self) -> Reg {
        self.result
    }
}

struct Builder<'a> {
    params: &'a [f64],
    fold: bool,
    code: Vec<Instr>,
    cse: HashMap<Key, Reg>,
}

impl Builder<'_> {
    fn push(&mut self, key: Key, instr: Instr) -> Reg {
        if let Some(&r) = self.cse.get(&key) {
            return r;
        }
        let r = Reg::try_from(self.code.len()).expect("program exceeds u32 registers");
        self.code.push(instr);
        self.cse.insert(key, r);
        r
    }

    fn constant(&mut self, v: f64) -> Reg {
        self.push(Key::Const(v.to_bits()), Instr::Const(v))
    }

    fn const_of(&self, r: Reg) -> Option<f64> {
        match self.code[r as usize] {
            Instr::Const(v) => Some(v),
            _ => None,
        }
    }

    fn input(&mut self, field: u16, dx: i32, dy: i32) -> Reg {
        self.push(
            Key::Input(field, dx, dy),
            Instr::Input { field, dx, dy },
        )
    }

    fn unary(&mut self, op: UnaryOp, a: Reg) -> Reg {
        if self.fold {
            if let Some(ca) = self.const_of(a) {
                return self.constant(op.apply(ca));
            }
        }
        self.push(Key::Unary(op, a), Instr::Unary { op, a })
    }

    fn binary(&mut self, op: BinaryOp, a: Reg, b: Reg) -> Reg {
        if self.fold {
            if let (Some(ca), Some(cb)) = (self.const_of(a), self.const_of(b)) {
                return self.constant(op.apply(ca, cb));
            }
        }
        self.push(Key::Binary(op, a, b), Instr::Binary { op, a, b })
    }

    fn select(&mut self, c: Reg, t: Reg, e: Reg) -> Reg {
        if self.fold {
            if let Some(cc) = self.const_of(c) {
                // Mirror the interpreter's lazy branch choice.
                return if cc != 0.0 { t } else { e };
            }
        }
        self.push(Key::Select(c, t, e), Instr::Select { c, t, e })
    }

    fn lower(&mut self, expr: &Expr) -> Reg {
        match expr {
            Expr::Input { field, offset } => {
                assert!(
                    offset.dz == 0,
                    "the compiled frame engine supports rank 1 and 2 only"
                );
                let f = u16::try_from(field.index()).expect("field id fits u16");
                self.input(f, offset.dx, offset.dy)
            }
            Expr::Const(v) => self.constant(*v),
            Expr::Param(p) => self.constant(self.params[p.index()]),
            Expr::Unary { op, arg } => {
                let a = self.lower(arg);
                self.unary(*op, a)
            }
            Expr::Binary { op, lhs, rhs } => {
                let a = self.lower(lhs);
                let b = self.lower(rhs);
                self.binary(*op, a, b)
            }
            Expr::Select { cond, then_, else_ } => {
                let c = self.lower(cond);
                if self.fold {
                    if let Some(cc) = self.const_of(c) {
                        // Only the taken branch is ever emitted.
                        return if cc != 0.0 {
                            self.lower(then_)
                        } else {
                            self.lower(else_)
                        };
                    }
                }
                let t = self.lower(then_);
                let e = self.lower(else_);
                self.select(c, t, e)
            }
        }
    }
}

/// Drop instructions unreachable from `result` (constants orphaned by
/// folding), remapping operand registers.
fn eliminate_dead_code(code: Vec<Instr>, result: Reg) -> (Vec<Instr>, Reg) {
    let (code, mut results) = eliminate_dead_code_multi(code, vec![result]);
    (code, results.pop().expect("one result in, one result out"))
}

/// Linear-scan slot allocation over a dead-code-free program: a slot is
/// freed the moment its value's last consumer has executed, and reused by
/// later instructions. Returns the program with operands rewritten to slot
/// indices, the destination slot of each instruction, the result slots, and
/// the total slot count (peak liveness).
///
/// Allocation is **retiring**: a result does *not* pin its slot to the end
/// of the program — its value is captured (streamed to its destination) the
/// instant its defining instruction executes, so its slot frees at its last
/// *consumer* like any other value. `results` therefore come back as `(slot,
/// capture)` pairs, where `capture` is the index of the defining
/// instruction: evaluators must read `slot` immediately after executing
/// instruction `capture`, before any later instruction can reuse it. This
/// is what lets wide cones (hundreds of outputs) run in a live set far
/// below their output count.
///
/// An instruction's destination slot is always distinct from its operand
/// slots (operands are live *at* the instruction, so their slots cannot be
/// on the free list when the destination is assigned) — evaluators may rely
/// on this for aliasing-free in-place execution.
type SlotAllocation = (Vec<Instr>, Vec<Reg>, Vec<(Reg, Reg)>, usize);

fn allocate_slots(code: Vec<Instr>, results: Vec<Reg>) -> SlotAllocation {
    let n = code.len();
    // Last consumer of each instruction's value (itself if never consumed).
    let mut last_use: Vec<usize> = (0..n).collect();
    let mut ops = [0 as Reg; 3];
    for (i, instr) in code.iter().enumerate() {
        let k = instr.operands(&mut ops);
        for &r in &ops[..k] {
            last_use[r as usize] = i;
        }
    }
    let mut frees: Vec<Vec<Reg>> = vec![Vec::new(); n];
    for (r, &lu) in last_use.iter().enumerate() {
        if lu < n {
            frees[lu].push(r as Reg);
        }
    }
    let mut slot_of: Vec<Reg> = vec![0; n];
    let mut free: Vec<Reg> = Vec::new();
    let mut total: Reg = 0;
    for i in 0..n {
        slot_of[i] = free.pop().unwrap_or_else(|| {
            total += 1;
            total - 1
        });
        for &r in &frees[i] {
            free.push(slot_of[r as usize]);
        }
    }
    let code = code
        .into_iter()
        .map(|instr| instr.remap(|r| slot_of[r as usize]))
        .collect();
    let dst = slot_of.clone();
    let results = results
        .into_iter()
        .map(|r| (slot_of[r as usize], r))
        .collect();
    (code, dst, results, total as usize)
}

/// Greedy consumer-clustering schedule: a list scheduler that, among the
/// ready instructions, always emits the one that *kills* the most operand
/// values (retires their slots), breaking ties towards the earliest
/// original index — consumers are pulled right next to the producers whose
/// values they free. The lowering order (memoised DFS from the first
/// output) keeps shared subexpressions live from their first consumer to
/// their last; kill-first scheduling retires them as early as the dataflow
/// allows, which is what shrinks the linear-scan allocator's peak live
/// set. Dataflow is untouched — only the order changes — so results stay
/// bit-identical.
///
/// Expects dead-code-free input (every instruction reachable from a result).
///
/// Results get no extra liveness credit here: under retiring allocation
/// ([`allocate_slots`]) an output is captured at its defining instruction,
/// so for scheduling purposes it dies at its last consumer like any other
/// value.
fn schedule_for_locality(code: &[Instr], results: &[Reg]) -> (Vec<Instr>, Vec<Reg>) {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let n = code.len();
    // remaining[v]: unscheduled consumer slots of value v.
    let mut remaining: Vec<u32> = vec![0; n];
    let mut pending: Vec<u8> = vec![0; n]; // unscheduled operand slots of i
    let mut users: Vec<Vec<Reg>> = vec![Vec::new(); n];
    let mut ops = [0 as Reg; 3];
    for (i, instr) in code.iter().enumerate() {
        let k = instr.operands(&mut ops);
        pending[i] = k as u8;
        for &op in &ops[..k] {
            remaining[op as usize] += 1;
            users[op as usize].push(i as Reg);
        }
    }
    // kills(i): distinct operands whose remaining count equals their
    // multiplicity in i — scheduling i is their last use. Monotone
    // non-decreasing as other consumers schedule, so stale (lower-scored)
    // heap entries are safely superseded by re-pushes.
    let kills = |i: usize, remaining: &[u32]| -> u8 {
        let mut ops = [0 as Reg; 3];
        let k = code[i].operands(&mut ops);
        let mut score = 0u8;
        for j in 0..k {
            if ops[..j].contains(&ops[j]) {
                continue; // count each distinct operand once
            }
            let mult = ops[..k].iter().filter(|&&o| o == ops[j]).count() as u32;
            if remaining[ops[j] as usize] == mult {
                score += 1;
            }
        }
        score
    };
    let mut heap: BinaryHeap<(u8, Reverse<Reg>)> = BinaryHeap::new();
    for (i, &p) in pending.iter().enumerate() {
        if p == 0 {
            heap.push((kills(i, &remaining), Reverse(i as Reg)));
        }
    }
    let mut order: Vec<Reg> = Vec::with_capacity(n);
    let mut scheduled = vec![false; n];
    while let Some((score, Reverse(i))) = heap.pop() {
        let i = i as usize;
        if scheduled[i] {
            continue;
        }
        let now = kills(i, &remaining);
        if now != score {
            heap.push((now, Reverse(i as Reg)));
            continue;
        }
        scheduled[i] = true;
        order.push(i as Reg);
        let k = code[i].operands(&mut ops);
        for &op in &ops[..k] {
            remaining[op as usize] -= 1;
            // A consumer's kill score can only flip once its operand is
            // down to its last few uses (multiplicity ≤ 3); re-rank those
            // consumers — at most a handful remain by then.
            if remaining[op as usize] <= 3 {
                for &u in &users[op as usize] {
                    if !scheduled[u as usize] && pending[u as usize] == 0 {
                        heap.push((kills(u as usize, &remaining), Reverse(u)));
                    }
                }
            }
        }
        for &u in &users[i] {
            let u = u as usize;
            pending[u] -= 1;
            if pending[u] == 0 {
                heap.push((kills(u, &remaining), Reverse(u as Reg)));
            }
        }
    }
    debug_assert_eq!(order.len(), n, "input must be dead-code-free");
    let mut remap = vec![0 as Reg; n];
    for (new, &old) in order.iter().enumerate() {
        remap[old as usize] = new as Reg;
    }
    let out = order
        .iter()
        .map(|&old| code[old as usize].remap(|r| remap[r as usize]))
        .collect();
    let results = results.iter().map(|&r| remap[r as usize]).collect();
    (out, results)
}

/// Multi-root dead-code elimination: drop instructions unreachable from any
/// of `results`, remapping operand registers and the results themselves.
fn eliminate_dead_code_multi(code: Vec<Instr>, results: Vec<Reg>) -> (Vec<Instr>, Vec<Reg>) {
    let mut live = vec![false; code.len()];
    for &r in &results {
        live[r as usize] = true;
    }
    let mut ops = [0 as Reg; 3];
    for (i, instr) in code.iter().enumerate().rev() {
        if !live[i] {
            continue;
        }
        let k = instr.operands(&mut ops);
        for &r in &ops[..k] {
            live[r as usize] = true;
        }
    }
    let mut remap = vec![0 as Reg; code.len()];
    let mut out = Vec::with_capacity(code.len());
    for (i, instr) in code.into_iter().enumerate() {
        if !live[i] {
            continue;
        }
        let mapped = instr.remap(|r| remap[r as usize]);
        remap[i] = out.len() as Reg;
        out.push(mapped);
    }
    let results = results.into_iter().map(|r| remap[r as usize]).collect();
    (out, results)
}

/// The compiled programs of every dynamic field of one pattern, with one
/// fixed parameter binding.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledPattern {
    kernels: Vec<Option<CompiledKernel>>,
}

impl CompiledPattern {
    /// Compile every dynamic field's update of `pattern` with `params` bound.
    /// `fold` selects constant folding (see [`CompiledKernel::compile`]).
    ///
    /// # Panics
    ///
    /// Panics if a dynamic field lacks an update expression (callers validate
    /// the pattern first) or on rank-3 offsets.
    pub fn compile(pattern: &StencilPattern, params: &[f64], fold: bool) -> Self {
        let kernels = pattern
            .fields()
            .iter()
            .enumerate()
            .map(|(i, decl)| match decl.kind {
                FieldKind::Static => None,
                FieldKind::Dynamic => {
                    let update = pattern
                        .update(isl_ir::FieldId::new(i as u16))
                        .expect("validated pattern has updates for dynamic fields");
                    Some(CompiledKernel::compile(update, params, fold))
                }
            })
            .collect();
        CompiledPattern { kernels }
    }

    /// The kernel of field `i`, or `None` for static fields.
    pub fn kernel(&self, i: usize) -> Option<&CompiledKernel> {
        self.kernels.get(i).and_then(|k| k.as_ref())
    }

    /// Number of fields (dynamic and static) the program covers.
    pub fn field_count(&self) -> usize {
        self.kernels.len()
    }
}

/// One output element of a [`CompiledCone`] program: `field` at window-local
/// `(px, py)`, produced in slot `reg`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConeSlot {
    /// Dynamic field produced.
    pub field: u16,
    /// Window-local x of the output element.
    pub px: i32,
    /// Window-local y of the output element.
    pub py: i32,
    /// Value slot holding the result after the forward pass.
    pub reg: Reg,
}

/// Signed bounding box of everything a cone program touches relative to its
/// tile origin — all [`Instr::Input`] taps *and* all output points, so a
/// tile whose reach is in-frame can both gather and scatter unchecked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reach {
    /// Smallest x touched (≤ 0 for any non-degenerate cone).
    pub min_dx: i32,
    /// Largest x touched.
    pub max_dx: i32,
    /// Smallest y touched.
    pub min_dy: i32,
    /// Largest y touched.
    pub max_dy: i32,
}

/// A whole cone level lowered to one flat bytecode program.
///
/// Where a [`CompiledKernel`] computes a single field at a single element,
/// a `CompiledCone` computes **every output element of one depth-`d` cone**
/// — the multi-iteration module the VHDL backend emits — in one forward
/// pass: the hash-consed cone [`Graph`](isl_ir::Graph) is walked in
/// topological order and every reachable node becomes one instruction, with
/// parameters bound as constants, constant subexpressions folded (with the
/// exact runtime `f64` operations, so results stay bit-identical) and
/// common subexpressions shared **across the whole cone** — the software
/// mirror of the paper's register-reuse rule.
///
/// Inputs are [`Instr::Input`] taps at cone-local coordinates relative to
/// the tile origin; static and dynamic base reads are unified (both read
/// iteration-0 data under cone semantics).
///
/// After lowering, virtual registers are **slot-allocated** (linear scan,
/// slots freed after their last use): instruction `i` writes `dst[i]` and
/// operands name slots, not instruction indices. Cone programs run to
/// thousands of instructions, but only a few hundred values are live at
/// once, so the evaluator's structure-of-arrays scratch shrinks by an order
/// of magnitude and stays cache-resident — the software analogue of the
/// paper's bounded register file.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledCone {
    pub(crate) code: Vec<Instr>,
    /// Destination slot of each instruction (parallel to `code`).
    pub(crate) dst: Vec<Reg>,
    pub(crate) outputs: Vec<ConeSlot>,
    pub(crate) capture: Vec<Reg>,
    pub(crate) retire: Vec<u32>,
    slots: usize,
    slots_unscheduled: usize,
    reach: Reach,
}

/// Walk `cone`'s hash-consed graph and lower every node reachable from an
/// output into SSA bytecode (instruction `i` writes register `i`), with
/// parameters bound, CSE across the whole cone and — when `fold` is set —
/// constant subexpressions evaluated at compile time. Returns the dead-code-
/// free program and one result register per cone output.
fn lower_cone(cone: &Cone, params: &[f64], fold: bool) -> (Vec<Instr>, Vec<Reg>) {
    let graph = cone.graph();
    let roots: Vec<NodeId> = cone.outputs().iter().map(|o| o.node).collect();
    let mask = graph.reachable(&roots);
    let mut b = Builder {
        params,
        fold,
        code: Vec::new(),
        cse: HashMap::new(),
    };
    // NodeIds are dense and topologically ordered, so one forward pass
    // sees every operand before its users.
    let mut regs: Vec<Option<Reg>> = vec![None; graph.len()];
    let reg_of = |regs: &[Option<Reg>], id: NodeId| -> Reg {
        regs[id.index()].expect("graph ids are topologically ordered")
    };
    for (id, node) in graph.nodes() {
        if !mask[id.index()] {
            continue;
        }
        let r = match node {
            Node::Leaf(Leaf::Input { field, point })
            | Node::Leaf(Leaf::Static { field, point }) => {
                assert!(point.z == 0, "the compiled cone engine supports rank 1 and 2 only");
                let f = u16::try_from(field.index()).expect("field id fits u16");
                b.input(f, point.x, point.y)
            }
            Node::Leaf(Leaf::Const(c)) => b.constant(c.value()),
            Node::Leaf(Leaf::Param(p)) => b.constant(params[p.index()]),
            Node::Unary { op, arg } => {
                let a = reg_of(&regs, *arg);
                b.unary(*op, a)
            }
            Node::Binary { op, lhs, rhs } => {
                let (a, bb) = (reg_of(&regs, *lhs), reg_of(&regs, *rhs));
                b.binary(*op, a, bb)
            }
            Node::Select { cond, then_, else_ } => {
                let (c, t, e) = (
                    reg_of(&regs, *cond),
                    reg_of(&regs, *then_),
                    reg_of(&regs, *else_),
                );
                b.select(c, t, e)
            }
        };
        regs[id.index()] = Some(r);
    }
    let result_regs: Vec<Reg> = cone
        .outputs()
        .iter()
        .map(|o| reg_of(&regs, o.node))
        .collect();
    eliminate_dead_code_multi(b.code, result_regs)
}

impl CompiledCone {
    /// Lower `cone` with `params` bound as constants and constant folding
    /// enabled (the fast-path default).
    ///
    /// # Panics
    ///
    /// Panics on rank-3 cones (the frame engine is 1D/2D; the simulator
    /// rejects rank-3 patterns before this runs) or an unbound parameter.
    pub fn compile(cone: &Cone, params: &[f64]) -> Self {
        Self::compile_with(cone, params, true)
    }

    /// [`CompiledCone::compile`] with explicit control over constant
    /// folding. The quantised / bit-true engines run programs compiled with
    /// `fold == false`, so that **every** operation node of the cone graph —
    /// the exact set the VHDL backend registers — survives as one
    /// instruction and receives its own per-operation rounding in whatever
    /// format the run is given.
    ///
    /// After lowering, a kill-first scheduling pre-pass runs and whichever
    /// order allocates fewer slots is kept; the capture points and
    /// retirement order of the outputs and the program's coordinate reach
    /// are derived from the allocated program.
    ///
    /// # Panics
    ///
    /// Same as [`CompiledCone::compile`].
    pub fn compile_with(cone: &Cone, params: &[f64], fold: bool) -> Self {
        let (code, result_regs) = lower_cone(cone, params, fold);
        // Scheduling pre-pass: greedy consumer clustering (depth-first from
        // the outputs) shortens live ranges before linear-scan allocation.
        // Keep whichever order needs fewer slots — clustering wins on wide
        // cones whose level-interleaved order keeps whole levels live.
        let (sched_code, sched_results) = schedule_for_locality(&code, &result_regs);
        let (lin_code, lin_dst, lin_results, lin_slots) = allocate_slots(code, result_regs);
        let (s_code, s_dst, s_results, s_slots) = allocate_slots(sched_code, sched_results);
        let slots_unscheduled = lin_slots;
        let (code, dst, result_regs, slots) = if s_slots < lin_slots {
            (s_code, s_dst, s_results, s_slots)
        } else {
            (lin_code, lin_dst, lin_results, lin_slots)
        };
        let outputs: Vec<ConeSlot> = cone
            .outputs()
            .iter()
            .zip(&result_regs)
            .map(|(o, &(reg, _))| ConeSlot {
                field: u16::try_from(o.field.index()).expect("field id fits u16"),
                px: o.point.x,
                py: o.point.y,
                reg,
            })
            .collect();
        let capture: Vec<Reg> = result_regs.iter().map(|&(_, c)| c).collect();
        let mut retire: Vec<u32> = (0..outputs.len() as u32).collect();
        retire.sort_by_key(|&k| capture[k as usize]);
        // Reach: every tap plus every output point, so interior tiles can
        // skip both read and write bounds handling.
        let mut reach = Reach {
            min_dx: 0,
            max_dx: 0,
            min_dy: 0,
            max_dy: 0,
        };
        let mut touch = |x: i32, y: i32| {
            reach.min_dx = reach.min_dx.min(x);
            reach.max_dx = reach.max_dx.max(x);
            reach.min_dy = reach.min_dy.min(y);
            reach.max_dy = reach.max_dy.max(y);
        };
        for (_, dx, dy) in code.iter().filter_map(Instr::tap) {
            touch(dx, dy);
        }
        for o in &outputs {
            touch(o.px, o.py);
        }
        let c = CompiledCone {
            code,
            dst,
            outputs,
            capture,
            retire,
            slots,
            slots_unscheduled,
            reach,
        };
        notify_compiled(ProgramView::Cone(&c));
        c
    }

    /// Number of value slots the evaluator needs (peak live registers).
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Slots the program would need under the plain lowering order, without
    /// the consumer-clustering scheduling pre-pass — `slots() /
    /// slots_unscheduled()` measures what scheduling saved.
    pub fn slots_unscheduled(&self) -> usize {
        self.slots_unscheduled
    }

    /// The instruction buffer; instruction `i` writes slot `dst()[i]`.
    pub fn code(&self) -> &[Instr] {
        &self.code
    }

    /// Destination slot of each instruction (parallel to [`CompiledCone::code`]).
    pub fn dst(&self) -> &[Reg] {
        &self.dst
    }

    /// The output elements and the slots holding them **at their capture
    /// points** (see [`CompiledCone::capture`]).
    pub fn outputs(&self) -> &[ConeSlot] {
        &self.outputs
    }

    /// Capture point of each output (parallel to
    /// [`CompiledCone::outputs`]): the index of the instruction that
    /// defines output `k`'s value. Slot allocation is **retiring** —
    /// outputs do not pin their slots to the end of the pass — so an
    /// evaluator must read `outputs()[k].reg` immediately after executing
    /// instruction `capture()[k]`, before a later instruction reuses the
    /// slot. Walking [`CompiledCone::retire`] alongside the instruction
    /// stream does this with one comparison per instruction.
    pub fn capture(&self) -> &[Reg] {
        &self.capture
    }

    /// Output indices sorted by capture point: as the evaluator executes
    /// instruction `i`, every output `k` at the front of this list with
    /// `capture()[k] == i` retires (is streamed to its destination) before
    /// the next instruction runs.
    pub fn retire(&self) -> &[u32] {
        &self.retire
    }

    /// Number of instructions in the flattened program.
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// Whether the program is empty (never: every output emits at least one
    /// instruction).
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// Number of output elements (`dynamic fields × window area`).
    pub fn output_count(&self) -> usize {
        self.outputs.len()
    }

    /// Number of field-read instructions after CSE (deduplicated taps).
    pub fn input_count(&self) -> usize {
        self.code
            .iter()
            .filter(|i| matches!(i, Instr::Input { .. }))
            .count()
    }

    /// The signed coordinate reach of the program around its tile origin.
    pub fn reach(&self) -> Reach {
        self.reach
    }
}

/// The **fused** fold-free whole-frame program of one pattern — what the
/// quantised whole-frame engine runs: **all** dynamic-field updates lowered
/// into a single [`Instr`] program with no constant folding, so every
/// intermediate of the reference expression trees survives as one
/// instruction and receives the hardware's per-operation rounding. The
/// program carries no format: the engine takes a
/// [`FixedFormat`](isl_fpga::FixedFormat) at run time and quantises each
/// [`Instr::Const`] where it is read, so one program serves every format.
///
/// Field updates of one stencil routinely share work: gradients, norms and
/// parameter quotients appear in every component's update (Chambolle's `px`
/// and `py` kernels share the divergence, both gradient taps, the norm's
/// `sqrt` and all three `÷λ` divides). Lowering every update through one
/// hash-consing builder dedupes those subexpressions, so the whole-frame
/// engine evaluates them once per pixel instead of once per field. That is
/// bit-identical to evaluating each update on its own: CSE only merges
/// *exactly equal* operations on *exactly equal* operands, and every
/// instruction applies the same `FixedFormat` rounding either way.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedStep {
    pub(crate) code: Vec<Instr>,
    /// `(field index, result register)` of every dynamic field, in field
    /// order.
    pub(crate) outputs: Vec<(u16, Reg)>,
    halo: Halo,
}

impl QuantizedStep {
    /// Lower every dynamic update of `pattern` fold-free into one program
    /// with all result registers as roots.
    ///
    /// # Panics
    ///
    /// Same as [`CompiledPattern::compile`].
    pub fn compile(pattern: &StencilPattern, params: &[f64]) -> Self {
        let mut b = Builder {
            params,
            fold: false,
            code: Vec::new(),
            cse: HashMap::new(),
        };
        let mut fields = Vec::new();
        let mut roots = Vec::new();
        for (i, decl) in pattern.fields().iter().enumerate() {
            if matches!(decl.kind, FieldKind::Dynamic) {
                let update = pattern
                    .update(isl_ir::FieldId::new(i as u16))
                    .expect("validated pattern has updates for dynamic fields");
                fields.push(i as u16);
                roots.push(b.lower(update));
            }
        }
        let (code, results) = eliminate_dead_code_multi(b.code, roots);
        let halo = Halo::of(&code);
        let s = QuantizedStep {
            code,
            outputs: fields.into_iter().zip(results).collect(),
            halo,
        };
        notify_compiled(ProgramView::Step(&s));
        s
    }

    /// Number of instructions in the fused program.
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// Whether the program is empty (only for patterns with no dynamic
    /// fields, which validation rejects).
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// The per-side read reach across all fused updates.
    pub fn halo(&self) -> Halo {
        self.halo
    }

    /// The instruction buffer; instruction `i` writes register `i`.
    pub fn code(&self) -> &[Instr] {
        &self.code
    }

    /// `(field index, result register)` per dynamic field, in field order.
    pub fn outputs(&self) -> &[(u16, Reg)] {
        &self.outputs
    }
}

/// Identity of one compiled program: which pattern (structural fingerprint),
/// which parameter binding (bit patterns — NaN payloads and signed zeros
/// distinguish), whether constants were folded, and — for cone programs —
/// which cone shape.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ProgramKey {
    pattern: u64,
    params: Vec<u64>,
    fold: bool,
    /// `None` for whole-pattern kernels; `Some((w, h, d, depth,
    /// simplified))` for cones — the simplification flag is part of the
    /// identity because it changes the built graph.
    shape: Option<(u32, u32, u32, u32, bool)>,
}

impl ProgramKey {
    fn of(pattern: &StencilPattern, params: &[f64], fold: bool, cone: Option<&Cone>) -> Self {
        ProgramKey {
            pattern: pattern.fingerprint(),
            params: params.iter().map(|p| p.to_bits()).collect(),
            fold,
            shape: cone.map(|c| {
                let w = c.window();
                (w.w, w.h, w.d, c.depth(), c.simplified())
            }),
        }
    }
}

#[derive(Debug, Default)]
struct ProgramCacheInner {
    patterns: Mutex<HashMap<ProgramKey, Arc<CompiledPattern>>>,
    cones: Mutex<HashMap<ProgramKey, Arc<CompiledCone>>>,
    steps: Mutex<HashMap<ProgramKey, Arc<QuantizedStep>>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

/// A concurrency-safe, content-keyed store of compiled bytecode programs —
/// the simulator's compile-cache hook.
///
/// Every [`crate::Simulator`] owns one (so repeated runs on one simulator
/// never recompile, exactly as before); sharing a cache across simulators
/// with [`crate::Simulator::with_program_cache`] extends that guarantee to
/// a whole session: one `(pattern, params, fold, shape)` identity is
/// lowered at most once no matter how many simulators, engines or threads
/// request it. No key holds a fixed-point format: the quantised engines run
/// the fold-free programs with the format passed in at run time, so every
/// format of a search or a certification shares one program per shape.
/// Compilation is deterministic, so a cached program is bit-for-bit the
/// program a cold compile would produce (property-tested in
/// `tests/tests/session_props.rs`).
#[derive(Debug, Clone, Default)]
pub struct ProgramCache {
    inner: Arc<ProgramCacheInner>,
}

impl ProgramCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The compiled whole-pattern program of `(pattern, params, fold)` —
    /// served from the cache or compiled (outside the lock) and stored.
    pub fn pattern_program(
        &self,
        pattern: &StencilPattern,
        params: &[f64],
        fold: bool,
    ) -> Arc<CompiledPattern> {
        let key = ProgramKey::of(pattern, params, fold, None);
        if let Some(hit) = self.inner.patterns.lock().expect("program cache").get(&key) {
            self.inner.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(hit);
        }
        self.inner.misses.fetch_add(1, Ordering::Relaxed);
        let _span = isl_telemetry::span("compile", "pattern");
        let built = Arc::new(CompiledPattern::compile(pattern, params, fold));
        let mut map = self.inner.patterns.lock().expect("program cache");
        Arc::clone(map.entry(key).or_insert(built))
    }

    /// The compiled cone program of `(pattern, cone shape, params, fold)` —
    /// served from the cache or lowered (outside the lock) and stored.
    /// `cone` must be the cone of `pattern` at its own window/depth; the
    /// key derives from the pattern fingerprint plus the cone's shape and
    /// simplification flag, which together determine the cone
    /// (construction is deterministic).
    pub fn cone_program(
        &self,
        pattern: &StencilPattern,
        cone: &Cone,
        params: &[f64],
        fold: bool,
    ) -> Arc<CompiledCone> {
        let key = ProgramKey::of(pattern, params, fold, Some(cone));
        if let Some(hit) = self.inner.cones.lock().expect("program cache").get(&key) {
            self.inner.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(hit);
        }
        self.inner.misses.fetch_add(1, Ordering::Relaxed);
        let _span = isl_telemetry::span("compile", "cone");
        let built = Arc::new(CompiledCone::compile_with(cone, params, fold));
        let mut map = self.inner.cones.lock().expect("program cache");
        Arc::clone(map.entry(key).or_insert(built))
    }

    /// The fused fold-free step program of `(pattern, params)` that the
    /// quantised whole-frame engine runs — served from the cache or
    /// compiled (outside the lock) and stored. The program holds no format,
    /// so one entry serves every format.
    pub fn quantized_pattern_program(
        &self,
        pattern: &StencilPattern,
        params: &[f64],
    ) -> Arc<QuantizedStep> {
        let key = ProgramKey::of(pattern, params, false, None);
        if let Some(hit) = self.inner.steps.lock().expect("program cache").get(&key) {
            self.inner.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(hit);
        }
        self.inner.misses.fetch_add(1, Ordering::Relaxed);
        let _span = isl_telemetry::span("compile", "step");
        let built = Arc::new(QuantizedStep::compile(pattern, params));
        let mut map = self.inner.steps.lock().expect("program cache");
        Arc::clone(map.entry(key).or_insert(built))
    }

    /// Snapshot the hit/miss counters (every program form combined).
    pub fn stats(&self) -> isl_ir::CacheStats {
        isl_ir::CacheStats {
            hits: self.inner.hits.load(Ordering::Relaxed),
            misses: self.inner.misses.load(Ordering::Relaxed),
        }
    }

    /// Number of distinct programs currently stored.
    pub fn len(&self) -> usize {
        self.inner.patterns.lock().expect("program cache").len()
            + self.inner.cones.lock().expect("program cache").len()
            + self.inner.steps.lock().expect("program cache").len()
    }

    /// Whether no program has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isl_ir::{FieldId, Offset};

    fn fid(i: u16) -> FieldId {
        FieldId::new(i)
    }

    #[test]
    fn constants_fold_to_single_instruction() {
        // (2 + 3) * 4 -> Const(20)
        let e = Expr::binary(
            BinaryOp::Mul,
            Expr::binary(BinaryOp::Add, Expr::constant(2.0), Expr::constant(3.0)),
            Expr::constant(4.0),
        );
        let k = CompiledKernel::compile(&e, &[], true);
        assert_eq!(k.len(), 1);
        assert_eq!(k.code[0], Instr::Const(20.0));
    }

    #[test]
    fn params_are_bound_and_folded() {
        use isl_ir::ParamId;
        // tau * 2 with tau = 0.25 -> Const(0.5)
        let e = Expr::binary(
            BinaryOp::Mul,
            Expr::param(ParamId::new(0)),
            Expr::constant(2.0),
        );
        let k = CompiledKernel::compile(&e, &[0.25], true);
        assert_eq!(k.len(), 1);
        assert_eq!(k.code[0], Instr::Const(0.5));
    }

    #[test]
    fn cse_dedupes_repeated_reads() {
        // f(1) + (f(1) + f(-1)): the tree reads f(1) twice, the program once.
        let e = Expr::binary(
            BinaryOp::Add,
            Expr::input(fid(0), Offset::d1(1)),
            Expr::binary(
                BinaryOp::Add,
                Expr::input(fid(0), Offset::d1(1)),
                Expr::input(fid(0), Offset::d1(-1)),
            ),
        );
        let k = CompiledKernel::compile(&e, &[], true);
        assert_eq!(k.input_count(), 2);
        assert_eq!(k.halo(), Halo { left: 1, right: 1, up: 0, down: 0 });
    }

    #[test]
    fn no_fold_keeps_leaves() {
        let e = Expr::binary(BinaryOp::Add, Expr::constant(2.0), Expr::constant(3.0));
        let k = CompiledKernel::compile(&e, &[], false);
        assert_eq!(k.len(), 3); // two consts + one add
    }

    #[test]
    fn constant_select_takes_lazy_branch() {
        // sel(1, f(0), f(7)) folds to the `then` read only: halo stays 0.
        let e = Expr::select(
            Expr::constant(1.0),
            Expr::input(fid(0), Offset::d1(0)),
            Expr::input(fid(0), Offset::d1(7)),
        );
        let k = CompiledKernel::compile(&e, &[], true);
        assert_eq!(k.len(), 1);
        assert_eq!(k.halo(), Halo::default());
    }

    #[test]
    fn cone_lowering_shares_and_binds() {
        use isl_ir::{FieldKind, StencilPattern, Window};
        // f'(x) = (f(x-1) + f(x) + f(x+1)) * tau, window 4, depth 2: the
        // compiled cone must share interior adds between adjacent outputs
        // (input taps deduplicated) and fold tau into constants.
        let mut p = StencilPattern::new(1).with_name("avg");
        let f = p.add_field("f", FieldKind::Dynamic);
        let tau = p.add_param("tau", 1.0 / 3.0);
        let sum = Expr::sum([
            Expr::input(f, Offset::d1(-1)),
            Expr::input(f, Offset::d1(0)),
            Expr::input(f, Offset::d1(1)),
        ]);
        p.set_update(f, Expr::binary(BinaryOp::Mul, sum, Expr::param(tau)))
            .unwrap();
        let cone = Cone::build(&p, Window::line(4), 2).unwrap();
        let cc = CompiledCone::compile(&cone, &[1.0 / 3.0]);
        assert_eq!(cc.output_count(), 4);
        // 4 + 2 * radius * depth unique base taps.
        assert_eq!(cc.input_count(), 8);
        let reach = cc.reach();
        assert_eq!((reach.min_dx, reach.max_dx), (-2, 5));
        assert_eq!((reach.min_dy, reach.max_dy), (0, 0));
        // One Const(tau) register, interned.
        let taus = cc
            .code
            .iter()
            .filter(|i| matches!(i, Instr::Const(v) if (*v - 1.0 / 3.0).abs() < 1e-15))
            .count();
        assert_eq!(taus, 1);
    }

    #[test]
    fn cone_lowering_matches_graph_eval() {
        use isl_ir::{FieldId, FieldKind, Point, StencilPattern, Window};
        let mut p = StencilPattern::new(2).with_name("mix");
        let f = p.add_field("f", FieldKind::Dynamic);
        let g = p.add_field("g", FieldKind::Static);
        let e = Expr::binary(
            BinaryOp::Max,
            Expr::unary(UnaryOp::Abs, Expr::input(f, isl_ir::Offset::d2(1, -1))),
            Expr::binary(
                BinaryOp::Mul,
                Expr::input(g, isl_ir::Offset::d2(0, 1)),
                Expr::input(f, isl_ir::Offset::d2(-1, 0)),
            ),
        );
        p.set_update(f, e).unwrap();
        let cone = Cone::build(&p, Window::square(2), 2).unwrap();
        let cc = CompiledCone::compile(&cone, &[]);
        let read = |fid: FieldId, pt: Point| {
            (pt.x * 3 + pt.y * 7) as f64 * 0.25 + fid.index() as f64
        };
        let want = cone.eval(read, &[]);
        // Evaluate the program by hand with the same read function
        // (operands and destinations name allocated slots). Allocation is
        // retiring, so each output must be captured the moment its defining
        // instruction executes — walking the capture-sorted retire list.
        let mut regs = vec![0.0; cc.slots()];
        let mut outs = vec![0.0; cc.outputs.len()];
        let mut next = 0usize;
        for (i, instr) in cc.code.iter().enumerate() {
            regs[cc.dst[i] as usize] = match *instr {
                Instr::Const(v) => v,
                Instr::Input { field, dx, dy } => {
                    read(FieldId::new(field), Point::d2(dx, dy))
                }
                Instr::Unary { op, a } => op.apply(regs[a as usize]),
                Instr::Binary { op, a, b } => op.apply(regs[a as usize], regs[b as usize]),
                Instr::Select { c, t, e } => {
                    if regs[c as usize] != 0.0 {
                        regs[t as usize]
                    } else {
                        regs[e as usize]
                    }
                }
            };
            while next < cc.retire.len() && cc.capture[cc.retire[next] as usize] as usize == i {
                let k = cc.retire[next] as usize;
                outs[k] = regs[cc.outputs[k].reg as usize];
                next += 1;
            }
        }
        assert_eq!(next, cc.outputs.len(), "every output must retire");
        assert_eq!(cc.outputs.len(), want.len());
        for ((slot, &got), (wf, wp, wv)) in cc.outputs.iter().zip(&outs).zip(&want) {
            assert_eq!(slot.field as usize, wf.index());
            assert_eq!((slot.px, slot.py), (wp.x, wp.y));
            assert_eq!(got.to_bits(), wv.to_bits(), "({},{})", wp.x, wp.y);
        }
    }

    #[test]
    fn scheduling_prepass_shrinks_cone_live_set() {
        use isl_ir::{FieldKind, StencilPattern, Window};
        // A wide 2D cone: the memoised-DFS lowering order keeps shared
        // cross-output subexpressions live far longer than the dataflow
        // requires; the kill-first schedule must do strictly better, and
        // the compiler must never pick a worse order than linear.
        let mut p = StencilPattern::new(2).with_name("jac");
        let f = p.add_field("f", FieldKind::Dynamic);
        let sum = Expr::sum([
            Expr::input(f, Offset::d2(0, -1)),
            Expr::input(f, Offset::d2(-1, 0)),
            Expr::input(f, Offset::d2(1, 0)),
            Expr::input(f, Offset::d2(0, 1)),
        ]);
        p.set_update(f, Expr::binary(BinaryOp::Mul, sum, Expr::constant(0.25)))
            .unwrap();
        let cone = Cone::build(&p, Window::square(8), 2).unwrap();
        let cc = CompiledCone::compile(&cone, &[]);
        // The compiler must never pick a worse order than the lowering order.
        // (Retiring allocation already frees an output's slot at its capture
        // point, which removes most of the register pressure the kill-first
        // schedule used to win back, so equality is acceptable here.)
        assert!(
            cc.slots() <= cc.slots_unscheduled(),
            "kill-first schedule must not lose to the lowering order: {} !<= {}",
            cc.slots(),
            cc.slots_unscheduled()
        );
        // Retiring allocation frees an output's slot once its value has been
        // captured, so the peak live set of this 64-output cone drops below
        // the output count — the old "outputs pinned until the end" floor.
        assert!(
            cc.slots() < cc.output_count(),
            "retiring allocation should beat the output-count floor: {} !< {}",
            cc.slots(),
            cc.output_count()
        );
        // Every output must have a capture point inside the program, and the
        // retire order must be capture-sorted.
        assert_eq!(cc.capture().len(), cc.output_count());
        assert_eq!(cc.retire().len(), cc.output_count());
        for w in cc.retire().windows(2) {
            assert!(cc.capture()[w[0] as usize] <= cc.capture()[w[1] as usize]);
        }
        for &c in cc.capture() {
            assert!((c as usize) < cc.len());
        }
    }

    #[test]
    fn dead_constants_are_eliminated() {
        // abs(-3) + f(0): the folded `-3` operand register must not linger.
        let e = Expr::binary(
            BinaryOp::Add,
            Expr::unary(UnaryOp::Abs, Expr::constant(-3.0)),
            Expr::input(fid(0), Offset::d1(0)),
        );
        let k = CompiledKernel::compile(&e, &[], true);
        assert_eq!(k.len(), 3); // Const(3), Input, Add
        assert!(k.code.iter().all(|i| *i != Instr::Const(-3.0)));
    }
}
