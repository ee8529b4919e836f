//! Fixed-point number formats for the hardware data path.
//!
//! Besides the format descriptor itself, this module is the **single
//! definition of the integer datapath**: the raw-word operations
//! ([`FixedFormat::apply_unary`], [`FixedFormat::apply_binary`]) that the
//! generated VHDL's `isl_fixed_pkg` implements. The cone-level fixed-point
//! interpreter ([`crate::quant::eval_fixed`]) and the bit-true co-simulation
//! VM (`isl-cosim`) both execute through these functions, so "what the
//! hardware computes" is written down exactly once.

use std::fmt;

use isl_ir::{BinaryOp, UnaryOp};

/// A signed fixed-point format with `width` total bits, `frac` of which are
/// fractional (Q notation: `Q(width-frac).frac`).
///
/// The default, `Q8.10` in 18 bits, follows the fixed-point choice of the
/// hand-optimised Chambolle implementation the paper builds on, and matches
/// the 18-bit DSP/multiplier granularity of the Xilinx parts modelled here.
///
/// ```
/// use isl_fpga::FixedFormat;
/// let q = FixedFormat::default();
/// assert_eq!(q.width, 18);
/// let bits = q.quantize(0.25);
/// assert_eq!(q.dequantize(bits), 0.25);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FixedFormat {
    /// Total bits, including sign.
    pub width: u32,
    /// Fractional bits.
    pub frac: u32,
}

impl Default for FixedFormat {
    fn default() -> Self {
        FixedFormat { width: 18, frac: 10 }
    }
}

impl FixedFormat {
    /// Build a format.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < width <= 64` and `frac < width`.
    pub fn new(width: u32, frac: u32) -> Self {
        assert!(width > 0 && width <= 64, "width must be in 1..=64");
        assert!(frac < width, "frac must leave at least the sign bit");
        FixedFormat { width, frac }
    }

    /// Integer (non-fractional) bits, including sign.
    pub fn int_bits(&self) -> u32 {
        self.width - self.frac
    }

    /// Quantisation step.
    pub fn resolution(&self) -> f64 {
        (2.0f64).powi(-(self.frac as i32))
    }

    /// Largest raw word. Computed in `i128`: at `width = 64` the textbook
    /// `(1i64 << 63) - 1` overflows `i64` (a debug panic, wrapped rails in
    /// release) — the bug that made the wide end of the format-search range
    /// unusable.
    pub fn max_raw(&self) -> i64 {
        ((1i128 << (self.width - 1)) - 1) as i64
    }

    /// Smallest raw word (see [`FixedFormat::max_raw`] for why `i128`).
    pub fn min_raw(&self) -> i64 {
        (-(1i128 << (self.width - 1))) as i64
    }

    /// Largest representable value.
    pub fn max_value(&self) -> f64 {
        self.max_raw() as f64 * self.resolution()
    }

    /// Smallest representable value.
    pub fn min_value(&self) -> f64 {
        self.min_raw() as f64 * self.resolution()
    }

    /// Round-to-nearest quantisation with saturation, returning the raw
    /// two's-complement value.
    ///
    /// **NaN contract:** a NaN input quantises to raw `0` (the hardware has
    /// no NaN to propagate — zero is the deterministic, documented choice,
    /// and [`FixedFormat::round_trip`] inherits it as `0.0`). `±inf`
    /// saturates to the rails like any other out-of-range value.
    pub fn quantize(&self, v: f64) -> i64 {
        if v.is_nan() {
            return 0;
        }
        let max_raw = self.max_raw();
        let min_raw = self.min_raw();
        let scaled = (v * (1u64 << self.frac) as f64).round();
        if scaled >= max_raw as f64 {
            max_raw
        } else if scaled <= min_raw as f64 {
            min_raw
        } else {
            scaled as i64
        }
    }

    /// Back-conversion from a raw value.
    pub fn dequantize(&self, raw: i64) -> f64 {
        raw as f64 * self.resolution()
    }

    /// Round-trip a value through the format (quantisation error included).
    pub fn round_trip(&self, v: f64) -> f64 {
        self.dequantize(self.quantize(v))
    }

    // -- the integer datapath -----------------------------------------------
    //
    // Raw-word semantics of every operation the generated hardware performs:
    // saturating add/sub/neg/abs, truncating (floor) multiply and divide with
    // the same widening the VHDL uses, non-restoring integer square root, and
    // comparisons that produce fixed-point `1.0`. `isl_fixed_pkg` and these
    // functions must stay in lock-step; `quant::eval_fixed` and the
    // `isl-cosim` VM both call them.

    /// Saturate a raw word to the representable range.
    pub fn saturate(&self, v: i64) -> i64 {
        v.clamp(self.min_raw(), self.max_raw())
    }

    /// Saturate a widened intermediate back to the rails. Every datapath
    /// operation funnels its `i128` result through here — at wide widths
    /// the old `as i64` casts wrapped (and `-a` / `a.abs()` panicked on
    /// `i64::MIN` in debug builds) before the rails were even consulted.
    ///
    /// Public because `isl-analyze` transfers interval endpoints through
    /// the *same* clamp the datapath uses: the abstract interpreter's
    /// soundness contract is "endpoint arithmetic in `i128`, then this
    /// function", never a reimplementation of the rails.
    pub fn saturate_wide(&self, v: i128) -> i64 {
        v.clamp(self.min_raw() as i128, self.max_raw() as i128) as i64
    }

    /// Does the widened intermediate `v` lie outside the rails? The static
    /// analyzer's "may saturate" verdict is exactly "some point of the
    /// abstract pre-saturation interval satisfies this predicate".
    pub fn saturates_wide(&self, v: i128) -> bool {
        v < self.min_raw() as i128 || v > self.max_raw() as i128
    }

    /// The raw word for fixed-point `1.0` (comparison results), saturated:
    /// a format with `frac >= width - 1` cannot represent `1.0` and yields
    /// the positive rail instead of a wrapped (negative) word.
    pub fn one_raw(&self) -> i64 {
        self.saturate_wide(1i128 << self.frac)
    }

    /// A unary operation on one raw word, exactly as the hardware datapath
    /// performs it.
    pub fn apply_unary(&self, op: UnaryOp, a: i64) -> i64 {
        match op {
            UnaryOp::Neg => self.saturate_wide(-(a as i128)),
            UnaryOp::Abs => self.saturate_wide((a as i128).abs()),
            UnaryOp::Sqrt => {
                // Integer square root of `a << frac`, like fx_sqrt.
                if a <= 0 {
                    0
                } else {
                    self.saturate_wide(isqrt((a as i128) << self.frac))
                }
            }
        }
    }

    /// Lane-wise [`FixedFormat::apply_unary`] over a span of raw words:
    /// `dst[i] = apply_unary(op, a[i])` for every lane.
    ///
    /// The per-op rounding/saturation dispatch is resolved once per span,
    /// not once per word: rails and shift amounts are hoisted out of the
    /// loop and each lane body is branch-poor (saturation via overflow
    /// flags and clamps), so the compiler can vectorise. The scalar
    /// functions remain the semantic definition; the in-module tests pin
    /// every span kernel bit-identical to its scalar twin, including at the
    /// `i64::MIN`/`i64::MAX` rails and width 64.
    ///
    /// # Panics
    ///
    /// Panics when `a` and `dst` differ in length.
    pub fn unary_span(&self, op: UnaryOp, a: &[i64], dst: &mut [i64]) {
        assert_eq!(a.len(), dst.len(), "span length mismatch");
        isl_telemetry::add("lane.unary", dst.len() as u64);
        let (lo, hi) = (self.min_raw(), self.max_raw());
        match op {
            UnaryOp::Neg => {
                // checked_neg is None only for i64::MIN, whose negation
                // saturates to the positive rail — same as saturate_wide.
                for (d, &x) in dst.iter_mut().zip(a) {
                    *d = x.checked_neg().map_or(hi, |v| v.clamp(lo, hi));
                }
            }
            UnaryOp::Abs => {
                for (d, &x) in dst.iter_mut().zip(a) {
                    *d = x.checked_abs().map_or(hi, |v| v.clamp(lo, hi));
                }
            }
            UnaryOp::Sqrt => {
                let frac = self.frac;
                if self.width + frac <= 63 {
                    // `x << frac` fits in 63 bits: run the integer square
                    // root in native u64 arithmetic (float-seeded, off-by-
                    // one corrected) — no i128 soft-math in the lane loop.
                    // Non-positive words clamp to zero up front (n = 0
                    // yields r = 0), keeping the lane branch-free outside
                    // the rarely-taken correction steps.
                    for (d, &x) in dst.iter_mut().zip(a) {
                        let n = (x.max(0) as u64) << frac;
                        let mut r = (n as f64).sqrt() as u64;
                        while r > 0 && r * r > n {
                            r -= 1;
                        }
                        while (r + 1) * (r + 1) <= n {
                            r += 1;
                        }
                        *d = (r as i64).min(hi);
                    }
                } else {
                    for (d, &x) in dst.iter_mut().zip(a) {
                        *d = if x <= 0 {
                            0
                        } else {
                            self.saturate_wide(isqrt((x as i128) << frac))
                        };
                    }
                }
            }
        }
    }

    /// Lane-wise [`FixedFormat::apply_binary`] over spans of raw words:
    /// `dst[i] = apply_binary(op, a[i], b[i])` for every lane. See
    /// [`FixedFormat::unary_span`] for the kernel contract.
    ///
    /// Add/sub saturate branch-free (`saturating_add` then a rail clamp —
    /// an `i64` overflow means the true sum lies past the rails in the same
    /// direction, so the result is identical to the widened path on *every*
    /// input). Multiply and divide take a **single-width `i64` lane** when
    /// the format is narrow enough that in-format operands cannot overflow
    /// it (products at `width <= 32`, shifted dividends at
    /// `width + frac <= 63`), falling back to the `i128`-widened scalar
    /// path at wide formats.
    ///
    /// The narrow lanes assume **in-format operands** — raw words produced
    /// by [`FixedFormat::quantize`] or by a previous kernel of the same
    /// format, which is every word the simulation engines ever make.
    /// Out-of-format words still yield deterministic (wrapping) results but
    /// may then diverge from the widened scalar datapath.
    ///
    /// # Panics
    ///
    /// Panics when `a`, `b` and `dst` differ in length.
    pub fn binary_span(&self, op: BinaryOp, a: &[i64], b: &[i64], dst: &mut [i64]) {
        assert_eq!(a.len(), dst.len(), "span length mismatch");
        assert_eq!(b.len(), dst.len(), "span length mismatch");
        isl_telemetry::add("lane.binary", dst.len() as u64);
        let (lo, hi) = (self.min_raw(), self.max_raw());
        let lanes = dst.iter_mut().zip(a.iter().zip(b));
        match op {
            BinaryOp::Add => {
                for (d, (&x, &y)) in lanes {
                    *d = x.saturating_add(y).clamp(lo, hi);
                }
            }
            BinaryOp::Sub => {
                for (d, (&x, &y)) in lanes {
                    *d = x.saturating_sub(y).clamp(lo, hi);
                }
            }
            BinaryOp::Mul => {
                let frac = self.frac;
                if self.width <= 32 {
                    // In-format products fit i64 (|x·y| <= 2^(2·width-2)):
                    // one single-width multiply per lane, no widening.
                    for (d, (&x, &y)) in lanes {
                        *d = (x.wrapping_mul(y) >> frac).clamp(lo, hi);
                    }
                } else {
                    let (wlo, whi) = (lo as i128, hi as i128);
                    for (d, (&x, &y)) in lanes {
                        *d = ((x as i128 * y as i128) >> frac).clamp(wlo, whi) as i64;
                    }
                }
            }
            BinaryOp::Div => {
                let frac = self.frac;
                if self.width + self.frac <= 52 {
                    // In-format words and shifted dividends are f64-exact:
                    // divide in f64 (truncating cast rounds toward zero,
                    // like the hardware) and repair the at-most-off-by-one
                    // float rounding with exact integer remainder checks.
                    // Far cheaper than a 64-bit `idiv` per lane, and
                    // provably bit-identical.
                    for (d, (&x, &y)) in lanes {
                        *d = if y == 0 {
                            0
                        } else {
                            let v = x << frac;
                            let mut q = (v as f64 / y as f64) as i64;
                            let r = v - q * y;
                            if r != 0 {
                                let toward = if (v < 0) == (y < 0) { 1 } else { -1 };
                                if (r < 0) != (v < 0) {
                                    // A remainder against the dividend's
                                    // sign means the quotient overshot.
                                    q -= toward;
                                } else if r.unsigned_abs() >= y.unsigned_abs() {
                                    // A full divisor left over: one short.
                                    q += toward;
                                }
                            }
                            q.clamp(lo, hi)
                        };
                    }
                } else if self.width + self.frac <= 63 {
                    // In-format shifted dividends fit i64
                    // (|x << frac| <= 2^(width-1+frac)); wrapping_div keeps
                    // the out-of-format edge (i64::MIN / -1) total.
                    for (d, (&x, &y)) in lanes {
                        *d = if y == 0 {
                            0
                        } else {
                            (x << frac).wrapping_div(y).clamp(lo, hi)
                        };
                    }
                } else {
                    let (wlo, whi) = (lo as i128, hi as i128);
                    for (d, (&x, &y)) in lanes {
                        *d = if y == 0 {
                            0
                        } else {
                            (((x as i128) << frac) / y as i128).clamp(wlo, whi) as i64
                        };
                    }
                }
            }
            BinaryOp::Min => {
                for (d, (&x, &y)) in lanes {
                    *d = x.min(y);
                }
            }
            BinaryOp::Max => {
                for (d, (&x, &y)) in lanes {
                    *d = x.max(y);
                }
            }
            BinaryOp::Lt => {
                let one = self.one_raw();
                for (d, (&x, &y)) in lanes {
                    *d = if x < y { one } else { 0 };
                }
            }
            BinaryOp::Le => {
                let one = self.one_raw();
                for (d, (&x, &y)) in lanes {
                    *d = if x <= y { one } else { 0 };
                }
            }
            BinaryOp::Gt => {
                let one = self.one_raw();
                for (d, (&x, &y)) in lanes {
                    *d = if x > y { one } else { 0 };
                }
            }
            BinaryOp::Ge => {
                let one = self.one_raw();
                for (d, (&x, &y)) in lanes {
                    *d = if x >= y { one } else { 0 };
                }
            }
        }
    }

    /// Lane-wise [`FixedFormat::apply_binary`] with a **constant** right
    /// operand — the specialisations a known word enables. A multiply by a
    /// positive power-of-two word becomes a pure shift pair; a divide by
    /// any non-zero constant loses its per-lane hardware divider — a
    /// branch-free toward-zero shift for power-of-two magnitudes, a
    /// Granlund–Montgomery reciprocal multiply otherwise. These are the
    /// hot constants of stencil kernels (×2, ×4, ÷16, ÷λ). Returns `true`
    /// when a specialised kernel ran; callers must fall back to
    /// [`FixedFormat::binary_span`] over a constant-filled span on `false`.
    /// Bit-identical to that fallback on in-format operands (the span
    /// contract of [`FixedFormat::binary_span`]).
    ///
    /// # Panics
    ///
    /// Panics when `a` and `dst` differ in length.
    pub fn binary_span_const(&self, op: BinaryOp, a: &[i64], c: i64, dst: &mut [i64]) -> bool {
        assert_eq!(a.len(), dst.len(), "span length mismatch");
        let (lo, hi) = (self.min_raw(), self.max_raw());
        let pow2 = c > 0 && (c as u64).is_power_of_two();
        match op {
            BinaryOp::Mul if pow2 && self.width <= 32 => {
                isl_telemetry::add("lane.binary_const", dst.len() as u64);
                // x·2^t >> frac as shifts (wrapping_mul by a power of two
                // *is* a left shift; in-format words never clip bits under
                // the width gate).
                let t = c.trailing_zeros();
                let frac = self.frac;
                for (d, &x) in dst.iter_mut().zip(a) {
                    *d = ((x << t) >> frac).clamp(lo, hi);
                }
                true
            }
            BinaryOp::Div if self.width + self.frac <= 63 => {
                isl_telemetry::add("lane.binary_const", dst.len() as u64);
                let frac = self.frac;
                if c == 0 {
                    // The datapath's divide-by-zero contract: raw zero.
                    dst.fill(0);
                } else if pow2 {
                    // (x << frac) / 2^j with truncation toward zero: add
                    // the sign-selected bias, then arithmetic-shift — no
                    // divider.
                    let j = c.trailing_zeros();
                    let bias = c - 1;
                    for (d, &x) in dst.iter_mut().zip(a) {
                        let v = x << frac;
                        *d = ((v + ((v >> 63) & bias)) >> j).clamp(lo, hi);
                    }
                } else if c.unsigned_abs().is_power_of_two() {
                    // Negative divisor of power-of-two magnitude:
                    // truncation commutes with the sign, so shift on the
                    // magnitude and negate.
                    let div = c.unsigned_abs();
                    let j = div.trailing_zeros();
                    let bias = (div - 1) as i64;
                    for (d, &x) in dst.iter_mut().zip(a) {
                        let v = x << frac;
                        let q = (v + ((v >> 63) & bias)) >> j;
                        *d = (-q).clamp(lo, hi);
                    }
                } else {
                    // General constant: Granlund–Montgomery round-down
                    // reciprocal on magnitudes. `div >= 3` and not a power
                    // of two here, so `m` fits in a u64; the round-down
                    // quotient is at most one short and a single fixup
                    // restores exact truncation toward zero — no per-lane
                    // divide. Fully branch-free: the fixup is a setcc add
                    // and the sign is re-applied with a mask, so lanes of
                    // mixed-sign data cost no mispredictions.
                    let div = c.unsigned_abs();
                    let l = 63 - div.leading_zeros();
                    let m = ((1u128 << (64 + l)) / div as u128) as u64;
                    let flip = -(i64::from(c < 0));
                    for (d, &x) in dst.iter_mut().zip(a) {
                        let v = x << frac;
                        let s = v >> 63;
                        let n = ((v ^ s) - s) as u64;
                        let mut q = (((n as u128 * m as u128) >> 64) as u64) >> l;
                        q += u64::from(n - q * div >= div);
                        let t = s ^ flip;
                        *d = ((q as i64 ^ t) - t).clamp(lo, hi);
                    }
                }
                true
            }
            _ => false,
        }
    }

    /// Lane-wise [`FixedFormat::quantize`]: load an `f64` span into raw
    /// words (the window-buffer load of the hardware), rails hoisted.
    ///
    /// # Panics
    ///
    /// Panics when `src` and `dst` differ in length.
    pub fn quantize_span(&self, src: &[f64], dst: &mut [i64]) {
        assert_eq!(src.len(), dst.len(), "span length mismatch");
        isl_telemetry::add("lane.quantize", dst.len() as u64);
        for (d, &v) in dst.iter_mut().zip(src) {
            *d = self.quantize(v);
        }
    }

    /// Lane-wise [`FixedFormat::dequantize`]: raw words back to real units.
    ///
    /// # Panics
    ///
    /// Panics when `src` and `dst` differ in length.
    pub fn dequantize_span(&self, src: &[i64], dst: &mut [f64]) {
        assert_eq!(src.len(), dst.len(), "span length mismatch");
        isl_telemetry::add("lane.dequantize", dst.len() as u64);
        let res = self.resolution();
        for (d, &r) in dst.iter_mut().zip(src) {
            *d = r as f64 * res;
        }
    }

    /// A binary operation on raw words, exactly as the hardware datapath
    /// performs it: widened truncating multiply/divide, divide-by-zero
    /// yielding zero (like `fx_div`), comparisons producing fixed-point one.
    pub fn apply_binary(&self, op: BinaryOp, a: i64, b: i64) -> i64 {
        match op {
            BinaryOp::Add => self.saturate_wide(a as i128 + b as i128),
            BinaryOp::Sub => self.saturate_wide(a as i128 - b as i128),
            BinaryOp::Mul => self.saturate_wide((a as i128 * b as i128) >> self.frac),
            BinaryOp::Div => {
                if b == 0 {
                    0
                } else {
                    self.saturate_wide(((a as i128) << self.frac) / b as i128)
                }
            }
            BinaryOp::Min => a.min(b),
            BinaryOp::Max => a.max(b),
            BinaryOp::Lt => {
                if a < b {
                    self.one_raw()
                } else {
                    0
                }
            }
            BinaryOp::Le => {
                if a <= b {
                    self.one_raw()
                } else {
                    0
                }
            }
            BinaryOp::Gt => {
                if a > b {
                    self.one_raw()
                } else {
                    0
                }
            }
            BinaryOp::Ge => {
                if a >= b {
                    self.one_raw()
                } else {
                    0
                }
            }
        }
    }
}

/// Integer square root (floor) on the widened intermediate type, exactly
/// the routine [`FixedFormat::apply_unary`] uses for `Sqrt`. Public so the
/// `isl-analyze` interval transfer for `Sqrt` maps endpoints through the
/// *same* function the datapath evaluates (monotonicity of `isqrt` makes
/// endpoint mapping sound).
pub fn isqrt_wide(n: i128) -> i128 {
    isqrt(n)
}

/// Integer square root (floor) for non-negative `i128`.
pub(crate) fn isqrt(n: i128) -> i128 {
    if n < 2 {
        return n.max(0);
    }
    let mut x = (n as f64).sqrt() as i128;
    // Newton touch-ups to correct float rounding.
    while x > 0 && x * x > n {
        x -= 1;
    }
    while (x + 1) * (x + 1) <= n {
        x += 1;
    }
    x
}

impl fmt::Display for FixedFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Q{}.{} ({}b)", self.int_bits(), self.frac, self.width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_18_bit() {
        let q = FixedFormat::default();
        assert_eq!(q.width, 18);
        assert_eq!(q.frac, 10);
        assert_eq!(q.int_bits(), 8);
    }

    #[test]
    fn quantize_roundtrip_exact_values() {
        let q = FixedFormat::new(16, 8);
        for v in [0.0, 1.0, -1.0, 0.5, -0.25, 127.0] {
            assert_eq!(q.round_trip(v), v, "value {v}");
        }
    }

    #[test]
    fn quantize_rounds() {
        let q = FixedFormat::new(16, 8);
        let eps = q.resolution();
        assert_eq!(q.round_trip(0.3), (0.3f64 / eps).round() * eps);
    }

    #[test]
    fn saturation() {
        let q = FixedFormat::new(8, 4);
        assert_eq!(q.round_trip(1000.0), q.max_value());
        assert_eq!(q.round_trip(-1000.0), q.min_value());
        assert!(q.max_value() < 8.0);
        assert_eq!(q.min_value(), -8.0);
    }

    #[test]
    #[should_panic(expected = "frac must leave")]
    fn bad_format_panics() {
        let _ = FixedFormat::new(8, 8);
    }

    #[test]
    fn display() {
        assert_eq!(FixedFormat::default().to_string(), "Q8.10 (18b)");
    }

    #[test]
    fn isqrt_exact() {
        for n in 0..2000i128 {
            let r = isqrt(n);
            assert!(r * r <= n && (r + 1) * (r + 1) > n, "n={n} r={r}");
        }
        assert_eq!(isqrt(1 << 40), 1 << 20);
    }

    #[test]
    fn wide_width_rails_do_not_overflow() {
        // Regression: at widths 63 and 64 (the wide end the format search
        // probes) the old `(1i64 << (width - 1)) - 1` rails overflowed i64 —
        // a panic in debug builds, silently wrapped rails in release.
        for width in [62u32, 63, 64] {
            let q = FixedFormat::new(width, 10);
            assert!(q.max_raw() > 0, "width {width}");
            assert!(q.min_raw() < 0, "width {width}");
            assert_eq!(q.saturate(i64::MAX), q.max_raw());
            assert_eq!(q.saturate(i64::MIN), q.min_raw());
            assert_eq!(q.quantize(1e300), q.max_raw());
            assert_eq!(q.quantize(-1e300), q.min_raw());
            assert_eq!(q.quantize(f64::INFINITY), q.max_raw());
            assert_eq!(q.round_trip(1.0), 1.0);
            assert_eq!(q.round_trip(-2.5), -2.5);
            assert!(q.max_value() > 0.0 && q.min_value() < 0.0);
        }
        let q64 = FixedFormat::new(64, 10);
        assert_eq!(q64.max_raw(), i64::MAX);
        assert_eq!(q64.min_raw(), i64::MIN);
    }

    #[test]
    fn wide_width_datapath_saturates_instead_of_panicking() {
        let q = FixedFormat::new(64, 10);
        // Neg/Abs on i64::MIN used to panic (`-i64::MIN` / `i64::MIN.abs()`
        // overflow); the datapath must saturate to the positive rail.
        assert_eq!(q.apply_unary(UnaryOp::Neg, i64::MIN), i64::MAX);
        assert_eq!(q.apply_unary(UnaryOp::Abs, i64::MIN), i64::MAX);
        assert_eq!(q.apply_unary(UnaryOp::Neg, i64::MAX), i64::MIN + 1);
        // Saturating add/sub at the full-i64 rails.
        assert_eq!(q.apply_binary(BinaryOp::Add, i64::MAX, i64::MAX), i64::MAX);
        assert_eq!(q.apply_binary(BinaryOp::Sub, i64::MIN, i64::MAX), i64::MIN);
        // Widened multiply/divide results beyond i64 saturate, not wrap.
        let w63 = FixedFormat::new(63, 0);
        let big = w63.max_raw();
        assert_eq!(w63.apply_binary(BinaryOp::Mul, big, big), big);
        assert_eq!(w63.apply_binary(BinaryOp::Mul, big, -big), w63.min_raw());
        let deep = FixedFormat::new(63, 40);
        assert_eq!(deep.apply_binary(BinaryOp::Div, deep.max_raw(), 1), deep.max_raw());
        // Sqrt of the rail stays on the rails.
        assert!(q.apply_unary(UnaryOp::Sqrt, i64::MAX) <= q.max_raw());
    }

    #[test]
    fn one_raw_saturates_when_one_is_unrepresentable() {
        // Q1.7 in 8 bits cannot hold 1.0: the comparison constant must be
        // the positive rail, not the wrapped (negative) `1 << 7`.
        let q = FixedFormat::new(8, 7);
        assert_eq!(q.one_raw(), q.max_raw());
        assert!(q.one_raw() > 0);
        // Ordinary formats are untouched.
        assert_eq!(FixedFormat::default().one_raw(), 1 << 10);
    }

    #[test]
    fn nan_quantizes_to_zero() {
        // The documented NaN contract: raw 0, deterministically.
        for q in [FixedFormat::default(), FixedFormat::new(64, 10), FixedFormat::new(8, 4)] {
            assert_eq!(q.quantize(f64::NAN), 0);
            assert_eq!(q.round_trip(f64::NAN), 0.0);
        }
    }

    /// Deterministic mix of adversarial **in-format** raw words for a
    /// format: the rails, their neighbourhoods and LCG-scattered words, all
    /// saturated to the format (the span-kernel contract — at width 64 that
    /// still includes the full `i64::MIN`/`i64::MAX` extremes).
    fn probe_words(q: FixedFormat) -> Vec<i64> {
        let mut words: Vec<i64> = [
            0,
            1,
            -1,
            q.one_raw(),
            -q.one_raw(),
            q.max_raw(),
            q.min_raw(),
            q.max_raw().saturating_sub(1),
            q.min_raw().saturating_add(1),
            i64::MAX,
            i64::MIN,
            i64::MIN + 1,
        ]
        .into_iter()
        .map(|w| q.saturate(w))
        .collect();
        let mut s: u64 = 0x9e37_79b9_7f4a_7c15;
        for _ in 0..104 {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            words.push(q.saturate(s as i64));
        }
        words
    }

    #[test]
    fn span_kernels_match_scalar_datapath_bitwise() {
        use BinaryOp::*;
        use UnaryOp::*;
        // The satellite widths: byte, DSP-native, odd mid, past-f64-mantissa,
        // and both full-rail extremes.
        for (w, f) in [(8, 4), (18, 10), (31, 13), (54, 30), (63, 40), (64, 10), (8, 7), (64, 63)]
        {
            let q = FixedFormat::new(w, f);
            let a = probe_words(q);
            let mut b = probe_words(q);
            b.rotate_left(7);
            let mut dst = vec![0i64; a.len()];
            for op in [Neg, Abs, Sqrt] {
                q.unary_span(op, &a, &mut dst);
                for (i, (&x, &d)) in a.iter().zip(&dst).enumerate() {
                    assert_eq!(d, q.apply_unary(op, x), "{q} {op:?} lane {i} word {x}");
                }
            }
            for op in [Add, Sub, Mul, Div, Min, Max, Lt, Le, Gt, Ge] {
                q.binary_span(op, &a, &b, &mut dst);
                for (i, ((&x, &y), &d)) in a.iter().zip(&b).zip(&dst).enumerate() {
                    assert_eq!(
                        d,
                        q.apply_binary(op, x, y),
                        "{q} {op:?} lane {i} words {x}, {y}"
                    );
                }
            }
        }
    }

    #[test]
    fn const_operand_spans_match_scalar_datapath_bitwise() {
        use BinaryOp::*;
        // Whenever the const-operand kernel claims an (op, c) pair, its
        // lanes must equal the scalar datapath exactly; the power-of-two
        // hot path must actually engage for the convolution constants.
        for (w, f) in [(8, 4), (18, 10), (31, 13), (54, 30), (63, 40), (64, 10), (8, 7)] {
            let q = FixedFormat::new(w, f);
            let a = probe_words(q);
            let mut dst = vec![0i64; a.len()];
            let consts = [
                0,
                1,
                -1,
                2,
                3,
                q.one_raw(),
                q.saturate(q.one_raw() << 1),
                q.saturate(q.one_raw() << 2),
                q.quantize(16.0),
                q.max_raw(),
                q.min_raw(),
            ];
            for op in [Add, Sub, Mul, Div, Min, Max, Lt, Le, Gt, Ge] {
                for c in consts {
                    if !q.binary_span_const(op, &a, c, &mut dst) {
                        continue;
                    }
                    for (i, (&x, &d)) in a.iter().zip(&dst).enumerate() {
                        assert_eq!(
                            d,
                            q.apply_binary(op, x, c),
                            "{q} {op:?} lane {i} word {x} const {c}"
                        );
                    }
                }
            }
            // The point of the kernel: ×2 and ÷16 take the shift path in
            // DSP-scale formats.
            if q.width <= 32 && q.frac + 4 < q.width {
                let sixteen = q.quantize(16.0);
                assert!(q.binary_span_const(Mul, &a, q.saturate(q.one_raw() << 1), &mut dst));
                assert!(q.binary_span_const(Div, &a, sixteen, &mut dst));
            }
        }
    }

    #[test]
    fn division_lanes_are_exact_exhaustively() {
        use BinaryOp::Div;
        // Width 8 is small enough to check every raw operand pair: the f64
        // fast path with remainder fixup and every const-divisor kernel
        // (shift, negative power of two, reciprocal multiply, zero) must
        // equal the i128 definition on all of them.
        for frac in [1, 4, 7] {
            let q = FixedFormat::new(8, frac);
            let xs: Vec<i64> = (q.min_raw()..=q.max_raw()).collect();
            let mut dst = vec![0i64; xs.len()];
            for y in q.min_raw()..=q.max_raw() {
                let ys = vec![y; xs.len()];
                q.binary_span(Div, &xs, &ys, &mut dst);
                for (&x, &d) in xs.iter().zip(&dst) {
                    assert_eq!(d, q.apply_binary(Div, x, y), "{q} span {x}/{y}");
                }
                assert!(q.binary_span_const(Div, &xs, y, &mut dst));
                for (&x, &d) in xs.iter().zip(&dst) {
                    assert_eq!(d, q.apply_binary(Div, x, y), "{q} const {x}/{y}");
                }
            }
        }
    }

    #[test]
    fn quantize_spans_match_scalar() {
        for (w, f) in [(8, 4), (18, 10), (54, 30), (64, 10)] {
            let q = FixedFormat::new(w, f);
            let vals: Vec<f64> = vec![
                0.0,
                -0.0,
                1.0,
                -1.5,
                1e300,
                -1e300,
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                q.max_value(),
                q.min_value(),
                0.3,
            ];
            let mut raw = vec![0i64; vals.len()];
            q.quantize_span(&vals, &mut raw);
            for (&v, &r) in vals.iter().zip(&raw) {
                assert_eq!(r, q.quantize(v), "{q} at {v}");
            }
            let mut back = vec![0.0f64; raw.len()];
            q.dequantize_span(&raw, &mut back);
            for (&r, &v) in raw.iter().zip(&back) {
                assert_eq!(v.to_bits(), q.dequantize(r).to_bits(), "{q} raw {r}");
            }
        }
    }

    #[test]
    fn integer_ops_match_hardware_shapes() {
        let q = FixedFormat::new(8, 4); // Q4.4
        let one = q.one_raw();
        assert_eq!(one, 16);
        // Saturating add at the rails.
        assert_eq!(q.apply_binary(BinaryOp::Add, 120, 120), 127);
        assert_eq!(q.apply_binary(BinaryOp::Sub, -120, 120), -128);
        // Truncating multiply: 1.5 * 1.5 = 2.25 -> 36 exactly in Q4.4.
        assert_eq!(q.apply_binary(BinaryOp::Mul, 24, 24), 36);
        // Floor truncation: 0.0625 * 0.0625 floors to 0.
        assert_eq!(q.apply_binary(BinaryOp::Mul, 1, 1), 0);
        // Division by zero is zero, like fx_div.
        assert_eq!(q.apply_binary(BinaryOp::Div, one, 0), 0);
        assert_eq!(q.apply_binary(BinaryOp::Div, 32, 16), 32);
        // Comparisons produce fixed-point booleans.
        assert_eq!(q.apply_binary(BinaryOp::Lt, 1, 2), one);
        assert_eq!(q.apply_binary(BinaryOp::Ge, 1, 2), 0);
        // Unary.
        assert_eq!(q.apply_unary(UnaryOp::Neg, 7), -7);
        assert_eq!(q.apply_unary(UnaryOp::Abs, -7), 7);
        // sqrt(4.0): raw 64 -> sqrt -> raw 32 (2.0).
        assert_eq!(q.apply_unary(UnaryOp::Sqrt, 64), 32);
        assert_eq!(q.apply_unary(UnaryOp::Sqrt, -3), 0);
    }
}
