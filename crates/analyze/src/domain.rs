//! The two cooperating abstract domains: raw-word **intervals** and
//! **known bits**, plus the per-operation transfer functions that mirror
//! the [`FixedFormat`] datapath.
//!
//! # Soundness contract
//!
//! Every transfer function over-approximates the concrete operation from
//! [`FixedFormat::apply_unary`] / [`FixedFormat::apply_binary`] /
//! [`FixedFormat::quantize`]: if `a ∈ γ(A)` and `b ∈ γ(B)` then
//! `apply(op, a, b) ∈ γ(transfer(op, A, B))`, where `γ` is the set of raw
//! words inside the interval whose bits agree with the known-bits mask.
//! The interval arithmetic is done on `i128` endpoints and funnelled
//! through [`FixedFormat::saturate_wide`] — the *same* widening and the
//! *same* clamp the datapath executes, never a reimplementation — which is
//! what makes endpoint mapping exact for the monotone operations
//! (add/sub/neg, shift-truncation, [`isl_fpga::isqrt_wide`]) and
//! corner-enumeration sound for the bilinear/biconvex ones (mul, and div
//! split per divisor sign region, where truncated division is monotone).
//!
//! Alongside the post-saturation interval every value carries a
//! `may_saturate` flag: *true* iff some point of the abstract
//! pre-saturation `i128` interval falls outside the rails
//! ([`FixedFormat::saturates_wide`]). A program whose every instruction has
//! `may_saturate == false` is **proven saturation-free** for that format —
//! the certificate [`crate::Analysis::first_overflow`] reports.

use isl_fpga::{isqrt_wide, FixedFormat};
use isl_ir::{BinaryOp, UnaryOp};

/// A closed interval `[lo, hi]` of raw fixed-point words (post-saturation,
/// so both endpoints are representable `i64` words of the format under
/// analysis). Empty intervals do not exist: construction requires
/// `lo <= hi`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WordRange {
    /// Smallest word in the interval.
    pub lo: i64,
    /// Largest word in the interval.
    pub hi: i64,
}

impl WordRange {
    /// `[lo, hi]`, panicking on an empty interval — abstract states are
    /// never empty (the analyses have no unreachable-code paths).
    pub fn new(lo: i64, hi: i64) -> Self {
        assert!(lo <= hi, "empty WordRange [{lo}, {hi}]");
        Self { lo, hi }
    }

    /// The singleton interval `[w, w]`.
    pub fn constant(w: i64) -> Self {
        Self { lo: w, hi: w }
    }

    /// The full representable range of `fmt`: `[min_raw, max_raw]`. This is
    /// the sound input assumption for any stimulus produced by
    /// [`FixedFormat::quantize`] or by the datapath itself (golden-vector
    /// replay, frame loads).
    pub fn full(fmt: FixedFormat) -> Self {
        Self {
            lo: fmt.min_raw(),
            hi: fmt.max_raw(),
        }
    }

    /// Does the interval contain the word `w`?
    pub fn contains(&self, w: i64) -> bool {
        self.lo <= w && w <= self.hi
    }

    /// Smallest interval containing both `self` and `other`.
    pub fn join(&self, other: &Self) -> Self {
        Self {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Intersection with the rails of `fmt` (used to sanitise caller-given
    /// input boxes; panics if disjoint, which no in-format stimulus is).
    pub fn clamp_to(&self, fmt: FixedFormat) -> Self {
        Self::new(self.lo.max(fmt.min_raw()), self.hi.min(fmt.max_raw()))
    }
}

/// Bit-level knowledge about a raw word, in two's complement: bit `i` is
/// **known** iff `mask` has bit `i` set, and then its value is bit `i` of
/// `value`. Invariant: `value & !mask == 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KnownBits {
    /// Which bits are known.
    pub mask: u64,
    /// The values of the known bits (zero on unknown positions).
    pub value: u64,
}

impl KnownBits {
    /// Nothing known.
    pub fn unknown() -> Self {
        Self { mask: 0, value: 0 }
    }

    /// Every bit known: the constant `w`.
    pub fn constant(w: i64) -> Self {
        Self {
            mask: !0,
            value: w as u64,
        }
    }

    /// Is `w` consistent with the known bits?
    pub fn admits(&self, w: i64) -> bool {
        (w as u64) & self.mask == self.value
    }

    /// Bits known to agree in *both* (set intersection of the two facts'
    /// concretisations needs bits known on both sides with equal values).
    pub fn join(&self, other: &Self) -> Self {
        let mask = self.mask & other.mask & !(self.value ^ other.value);
        Self {
            mask,
            value: self.value & mask,
        }
    }

    /// The bits every word of `[lo, hi]` shares: the common two's-complement
    /// high-order prefix of the endpoints. (All words in between differ from
    /// the endpoints only below the highest differing bit.)
    pub fn from_range(lo: i64, hi: i64) -> Self {
        let x = (lo ^ hi) as u64;
        if x == 0 {
            return Self::constant(lo);
        }
        let unknown = 64 - x.leading_zeros();
        if unknown >= 64 {
            return Self::unknown();
        }
        let mask = !0u64 << unknown;
        Self {
            mask,
            value: (lo as u64) & mask,
        }
    }

    /// Bit knowledge of a two-valued set `{a, b}`: exactly the bit
    /// positions where the two words agree.
    pub fn from_pair(a: i64, b: i64) -> Self {
        let mask = !((a ^ b) as u64);
        Self {
            mask,
            value: (a as u64) & mask,
        }
    }
}

/// The abstract value attached to one instruction: the reduced product of
/// the interval and known-bits domains, plus the saturation verdict for
/// *this* instruction's own widened intermediate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AbstractValue {
    /// Post-saturation interval containing every concrete result word.
    pub range: WordRange,
    /// Bits provably identical across every concrete result word.
    pub bits: KnownBits,
    /// `true` iff the *pre-saturation* widened (`i128`) result interval of
    /// this instruction leaves the rails — i.e. the instruction may clamp.
    /// `false` is a proof of saturation-freedom for this instruction.
    pub may_saturate: bool,
}

impl AbstractValue {
    /// The singleton abstraction of a known word (no saturation recorded:
    /// constants are materialised pre-clamped by the compiler).
    pub fn constant(w: i64) -> Self {
        Self {
            range: WordRange::constant(w),
            bits: KnownBits::constant(w),
            may_saturate: false,
        }
    }

    /// Abstraction of a caller-supplied input interval (clamped to the
    /// rails of `fmt`; inputs are in-format by construction).
    pub fn input(fmt: FixedFormat, range: WordRange) -> Self {
        let range = range.clamp_to(fmt);
        Self {
            range,
            bits: KnownBits::from_range(range.lo, range.hi),
            may_saturate: false,
        }
    }

    /// Does the abstraction admit the concrete word `w`? (Membership in
    /// the reduced product: interval *and* bit consistency.)
    pub fn contains(&self, w: i64) -> bool {
        self.range.contains(w) && self.bits.admits(w)
    }

    /// Are all bits selected by `mask` known to be `0`? Then a
    /// `StuckAt0 { mask }` fault on this value is provably **silent**: the
    /// fault cannot change any word this instruction produces.
    pub fn always_zero(&self, mask: i64) -> bool {
        let m = mask as u64;
        self.bits.mask & m == m && self.bits.value & m == 0
    }

    /// Are all bits selected by `mask` known to be `1`? Then a
    /// `StuckAt1 { mask }` fault on this value is provably silent.
    pub fn always_one(&self, mask: i64) -> bool {
        let m = mask as u64;
        self.bits.mask & m == m && self.bits.value & m == m
    }

    /// Join of two abstractions (used for an undecidable `Select`).
    pub fn join(&self, other: &Self) -> Self {
        Self {
            range: self.range.join(&other.range),
            bits: self.bits.join(&other.bits),
            may_saturate: false,
        }
    }

    /// Build a post-saturation abstraction from a widened pre-saturation
    /// endpoint interval `[lo, hi]` (in `i128`), recording whether any
    /// point of it would clamp. This is the single funnel every arithmetic
    /// transfer result passes through — the abstract twin of
    /// [`FixedFormat::saturate_wide`].
    fn saturate_wide(fmt: FixedFormat, lo: i128, hi: i128) -> Self {
        debug_assert!(lo <= hi);
        let may_saturate = fmt.saturates_wide(lo) || fmt.saturates_wide(hi);
        let (lo, hi) = (fmt.saturate_wide(lo), fmt.saturate_wide(hi));
        Self {
            range: WordRange::new(lo, hi),
            bits: KnownBits::from_range(lo, hi),
            may_saturate,
        }
    }
}

/// Transfer function for [`FixedFormat::apply_unary`].
pub(crate) fn transfer_unary(fmt: FixedFormat, op: UnaryOp, a: &AbstractValue) -> AbstractValue {
    let (lo, hi) = (a.range.lo as i128, a.range.hi as i128);
    match op {
        // Negation reverses and negates the endpoints (monotone decreasing).
        UnaryOp::Neg => AbstractValue::saturate_wide(fmt, -hi, -lo),
        UnaryOp::Abs => {
            if lo >= 0 {
                AbstractValue::saturate_wide(fmt, lo, hi)
            } else if hi <= 0 {
                AbstractValue::saturate_wide(fmt, -hi, -lo)
            } else {
                // Mixed sign: |x| spans [0, max(-lo, hi)].
                AbstractValue::saturate_wide(fmt, 0, (-lo).max(hi))
            }
        }
        UnaryOp::Sqrt => {
            // apply_unary: a <= 0 → 0, else isqrt(a << frac), saturated.
            if hi <= 0 {
                return AbstractValue::constant(0);
            }
            let r_hi = isqrt_wide(hi << fmt.frac);
            let r_lo = if lo <= 0 { 0 } else { isqrt_wide(lo << fmt.frac) };
            AbstractValue::saturate_wide(fmt, r_lo, r_hi)
        }
    }
}

/// Transfer function for [`FixedFormat::apply_binary`].
pub(crate) fn transfer_binary(
    fmt: FixedFormat,
    op: BinaryOp,
    a: &AbstractValue,
    b: &AbstractValue,
) -> AbstractValue {
    let (alo, ahi) = (a.range.lo as i128, a.range.hi as i128);
    let (blo, bhi) = (b.range.lo as i128, b.range.hi as i128);
    match op {
        BinaryOp::Add => AbstractValue::saturate_wide(fmt, alo + blo, ahi + bhi),
        BinaryOp::Sub => AbstractValue::saturate_wide(fmt, alo - bhi, ahi - blo),
        BinaryOp::Mul => {
            // (a*b) >> frac: the product is bilinear, so its extrema over a
            // box are at the corners; the arithmetic right shift (floor
            // division by 2^frac) is monotone, so shifting the corner
            // products preserves min/max.
            let corners = [alo * blo, alo * bhi, ahi * blo, ahi * bhi];
            let lo = corners.iter().copied().min().unwrap() >> fmt.frac;
            let hi = corners.iter().copied().max().unwrap() >> fmt.frac;
            AbstractValue::saturate_wide(fmt, lo, hi)
        }
        BinaryOp::Div => {
            // (a << frac) / b, with b == 0 → 0. Truncated division is
            // monotone in each argument on either side of b = 0, so the
            // extrema over the box are at corners of the two sign regions
            // of the divisor; a divisor range touching 0 contributes the
            // exact word 0.
            let mut lo = i128::MAX;
            let mut hi = i128::MIN;
            let mut cover = |v: i128| {
                lo = lo.min(v);
                hi = hi.max(v);
            };
            let q = |x: i128, y: i128| (x << fmt.frac) / y;
            if blo <= -1 {
                let (ylo, yhi) = (blo, bhi.min(-1));
                for x in [alo, ahi] {
                    for y in [ylo, yhi] {
                        cover(q(x, y));
                    }
                }
            }
            if bhi >= 1 {
                let (ylo, yhi) = (blo.max(1), bhi);
                for x in [alo, ahi] {
                    for y in [ylo, yhi] {
                        cover(q(x, y));
                    }
                }
            }
            if blo <= 0 && bhi >= 0 {
                cover(0);
            }
            AbstractValue::saturate_wide(fmt, lo, hi)
        }
        // Min/Max act on already-saturated words: no widening, no clamp.
        BinaryOp::Min => {
            let (lo, hi) = (a.range.lo.min(b.range.lo), a.range.hi.min(b.range.hi));
            AbstractValue {
                range: WordRange::new(lo, hi),
                bits: KnownBits::from_range(lo, hi),
                may_saturate: false,
            }
        }
        BinaryOp::Max => {
            let (lo, hi) = (a.range.lo.max(b.range.lo), a.range.hi.max(b.range.hi));
            AbstractValue {
                range: WordRange::new(lo, hi),
                bits: KnownBits::from_range(lo, hi),
                may_saturate: false,
            }
        }
        BinaryOp::Lt => comparison(fmt, decide(a, b, |x, y| x < y)),
        BinaryOp::Le => comparison(fmt, decide(a, b, |x, y| x <= y)),
        BinaryOp::Gt => comparison(fmt, decide(a, b, |x, y| x > y)),
        BinaryOp::Ge => comparison(fmt, decide(a, b, |x, y| x >= y)),
    }
}

/// Decide a comparison over two intervals: `Some(v)` when every pair of
/// concrete words agrees on the verdict `v`, `None` otherwise. The
/// predicate is evaluated on the decisive endpoint pairs (all four
/// comparisons are monotone, so "true on the adversarial corner" decides).
fn decide(a: &AbstractValue, b: &AbstractValue, cmp: fn(i64, i64) -> bool) -> Option<bool> {
    // The comparison holds for ALL pairs iff it holds on the corner where
    // it is hardest (max a vs min b for `<`-like, symmetric for `>`-like);
    // it holds for NO pair iff its negation holds for all pairs. Testing
    // all four corners covers every one of the eight cases uniformly.
    let corners = [
        (a.range.lo, b.range.lo),
        (a.range.lo, b.range.hi),
        (a.range.hi, b.range.lo),
        (a.range.hi, b.range.hi),
    ];
    let first = cmp(corners[0].0, corners[0].1);
    corners[1..]
        .iter()
        .all(|&(x, y)| cmp(x, y) == first)
        .then_some(first)
}

/// Abstraction of a comparison result: `one_raw()` or `0`, or the
/// two-valued set when undecided. `one_raw` itself saturates in formats
/// with `frac >= width - 1`, which the flag must report.
fn comparison(fmt: FixedFormat, verdict: Option<bool>) -> AbstractValue {
    let one = fmt.one_raw();
    let one_saturates = fmt.saturates_wide(1i128 << fmt.frac);
    match verdict {
        Some(false) => AbstractValue::constant(0),
        Some(true) => AbstractValue {
            range: WordRange::constant(one),
            bits: KnownBits::constant(one),
            may_saturate: one_saturates,
        },
        None => AbstractValue {
            range: WordRange::new(0.min(one), 0.max(one)),
            bits: KnownBits::from_pair(0, one),
            may_saturate: one_saturates,
        },
    }
}

/// Transfer function for `Select { c, t, e }` (`c != 0 ? t : e`): branch
/// refinement when the condition is decided, join otherwise.
pub(crate) fn transfer_select(
    c: &AbstractValue,
    t: &AbstractValue,
    e: &AbstractValue,
) -> AbstractValue {
    let definitely_nonzero =
        c.range.lo > 0 || c.range.hi < 0 || (c.bits.value & c.bits.mask) != 0;
    let definitely_zero = c.range.lo == 0 && c.range.hi == 0;
    if definitely_nonzero {
        *t
    } else if definitely_zero {
        *e
    } else {
        t.join(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn val(fmt: FixedFormat, lo: i64, hi: i64) -> AbstractValue {
        AbstractValue::input(fmt, WordRange::new(lo, hi))
    }

    /// Exhaustive soundness of every binary transfer over a small box in a
    /// narrow format: the abstraction of the box contains every concrete
    /// `apply_binary` result, and `may_saturate == false` implies no
    /// concrete evaluation clamps.
    #[test]
    fn binary_transfers_contain_concrete_results_exhaustively() {
        let fmt = FixedFormat::new(8, 3);
        let ops = [
            BinaryOp::Add,
            BinaryOp::Sub,
            BinaryOp::Mul,
            BinaryOp::Div,
            BinaryOp::Min,
            BinaryOp::Max,
            BinaryOp::Lt,
            BinaryOp::Le,
            BinaryOp::Gt,
            BinaryOp::Ge,
        ];
        let boxes = [(-128i64, -3i64), (-5, 7), (0, 0), (1, 19), (120, 127), (-128, 127)];
        for op in ops {
            for (alo, ahi) in boxes {
                for (blo, bhi) in boxes {
                    let av = val(fmt, alo, ahi);
                    let bv = val(fmt, blo, bhi);
                    let r = transfer_binary(fmt, op, &av, &bv);
                    for a in alo..=ahi {
                        for b in blo..=bhi {
                            let c = fmt.apply_binary(op, a, b);
                            assert!(
                                r.contains(c),
                                "{op:?} [{alo},{ahi}]x[{blo},{bhi}]: {c} not in {r:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn unary_transfers_contain_concrete_results_exhaustively() {
        let fmt = FixedFormat::new(8, 3);
        for op in [UnaryOp::Neg, UnaryOp::Abs, UnaryOp::Sqrt] {
            for (lo, hi) in [(-128i64, -1i64), (-4, 9), (0, 127), (-128, 127), (55, 55)] {
                let av = val(fmt, lo, hi);
                let r = transfer_unary(fmt, op, &av);
                for a in lo..=hi {
                    let c = fmt.apply_unary(op, a);
                    assert!(r.contains(c), "{op:?} [{lo},{hi}]: {c} not in {r:?}");
                }
            }
        }
    }

    /// `may_saturate == false` is a proof: re-check against the datapath by
    /// spotting that no concrete add in a provably-safe box clamps.
    #[test]
    fn saturation_freedom_is_sound_for_add() {
        let fmt = FixedFormat::new(8, 3);
        let a = val(fmt, -30, 30);
        let r = transfer_binary(fmt, BinaryOp::Add, &a, &a);
        assert!(!r.may_saturate);
        let wide = val(fmt, 100, 127);
        let r2 = transfer_binary(fmt, BinaryOp::Add, &wide, &wide);
        assert!(r2.may_saturate, "100+100 exceeds the 8-bit rail 127");
    }

    #[test]
    fn known_bits_from_range_and_pair() {
        let kb = KnownBits::from_range(0b1010_0000, 0b1010_1111);
        assert!(kb.admits(0b1010_0110));
        assert!(!kb.admits(0b1110_0110));
        let two = KnownBits::from_pair(0, 8);
        assert!(two.admits(0) && two.admits(8) && !two.admits(4));
        // Mixed-sign range: sign bit unknown, nothing known.
        assert_eq!(KnownBits::from_range(-1, 0).mask, 0);
    }

    #[test]
    fn select_refines_on_decided_conditions() {
        let fmt = FixedFormat::new(16, 8);
        let t = AbstractValue::constant(3);
        let e = AbstractValue::constant(9);
        let on = val(fmt, 1, 40);
        let off = AbstractValue::constant(0);
        let dunno = val(fmt, -1, 1);
        assert_eq!(transfer_select(&on, &t, &e), t);
        assert_eq!(transfer_select(&off, &t, &e), e);
        let j = transfer_select(&dunno, &t, &e);
        assert!(j.contains(3) && j.contains(9));
    }

    #[test]
    fn stuck_at_silence_predicates() {
        let v = AbstractValue::constant(0b1100);
        assert!(v.always_zero(0b0011));
        assert!(v.always_one(0b1100));
        assert!(!v.always_zero(0b0100));
        assert!(!v.always_one(0b0010));
        let unknown = AbstractValue::input(FixedFormat::new(18, 10), WordRange::new(-5, 5));
        assert!(!unknown.always_zero(1));
    }
}
