//! The product of unsigned and signed bounds with kernel-style deduction
//! and tnum synchronization.

use core::fmt;

use tnum::Tnum;

use crate::signed::SInterval;
use crate::unsigned::UInterval;

/// Combined unsigned + signed bounds on a 64-bit register, as tracked by
/// the kernel's `bpf_reg_state` (`umin_value`/`umax_value` and
/// `smin_value`/`smax_value`).
///
/// The two views describe the *same* set of concrete bit patterns; a value
/// `x: u64` is a member iff `u.contains(x)` and `s.contains(x as i64)`.
/// [`Bounds::deduce`] implements the kernel's `__reg_deduce_bounds`: each
/// view is sharpened from the other whenever the sign of all members is
/// determined. An impossible combination (empty set) is reported as `None`,
/// which the verifier treats as an unreachable path.
///
/// # Examples
///
/// ```
/// use interval_domain::Bounds;
/// use tnum::Tnum;
///
/// // A value masked with 0b111 is in [0, 7] in every view.
/// let b = Bounds::from_tnum("xxx".parse::<Tnum>()?);
/// assert_eq!(b.umax(), 7);
/// assert_eq!(b.smin(), 0);
/// # Ok::<(), tnum::ParseTnumError>(())
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Bounds {
    u: UInterval,
    s: SInterval,
}

impl Bounds {
    /// No information: both views full.
    pub const FULL: Bounds = Bounds {
        u: UInterval::FULL,
        s: SInterval::FULL,
    };

    /// The singleton abstraction of one concrete value.
    #[must_use]
    pub const fn constant(v: u64) -> Bounds {
        Bounds {
            u: UInterval::constant(v),
            s: SInterval::constant(v as i64),
        }
    }

    /// Builds from an unsigned range, deducing the signed view.
    ///
    /// Returns the ⊤ signed view refined as far as the unsigned range
    /// allows (never `None`: a non-empty unsigned range is satisfiable).
    #[must_use]
    pub fn from_unsigned(u: UInterval) -> Bounds {
        Bounds {
            u,
            s: SInterval::FULL,
        }
        .deduce()
        .expect("non-empty unsigned range is satisfiable")
    }

    /// Builds from a signed range, deducing the unsigned view.
    #[must_use]
    pub fn from_signed(s: SInterval) -> Bounds {
        Bounds {
            u: UInterval::FULL,
            s,
        }
        .deduce()
        .expect("non-empty signed range is satisfiable")
    }

    /// Both views as given, neither deduced from the other.
    pub(crate) const fn from_views(u: UInterval, s: SInterval) -> Bounds {
        Bounds { u, s }
    }

    /// The bounds implied by a tnum: `[t.min_value(), t.max_value()]`
    /// unsigned and `[t.min_signed(), t.max_signed()]` signed.
    ///
    /// This hull is already deduced: a known sign bit puts both views on
    /// the same side of the sign boundary, where they are the same
    /// range, and an unknown one makes both views straddle it, where
    /// neither deduction rule applies (pinned over the sign-boundary
    /// lattice by this module's tests).
    #[must_use]
    pub fn from_tnum(t: Tnum) -> Bounds {
        let u = UInterval::new(t.min_value(), t.max_value()).expect("min <= max");
        let s = SInterval::new(t.min_signed(), t.max_signed()).expect("min <= max");
        Bounds { u, s }
    }

    /// The unsigned view.
    #[must_use]
    pub const fn unsigned(self) -> UInterval {
        self.u
    }

    /// The signed view.
    #[must_use]
    pub const fn signed(self) -> SInterval {
        self.s
    }

    /// Unsigned minimum (`umin_value`).
    #[must_use]
    pub const fn umin(self) -> u64 {
        self.u.min()
    }

    /// Unsigned maximum (`umax_value`).
    #[must_use]
    pub const fn umax(self) -> u64 {
        self.u.max()
    }

    /// Signed minimum (`smin_value`).
    #[must_use]
    pub const fn smin(self) -> i64 {
        self.s.min()
    }

    /// Signed maximum (`smax_value`).
    #[must_use]
    pub const fn smax(self) -> i64 {
        self.s.max()
    }

    /// Membership: `x` must satisfy both views.
    #[must_use]
    pub const fn contains(self, x: u64) -> bool {
        self.u.contains(x) && self.s.contains(x as i64)
    }

    /// Whether both views carry no information.
    #[must_use]
    pub const fn is_full(self) -> bool {
        self.u.is_full() && self.s.is_full()
    }

    /// Whether the bounds pin a single value, and if so which.
    #[must_use]
    pub fn as_constant(self) -> Option<u64> {
        self.u.as_constant()
    }

    /// Bounds order: both views must be included.
    #[must_use]
    pub const fn is_subset_of(self, other: Bounds) -> bool {
        self.u.is_subset_of(other.u) && self.s.is_subset_of(other.s)
    }

    /// Join: convex hull in both views.
    #[must_use]
    pub fn union(self, other: Bounds) -> Bounds {
        Bounds {
            u: self.u.union(other.u),
            s: self.s.union(other.s),
        }
    }

    /// Threshold widening `self ∇ newer`, view-wise: each of the four
    /// endpoints either holds steady or jumps to the next widening
    /// threshold (see [`UInterval::widen`] / [`SInterval::widen`]).
    ///
    /// The result is deliberately **not** re-deduced: deduction is
    /// reductive and re-sharpening a freshly widened bound from the other
    /// view could re-open the slow ascent widening exists to cut short.
    /// Fixpoint engines normalize once more during their narrowing pass
    /// instead.
    #[must_use]
    pub fn widen(self, newer: Bounds) -> Bounds {
        Bounds {
            u: self.u.widen(newer.u),
            s: self.s.widen(newer.s),
        }
    }

    /// [`Bounds::widen`] with the built-in ladders extended by harvested
    /// per-program thresholds ([`crate::WidenThresholds`]), so growing
    /// endpoints can land on the comparison constants that actually bound
    /// the loop instead of the register-width extremes.
    #[must_use]
    pub fn widen_with(self, newer: Bounds, thresholds: &crate::WidenThresholds) -> Bounds {
        Bounds {
            u: self.u.widen_with(newer.u, thresholds.unsigned()),
            s: self.s.widen_with(newer.s, thresholds.signed()),
        }
    }

    /// Meet: `None` when the constraint set is unsatisfiable.
    #[must_use]
    pub fn intersect(self, other: Bounds) -> Option<Bounds> {
        Bounds {
            u: self.u.intersect(other.u)?,
            s: self.s.intersect(other.s)?,
        }
        .deduce()
    }

    /// The kernel's `__reg_deduce_bounds`: let each view sharpen the other.
    ///
    /// * If the unsigned range stays on one side of the sign boundary, the
    ///   signed view is the same range reinterpreted.
    /// * If the signed range stays on one side of zero, the unsigned view
    ///   is the same range reinterpreted.
    /// * If both views straddle their sign boundaries, neither rule
    ///   applies, but the set may still be empty: its non-negative piece
    ///   is `[umin, smax]` and its negative piece `[smin, umax as i64]`.
    ///
    /// Returns `None` when the two views contradict (empty set).
    #[must_use]
    pub fn deduce(self) -> Option<Bounds> {
        let mut u = self.u;
        let mut s = self.s;
        // Two rounds reach the fixpoint for these rules (pinned over the
        // sign-boundary lattice by `deduce_is_idempotent_on_the_sign_lattice`).
        for _ in 0..2 {
            // Unsigned range entirely below the sign boundary, or entirely
            // at/above it: reinterpret as a signed range.
            if u.max() <= i64::MAX as u64 || u.min() > i64::MAX as u64 {
                s = s.intersect(SInterval::new(u.min() as i64, u.max() as i64)?)?;
            }
            // Signed range entirely non-negative, or entirely negative:
            // reinterpret as an unsigned range.
            if s.min() >= 0 || s.max() < 0 {
                u = u.intersect(UInterval::new(s.min() as u64, s.max() as u64)?)?;
            }
        }
        // Neither rule fires on a pair that straddles in both views (each
        // leaves its target on one side), so such a pair arrives as given.
        let out = Bounds { u, s };
        (!out.straddles_empty()).then_some(out)
    }

    /// Whether both views straddle their sign boundaries and both pieces
    /// of the set — non-negative and negative — are empty.
    const fn straddles_empty(self) -> bool {
        let (u, s) = (self.u, self.s);
        u.min() <= i64::MAX as u64
            && u.max() > i64::MAX as u64
            && s.min() < 0
            && s.max() >= 0
            && u.min() > s.max() as u64
            && s.min() > u.max() as i64
    }

    /// Whether [`Bounds::deduce`] returns `self` unchanged: the set is
    /// not a both-straddling empty pair, and every rule that applies
    /// already holds, so no view can sharpen the other. Both rules only
    /// shrink, so this is exactly `deduce() == Some(self)`.
    #[must_use]
    pub(crate) const fn is_deduced(self) -> bool {
        let (u, s) = (self.u, self.s);
        let signed_holds = !(u.max() <= i64::MAX as u64 || u.min() > i64::MAX as u64)
            || (u.min() as i64 <= s.min() && s.max() <= u.max() as i64);
        let unsigned_holds = !(s.min() >= 0 || s.max() < 0)
            || (s.min() as u64 <= u.min() && u.max() <= s.max() as u64);
        signed_holds && unsigned_holds && !self.straddles_empty()
    }

    /// Refines these bounds with the knowledge of a tnum
    /// (half of the kernel's `reg_bounds_sync`).
    ///
    /// Returns `None` when tnum and bounds contradict.
    #[must_use]
    pub fn refined_by_tnum(self, t: Tnum) -> Option<Bounds> {
        self.intersect(Bounds::from_tnum(t))
    }

    /// The tnum implied by these bounds — the other half of
    /// `reg_bounds_sync` (`__reg_bound_offset`): `tnum_range` over the
    /// unsigned view.
    #[must_use]
    pub fn to_tnum(self) -> Tnum {
        Tnum::range(self.umin(), self.umax())
    }

    /// Abstract addition.
    #[must_use]
    pub fn add(self, other: Bounds) -> Bounds {
        Bounds {
            u: self.u.add(other.u),
            s: self.s.add(other.s),
        }
    }

    /// Abstract subtraction.
    #[must_use]
    pub fn sub(self, other: Bounds) -> Bounds {
        Bounds {
            u: self.u.sub(other.u),
            s: self.s.sub(other.s),
        }
    }

    /// Abstract multiplication.
    #[must_use]
    pub fn mul(self, other: Bounds) -> Bounds {
        Bounds {
            u: self.u.mul(other.u),
            s: self.s.mul(other.s),
        }
    }

    /// Abstract negation (signed-led; unsigned deduced).
    #[must_use]
    pub fn neg(self) -> Bounds {
        Bounds::from_signed(self.s.neg())
    }

    /// Abstract bitwise AND (unsigned-led; signed deduced).
    #[must_use]
    pub fn and(self, other: Bounds) -> Bounds {
        Bounds::from_unsigned(self.u.and(other.u))
    }

    /// Abstract bitwise OR (unsigned-led; signed deduced).
    #[must_use]
    pub fn or(self, other: Bounds) -> Bounds {
        Bounds::from_unsigned(self.u.or(other.u))
    }

    /// Abstract bitwise XOR (unsigned-led; signed deduced).
    #[must_use]
    pub fn xor(self, other: Bounds) -> Bounds {
        Bounds::from_unsigned(self.u.xor(other.u))
    }

    /// Abstract left shift by a constant (unsigned-led; signed deduced).
    #[must_use]
    pub fn lshift(self, k: u32) -> Bounds {
        Bounds::from_unsigned(self.u.lshift(k))
    }

    /// Abstract logical right shift by a constant (unsigned-led).
    #[must_use]
    pub fn rshift(self, k: u32) -> Bounds {
        Bounds::from_unsigned(self.u.rshift(k))
    }

    /// Abstract arithmetic right shift by a constant (signed-led; unsigned
    /// deduced).
    #[must_use]
    pub fn arshift(self, k: u32) -> Bounds {
        Bounds::from_signed(self.s.arshift(k))
    }

    /// Abstract unsigned division (BPF `x / 0 = 0`).
    #[must_use]
    pub fn div(self, other: Bounds) -> Bounds {
        Bounds::from_unsigned(self.u.div(other.u))
    }

    /// Abstract unsigned remainder (BPF `x % 0 = x`).
    #[must_use]
    pub fn rem(self, other: Bounds) -> Bounds {
        Bounds::from_unsigned(self.u.rem(other.u))
    }
}

impl fmt::Debug for Bounds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "u{:?} s{:?}", self.u, self.s)
    }
}

impl fmt::Display for Bounds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "u{} s{}", self.u, self.s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_agrees_in_both_views() {
        let b = Bounds::constant(u64::MAX);
        assert_eq!(b.umin(), u64::MAX);
        assert_eq!(b.smin(), -1);
        assert!(b.contains(u64::MAX));
        assert!(!b.contains(0));
        assert_eq!(b.as_constant(), Some(u64::MAX));
    }

    #[test]
    fn deduce_learns_sign_from_unsigned() {
        // Unsigned [0, 100] means signed [0, 100].
        let b = Bounds::from_unsigned(UInterval::new(0, 100).unwrap());
        assert_eq!(b.smin(), 0);
        assert_eq!(b.smax(), 100);
        // Unsigned entirely above the sign boundary means negative signed.
        let hi = Bounds::from_unsigned(UInterval::new(u64::MAX - 5, u64::MAX).unwrap());
        assert_eq!(hi.smax(), -1);
        assert_eq!(hi.smin(), -6);
    }

    #[test]
    fn deduce_learns_unsigned_from_signed() {
        let b = Bounds::from_signed(SInterval::new(5, 9).unwrap());
        assert_eq!((b.umin(), b.umax()), (5, 9));
        let neg = Bounds::from_signed(SInterval::new(-4, -2).unwrap());
        assert_eq!(neg.umin(), (-4i64) as u64);
        assert_eq!(neg.umax(), (-2i64) as u64);
    }

    #[test]
    fn deduce_detects_contradiction() {
        // Unsigned says [0, 10]; signed says [-5, -1]: impossible.
        let b = Bounds {
            u: UInterval::new(0, 10).unwrap(),
            s: SInterval::new(-5, -1).unwrap(),
        };
        assert_eq!(b.deduce(), None);
    }

    #[test]
    fn deduce_detects_a_contradiction_straddling_both_boundaries() {
        // u [i64::MAX, 2^63] holds i64::MAX and i64::MIN; s [-1, 0]
        // holds -1 and 0: no value is in both, though each view
        // straddles its sign boundary and so neither rule applies.
        let u = UInterval::new(i64::MAX as u64, 1 << 63).unwrap();
        let s = SInterval::new(-1, 0).unwrap();
        let raw = Bounds { u, s };
        assert_eq!(raw.deduce(), None);
        assert!(!raw.is_deduced());
        assert_eq!(
            Bounds::from_unsigned(u).intersect(Bounds::from_signed(s)),
            None
        );
        // One piece non-empty is not a contradiction.
        let wider = Bounds {
            u,
            s: SInterval::new(i64::MIN, 0).unwrap(),
        };
        assert_eq!(wider.deduce(), Some(wider));
        assert!(wider.contains(1 << 63));
    }

    #[test]
    fn deduce_never_drops_members_small() {
        // Soundness of deduction: any value satisfying both input views
        // still satisfies both output views.
        let u_ranges = [
            (0u64, 5u64),
            (3, 200),
            (u64::MAX - 3, u64::MAX),
            (0, u64::MAX),
        ];
        let s_ranges = [(-5i64, 5i64), (0, 100), (-10, -1), (i64::MIN, i64::MAX)];
        for &(ul, uh) in &u_ranges {
            for &(sl, sh) in &s_ranges {
                let b = Bounds {
                    u: UInterval::new(ul, uh).unwrap(),
                    s: SInterval::new(sl, sh).unwrap(),
                };
                let samples: Vec<u64> = (0..64)
                    .map(|i| ul.wrapping_add(i * 7919))
                    .chain([ul, uh, 0, u64::MAX, sl as u64, sh as u64])
                    .collect();
                match b.deduce() {
                    None => {
                        for &x in &samples {
                            assert!(!b.contains(x), "deduce dropped member {x}");
                        }
                    }
                    Some(d) => {
                        for &x in &samples {
                            if b.contains(x) {
                                assert!(d.contains(x), "deduce dropped member {x}");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn deduce_is_idempotent_on_the_sign_lattice() {
        // Every raw view pair of the lattice, contradictory ones
        // included: two rounds of deduction already reach the fixpoint,
        // and `is_deduced` is exactly "deduce changes nothing".
        let mut reduced = 0;
        for raw in crate::sign_lattice::views() {
            let d = raw.deduce();
            assert_eq!(raw.is_deduced(), d == Some(raw), "is_deduced on {raw:?}");
            if let Some(d) = d {
                assert_eq!(d.deduce(), Some(d), "deduce not idempotent on {raw:?}");
                reduced += usize::from(d != raw);
            }
        }
        assert!(
            reduced > 1_000,
            "only {reduced} view pairs needed deduction"
        );
    }

    #[test]
    fn from_tnum_is_already_deduced() {
        // `from_tnum` builds the raw hull without deducing, and the
        // product's fixpoint test compares against that raw hull.
        use domain::AbstractDomain;
        let tnums = crate::sign_lattice::tnums()
            .into_iter()
            .chain(<Tnum as AbstractDomain>::enumerate_at_width(6))
            .chain([
                Tnum::UNKNOWN,
                Tnum::constant(1 << 63),
                Tnum::masked(0, i64::MAX as u64),
            ]);
        for t in tnums {
            let hull = Bounds::from_tnum(t);
            assert_eq!(hull.deduce(), Some(hull), "hull of {t} is not deduced");
        }
    }

    #[test]
    fn tnum_round_trip() {
        let t: Tnum = "10xx".parse().unwrap(); // {8..=11}
        let b = Bounds::from_tnum(t);
        assert_eq!((b.umin(), b.umax()), (8, 11));
        assert_eq!((b.smin(), b.smax()), (8, 11));
        // And back: the implied tnum re-derives the prefix.
        assert_eq!(b.to_tnum(), t);
    }

    #[test]
    fn refined_by_tnum_detects_conflict() {
        let b = Bounds::from_unsigned(UInterval::new(0, 3).unwrap());
        // A tnum whose minimum value is 8 cannot satisfy umax = 3.
        let t: Tnum = "1xxx".parse().unwrap();
        assert_eq!(b.refined_by_tnum(t), None);
    }

    #[test]
    fn arithmetic_delegates_to_views() {
        let a = Bounds::from_unsigned(UInterval::new(2, 5).unwrap());
        let c = Bounds::constant(10);
        let sum = a.add(c);
        assert_eq!((sum.umin(), sum.umax()), (12, 15));
        assert_eq!((sum.smin(), sum.smax()), (12, 15));
        let diff = c.sub(a);
        assert_eq!((diff.umin(), diff.umax()), (5, 8));
        let prod = a.mul(c);
        assert_eq!((prod.umin(), prod.umax()), (20, 50));
    }

    #[test]
    fn bitwise_ops_are_sound_for_samples() {
        let a = Bounds::from_unsigned(UInterval::new(0, 12).unwrap());
        let b = Bounds::from_unsigned(UInterval::new(3, 5).unwrap());
        let and = a.and(b);
        let or = a.or(b);
        let xor = a.xor(b);
        for x in 0u64..=12 {
            for y in 3u64..=5 {
                assert!(and.contains(x & y));
                assert!(or.contains(x | y));
                assert!(xor.contains(x ^ y));
            }
        }
    }

    #[test]
    fn shifts_and_division() {
        let a = Bounds::from_unsigned(UInterval::new(4, 9).unwrap());
        assert_eq!(a.lshift(2).umax(), 36);
        assert_eq!(a.rshift(1).umin(), 2);
        let d = a.div(Bounds::constant(2));
        assert_eq!((d.umin(), d.umax()), (2, 4));
        let m = a.rem(Bounds::constant(4));
        assert!(m.umax() <= 9);
        // arshift is signed-led.
        let n = Bounds::from_signed(SInterval::new(-8, 8).unwrap());
        let sh = n.arshift(1);
        assert_eq!((sh.smin(), sh.smax()), (-4, 4));
    }

    #[test]
    fn union_and_intersect() {
        let a = Bounds::from_unsigned(UInterval::new(0, 4).unwrap());
        let b = Bounds::from_unsigned(UInterval::new(10, 12).unwrap());
        let u = a.union(b);
        assert_eq!((u.umin(), u.umax()), (0, 12));
        assert_eq!(a.intersect(b), None);
        let c = Bounds::from_unsigned(UInterval::new(3, 11).unwrap());
        let i = a.intersect(c).unwrap();
        assert_eq!((i.umin(), i.umax()), (3, 4));
    }

    #[test]
    fn neg_is_sound_for_samples() {
        let a = Bounds::from_signed(SInterval::new(-3, 7).unwrap());
        let n = a.neg();
        for x in -3i64..=7 {
            assert!(n.contains(x.wrapping_neg() as u64), "missing -{x}");
        }
    }
}
