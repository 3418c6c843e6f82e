//! [`AbstractDomain`] / [`ArithDomain`] / [`BitwiseDomain`] for
//! [`Bounds`], plus the two [`RefineFrom`] directions of the kernel's
//! `reg_bounds_sync` — the glue that lets the range half of the reduced
//! product ride the same generic verification campaign and analyzer as
//! the bit-level domains.
//!
//! ## Canonical enumeration
//!
//! At widths below 64 every representable value is non-negative, so a
//! canonical (fully deduced) [`Bounds`] element is determined by its
//! unsigned interval: `enumerate_at_width(w)` yields
//! `Bounds::from_unsigned([lo, hi])` for every `0 <= lo <= hi < 2^w` —
//! `2^w (2^w + 1) / 2` elements, the complete bounded quantification
//! space for this domain (the analogue of the `3^w` tnums).
//!
//! ## Width truncation
//!
//! Intervals do not commute with `mod 2^w` the way value/mask pairs do:
//! a range that crosses a `2^w` boundary wraps into a union of two
//! ranges, which the domain cannot represent. [`AbstractDomain::truncate`]
//! therefore keeps the element when it already fits in `[0, 2^w)` and
//! soundly collapses to `⊤|w = [0, 2^w)` otherwise.

use domain::rng::SplitMix64;
use domain::{AbstractDomain, ArithDomain, BitwiseDomain, RefineFrom, WidenDomain};
use tnum::{low_bits, Tnum};

use crate::bounds::Bounds;
use crate::signed::SInterval;
use crate::unsigned::UInterval;

impl AbstractDomain for Bounds {
    const NAME: &'static str = "bounds";

    fn top() -> Bounds {
        Bounds::FULL
    }

    fn le(self, other: Bounds) -> bool {
        self.is_subset_of(other)
    }

    fn join(self, other: Bounds) -> Bounds {
        self.union(other)
    }

    fn meet(self, other: Bounds) -> Option<Bounds> {
        self.intersect(other)
    }

    fn abstract_of<I: IntoIterator<Item = u64>>(values: I) -> Option<Bounds> {
        let mut iter = values.into_iter();
        let first = iter.next()?;
        let (mut umin, mut umax) = (first, first);
        let (mut smin, mut smax) = (first as i64, first as i64);
        for v in iter {
            umin = umin.min(v);
            umax = umax.max(v);
            smin = smin.min(v as i64);
            smax = smax.max(v as i64);
        }
        let u = UInterval::new(umin, umax).expect("min <= max");
        let s = SInterval::new(smin, smax).expect("min <= max");
        Some(
            Bounds::from_unsigned(u)
                .intersect(Bounds::from_signed(s))
                .expect("hull of a non-empty set is non-empty"),
        )
    }

    fn contains(self, x: u64) -> bool {
        Bounds::contains(self, x)
    }

    fn constant(value: u64) -> Bounds {
        Bounds::constant(value)
    }

    fn enumerate_at_width(width: u32) -> Vec<Bounds> {
        assert!(width < 64, "bounds enumeration is limited to width 63");
        let n = 1u64 << width;
        let mut out = Vec::with_capacity((n * (n + 1) / 2) as usize);
        for lo in 0..n {
            for hi in lo..n {
                out.push(Bounds::from_unsigned(
                    UInterval::new(lo, hi).expect("lo <= hi"),
                ));
            }
        }
        out
    }

    fn members(self, width: u32) -> Vec<u64> {
        let t = AbstractDomain::truncate(self, width);
        (t.umin()..=t.umax()).filter(|&x| t.contains(x)).collect()
    }

    fn as_constant(self) -> Option<u64> {
        Bounds::as_constant(self)
    }

    fn truncate(self, width: u32) -> Bounds {
        if width >= 64 {
            return self;
        }
        let lim = low_bits(width);
        if self.umax() <= lim && self.smin() >= 0 {
            self
        } else {
            Bounds::from_unsigned(UInterval::new(0, lim).expect("0 <= lim"))
        }
    }

    fn random(rng: &mut SplitMix64) -> Bounds {
        if rng.coin() {
            let (a, b) = (rng.next_u64(), rng.next_u64());
            Bounds::from_unsigned(UInterval::new(a.min(b), a.max(b)).expect("sorted"))
        } else {
            let (a, b) = (rng.next_u64() as i64, rng.next_u64() as i64);
            Bounds::from_signed(SInterval::new(a.min(b), a.max(b)).expect("sorted"))
        }
    }

    fn random_member(self, rng: &mut SplitMix64) -> u64 {
        // γ(self) is the unsigned interval intersected with the signed
        // one; in unsigned order the signed interval is one contiguous
        // range (sign-pure) or two (straddling zero: the non-negative
        // prefix and the negative suffix of the u64 line). Intersect the
        // unsigned view with each piece and sample uniformly across the
        // surviving segments — exact for every consistent element, not
        // just those built by `random`.
        let (smin, smax) = (self.smin(), self.smax());
        let pieces: [Option<(u64, u64)>; 2] = if smin >= 0 || smax < 0 {
            [Some((smin as u64, smax as u64)), None]
        } else {
            [Some((0, smax as u64)), Some((smin as u64, u64::MAX))]
        };
        let segments: Vec<(u64, u64)> = pieces
            .into_iter()
            .flatten()
            .filter_map(|(lo, hi)| {
                let lo = lo.max(self.umin());
                let hi = hi.min(self.umax());
                (lo <= hi).then_some((lo, hi))
            })
            .collect();
        // A well-formed Bounds is non-empty, so at least one segment
        // survives; weight the choice by segment size (saturating: the
        // full line collapses to one segment anyway).
        let total = segments.iter().fold(0u64, |acc, &(lo, hi)| {
            acc.saturating_add((hi - lo).saturating_add(1))
        });
        let mut pick = rng.below(total.max(1));
        for &(lo, hi) in &segments {
            let size = (hi - lo).saturating_add(1);
            if pick < size {
                let x = if hi - lo == u64::MAX {
                    rng.next_u64()
                } else {
                    lo + pick
                };
                debug_assert!(self.contains(x), "sampled non-member {x:#x} of {self:?}");
                return x;
            }
            pick -= size;
        }
        unreachable!("non-empty Bounds always yields a segment: {self:?}")
    }
}

impl WidenDomain for Bounds {
    /// View-wise threshold widening — intervals have infinite ascending
    /// chains, so unlike the bit-level domains the join is *not* enough;
    /// growing endpoints jump to the shared threshold ladder.
    fn widen(self, newer: Bounds) -> Bounds {
        Bounds::widen(self, newer)
    }
}

impl ArithDomain for Bounds {
    fn abs_add(self, rhs: Bounds) -> Bounds {
        self.add(rhs)
    }

    fn abs_sub(self, rhs: Bounds) -> Bounds {
        self.sub(rhs)
    }

    fn abs_mul(self, rhs: Bounds) -> Bounds {
        self.mul(rhs)
    }

    fn abs_div(self, rhs: Bounds) -> Bounds {
        self.div(rhs)
    }

    fn abs_rem(self, rhs: Bounds) -> Bounds {
        self.rem(rhs)
    }
}

impl BitwiseDomain for Bounds {
    fn abs_and(self, rhs: Bounds) -> Bounds {
        self.and(rhs)
    }

    fn abs_or(self, rhs: Bounds) -> Bounds {
        self.or(rhs)
    }

    fn abs_xor(self, rhs: Bounds) -> Bounds {
        self.xor(rhs)
    }

    fn abs_shl(self, rhs: Bounds, width: u32) -> Bounds {
        match rhs.as_constant() {
            Some(k) => self.lshift((k & 63) as u32),
            None => Bounds::top_at_width(width),
        }
    }

    fn abs_lshr(self, rhs: Bounds, width: u32) -> Bounds {
        match rhs.as_constant() {
            Some(k) => self.rshift((k & 63) as u32),
            None => Bounds::top_at_width(width),
        }
    }

    fn abs_ashr(self, rhs: Bounds, width: u32) -> Bounds {
        // The native arshift assumes the sign lives at bit 63; for
        // narrower verification widths the sign position moves, so fall
        // back to ⊤ at the width (sound; the tnum half of the product
        // carries the precision for this operator).
        match (rhs.as_constant(), width) {
            (Some(k), 64) => self.arshift((k & 63) as u32),
            _ => Bounds::top_at_width(width),
        }
    }
}

impl RefineFrom<Tnum> for Bounds {
    /// Half of the kernel's `reg_bounds_sync`: tighten the ranges with the
    /// tnum-implied `[min_value, max_value]` / `[min_signed, max_signed]`.
    fn refine_from(self, other: &Tnum) -> Option<Bounds> {
        self.refined_by_tnum(*other)
    }

    /// `refine_from` intersects with the tnum's hull, which is already
    /// deduced ([`Bounds::from_tnum`]), then deduces: it returns `self`
    /// unchanged exactly when both views lie inside the hull and
    /// `self` is already deduced.
    fn is_refined_by(&self, other: &Tnum) -> bool {
        self.is_subset_of(Bounds::from_tnum(*other)) && self.is_deduced()
    }
}

impl RefineFrom<Bounds> for Tnum {
    /// The other half (`__reg_bound_offset`): intersect with
    /// `tnum_range(umin, umax)`.
    fn refine_from(self, other: &Bounds) -> Option<Tnum> {
        self.intersect(other.to_tnum())
    }

    /// The meet with `tnum_range(umin, umax)` is exact, so it returns
    /// `self` unchanged exactly when `self` already lies inside that range.
    fn is_refined_by(&self, other: &Bounds) -> bool {
        self.is_subset_of(other.to_tnum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lattice_and_galois_laws() {
        domain::laws::assert_lattice_laws::<Bounds>(3);
        domain::laws::assert_galois_soundness::<Bounds>(4);
        domain::laws::assert_sampling_sound::<Bounds>(2_000, 0xB0);
        domain::laws::assert_widening_laws::<Bounds>(3, 200, 64, 0xB1);
    }

    #[test]
    fn widening_jumps_to_thresholds_and_keeps_stable_bounds() {
        let narrow = Bounds::from_unsigned(UInterval::new(0, 4).unwrap());
        let grown = Bounds::from_unsigned(UInterval::new(0, 5).unwrap());
        let w = narrow.widen(grown);
        // The stable lower bound is kept; the creeping upper bound jumps
        // to the next threshold (i32::MAX) instead of 5.
        assert_eq!(w.umin(), 0);
        assert_eq!(w.umax(), i32::MAX as u64);
        // A second growth within the widened bound is absorbed: ∇ is
        // stationary once the chain stops climbing.
        let grown2 = w.union(Bounds::from_unsigned(UInterval::new(0, 1000).unwrap()));
        assert_eq!(w.widen(grown2), w);
        // Signed endpoints jump through their own ladder.
        let s0 = Bounds::from_signed(SInterval::new(-1, 3).unwrap());
        let s1 = s0.union(Bounds::from_signed(SInterval::new(-7, 3).unwrap()));
        let ws = s0.widen(s1);
        assert_eq!(ws.smin(), i32::MIN as i64);
        assert_eq!(ws.smax(), 3);
    }

    #[test]
    fn enumeration_is_complete_and_canonical() {
        let elems = <Bounds as AbstractDomain>::enumerate_at_width(3);
        assert_eq!(elems.len(), 8 * 9 / 2);
        for b in &elems {
            // Canonical: deduction is a no-op.
            assert_eq!(b.deduce(), Some(*b));
            assert!(b.smin() >= 0, "width-3 members are non-negative");
        }
    }

    #[test]
    fn truncate_keeps_fitting_ranges_and_collapses_the_rest() {
        let fits = Bounds::from_unsigned(UInterval::new(3, 7).unwrap());
        assert_eq!(AbstractDomain::truncate(fits, 3), fits);
        let wide = Bounds::from_unsigned(UInterval::new(3, 9).unwrap());
        let t = AbstractDomain::truncate(wide, 3);
        assert_eq!((t.umin(), t.umax()), (0, 7));
        // Sound: (x mod 8) is contained for every member of the input.
        for x in 3u64..=9 {
            assert!(t.contains(x % 8));
        }
    }

    #[test]
    fn refine_from_is_the_kernel_sync() {
        let t: Tnum = "10xx".parse().unwrap(); // {8..=11}
        let b = Bounds::FULL.refine_from(&t).unwrap();
        assert_eq!((b.umin(), b.umax()), (8, 11));
        let t2 = Tnum::UNKNOWN.refine_from(&b).unwrap();
        assert_eq!(t2, t);
        // Contradiction surfaces as None in both directions.
        let low = Bounds::from_unsigned(UInterval::new(0, 3).unwrap());
        assert_eq!(low.refine_from(&t), None);
        assert_eq!("1xxx".parse::<Tnum>().unwrap().refine_from(&low), None);
    }

    #[test]
    fn random_member_respects_both_views_on_meet_derived_elements() {
        // Regression: an element whose unsigned *and* signed views both
        // strictly constrain it (straddling-unsigned ∧ straddling-signed,
        // as produced by the domain's own meet) must never yield a sample
        // outside γ — the old smaller-span heuristic did.
        let b = Bounds::from_unsigned(
            UInterval::new(2_213_914_867_404_379_067, 10_486_188_960_074_589_865).unwrap(),
        )
        .intersect(Bounds::from_signed(
            SInterval::new(-3_258_883_285_024_894_585, 2_983_140_654_205_117_793).unwrap(),
        ))
        .unwrap();
        let mut rng = SplitMix64::new(0xDEAD);
        for _ in 0..10_000 {
            let x = b.random_member(&mut rng);
            assert!(b.contains(x), "{x:#x} escapes {b:?}");
        }
        // And a negative-only signed element samples into the high half.
        let neg = Bounds::from_signed(SInterval::new(-40, -2).unwrap());
        for _ in 0..100 {
            assert!(neg.contains(neg.random_member(&mut rng)));
        }
    }

    #[test]
    fn hull_abstraction_is_tight_in_both_orders() {
        let b = <Bounds as AbstractDomain>::abstract_of([3u64, 5, 9]).unwrap();
        assert_eq!((b.umin(), b.umax()), (3, 9));
        assert_eq!((b.smin(), b.smax()), (3, 9));
        // A set straddling the sign boundary keeps the signed hull tight.
        let s = <Bounds as AbstractDomain>::abstract_of([u64::MAX, 2]).unwrap();
        assert_eq!((s.smin(), s.smax()), (-1, 2));
        assert!(s.contains(u64::MAX) && s.contains(2));
    }
}
