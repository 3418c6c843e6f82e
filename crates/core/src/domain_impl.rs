//! [`AbstractDomain`] / [`ArithDomain`] / [`BitwiseDomain`] for [`Tnum`]
//! — the paper's subject domain, plugged into the domain-generic
//! verification campaign, reduced product, and benches.
//!
//! Every trait method delegates to the kernel-faithful inherent operator
//! it names; the mapping is one-to-one (`le` ↔ `tnum_in`, `join` ↔
//! `tnum_union`, `meet` ↔ `tnum_intersect`, …), so the generic campaign
//! verifies exactly the operators the paper verifies. The one operator
//! the kernel has no counterpart for is the loop-head widening, which
//! delegates to the jump [`Tnum::widen`].

use domain::rng::SplitMix64;
use domain::{AbstractDomain, ArithDomain, BitwiseDomain, WidenDomain};

use crate::enumerate;
use crate::tnum::Tnum;

impl AbstractDomain for Tnum {
    const NAME: &'static str = "tnum";

    fn top() -> Tnum {
        Tnum::UNKNOWN
    }

    fn le(self, other: Tnum) -> bool {
        self.is_subset_of(other)
    }

    fn join(self, other: Tnum) -> Tnum {
        self.union(other)
    }

    fn meet(self, other: Tnum) -> Option<Tnum> {
        self.intersect(other)
    }

    fn abstract_of<I: IntoIterator<Item = u64>>(values: I) -> Option<Tnum> {
        Tnum::abstract_of(values)
    }

    fn contains(self, x: u64) -> bool {
        Tnum::contains(self, x)
    }

    fn constant(value: u64) -> Tnum {
        Tnum::constant(value)
    }

    fn enumerate_at_width(width: u32) -> Vec<Tnum> {
        enumerate::tnums(width).collect()
    }

    fn members(self, width: u32) -> Vec<u64> {
        self.truncate(width).concretize().collect()
    }

    fn as_constant(self) -> Option<u64> {
        Tnum::as_constant(self)
    }

    fn truncate(self, width: u32) -> Tnum {
        Tnum::truncate(self, width)
    }

    fn cast(self, bytes: u32) -> Tnum {
        Tnum::cast(self, bytes)
    }

    fn random(rng: &mut SplitMix64) -> Tnum {
        let mask = rng.next_u64();
        let value = rng.next_u64() & !mask;
        Tnum::masked(value, mask)
    }

    fn random_member(self, rng: &mut SplitMix64) -> u64 {
        self.value() | (rng.next_u64() & self.mask())
    }
}

impl WidenDomain for Tnum {
    /// The jump [`Tnum::widen`]: the join, then every trit from the lowest
    /// newly unknown one upward unknown. (The join alone would terminate
    /// too — each strict step loses a trit — but a counter walks that
    /// chain one trit per round.)
    fn widen(self, newer: Tnum) -> Tnum {
        Tnum::widen(self, newer)
    }
}

impl ArithDomain for Tnum {
    fn abs_add(self, rhs: Tnum) -> Tnum {
        self.add(rhs)
    }

    fn abs_sub(self, rhs: Tnum) -> Tnum {
        self.sub(rhs)
    }

    fn abs_mul(self, rhs: Tnum) -> Tnum {
        self.mul(rhs)
    }

    fn abs_div(self, rhs: Tnum) -> Tnum {
        self.div(rhs)
    }

    fn abs_rem(self, rhs: Tnum) -> Tnum {
        self.rem(rhs)
    }
}

impl BitwiseDomain for Tnum {
    fn abs_and(self, rhs: Tnum) -> Tnum {
        self.and(rhs)
    }

    fn abs_or(self, rhs: Tnum) -> Tnum {
        self.or(rhs)
    }

    fn abs_xor(self, rhs: Tnum) -> Tnum {
        self.xor(rhs)
    }

    fn abs_shl(self, rhs: Tnum, _width: u32) -> Tnum {
        self.lshift_tnum(rhs.and(Tnum::constant(63)))
    }

    fn abs_lshr(self, rhs: Tnum, _width: u32) -> Tnum {
        self.rshift_tnum(rhs.and(Tnum::constant(63)))
    }

    fn abs_ashr(self, rhs: Tnum, width: u32) -> Tnum {
        self.sign_extend_from(width)
            .arshift_tnum(rhs.and(Tnum::constant(63)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lattice_and_galois_laws() {
        domain::laws::assert_lattice_laws::<Tnum>(4);
        domain::laws::assert_galois_soundness::<Tnum>(5);
        domain::laws::assert_sampling_sound::<Tnum>(2_000, 0xC60);
        domain::laws::assert_widening_laws::<Tnum>(3, 200, 200, 0xC61);
    }

    /// `x ∇ (x ⊔ step(x, c))` for every width-6 tnum `x` and constant `c`.
    fn one_step_widenings(
        step: fn(Tnum, Tnum) -> Tnum,
    ) -> impl Iterator<Item = (Tnum, Tnum, Tnum)> {
        enumerate::tnums(6).flat_map(move |x| {
            (0..64).map(move |c| {
                let c = Tnum::constant(c);
                (x, c, x.widen(x.union(step(x, c))))
            })
        })
    }

    #[test]
    fn one_widening_step_reaches_a_post_fixpoint_of_add_and_sub() {
        // A counter or accumulator `x ± c` at a loop head: one ∇ lands on
        // a state the next round's arrival is included in.
        for step in [Tnum::add, Tnum::sub] {
            for (x, c, w) in one_step_widenings(step) {
                assert!(
                    step(w, c).is_subset_of(w),
                    "{x:?} ∇ (x ⊔ step(x, {c:?})) = {w:?} is not closed under the step"
                );
            }
        }
        // The plain join is not: 0 ⊔ (0 + 1) = x, and x + 1 = xx ⋢ x.
        let (x, c) = (Tnum::constant(0), Tnum::constant(1));
        let joined = x.union(x.add(c));
        assert!(!joined.add(c).is_subset_of(joined));
        assert_eq!(x.widen(x.add(c)), Tnum::UNKNOWN);
    }

    #[test]
    fn trait_surface_matches_inherent_operators() {
        let a: Tnum = "1x0".parse().unwrap();
        let b: Tnum = "x10".parse().unwrap();
        assert_eq!(a.abs_add(b), a.add(b));
        assert_eq!(a.abs_mul(b), a.mul(b));
        assert_eq!(AbstractDomain::join(a, b), a.union(b));
        assert_eq!(AbstractDomain::meet(a, b), a.intersect(b));
        assert_eq!(WidenDomain::widen(a, b), a.widen(b));
        assert_eq!(<Tnum as AbstractDomain>::top(), Tnum::UNKNOWN);
        assert_eq!(<Tnum as AbstractDomain>::bottom(), None);
        assert_eq!(<Tnum as AbstractDomain>::constant(9), Tnum::constant(9));
    }

    #[test]
    fn enumeration_is_the_paper_quantification() {
        assert_eq!(<Tnum as AbstractDomain>::enumerate_at_width(4).len(), 81);
        let members = AbstractDomain::members("1x".parse::<Tnum>().unwrap(), 2);
        assert_eq!(members, vec![2, 3]);
    }

    #[test]
    fn cast_and_top_at_width() {
        let t = Tnum::constant(0x1_0000_0001);
        assert_eq!(AbstractDomain::cast(t, 4), Tnum::constant(1));
        assert_eq!(Tnum::top_at_width(3), Tnum::masked(0, 0b111));
    }
}
