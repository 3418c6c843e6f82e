//! [`AbstractDomain`] / [`ArithDomain`] / [`BitwiseDomain`] for [`Tnum`]
//! — the paper's subject domain, plugged into the domain-generic
//! verification campaign, reduced product, and benches.
//!
//! Every trait method delegates to the kernel-faithful inherent operator
//! it names; the mapping is one-to-one (`le` ↔ `tnum_in`, `join` ↔
//! `tnum_union`, `meet` ↔ `tnum_intersect`, …), so the generic campaign
//! verifies exactly the operators the paper verifies.

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
    /// Widening is the join: the tnum lattice has finite height (every
    /// strictly growing step turns at least one known trit unknown and
    /// there are only 64 trits), so `tnum_union` already guarantees
    /// termination of ascending chains at loop heads.
    fn widen(self, newer: Tnum) -> Tnum {
        self.union(newer)
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

    #[test]
    fn trait_surface_matches_inherent_operators() {
        let a: Tnum = "1x0".parse().unwrap();
        let b: Tnum = "x10".parse().unwrap();
        assert_eq!(a.abs_add(b), a.add(b));
        assert_eq!(a.abs_mul(b), a.mul(b));
        assert_eq!(AbstractDomain::join(a, b), a.union(b));
        assert_eq!(AbstractDomain::meet(a, b), a.intersect(b));
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
