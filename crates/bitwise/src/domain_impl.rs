//! [`AbstractDomain`] / [`ArithDomain`] / [`BitwiseDomain`] for
//! [`KnownBits`] — the LLVM encoding of the value/mask domain, plugged
//! into the same generic verification campaign as the kernel tnums.
//!
//! The point of this impl is the paper's §V remark made executable: the
//! two encodings are isomorphic, so the *same* bounded-verification
//! campaign must pass for both. Where LLVM has a native transfer function
//! (`and`/`or`/`xor`, `computeForAddSub`, constant shifts) we use it;
//! where it does not (multiplication, division, shifts by an *abstract*
//! amount), we cross the bijection and use the Regehr–Duongsaa /
//! kernel operators, which is exactly what a production known-bits
//! analysis would borrow from this line of work.

use domain::rng::SplitMix64;
use domain::{AbstractDomain, ArithDomain, BitwiseDomain, WidenDomain};
use tnum::Tnum;

use crate::knownbits::KnownBits;

impl AbstractDomain for KnownBits {
    const NAME: &'static str = "knownbits";

    fn top() -> KnownBits {
        KnownBits::UNKNOWN
    }

    fn le(self, other: KnownBits) -> bool {
        // γ(self) ⊆ γ(other) iff `other`'s knowledge is a subset of ours
        // and agrees with it: no bit known in `other` is unknown or
        // opposite in `self`.
        other.zeros() & !self.zeros() == 0 && other.ones() & !self.ones() == 0
    }

    fn join(self, other: KnownBits) -> KnownBits {
        self.intersect_with(other)
    }

    fn meet(self, other: KnownBits) -> Option<KnownBits> {
        self.union_with(other)
    }

    fn abstract_of<I: IntoIterator<Item = u64>>(values: I) -> Option<KnownBits> {
        Tnum::abstract_of(values).map(KnownBits::from_tnum)
    }

    fn contains(self, x: u64) -> bool {
        KnownBits::contains(self, x)
    }

    fn enumerate_at_width(width: u32) -> Vec<KnownBits> {
        tnum::enumerate::tnums(width)
            .map(KnownBits::from_tnum)
            .collect()
    }

    fn members(self, width: u32) -> Vec<u64> {
        AbstractDomain::truncate(self, width)
            .to_tnum()
            .concretize()
            .collect()
    }

    fn as_constant(self) -> Option<u64> {
        KnownBits::as_constant(self)
    }

    fn truncate(self, width: u32) -> KnownBits {
        KnownBits::from_tnum(self.to_tnum().truncate(width))
    }

    fn random(rng: &mut SplitMix64) -> KnownBits {
        KnownBits::from_tnum(Tnum::random(rng))
    }

    fn random_member(self, rng: &mut SplitMix64) -> u64 {
        self.to_tnum().random_member(rng)
    }
}

impl WidenDomain for KnownBits {
    /// Widening is the join: each strictly growing step forgets at least
    /// one known bit, so the lattice has finite height and ascending
    /// chains stabilize. This is where the encoding parts from the
    /// isomorphic tnum, whose ∇ jumps (`Tnum::widen` turns every bit from
    /// the lowest newly unknown one upward unknown); no analysis here
    /// iterates known bits to a fixpoint, so the join suffices.
    fn widen(self, newer: KnownBits) -> KnownBits {
        self.intersect_with(newer)
    }
}

impl ArithDomain for KnownBits {
    fn abs_add(self, rhs: KnownBits) -> KnownBits {
        // LLVM's computeForAddSub — verified elsewhere to agree exactly
        // with the kernel's O(1) tnum_add.
        self.add(rhs)
    }

    fn abs_sub(self, rhs: KnownBits) -> KnownBits {
        self.sub(rhs)
    }

    fn abs_mul(self, rhs: KnownBits) -> KnownBits {
        // The Regehr–Duongsaa multiplication (Listing 5, optimized form)
        // through the encoding bijection — the baseline the paper measures.
        KnownBits::from_tnum(crate::bitwise_mul(self.to_tnum(), rhs.to_tnum()))
    }

    fn abs_div(self, rhs: KnownBits) -> KnownBits {
        KnownBits::from_tnum(self.to_tnum().div(rhs.to_tnum()))
    }

    fn abs_rem(self, rhs: KnownBits) -> KnownBits {
        KnownBits::from_tnum(self.to_tnum().rem(rhs.to_tnum()))
    }
}

impl BitwiseDomain for KnownBits {
    fn abs_and(self, rhs: KnownBits) -> KnownBits {
        self.and(rhs)
    }

    fn abs_or(self, rhs: KnownBits) -> KnownBits {
        self.or(rhs)
    }

    fn abs_xor(self, rhs: KnownBits) -> KnownBits {
        self.xor(rhs)
    }

    fn abs_shl(self, rhs: KnownBits, _width: u32) -> KnownBits {
        match rhs.as_constant() {
            Some(k) => self.shl((k & 63) as u32),
            None => KnownBits::from_tnum(
                self.to_tnum()
                    .lshift_tnum(rhs.to_tnum().and(Tnum::constant(63))),
            ),
        }
    }

    fn abs_lshr(self, rhs: KnownBits, _width: u32) -> KnownBits {
        match rhs.as_constant() {
            Some(k) => self.lshr((k & 63) as u32),
            None => KnownBits::from_tnum(
                self.to_tnum()
                    .rshift_tnum(rhs.to_tnum().and(Tnum::constant(63))),
            ),
        }
    }

    fn abs_ashr(self, rhs: KnownBits, width: u32) -> KnownBits {
        // Sign-extend at the verification width first; LLVM's `ashr` is
        // 64-bit-sign-position only, so the width-aware form crosses the
        // bijection unconditionally.
        KnownBits::from_tnum(
            self.to_tnum()
                .sign_extend_from(width)
                .arshift_tnum(rhs.to_tnum().and(Tnum::constant(63))),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lattice_and_galois_laws() {
        domain::laws::assert_lattice_laws::<KnownBits>(4);
        domain::laws::assert_galois_soundness::<KnownBits>(5);
        domain::laws::assert_sampling_sound::<KnownBits>(2_000, 0x1111);
        domain::laws::assert_widening_laws::<KnownBits>(3, 200, 200, 0x1112);
    }

    #[test]
    fn le_agrees_with_tnum_order_exhaustively() {
        for a in tnum::enumerate::tnums(5) {
            for b in tnum::enumerate::tnums(5) {
                assert_eq!(
                    KnownBits::from_tnum(a).le(KnownBits::from_tnum(b)),
                    a.is_subset_of(b),
                    "⊑ disagrees through the bijection on {a}, {b}"
                );
            }
        }
    }

    #[test]
    fn native_ops_used_for_add_and_bitwise() {
        let a = KnownBits::from_tnum("1x0x".parse().unwrap());
        let b = KnownBits::from_tnum("x011".parse().unwrap());
        assert_eq!(a.abs_add(b), a.add(b));
        assert_eq!(a.abs_and(b), a.and(b));
        // And both agree with the kernel ops through the bijection.
        assert_eq!(a.abs_add(b).to_tnum(), a.to_tnum().add(b.to_tnum()));
    }

    #[test]
    fn constant_shift_uses_llvm_transfer() {
        let a = KnownBits::from_tnum("1x".parse().unwrap());
        let k = <KnownBits as AbstractDomain>::constant(3);
        assert_eq!(a.abs_shl(k, 64), a.shl(3));
        assert_eq!(a.abs_lshr(k, 64), a.lshr(3));
    }
}
