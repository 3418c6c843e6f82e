//! The lattice structure of the tnum domain: order, join, and meet.

use crate::tnum::Tnum;

impl Tnum {
    /// The abstract order ⊑A (Eqn. 2): `self ⊑A other` iff
    /// `γ(self) ⊆ γ(other)`.
    ///
    /// Holds exactly when every unknown trit of `self` is unknown in
    /// `other`, and every known trit of `other` agrees with `self`.
    ///
    /// # Examples
    ///
    /// ```
    /// use tnum::Tnum;
    /// let small: Tnum = "10".parse()?;  // {2}
    /// let big: Tnum = "1x".parse()?;    // {2, 3}
    /// assert!(small.is_subset_of(big));
    /// assert!(!big.is_subset_of(small));
    /// assert!(big.is_subset_of(big));
    /// # Ok::<(), tnum::ParseTnumError>(())
    /// ```
    #[must_use]
    pub const fn is_subset_of(self, other: Tnum) -> bool {
        // self's unknown bits must be unknown in other, and on other's known
        // bits the values must agree.
        self.mask() & !other.mask() == 0 && (self.value() ^ other.value()) & !other.mask() == 0
    }

    /// Strict version of [`Tnum::is_subset_of`]: `γ(self) ⊊ γ(other)`.
    #[must_use]
    pub fn is_strict_subset_of(self, other: Tnum) -> bool {
        self != other && self.is_subset_of(other)
    }

    /// Whether two tnums are comparable under ⊑A (one abstracts a subset of
    /// the other). Used by the paper's precision comparisons (§IV-A).
    #[must_use]
    pub const fn is_comparable_to(self, other: Tnum) -> bool {
        self.is_subset_of(other) || other.is_subset_of(self)
    }

    /// The join (least upper bound) of two tnums — the kernel's
    /// `tnum_union`: the smallest tnum whose concretization contains
    /// `γ(self) ∪ γ(other)`.
    ///
    /// A trit of the result is known `k` iff both operands have that trit
    /// known `k`; all other trits are unknown.
    ///
    /// # Examples
    ///
    /// ```
    /// use tnum::Tnum;
    /// let a = Tnum::constant(0b101);
    /// let b = Tnum::constant(0b100);
    /// assert_eq!(a.union(b), "10x".parse()?);
    /// # Ok::<(), tnum::ParseTnumError>(())
    /// ```
    #[must_use]
    pub const fn union(self, other: Tnum) -> Tnum {
        let v = self.value() & other.value();
        let mu = (self.value() ^ other.value()) | self.mask() | other.mask();
        Tnum::masked(v, mu)
    }

    /// Widening `self ∇ newer`: the join, except that once it grows, every
    /// trit from the lowest newly unknown one upward turns unknown.
    ///
    /// The paper's add, sub and mul carry uncertainty only upward (an
    /// unknown bit at position *j* can change only bits ≥ *j*), so the
    /// bits a growing loop-head value loses are its low newly unknown bit
    /// and everything above it. Jumping there at once lets one widening
    /// step reach a post-fixpoint of a counter or accumulator
    /// (`x ∇ (x ⊔ (x + c))` is closed under `+ c`), where the plain join
    /// gives up about one trit per round. The result contains the join,
    /// and each later strict step must lose a trit below the previous
    /// jump's, so a chain of strict steps has at most 65 elements.
    ///
    /// # Examples
    ///
    /// ```
    /// use tnum::Tnum;
    /// let old: Tnum = "1010".parse()?;
    /// let grown = old.union("1110".parse()?); // bit 2 newly unknown
    /// assert_eq!(old.widen(grown), Tnum::masked(0b10, !0b11));
    /// assert_eq!(old.widen(old), old);
    /// # Ok::<(), tnum::ParseTnumError>(())
    /// ```
    #[must_use]
    pub const fn widen(self, newer: Tnum) -> Tnum {
        let joined = self.union(newer);
        let lost = joined.mask() & !self.mask();
        if lost == 0 {
            return joined;
        }
        Tnum::masked(
            joined.value(),
            joined.mask() | (!0 << lost.trailing_zeros()),
        )
    }

    /// The meet (greatest lower bound) of two tnums: the tnum abstracting
    /// `γ(self) ∩ γ(other)` exactly, or `None` when the intersection is
    /// empty (⊥).
    ///
    /// The intersection is empty precisely when the operands disagree on a
    /// bit both know. Compare [`Tnum::intersect_kernel`], which silently
    /// resolves such conflicts.
    ///
    /// # Examples
    ///
    /// ```
    /// use tnum::Tnum;
    /// let a: Tnum = "1x".parse()?;   // {2, 3}
    /// let b: Tnum = "x1".parse()?;   // {1, 3}
    /// assert_eq!(a.intersect(b), Some(Tnum::constant(3)));
    /// let c: Tnum = "0x".parse()?;   // {0, 1}
    /// assert_eq!(a.intersect(c), None); // disjoint
    /// # Ok::<(), tnum::ParseTnumError>(())
    /// ```
    #[must_use]
    pub const fn intersect(self, other: Tnum) -> Option<Tnum> {
        // Bits known in both with different values: empty intersection.
        let both_known = !self.mask() & !other.mask();
        if (self.value() ^ other.value()) & both_known != 0 {
            return None;
        }
        let v = self.value() | other.value();
        let mu = self.mask() & other.mask();
        Some(Tnum::masked(v, mu))
    }

    /// The kernel's `tnum_intersect`, which assumes the operands abstract a
    /// common value and therefore never reports emptiness: conflicting known
    /// bits are resolved by OR-ing the values.
    ///
    /// Prefer [`Tnum::intersect`] unless bug-for-bug kernel fidelity is
    /// required (e.g. in differential tests against `tnum.c`).
    #[must_use]
    pub const fn intersect_kernel(self, other: Tnum) -> Tnum {
        let v = self.value() | other.value();
        let mu = self.mask() & other.mask();
        Tnum::masked(v, mu)
    }

    /// Joins an iterator of tnums, returning `None` for an empty iterator
    /// (the join of nothing is ⊥, which `Tnum` does not represent).
    ///
    /// # Examples
    ///
    /// ```
    /// use tnum::Tnum;
    /// let join = Tnum::union_all((0..4u64).map(Tnum::constant)).unwrap();
    /// assert_eq!(join, "xx".parse()?);
    /// # Ok::<(), tnum::ParseTnumError>(())
    /// ```
    #[must_use]
    pub fn union_all<I: IntoIterator<Item = Tnum>>(tnums: I) -> Option<Tnum> {
        tnums.into_iter().reduce(Tnum::union)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::tnums;

    /// γ(a) ⊆ γ(b) computed by brute force, for cross-checking the O(1)
    /// order test.
    fn subset_brute(a: Tnum, b: Tnum) -> bool {
        a.concretize().all(|x| b.contains(x))
    }

    #[test]
    fn order_matches_gamma_subset_exhaustively() {
        for a in tnums(4) {
            for b in tnums(4) {
                assert_eq!(
                    a.is_subset_of(b),
                    subset_brute(a, b),
                    "order mismatch for {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn order_is_a_partial_order() {
        let all: Vec<Tnum> = tnums(3).collect();
        for &a in &all {
            assert!(a.is_subset_of(a), "reflexive");
            for &b in &all {
                if a.is_subset_of(b) && b.is_subset_of(a) {
                    assert_eq!(a, b, "antisymmetric");
                }
                for &c in &all {
                    if a.is_subset_of(b) && b.is_subset_of(c) {
                        assert!(a.is_subset_of(c), "transitive");
                    }
                }
            }
        }
    }

    #[test]
    fn union_is_least_upper_bound() {
        let all: Vec<Tnum> = tnums(3).collect();
        for &a in &all {
            for &b in &all {
                let j = a.union(b);
                assert!(a.is_subset_of(j) && b.is_subset_of(j), "upper bound");
                // Least: no strictly smaller upper bound exists.
                for &c in &all {
                    if a.is_subset_of(c) && b.is_subset_of(c) {
                        assert!(j.is_subset_of(c), "{j} should be below {c}");
                    }
                }
            }
        }
    }

    #[test]
    fn intersect_is_exact_meet() {
        for a in tnums(4) {
            for b in tnums(4) {
                let expected: Vec<u64> = a.concretize().filter(|&x| b.contains(x)).collect();
                match a.intersect(b) {
                    None => assert!(expected.is_empty(), "{a} ∩ {b}"),
                    Some(m) => {
                        let got: Vec<u64> = m.concretize().collect();
                        assert_eq!(got, expected, "{a} ∩ {b}");
                    }
                }
            }
        }
    }

    #[test]
    fn kernel_intersect_agrees_when_nonempty() {
        for a in tnums(4) {
            for b in tnums(4) {
                if let Some(m) = a.intersect(b) {
                    assert_eq!(m, a.intersect_kernel(b));
                }
            }
        }
    }

    #[test]
    fn top_and_constant_relations() {
        assert!(Tnum::constant(99).is_subset_of(Tnum::UNKNOWN));
        assert!(Tnum::constant(99).is_strict_subset_of(Tnum::UNKNOWN));
        assert!(!Tnum::UNKNOWN.is_strict_subset_of(Tnum::UNKNOWN));
        assert!(Tnum::UNKNOWN.is_comparable_to(Tnum::constant(0)));
        // Two different constants are incomparable.
        assert!(!Tnum::constant(1).is_comparable_to(Tnum::constant(2)));
    }

    #[test]
    fn union_all_empty_and_singleton() {
        assert_eq!(Tnum::union_all(std::iter::empty()), None);
        assert_eq!(
            Tnum::union_all([Tnum::constant(5)]),
            Some(Tnum::constant(5))
        );
    }

    #[test]
    fn union_equals_alpha_of_united_gammas() {
        // The join is exactly α(γ(a) ∪ γ(b)) — optimality of tnum_union.
        for a in tnums(4) {
            for b in tnums(4) {
                let members = a.concretize().chain(b.concretize());
                let alpha = Tnum::abstract_of(members).unwrap();
                assert_eq!(a.union(b), alpha, "union {a} ∪ {b}");
            }
        }
    }
}
