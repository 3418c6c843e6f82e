//! The generic reduced product of two abstract domains.
//!
//! The BPF verifier tracks each scalar register in *two* domains at once
//! — bit-level tnums and value ranges — and keeps them mutually
//! consistent with `reg_bounds_sync`. [`Product`] captures that pattern
//! once, for any pair of [`AbstractDomain`]s wired together with
//! [`RefineFrom`] in both directions: the product of the lattices, with
//! [`normalize`](Product::normalize) driving the cross-refinement to a
//! fixpoint. [`crate::Scalar`] is the `Product<Tnum, Bounds>` instance
//! the analyzer uses; a future domain (say, congruences) joins the
//! product by implementing the two `RefineFrom` directions.

use domain::{AbstractDomain, RefineFrom, WidenDomain};

/// The reduced product `A × B`: a conjunction of two abstractions of the
/// same value. A concrete `x` is a member iff both components contain it;
/// the *reduction* ([`normalize`](Product::normalize)) lets each
/// component sharpen the other through [`RefineFrom`].
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Product<A, B> {
    pub(crate) a: A,
    pub(crate) b: B,
}

impl<A, B> Product<A, B>
where
    A: AbstractDomain + RefineFrom<B>,
    B: AbstractDomain + RefineFrom<A>,
{
    /// A completely unknown 64-bit value: ⊤ in both components.
    #[must_use]
    pub fn unknown() -> Self {
        Product {
            a: A::top(),
            b: B::top(),
        }
    }

    /// The exact abstraction of one concrete value.
    #[must_use]
    pub fn constant(v: u64) -> Self {
        Product {
            a: A::constant(v),
            b: B::constant(v),
        }
    }

    /// Builds a product from both components, reconciling them.
    ///
    /// Returns `None` when they are contradictory (empty concretization).
    #[must_use]
    pub fn from_parts(a: A, b: B) -> Option<Self> {
        Product { a, b }.normalize()
    }

    /// Builds a product from both components **without** reconciling
    /// them. Sound (membership is the conjunction either way) but
    /// possibly unreduced; callers normalize before exposing the value.
    #[must_use]
    pub fn raw(a: A, b: B) -> Self {
        Product { a, b }
    }

    /// The first component.
    #[must_use]
    pub fn first(self) -> A {
        self.a
    }

    /// The second component.
    #[must_use]
    pub fn second(self) -> B {
        self.b
    }

    /// Both components.
    #[must_use]
    pub fn into_parts(self) -> (A, B) {
        (self.a, self.b)
    }

    /// Whether the value is a known constant, and if so which.
    #[must_use]
    pub fn as_constant(self) -> Option<u64> {
        self.a.as_constant().or_else(|| self.b.as_constant())
    }

    /// Membership: a concrete value must satisfy both components.
    #[must_use]
    pub fn contains(self, x: u64) -> bool {
        self.a.contains(x) && self.b.contains(x)
    }

    /// Abstract-order test used for join convergence: both components
    /// must be included.
    #[must_use]
    pub fn is_subset_of(self, other: Self) -> bool {
        self.a.le(other.a) && self.b.le(other.b)
    }

    /// Join (least upper bound in both components), re-reduced.
    ///
    /// Short-circuits on [`AbstractDomain::fast_eq`] of both components:
    /// `x ⊔ x = x` needs neither the joins nor the reduction loop, and
    /// self-joins dominate fixpoint iteration once a loop head begins to
    /// stabilize. Otherwise the join goes through
    /// [`normalize`](Self::normalize) like every other product: the
    /// join of two reduced products is often reduced already, and then
    /// costs only normalize's fixpoint test. Inputs need not be reduced
    /// (widening leaves its result unreduced on purpose), so there is
    /// no separate schedule for joins.
    #[must_use]
    pub fn union(self, other: Self) -> Self {
        if self.a.fast_eq(&other.a) && self.b.fast_eq(&other.b) {
            return self;
        }
        self.raw_join(other)
            .normalize()
            .expect("join of non-empty products is non-empty")
    }

    /// The componentwise join **without** the reduction: what
    /// [`union`](Self::union) normalizes. For reduced operands, folding
    /// `raw_join` and normalizing once equals folding `union` — the
    /// join-then-reduce law the path walk's report accumulator rests on,
    /// checked in this module's tests.
    #[must_use]
    pub(crate) fn raw_join(self, other: Self) -> Self {
        Product {
            a: self.a.join(other.a),
            b: self.b.join(other.b),
        }
    }

    /// Whether the product is reduced: exactly `normalize() == Some(self)`,
    /// decided by normalize's own fixpoint test without refining.
    #[must_use]
    pub(crate) fn is_reduced(self) -> bool {
        self.b.is_refined_by(&self.a) && self.a.is_refined_by(&self.b)
    }

    /// Meet; `None` when the two abstractions are contradictory (the
    /// branch being refined is infeasible).
    #[must_use]
    pub fn intersect(self, other: Self) -> Option<Self> {
        Product {
            a: self.a.meet(other.a)?,
            b: self.b.meet(other.b)?,
        }
        .normalize()
    }

    /// Cross-refines the two components to a fixpoint — the generic
    /// rendering of the kernel's `reg_bounds_sync`. Returns `None` on
    /// contradiction.
    ///
    /// Iterates until **neither component would change**: `RefineFrom`
    /// is reductive (each round shrinks or keeps both components), so
    /// the loop terminates, and the result is a true reduction fixpoint
    /// — re-refining it in either direction is the identity. A fixed
    /// round count (the kernel's deduce/sync cadence, used here
    /// previously) can publish an under-reduced product when one
    /// direction's gain enables another round of the other's.
    ///
    /// Each round starts with the exact fixpoint test
    /// [`RefineFrom::is_refined_by`] in both directions, so a product
    /// that is already reduced costs a few comparisons and one that
    /// needs a single round stops right after it, instead of paying a
    /// further round only to see nothing change. The test answers
    /// exactly "would a round change nothing?", the exit condition of
    /// the plain loop, so the result is the same on every input,
    /// reduced or not.
    #[must_use]
    pub fn normalize(self) -> Option<Self> {
        let mut p = self;
        loop {
            if p.is_reduced() {
                return Some(p);
            }
            p.b = p.b.refine_from(&p.a)?;
            p.a = p.a.refine_from(&p.b)?;
        }
    }

    /// The plain loop [`normalize`](Self::normalize) must match bit for
    /// bit: refine both ways, stop when a round changed nothing.
    #[cfg(test)]
    fn normalize_reference(self) -> Option<Self> {
        let mut a = self.a;
        let mut b = self.b;
        loop {
            let nb = b.refine_from(&a)?;
            let na = a.refine_from(&nb)?;
            if na == a && nb == b {
                return Some(Product { a, b });
            }
            a = na;
            b = nb;
        }
    }
}

impl<A, B> Product<A, B>
where
    A: WidenDomain,
    B: WidenDomain,
{
    /// Widening `self ∇ newer`, componentwise.
    ///
    /// The result is deliberately **not** re-normalized: normalization is
    /// reductive, and re-sharpening a freshly widened component from the
    /// other one could undo the extrapolation jump and re-open the slow
    /// ascent widening exists to cut short. The analyzer re-normalizes
    /// naturally at the next join and during its narrowing walks.
    #[must_use]
    pub fn widen(self, newer: Self) -> Self {
        Product {
            a: self.a.widen(newer.a),
            b: self.b.widen(newer.b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use domain::rng::SplitMix64;
    use interval_domain::{sign_lattice, Bounds, UInterval, WidenThresholds};
    use tnum::Tnum;

    type P = Product<Tnum, Bounds>;

    #[test]
    fn product_reduction_is_bidirectional() {
        // Tnum knowledge flows into the bounds…
        let masked = P::from_parts("xx0".parse().unwrap(), Bounds::FULL).unwrap();
        assert_eq!(masked.second().umax(), 6);
        // …and range knowledge flows into the tnum.
        let ranged = P::from_parts(
            Tnum::UNKNOWN,
            Bounds::from_unsigned(UInterval::new(8, 11).unwrap()),
        )
        .unwrap();
        assert_eq!(ranged.first(), "10xx".parse().unwrap());
    }

    #[test]
    fn contradiction_is_bottom() {
        let r = P::from_parts(
            "1xxx".parse().unwrap(),
            Bounds::from_unsigned(UInterval::new(0, 3).unwrap()),
        );
        assert!(r.is_none(), "disjoint components must reduce to ⊥");
    }

    #[test]
    fn lattice_operations_are_componentwise_then_reduced() {
        let four = P::constant(4);
        let six = P::constant(6);
        let j = four.union(six);
        assert!(four.is_subset_of(j) && six.is_subset_of(j));
        assert!(j.contains(4) && j.contains(6));
        assert_eq!(j.intersect(four), Some(four));
        assert_eq!(four.intersect(six), None);
        assert_eq!(P::unknown().as_constant(), None);
        assert_eq!(P::constant(42).as_constant(), Some(42));
    }

    #[test]
    fn normalize_is_idempotent_and_a_true_reduction_fixpoint_w6() {
        // Exhaustive over every width-≤6 component pair (the width-6
        // enumerations subsume all narrower elements): a published
        // product must be a fixpoint of both refinement directions, so
        // normalizing twice is the same as normalizing once. The old
        // fixed two-round cadence under-reduced some pairs.
        use domain::{AbstractDomain, RefineFrom};
        let tnums = <Tnum as AbstractDomain>::enumerate_at_width(6);
        let bounds = <Bounds as AbstractDomain>::enumerate_at_width(6);
        for &t in &tnums {
            for &b in &bounds {
                let Some(p) = P::from_parts(t, b) else {
                    continue;
                };
                assert_eq!(p.normalize(), Some(p), "idempotence on {t} × {b:?}");
                assert_eq!(
                    p.a.refine_from(&p.b),
                    Some(p.a),
                    "tnum side of {t} × {b:?} not at the reduction fixpoint"
                );
                assert_eq!(
                    p.b.refine_from(&p.a),
                    Some(p.b),
                    "bounds side of {t} × {b:?} not at the reduction fixpoint"
                );
            }
        }
    }

    fn assert_matches_reference(tnums: &[Tnum], bounds: &[Bounds]) {
        for &t in tnums {
            for &b in bounds {
                let raw = P::raw(t, b);
                assert_eq!(
                    raw.normalize(),
                    raw.normalize_reference(),
                    "normalize differs from the plain loop on {t} × {b:?}"
                );
            }
        }
    }

    #[test]
    fn normalize_matches_the_plain_loop_w6() {
        use domain::AbstractDomain;
        assert_matches_reference(
            &<Tnum as AbstractDomain>::enumerate_at_width(6),
            &<Bounds as AbstractDomain>::enumerate_at_width(6),
        );
    }

    #[test]
    fn normalize_matches_the_plain_loop_on_the_sign_lattice() {
        assert_matches_reference(&sign_lattice::tnums(), &sign_lattice::bounds());
    }

    #[test]
    fn normalize_matches_the_plain_loop_on_unreduced_lattice_bounds() {
        // Every raw view pair: the undeduced shape widening leaves, plus
        // contradictory views. Paired with the lattice tnums over base
        // 0, which keep every shape of free trit near 0, 2^62 and 2^63.
        let tnums: Vec<Tnum> = sign_lattice::tnums()
            .into_iter()
            .filter(|t| (t.value() | t.mask()) & !sign_lattice::FREE_BITS == 0)
            .collect();
        let raw = sign_lattice::views();
        assert_eq!((tnums.len(), raw.len()), (243, 153 * 153));
        assert_matches_reference(&tnums, &raw);
    }

    /// A reduced scalar over values drawn near 0, the sign boundary,
    /// `u64::MAX`, or anywhere.
    fn seeded_scalar(rng: &mut SplitMix64) -> P {
        let pick = |rng: &mut SplitMix64| {
            let near = rng.next_u64() % 16;
            match rng.next_u64() % 4 {
                0 => near,
                1 => (1u64 << 63).wrapping_add(near).wrapping_sub(8),
                2 => u64::MAX - near,
                _ => rng.next_u64(),
            }
        };
        let mut p = P::constant(pick(rng)).union(P::constant(pick(rng)));
        if rng.coin() {
            p = p.union(P::constant(pick(rng)));
        }
        p
    }

    #[test]
    fn union_matches_join_then_plain_loop_on_seeded_scalars() {
        let thresholds = WidenThresholds::harvest([0, 7, 15, 63, -8, -1, i64::MAX - 8]);
        let mut rng = SplitMix64::new(0x5EED_0019);
        let mut widened = 0;
        for _ in 0..20_000 {
            let (x, y, z) = (
                seeded_scalar(&mut rng),
                seeded_scalar(&mut rng),
                seeded_scalar(&mut rng),
            );
            // Widening outputs are deliberately left unreduced.
            let (wx, wy) = (
                x.widen_with(x.union(y), &thresholds),
                y.widen_with(y.union(z), &thresholds),
            );
            widened += usize::from(wx.normalize() != Some(wx));
            for (p, q) in [(x, y), (wx, wy), (x, wy), (wx, z)] {
                let expected = if p == q {
                    p
                } else {
                    P::raw(p.a.join(q.a), p.b.join(q.b))
                        .normalize_reference()
                        .unwrap()
                };
                assert_eq!(p.union(q), expected, "union of {p:?} and {q:?}");
            }
        }
        assert!(widened > 1_000, "only {widened} unreduced widening outputs");
    }

    /// Every distinct reduced product over the given components, in
    /// enumeration order.
    fn reduced_products(tnums: &[Tnum], bounds: &[Bounds]) -> Vec<P> {
        let mut seen = std::collections::HashSet::new();
        tnums
            .iter()
            .flat_map(|&t| bounds.iter().filter_map(move |&b| P::from_parts(t, b)))
            .filter(|&p| seen.insert(p))
            .collect()
    }

    /// The join-then-reduce law on one sequence of reduced scalars:
    /// folding `union` left to right equals reducing the raw fold once.
    fn assert_join_then_reduce(xs: &[P]) {
        let folded = xs[1..].iter().fold(xs[0], |acc, &x| acc.union(x));
        let raw = xs[1..].iter().fold(xs[0], |acc, &x| acc.raw_join(x));
        assert_eq!(
            Some(folded),
            raw.normalize(),
            "join-then-reduce fails on {xs:?}"
        );
    }

    /// Checks the law on `count` triples of reduced products, each
    /// built from a tnum and a bounds pair drawn from the given sets.
    fn assert_join_then_reduce_on_sampled_triples(
        tnums: &[Tnum],
        bounds: &[Bounds],
        count: usize,
        seed: u64,
    ) {
        let mut rng = SplitMix64::new(seed);
        let mut pick = || loop {
            let t = tnums[rng.below(tnums.len() as u64) as usize];
            let b = bounds[rng.below(bounds.len() as u64) as usize];
            if let Some(p) = P::from_parts(t, b) {
                return p;
            }
        };
        for _ in 0..count {
            assert_join_then_reduce(&[pick(), pick(), pick()]);
        }
    }

    #[test]
    fn join_then_reduce_law_on_every_triple_w3() {
        use domain::AbstractDomain;
        let pool = reduced_products(
            &<Tnum as AbstractDomain>::enumerate_at_width(3),
            &<Bounds as AbstractDomain>::enumerate_at_width(3),
        );
        // `union` is commutative, so the first two operands need only
        // run over unordered pairs.
        for (i, &x) in pool.iter().enumerate() {
            for &y in &pool[i..] {
                for &z in &pool {
                    assert_join_then_reduce(&[x, y, z]);
                }
            }
        }
    }

    #[test]
    fn join_then_reduce_law_on_sampled_triples_w6_and_the_sign_lattice() {
        use domain::AbstractDomain;
        assert_join_then_reduce_on_sampled_triples(
            &<Tnum as AbstractDomain>::enumerate_at_width(6),
            &<Bounds as AbstractDomain>::enumerate_at_width(6),
            40_000,
            0x1A3_0006,
        );
        assert_join_then_reduce_on_sampled_triples(
            &sign_lattice::tnums(),
            &sign_lattice::bounds(),
            40_000,
            0x1A3_5167,
        );
    }

    /// Folds of 2–6 seeded 64-bit scalars.
    fn assert_join_then_reduce_on_seeded_folds(folds: usize, seed: u64) {
        let mut rng = SplitMix64::new(seed);
        for _ in 0..folds {
            let n = 2 + rng.below(5) as usize;
            let xs: Vec<P> = (0..n).map(|_| seeded_scalar(&mut rng)).collect();
            assert_join_then_reduce(&xs);
        }
    }

    #[test]
    fn join_then_reduce_law_on_seeded_64_bit_folds() {
        assert_join_then_reduce_on_seeded_folds(100_000, 0x1A3_0064);
    }

    /// The long campaign behind the law; run it in release:
    /// `cargo test --release -p verifier --lib -- --ignored join_then_reduce`.
    #[test]
    #[ignore = "10M folds: minutes in debug, run in release"]
    fn join_then_reduce_law_on_ten_million_seeded_64_bit_folds() {
        assert_join_then_reduce_on_seeded_folds(10_000_000, 0x1A3_1E7);
    }

    #[test]
    fn join_then_reduce_law_needs_reduced_operands() {
        // `x` is unreduced: its bounds [0, 100] are wider than its tnum
        // (0 or 1) allows. Reducing after the first join forgets the wide
        // bounds; the raw fold keeps them until the end, where the tnum
        // of the three joined values (`xxx`) narrows them only to [0, 7].
        let x = P::raw(
            "0x".parse().unwrap(),
            Bounds::from_unsigned(UInterval::new(0, 100).unwrap()),
        );
        let (y, z) = (P::constant(2), P::constant(4));
        let folded = x.union(y).union(z);
        let reduced_once = x.raw_join(y).raw_join(z).normalize().unwrap();
        assert_eq!(
            (folded.second().umax(), reduced_once.second().umax()),
            (4, 7)
        );
    }

    #[test]
    fn union_and_from_parts_publish_reduced_products() {
        // The public constructors go through normalize, so whatever they
        // return must already be fully reduced.
        let a = P::from_parts("x1x".parse().unwrap(), Bounds::FULL).unwrap();
        let b = P::from_parts(
            Tnum::UNKNOWN,
            Bounds::from_unsigned(UInterval::new(2, 6).unwrap()),
        )
        .unwrap();
        for p in [a, b, a.union(b), a.intersect(b).unwrap()] {
            assert_eq!(p.normalize(), Some(p), "{p:?} left under-reduced");
        }
    }

    #[test]
    fn raw_is_unreduced_until_normalized() {
        let raw = P::raw("xx0".parse().unwrap(), Bounds::FULL);
        assert!(raw.second().is_full(), "raw performs no reduction");
        let n = raw.normalize().unwrap();
        assert_eq!(n.second().umax(), 6);
    }
}
