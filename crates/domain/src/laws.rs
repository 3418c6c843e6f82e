//! Reusable law checkers for [`AbstractDomain`] implementors.
//!
//! Every domain that plugs into the verification campaign must be an
//! actual lattice Galois-connected to sets of machine words; these
//! checkers make that a one-call test. They enumerate all canonical
//! elements at a small width (the same bounded quantification the
//! campaign uses) and assert:
//!
//! * **lattice laws** — idempotence, commutativity, and absorption of
//!   ⊔/⊓, plus consistency of ⊑ with both (`a ⊑ b ⇔ a ⊔ b = b ⇔
//!   a ⊓ b = a`);
//! * **Galois soundness** — `x ∈ γ(α({x}))` for every representable
//!   value, membership closure of the enumeration
//!   (`x ∈ γ(P) ⇒ P.contains(x)` and vice versa via
//!   [`members`](AbstractDomain::members)), and reductivity of α over
//!   member subsets;
//! * **direct constants** — [`AbstractDomain::constant`] agrees with α on
//!   singletons;
//! * **refinement** — a [`RefineFrom`] direction is sound, reductive,
//!   reports ⊥ only on disjoint inputs, and its fixpoint test
//!   [`is_refined_by`](RefineFrom::is_refined_by) is exact.
//!
//! The functions panic with a counterexample on the first violation, so
//! they slot directly into `#[test]` bodies.

use crate::{AbstractDomain, RefineFrom, WidenDomain};

/// Asserts the lattice laws for every pair of canonical elements at
/// `width` bits.
///
/// # Panics
///
/// Panics with a counterexample on the first law violation.
pub fn assert_lattice_laws<D: AbstractDomain>(width: u32) {
    let elems = D::enumerate_at_width(width);
    assert!(
        !elems.is_empty(),
        "{}: empty enumeration at width {width}",
        D::NAME
    );
    for &a in &elems {
        // Reflexivity and idempotence.
        assert!(a.le(a), "{}: {a:?} not ⊑ itself", D::NAME);
        assert_eq!(a.join(a), a, "{}: join not idempotent at {a:?}", D::NAME);
        assert_eq!(
            a.meet(a),
            Some(a),
            "{}: meet not idempotent at {a:?}",
            D::NAME
        );
        for &b in &elems {
            let j = a.join(b);
            // Commutativity.
            assert_eq!(
                j,
                b.join(a),
                "{}: join not commutative on {a:?}, {b:?}",
                D::NAME
            );
            assert_eq!(
                a.meet(b),
                b.meet(a),
                "{}: meet not commutative on {a:?}, {b:?}",
                D::NAME
            );
            // Join is an upper bound, consistent with ⊑.
            assert!(
                a.le(j) && b.le(j),
                "{}: join not an upper bound on {a:?}, {b:?}",
                D::NAME
            );
            assert_eq!(
                a.le(b),
                j == b,
                "{}: ⊑ vs join inconsistent on {a:?}, {b:?}",
                D::NAME
            );
            // Meet is a lower bound; ⊥ (None) only without common members.
            match a.meet(b) {
                Some(m) => {
                    assert!(
                        m.le(a) && m.le(b),
                        "{}: meet not a lower bound on {a:?}, {b:?}",
                        D::NAME
                    );
                    if a.le(b) {
                        assert_eq!(m, a, "{}: ⊑ vs meet inconsistent on {a:?}, {b:?}", D::NAME);
                    }
                    // Absorption: a ⊔ (a ⊓ b) = a.
                    assert_eq!(
                        a.join(m),
                        a,
                        "{}: absorption (join) fails on {a:?}, {b:?}",
                        D::NAME
                    );
                }
                None => {
                    for x in a.members(width) {
                        assert!(
                            !b.contains(x),
                            "{}: meet of {a:?}, {b:?} is ⊥ but both contain {x}",
                            D::NAME
                        );
                    }
                }
            }
            // Absorption: a ⊓ (a ⊔ b) = a.
            assert_eq!(
                a.meet(j),
                Some(a),
                "{}: absorption (meet) fails on {a:?}, {b:?}",
                D::NAME
            );
        }
    }
}

/// Asserts the Galois soundness conditions at `width` bits.
///
/// # Panics
///
/// Panics with a counterexample on the first violation.
pub fn assert_galois_soundness<D: AbstractDomain>(width: u32) {
    let lim: u64 = 1u64.checked_shl(width).expect("width < 64") - 1;
    // Extensivity on singletons: x ∈ γ(α({x})), and α({x}) is a constant.
    for x in 0..=lim {
        let a = D::constant(x);
        assert!(a.contains(x), "{}: {x} ∉ γ(α({{{x}}}))", D::NAME);
        assert_eq!(
            a.as_constant(),
            Some(x),
            "{}: α({{{x}}}) not constant",
            D::NAME
        );
    }
    let elems = D::enumerate_at_width(width);
    for &p in &elems {
        let members = p.members(width);
        assert!(!members.is_empty(), "{}: {p:?} concretizes to ∅", D::NAME);
        // members() agrees with contains() over the whole width window.
        for x in 0..=lim {
            assert_eq!(
                p.contains(x),
                members.contains(&x),
                "{}: members/contains disagree on {x} for {p:?}",
                D::NAME
            );
        }
        // α over the members is reductive: α(γ(P)) ⊑ P.
        let back = D::abstract_of(members.iter().copied()).expect("non-empty member set abstracts");
        assert!(back.le(p), "{}: α(γ({p:?})) = {back:?} ⋢ {p:?}", D::NAME);
        // ⊑ agrees with γ-inclusion over the enumeration.
        for &q in &elems {
            if p.le(q) {
                for &x in &members {
                    assert!(q.contains(x), "{}: {p:?} ⊑ {q:?} but {x} escapes", D::NAME);
                }
            }
        }
        // Truncation at the enumeration width is the identity on canonical
        // elements, and ⊤ covers everything.
        assert!(p.le(D::top()), "{}: {p:?} ⋢ ⊤", D::NAME);
        assert!(p.le(D::top_at_width(width)), "{}: {p:?} ⋢ ⊤|w", D::NAME);
    }
}

/// Asserts that [`AbstractDomain::constant`] is the abstraction of the
/// singleton set: `D::constant(x) == D::abstract_of([x])` for every
/// value of `width` bits, for the 64-bit edge values (0, 1, `i64::MAX`,
/// `i64::MIN`, `u64::MAX`), and for `samples` seeded random words. A
/// domain that overrides `constant` with a direct constructor must build
/// exactly the element the generic α would.
///
/// # Panics
///
/// Panics with the first value whose direct constant differs.
pub fn assert_constant_law<D: AbstractDomain>(width: u32, samples: u32, seed: u64) {
    let lim: u64 = 1u64.checked_shl(width).expect("width < 64") - 1;
    let edges = [0, 1, i64::MAX as u64, i64::MIN as u64, u64::MAX];
    let mut rng = crate::rng::SplitMix64::new(seed);
    let seeded = (0..samples).map(|_| rng.next_u64()).collect::<Vec<_>>();
    for x in (0..=lim).chain(edges).chain(seeded) {
        assert_eq!(
            D::constant(x),
            D::abstract_of([x]).expect("singleton sets are never empty"),
            "{}: constant({x:#x}) ≠ α({{{x:#x}}})",
            D::NAME
        );
    }
}

/// Asserts the widening laws of [`WidenDomain`] over the canonical
/// enumeration at `width` bits, plus termination on randomized width-64
/// ascending chains.
///
/// * **covering**: for every pair with `a ⊑ b`, both `a` and `b` are
///   ⊑ `a ∇ b` (the contract callers rely on for soundness);
/// * **stability**: `a ∇ a = a` — a loop head that stopped growing stops
///   widening;
/// * **termination**: `max_steps` bounds every chain
///   `xᵢ₊₁ = xᵢ ∇ (xᵢ ⊔ yᵢ)` driven by `rounds` random `yᵢ` streams.
///
/// # Panics
///
/// Panics with a counterexample on the first violation.
pub fn assert_widening_laws<D: WidenDomain>(width: u32, rounds: u32, max_steps: u32, seed: u64) {
    let elems = D::enumerate_at_width(width);
    for &a in &elems {
        assert_eq!(a.widen(a), a, "{}: {a:?} ∇ {a:?} ≠ {a:?}", D::NAME);
        for &b in &elems {
            if !a.le(b) {
                continue;
            }
            let w = a.widen(b);
            assert!(
                a.le(w) && b.le(w),
                "{}: {a:?} ∇ {b:?} = {w:?} is not an upper bound",
                D::NAME
            );
        }
    }
    // Termination: feed random growth at full width; the chain must
    // stabilize well before max_steps.
    let mut rng = crate::rng::SplitMix64::new(seed);
    for round in 0..rounds {
        let mut x = D::random(&mut rng);
        let mut steps = 0u32;
        loop {
            let grown = x.join(D::random(&mut rng));
            let next = x.widen(grown);
            assert!(
                x.le(next) && grown.le(next),
                "{}: widening not covering at {x:?} ∇ {grown:?}",
                D::NAME
            );
            if next == x {
                break;
            }
            x = next;
            steps += 1;
            assert!(
                steps < max_steps,
                "{}: widening chain still growing after {max_steps} steps (round {round})",
                D::NAME
            );
        }
    }
}

/// Asserts that [`AbstractDomain::random`] /
/// [`AbstractDomain::random_member`] produce well-formed samples: every
/// sampled member belongs to its element.
///
/// # Panics
///
/// Panics on the first sampled member that escapes its element.
pub fn assert_sampling_sound<D: AbstractDomain>(rounds: u32, seed: u64) {
    let mut rng = crate::rng::SplitMix64::new(seed);
    for _ in 0..rounds {
        let d = D::random(&mut rng);
        let x = d.random_member(&mut rng);
        assert!(
            d.contains(x),
            "{}: sampled member {x:#x} escapes {d:?}",
            D::NAME
        );
    }
}

/// How many pairs [`assert_refine_laws`] checked, and how many of them
/// fell in each outcome — so a caller can assert that its input space
/// reaches every branch of the laws.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RefineCoverage {
    /// Pairs checked.
    pub pairs: usize,
    /// Pairs already at the fixpoint (`refine_from` returned `self`).
    pub fixpoints: usize,
    /// Pairs refined to ⊥ (`refine_from` returned `None`).
    pub contradictions: usize,
}

/// Asserts the [`RefineFrom`] laws of `A ← O` on every pair of
/// `selfs × others`:
///
/// * **sound**: every probe in `γ(a) ∩ γ(o)` stays in `a.refine_from(o)`;
/// * **reductive**: `a.refine_from(o) ⊑ a`;
/// * `None` only when no probe lies in `γ(a) ∩ γ(o)`;
/// * **exact fixpoint test**: `a.is_refined_by(o)` ⇔
///   `a.refine_from(o) == Some(a)`.
///
/// The first and third laws are exhaustive when `probes` holds every
/// common member of every pair (all of `[0, 2^w)` for width-`w`
/// enumerations, or every member of the side that is always small) and
/// sampled at the probes otherwise. The other two need no probes.
///
/// # Panics
///
/// Panics with a counterexample on the first violation.
pub fn assert_refine_laws<A, O>(selfs: &[A], others: &[O], probes: &[u64]) -> RefineCoverage
where
    A: AbstractDomain + RefineFrom<O>,
    O: AbstractDomain,
{
    fn members<D: AbstractDomain>(d: D, probes: &[u64]) -> Vec<u64> {
        probes.iter().copied().filter(|&x| d.contains(x)).collect()
    }
    let other_members: Vec<Vec<u64>> = others.iter().map(|&o| members(o, probes)).collect();
    let mut cov = RefineCoverage::default();
    for &a in selfs {
        let a_members = members(a, probes);
        for (&o, o_members) in others.iter().zip(&other_members) {
            // The common probes, found by scanning the shorter side.
            let shorter = if a_members.len() <= o_members.len() {
                &a_members
            } else {
                o_members
            };
            let mut common = shorter
                .iter()
                .copied()
                .filter(|&x| a.contains(x) && o.contains(x));
            let refined = a.refine_from(&o);
            assert_eq!(
                a.is_refined_by(&o),
                refined == Some(a),
                "{} ← {}: is_refined_by disagrees with refine_from on {a:?} ← {o:?} \
                 (refine_from = {refined:?})",
                A::NAME,
                O::NAME
            );
            cov.pairs += 1;
            match refined {
                Some(r) => {
                    cov.fixpoints += usize::from(r == a);
                    assert!(
                        r.le(a),
                        "{} ← {}: {a:?} ← {o:?} = {r:?} is not ⊑ {a:?}",
                        A::NAME,
                        O::NAME
                    );
                    for x in common {
                        assert!(
                            r.contains(x),
                            "{} ← {}: {a:?} ← {o:?} = {r:?} drops common member {x:#x}",
                            A::NAME,
                            O::NAME
                        );
                    }
                }
                None => {
                    cov.contradictions += 1;
                    if let Some(x) = common.next() {
                        panic!(
                            "{} ← {}: {a:?} ← {o:?} is ⊥ but both contain {x:#x}",
                            A::NAME,
                            O::NAME
                        );
                    }
                }
            }
        }
    }
    cov
}
