//! Exhaustive optimality checking against the best abstract transformer
//! `α ∘ f ∘ γ` (§II-A of the paper), generic over the abstract domain.

use domain::AbstractDomain;

use crate::ops::Op2;
use domain::parallel::{default_threads, par_chunks};

/// An input pair where the operator is strictly less precise than the
/// best transformer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Suboptimal<D> {
    /// First abstract operand.
    pub p: D,
    /// Second abstract operand.
    pub q: D,
    /// What the operator produced.
    pub got: D,
    /// The maximally precise result `α(f(γ(p), γ(q)))`.
    pub best: D,
}

/// Outcome of an exhaustive optimality check at one width.
#[derive(Clone, Debug)]
pub struct OptimalityReport<D> {
    /// Operator name.
    pub name: &'static str,
    /// Bit width checked.
    pub width: u32,
    /// Number of abstract input pairs enumerated.
    pub pairs: u64,
    /// Pairs where the operator matched the best transformer exactly.
    pub optimal_pairs: u64,
    /// Sample of pairs where it did not (capped at 16 to bound memory).
    pub suboptimal_samples: Vec<Suboptimal<D>>,
    /// Count of *soundness* violations encountered while brute-forcing —
    /// always zero for a sound operator.
    pub unsound_pairs: u64,
}

impl<D> OptimalityReport<D> {
    /// Whether the operator is the optimal abstraction at this width.
    #[must_use]
    pub fn is_optimal(&self) -> bool {
        self.optimal_pairs == self.pairs && self.unsound_pairs == 0
    }

    /// Fraction of input pairs on which the operator is exact w.r.t. the
    /// best transformer.
    #[must_use]
    pub fn optimal_fraction(&self) -> f64 {
        self.optimal_pairs as f64 / self.pairs as f64
    }
}

/// The maximally precise abstract result for one input pair:
/// `α({ opC(x, y) : x ∈ γ(p), y ∈ γ(q) })`.
#[must_use]
pub fn best_transformer<D: AbstractDomain>(op: Op2<D>, p: D, q: D, width: u32) -> D {
    best_from_members(op, &p.members(width), &q.members(width), width)
}

/// [`best_transformer`] over pre-materialized member sets — the shared
/// core, so the exhaustive sweep can cache `γ` per element.
fn best_from_members<D: AbstractDomain>(op: Op2<D>, xs: &[u64], ys: &[u64], width: u32) -> D {
    D::abstract_of(
        xs.iter()
            .flat_map(|&x| ys.iter().map(move |&y| (op.concrete_op)(x, y, width))),
    )
    .expect("γ of a well-formed element is non-empty")
}

/// Exhaustively compares `op` against the best transformer at `width`.
///
/// # Panics
///
/// Panics if `width > 8` (the brute-force transformer enumerates every
/// member pair — `16^w` of them for tnums).
#[must_use]
pub fn check_optimality<D: AbstractDomain>(op: Op2<D>, width: u32) -> OptimalityReport<D> {
    assert!(width <= 8, "optimality sweeps are limited to width 8");
    let elems = D::enumerate_at_width(width);
    let members: Vec<Vec<u64>> = elems.iter().map(|d| d.members(width)).collect();
    let n = elems.len() as u64;
    let per_thread = par_chunks(n, default_threads(), |lo, hi| {
        let mut optimal = 0u64;
        let mut unsound = 0u64;
        let mut samples = Vec::new();
        for pi in lo..hi {
            let p = elems[pi as usize];
            for (qi, &q) in elems.iter().enumerate() {
                let got = (op.abstract_op)(p, q, width);
                let best = best_from_members(op, &members[pi as usize], &members[qi], width);
                if got == best {
                    optimal += 1;
                } else if best.le(got) {
                    if samples.len() < 16 {
                        samples.push(Suboptimal { p, q, got, best });
                    }
                } else {
                    // The operator missed a concrete result: unsound.
                    unsound += 1;
                }
            }
        }
        (optimal, unsound, samples)
    });
    let mut optimal_pairs = 0;
    let mut unsound_pairs = 0;
    let mut suboptimal_samples = Vec::new();
    for (o, u, s) in per_thread {
        optimal_pairs += o;
        unsound_pairs += u;
        if suboptimal_samples.len() < 16 {
            suboptimal_samples.extend(s);
            suboptimal_samples.truncate(16);
        }
    }
    OptimalityReport {
        name: op.name,
        width,
        pairs: n * n,
        optimal_pairs,
        suboptimal_samples,
        unsound_pairs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::OpCatalog;
    use bitwise_domain::KnownBits;
    use interval_domain::Bounds;
    use tnum::Tnum;

    #[test]
    fn add_and_sub_are_optimal_w4() {
        // Theorems 6 and 22 of the paper, checked by enumeration.
        for op in [OpCatalog::<Tnum>::add(), OpCatalog::<Tnum>::sub()] {
            let report = check_optimality(op, 4);
            assert!(
                report.is_optimal(),
                "{} suboptimal: {:?}",
                op.name,
                report.suboptimal_samples.first()
            );
        }
    }

    #[test]
    fn bitwise_ops_are_optimal_w4() {
        for op in [
            OpCatalog::<Tnum>::and(),
            OpCatalog::<Tnum>::or(),
            OpCatalog::<Tnum>::xor(),
        ] {
            assert!(check_optimality(op, 4).is_optimal(), "{}", op.name);
        }
    }

    #[test]
    fn knownbits_inherits_tnum_optimality_w4() {
        // The bijection transports the optimality theorems to the LLVM
        // encoding — same campaign, same verdicts.
        for op in [
            OpCatalog::<KnownBits>::add(),
            OpCatalog::<KnownBits>::sub(),
            OpCatalog::<KnownBits>::and(),
            OpCatalog::<KnownBits>::or(),
            OpCatalog::<KnownBits>::xor(),
        ] {
            assert!(
                check_optimality(op, 4).is_optimal(),
                "knownbits {}",
                op.name
            );
        }
    }

    #[test]
    fn bounds_sound_everywhere_but_not_bit_exact_w3() {
        // Interval addition is the exact hull until a sum wraps past 2^w
        // (where truncation collapses to ⊤|w); interval AND loses
        // bit-level structure by construction — which is precisely why
        // the kernel runs the reduced product with tnums.
        let add = check_optimality(OpCatalog::<Bounds>::add(), 3);
        assert_eq!(add.unsound_pairs, 0);
        assert!(
            add.optimal_fraction() > 0.5,
            "non-wrapping sums are exact hulls"
        );
        let and = check_optimality(OpCatalog::<Bounds>::and(), 3);
        assert_eq!(and.unsound_pairs, 0);
        assert!(!and.is_optimal(), "interval AND cannot be bit-exact");
    }

    #[test]
    fn no_multiplication_is_optimal_w4() {
        // §III-C: our_mul is sound but *not* optimal; neither are the
        // baselines.
        for op in OpCatalog::<Tnum>::mul_suite() {
            let report = check_optimality(op, 4);
            assert!(!report.is_optimal(), "{} unexpectedly optimal", op.name);
            assert_eq!(report.unsound_pairs, 0, "{} must stay sound", op.name);
            assert!(!report.suboptimal_samples.is_empty());
            // The recorded samples are genuine precision losses.
            for s in &report.suboptimal_samples {
                assert!(s.best.is_strict_subset_of(s.got));
            }
        }
    }

    #[test]
    fn div_rem_conservative_but_sound_w3() {
        for op in [OpCatalog::<Tnum>::div(), OpCatalog::<Tnum>::rem()] {
            let report = check_optimality(op, 3);
            assert_eq!(report.unsound_pairs, 0);
            assert!(
                !report.is_optimal(),
                "{} is intentionally conservative",
                op.name
            );
        }
    }

    #[test]
    fn best_transformer_matches_manual_alpha() {
        // γ(10x) = {4, 5}; adding the constant 1 gives {5, 6} = {101, 110},
        // whose exact abstraction is 1xx.
        let p: Tnum = "10x".parse().unwrap();
        let q: Tnum = "001".parse().unwrap();
        let best = best_transformer(OpCatalog::<Tnum>::add(), p, q, 3);
        assert_eq!(best, "1xx".parse().unwrap());
        // And it agrees with tnum_add (optimality on this pair).
        assert_eq!(best, p.add(q).truncate(3));
    }

    #[test]
    fn optimal_fraction_reported() {
        let report = check_optimality(OpCatalog::<Tnum>::mul(), 3);
        assert!(
            report.optimal_fraction() > 0.9,
            "our_mul is near-optimal at small widths"
        );
        assert!(report.optimal_fraction() < 1.0);
    }
}
