//! Exhaustive bounded verification of operator soundness — the
//! enumeration analogue of the paper's SMT query (Eqn. 11), generic over
//! the abstract domain.

use domain::AbstractDomain;

use crate::ops::Op2;
use domain::parallel::{default_threads, par_chunks};

/// A concrete counterexample to soundness.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Violation<D> {
    /// First abstract operand.
    pub p: D,
    /// Second abstract operand.
    pub q: D,
    /// Concrete member of `γ(p)`.
    pub x: u64,
    /// Concrete member of `γ(q)`.
    pub y: u64,
    /// The concrete result `opC(x, y)` that escaped the abstraction.
    pub z: u64,
    /// The abstract result that failed to contain `z`.
    pub r: D,
}

/// Outcome of an exhaustive soundness check at one width.
#[derive(Clone, Debug)]
pub struct SoundnessReport<D> {
    /// Operator name.
    pub name: &'static str,
    /// Bit width checked.
    pub width: u32,
    /// Number of abstract input pairs enumerated (`9^width` for tnums).
    pub pairs: u64,
    /// Number of concrete membership checks performed (`16^width` for
    /// tnums).
    pub member_checks: u64,
    /// All violations found (empty ⇔ the operator is sound at `width`).
    pub violations: Vec<Violation<D>>,
    /// Wall-clock seconds the sweep took — the analogue of the paper's
    /// SMT solving times (§III-A).
    pub seconds: f64,
}

impl<D> SoundnessReport<D> {
    /// Whether the operator was verified sound at this width.
    #[must_use]
    pub fn is_sound(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Exhaustively verifies the soundness predicate
/// `∀P,Q, x∈γ(P), y∈γ(Q): opC(x,y) ∈ γ(opT(P,Q))` at `width` bits, for
/// any [`AbstractDomain`].
///
/// The quantification space is [`AbstractDomain::enumerate_at_width`];
/// work is partitioned over the first operand across threads via
/// [`par_chunks`]. For tnums at width 8 this is 16⁸ ≈ 4.3 × 10⁹
/// membership checks; widths ≤ 6 run in milliseconds and are suitable for
/// unit tests.
///
/// # Panics
///
/// Panics if `width > 10` (the sweep would not terminate in reasonable
/// time).
#[must_use]
pub fn check_soundness<D: AbstractDomain>(op: Op2<D>, width: u32) -> SoundnessReport<D> {
    assert!(
        width <= 10,
        "exhaustive soundness sweeps are limited to width 10"
    );
    let start = std::time::Instant::now();
    let elems = D::enumerate_at_width(width);
    let members: Vec<Vec<u64>> = elems.iter().map(|d| d.members(width)).collect();
    let n = elems.len() as u64;
    let per_thread = par_chunks(n, default_threads(), |lo, hi| {
        let mut violations = Vec::new();
        let mut checks = 0u64;
        for pi in lo..hi {
            let p = elems[pi as usize];
            for (qi, &q) in elems.iter().enumerate() {
                let r = (op.abstract_op)(p, q, width);
                for &x in &members[pi as usize] {
                    for &y in &members[qi] {
                        checks += 1;
                        let z = (op.concrete_op)(x, y, width);
                        if !r.contains(z) {
                            violations.push(Violation { p, q, x, y, z, r });
                        }
                    }
                }
            }
        }
        (violations, checks)
    });
    let mut violations = Vec::new();
    let mut member_checks = 0;
    for (v, c) in per_thread {
        violations.extend(v);
        member_checks += c;
    }
    SoundnessReport {
        name: op.name,
        width,
        pairs: n * n,
        member_checks,
        violations,
        seconds: start.elapsed().as_secs_f64(),
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
    fn whole_paper_suite_sound_at_width_4() {
        // The enumeration analogue of the paper's "verification succeeded
        // for all operators" (§III-A), at a test-friendly width.
        for op in OpCatalog::<Tnum>::paper_suite() {
            let report = check_soundness(op, 4);
            assert!(
                report.is_sound(),
                "{} unsound: {:?}",
                op.name,
                report.violations[0]
            );
            assert_eq!(report.pairs, 81 * 81);
            assert_eq!(report.member_checks, 16u64.pow(4));
        }
    }

    #[test]
    fn arithmetic_sound_at_width_5() {
        for op in [
            OpCatalog::<Tnum>::add(),
            OpCatalog::<Tnum>::sub(),
            OpCatalog::<Tnum>::mul(),
        ] {
            let report = check_soundness(op, 5);
            assert!(report.is_sound(), "{} unsound at width 5", op.name);
        }
    }

    #[test]
    fn knownbits_suite_sound_at_width_4() {
        // The same campaign, same code path, for the LLVM encoding.
        for op in OpCatalog::<KnownBits>::domain_suite() {
            let report = check_soundness(op, 4);
            assert!(
                report.is_sound(),
                "knownbits {} unsound: {:?}",
                op.name,
                report.violations[0]
            );
            // The bijection preserves the quantification space exactly.
            assert_eq!(report.pairs, 81 * 81);
            assert_eq!(report.member_checks, 16u64.pow(4));
        }
    }

    #[test]
    fn bounds_suite_sound_at_width_4() {
        // And for the kernel's range domain, whose quantification space is
        // the 2^w(2^w+1)/2 canonical intervals.
        for op in OpCatalog::<Bounds>::domain_suite() {
            let report = check_soundness(op, 4);
            assert!(
                report.is_sound(),
                "bounds {} unsound: {:?}",
                op.name,
                report.violations[0]
            );
            assert_eq!(report.pairs, 136 * 136);
        }
    }

    #[test]
    fn broken_operator_is_caught() {
        // An intentionally wrong "addition" that claims the result is
        // always the constant sum of the minimum members.
        let broken = Op2 {
            name: "broken_add",
            abstract_op: |a: Tnum, b: Tnum, w| {
                Tnum::constant(a.value().wrapping_add(b.value())).truncate(w)
            },
            concrete_op: |x, y, w| x.wrapping_add(y) & tnum::low_bits(w),
        };
        let report = check_soundness(broken, 3);
        assert!(!report.is_sound());
        let v = report.violations[0];
        // The recorded counterexample must actually violate membership.
        assert!(!v.r.contains(v.z));
        assert!(v.p.contains(v.x) && v.q.contains(v.y));
    }

    #[test]
    fn report_metadata() {
        let report = check_soundness(OpCatalog::<Tnum>::and(), 3);
        assert_eq!(report.name, "and");
        assert_eq!(report.width, 3);
        assert!(report.seconds >= 0.0);
        assert!(report.is_sound());
    }
}
