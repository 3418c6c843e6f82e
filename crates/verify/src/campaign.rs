//! The domain-generic bounded-verification campaign: one code path that
//! runs the paper's §III-A method — exhaustive soundness (Eqn. 11) plus
//! optimality against the best transformer `α ∘ f ∘ γ` — over *any*
//! [`ArithDomain`] + [`BitwiseDomain`] implementor.
//!
//! This is the tentpole deliverable of the abstraction layer: the same
//! campaign that validates the kernel's tnums validates the LLVM
//! known-bits encoding and the kernel's range bounds, and will validate
//! any future domain (signed intervals, congruences, …) with zero new
//! harness code.

use domain::{ArithDomain, BitwiseDomain};

use crate::ops::OpCatalog;
use crate::optimality::check_optimality;
use crate::soundness::check_soundness;
use crate::spotcheck::spot_check;

/// The per-operator verdict of a campaign run.
#[derive(Clone, Debug)]
pub struct CampaignEntry {
    /// Operator name.
    pub op: &'static str,
    /// Exhaustively verified sound at the campaign width.
    pub sound: bool,
    /// Violations found (0 for a sound operator).
    pub violations: u64,
    /// Abstract input pairs enumerated.
    pub pairs: u64,
    /// Concrete membership checks performed.
    pub member_checks: u64,
    /// Matched the best transformer on every pair (`None` when the
    /// optimality pass was skipped).
    pub optimal: Option<bool>,
    /// Fraction of pairs where the operator is exact w.r.t. the best
    /// transformer (`None` when skipped).
    pub optimal_fraction: Option<f64>,
    /// Soundness violations surfaced by the optimality brute-force
    /// (always 0 for a sound operator; `None` when skipped).
    pub unsound_pairs: Option<u64>,
    /// Wall-clock seconds for the soundness sweep.
    pub seconds: f64,
}

/// The outcome of one generic campaign run over a domain.
#[derive(Clone, Debug)]
pub struct CampaignReport {
    /// Domain name ([`AbstractDomain::NAME`](domain::AbstractDomain::NAME)).
    pub domain: &'static str,
    /// Campaign width (the bound of the bounded verification).
    pub width: u32,
    /// Per-operator verdicts, in catalog order.
    pub entries: Vec<CampaignEntry>,
    /// Violations found by the randomized width-64 spot check, summed
    /// over operators (`None` when `spot_pairs` was 0).
    pub spot_violations: Option<u64>,
}

impl CampaignReport {
    /// Whether every operator verified sound — exhaustively at the
    /// campaign width and (if run) at width 64 randomized.
    #[must_use]
    pub fn all_sound(&self) -> bool {
        self.entries
            .iter()
            .all(|e| e.sound && e.unsound_pairs.unwrap_or(0) == 0)
            && self.spot_violations.unwrap_or(0) == 0
    }
}

/// Campaign configuration.
#[derive(Clone, Copy, Debug)]
pub struct CampaignConfig {
    /// Width of the exhaustive sweeps (the paper uses up to 64 via SMT;
    /// enumeration keeps tests at ≤ 6).
    pub width: u32,
    /// Whether to run the optimality comparison (quadratic in the member
    /// count on top of soundness).
    pub optimality: bool,
    /// Random abstract pairs for the width-64 spot check (0 to skip).
    pub spot_pairs: u64,
    /// Concrete member pairs per spot-checked abstract pair.
    pub spot_members: u32,
    /// Spot-check seed.
    pub seed: u64,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            width: 4,
            optimality: true,
            spot_pairs: 1_000,
            spot_members: 8,
            seed: 0xC60_2022,
        }
    }
}

/// Runs the generic campaign over the domain `D`'s
/// [`domain_suite`](OpCatalog::domain_suite).
///
/// # Panics
///
/// Panics if `config.width` exceeds the sweep caps (10 for soundness,
/// 8 when `optimality` is set).
#[must_use]
pub fn run_campaign<D: ArithDomain + BitwiseDomain>(config: CampaignConfig) -> CampaignReport {
    let mut entries = Vec::new();
    let mut spot_violations = (config.spot_pairs > 0).then_some(0u64);
    for op in OpCatalog::<D>::domain_suite() {
        let s = check_soundness(op, config.width);
        let (optimal, optimal_fraction, unsound_pairs) = if config.optimality {
            let o = check_optimality(op, config.width);
            (
                Some(o.is_optimal()),
                Some(o.optimal_fraction()),
                Some(o.unsound_pairs),
            )
        } else {
            (None, None, None)
        };
        if let Some(total) = spot_violations.as_mut() {
            let r = spot_check(op, config.spot_pairs, config.spot_members, config.seed);
            *total += r.violations.len() as u64;
        }
        entries.push(CampaignEntry {
            op: op.name,
            sound: s.is_sound(),
            violations: s.violations.len() as u64,
            pairs: s.pairs,
            member_checks: s.member_checks,
            optimal,
            optimal_fraction,
            unsound_pairs,
            seconds: s.seconds,
        });
    }
    CampaignReport {
        domain: D::NAME,
        width: config.width,
        entries,
        spot_violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitwise_domain::KnownBits;
    use interval_domain::Bounds;
    use tnum::Tnum;

    fn quick(width: u32) -> CampaignConfig {
        CampaignConfig {
            width,
            optimality: true,
            spot_pairs: 200,
            spot_members: 4,
            seed: 1,
        }
    }

    #[test]
    fn one_code_path_validates_all_three_domains() {
        // The acceptance criterion of the abstraction layer: the same
        // generic soundness + optimality campaign, through the same
        // Op2<D> catalog, passes for all three shipped domains.
        let t = run_campaign::<Tnum>(quick(4));
        let k = run_campaign::<KnownBits>(quick(4));
        let b = run_campaign::<Bounds>(quick(3));
        for report in [&t, &k, &b] {
            assert!(
                report.all_sound(),
                "{} campaign failed: {report:?}",
                report.domain
            );
            assert_eq!(report.entries.len(), 11);
        }
        // The isomorphic encodings agree pair-for-pair on optimality.
        for (et, ek) in t.entries.iter().zip(&k.entries) {
            assert_eq!(et.op, ek.op);
            assert_eq!(et.pairs, ek.pairs, "{}", et.op);
            assert_eq!(et.optimal, ek.optimal, "{}", et.op);
        }
    }

    #[test]
    fn optimality_pass_can_be_skipped() {
        let r = run_campaign::<Tnum>(CampaignConfig {
            width: 3,
            optimality: false,
            spot_pairs: 0,
            spot_members: 0,
            seed: 0,
        });
        assert!(r.all_sound());
        assert!(r.entries.iter().all(|e| e.optimal.is_none()));
        assert_eq!(r.spot_violations, None);
    }
}
