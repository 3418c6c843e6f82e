//! **Experiments E1–E3 and E11** (§III-A): bounded verification of every
//! tnum operator by exhaustive enumeration, optimality comparison against
//! the best transformer, the paper's algebraic observations, and the
//! verification-time table — plus the *domain-generic* campaign that runs
//! the same soundness + optimality sweep over the LLVM known-bits
//! encoding and the kernel's range bounds from one code path.
//!
//! Usage:
//!
//! ```text
//! cargo run -p bench --release --bin verify_soundness \
//!     [--width 6]     # exhaustive soundness width (<= 8)
//!     [--optimality]  # also run best-transformer comparisons (E2)
//!     [--algebra]     # also print the §III-A algebraic witnesses (E3)
//!     [--spot 20000]  # random 64-bit pairs for the width-64 spot check
//!     [--domains]     # run the generic campaign for all three domains
//!     [--bounds-width 6] # campaign width for the bounds domain (<= 6)
//! ```

use bench::cli::{Args, Flag};
use bench::table::render;
use bitwise_domain::KnownBits;
use domain::{ArithDomain, BitwiseDomain};
use interval_domain::Bounds;
use tnum::Tnum;
use tnum_verify::campaign::{run_campaign, CampaignConfig, CampaignReport};
use tnum_verify::ops::OpCatalog;
use tnum_verify::{check_optimality, check_soundness, spot_check};

fn campaign_rows(report: &CampaignReport) -> Vec<Vec<String>> {
    report
        .entries
        .iter()
        .map(|e| {
            vec![
                report.domain.to_string(),
                e.op.to_string(),
                report.width.to_string(),
                e.pairs.to_string(),
                e.member_checks.to_string(),
                if e.sound {
                    "SOUND".into()
                } else {
                    format!("{} VIOLATIONS", e.violations)
                },
                match e.optimal {
                    Some(true) => "OPTIMAL".into(),
                    Some(false) => format!(
                        "suboptimal ({:.2}%)",
                        e.optimal_fraction.unwrap_or(0.0) * 100.0
                    ),
                    None => "-".into(),
                },
                format!("{:.3}s", e.seconds),
            ]
        })
        .collect()
}

fn main() {
    let args = Args::parse(&[
        Flag::Int("width"),
        Flag::Int("spot"),
        Flag::Switch("optimality"),
        Flag::Switch("domains"),
        Flag::Int("bounds-width"),
        Flag::Switch("algebra"),
    ]);
    let width = args.get_u32_in("width", 6, 3..=8);
    let bw = args.get_u32_in("bounds-width", 6, 1..=6);
    let spot_pairs = args.get_u64("spot", 20_000);

    println!("E1: exhaustive soundness at width {width} (the SMT substitute; see README)\n");
    let mut rows = Vec::new();
    for op in OpCatalog::<Tnum>::paper_suite() {
        let r = check_soundness(op, width);
        rows.push(vec![
            op.name.to_string(),
            width.to_string(),
            r.pairs.to_string(),
            r.member_checks.to_string(),
            if r.is_sound() {
                "SOUND".into()
            } else {
                format!("{} VIOLATIONS", r.violations.len())
            },
            format!("{:.3}s", r.seconds),
        ]);
    }
    println!(
        "{}",
        render(
            &[
                "operator",
                "width",
                "tnum pairs",
                "member checks",
                "verdict",
                "time"
            ],
            &rows
        )
    );
    println!("(Paper: all operators verify at n=64 in seconds with Z3; kern_mul only");
    println!("completes at n=8. Enumeration cost grows as 16^n, hence the width cap.)\n");

    println!("E1b: randomized width-64 spot check, {spot_pairs} pairs x 8 members\n");
    let mut rows = Vec::new();
    for op in OpCatalog::<Tnum>::paper_suite() {
        let r = spot_check(op, spot_pairs, 8, 0xC60_2022);
        rows.push(vec![
            op.name.to_string(),
            (r.pairs * u64::from(r.members_per_pair)).to_string(),
            if r.is_sound() {
                "SOUND".into()
            } else {
                format!("{} VIOLATIONS", r.violations.len())
            },
        ]);
    }
    println!(
        "{}",
        render(&["operator", "concrete checks", "verdict"], &rows)
    );

    if args.has("optimality") {
        let w = width.min(6);
        println!("\nE2: optimality vs the best transformer α∘f∘γ at width {w}\n");
        let mut rows = Vec::new();
        for op in OpCatalog::<Tnum>::paper_suite() {
            let r = check_optimality(op, w);
            rows.push(vec![
                op.name.to_string(),
                format!("{:.4}%", r.optimal_fraction() * 100.0),
                if r.is_optimal() {
                    "OPTIMAL".into()
                } else {
                    "suboptimal".into()
                },
                r.unsound_pairs.to_string(),
            ]);
        }
        println!(
            "{}",
            render(
                &["operator", "exact pairs", "verdict", "unsound pairs"],
                &rows
            )
        );
        println!("(Paper: add/sub/and/or/xor optimal — Theorems 6, 22; no mul is optimal.)");
    }

    if args.has("domains") {
        let tw = width.min(6);
        println!("\nE12: the domain-generic campaign — same catalog, same code path,");
        println!("three domains (tnum and knownbits at width {tw}, bounds at width {bw})\n");
        fn run<D: ArithDomain + BitwiseDomain>(width: u32, spot: u64) -> CampaignReport {
            run_campaign::<D>(CampaignConfig {
                width,
                optimality: true,
                spot_pairs: spot,
                spot_members: 8,
                seed: 0xC60_2022,
            })
        }
        let mut rows = Vec::new();
        let spot = spot_pairs.min(5_000);
        for report in [
            run::<Tnum>(tw, spot),
            run::<KnownBits>(tw, spot),
            run::<Bounds>(bw, spot),
        ] {
            assert!(
                report.all_sound(),
                "{} campaign found violations",
                report.domain
            );
            rows.extend(campaign_rows(&report));
        }
        println!(
            "{}",
            render(
                &[
                    "domain",
                    "operator",
                    "width",
                    "pairs",
                    "member checks",
                    "sound",
                    "optimal",
                    "time"
                ],
                &rows
            )
        );
        println!("(Every domain passes the identical Eqn. 11 sweep; optimality verdicts");
        println!("differ exactly where the paper predicts: add/sub/bitwise optimal for the");
        println!("value/mask encodings, intervals conservative on bit-level operators.)");
    }

    if args.has("algebra") {
        println!("\nE3: algebraic observations (§III-A)\n");
        let (count, w) = tnum_verify::algebra::addition_non_associativity(3);
        println!("addition non-associative at width 3: {count} triples");
        if let Some(w) = w {
            println!(
                "  e.g. ({} + {}) + {} = {}  but  {} + ({} + {}) = {}",
                w.a, w.b, w.c, w.left, w.a, w.b, w.c, w.right
            );
        }
        let (count, w) = tnum_verify::algebra::add_sub_non_inverse(3);
        println!("add/sub non-inverse at width 3: {count} pairs");
        if let Some(w) = w {
            println!(
                "  e.g. ({} + {}) - {} = {} != {}",
                w.a, w.b, w.b, w.round_trip, w.a
            );
        }
        let (count, w) = tnum_verify::algebra::mul_non_commutativity(|a, b| a.mul(b), 6);
        println!("our_mul non-commutative at width 6: {count} pairs");
        if let Some(w) = w {
            println!(
                "  e.g. {} * {} = {}  but  {} * {} = {}",
                w.a, w.b, w.ab, w.b, w.a, w.ba
            );
        }
    }
}
