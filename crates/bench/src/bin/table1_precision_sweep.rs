//! **Table I** (§VII-E): precision of `our_mul` vs `kern_mul` with
//! increasing bitwidth.
//!
//! For each width the sweep enumerates unordered tnum pairs (the paper's
//! convention for the differing-pair statistics) and reports the same six
//! columns as the paper: total pairs, equal outputs, differing outputs,
//! comparable outputs, and which algorithm is more precise.
//!
//! Usage:
//!
//! ```text
//! cargo run -p bench --release --bin table1_precision_sweep [--min 5] [--max 8]
//!     [--full]            # enumerate widths 9 and 10 exhaustively too
//!     [--samples 2000000] # sample size for widths above --max without --full
//! ```
//!
//! Widths ≤ 8 are always exhaustive. Widths 9–10 enumerate 193M / 1.7G
//! pairs; by default they are *sampled* (uniform, fixed seed) so the run
//! finishes in minutes on a small machine — pass `--full` for the exact
//! counts.

use bench::cli::{Args, Flag};
use bench::table::{pct, render};
use tnum::Tnum;
use tnum_verify::ops::OpCatalog;
use tnum_verify::{compare_precision_sampled, compare_precision_unordered, PrecisionReport};

fn main() {
    let args = Args::parse(&[
        Flag::Int("min"),
        Flag::Int("max"),
        Flag::Int("top"),
        Flag::Int("samples"),
        Flag::Switch("full"),
    ]);
    let min = args.get_u64("min", 5) as u32;
    let max = args.get_u64("max", 8) as u32;
    let top = args.get_u64("top", 10) as u32;
    let samples = args.get_u64("samples", 2_000_000);
    let full = args.has("full");

    println!("Table I: our_mul vs kern_mul precision, widths {min}..={top}");
    println!(
        "(exhaustive <= {max}; widths above are {} )\n",
        if full {
            "exhaustive (--full)"
        } else {
            "sampled"
        }
    );

    let kern = OpCatalog::<Tnum>::mul_kernel();
    let ours = OpCatalog::<Tnum>::mul();

    let mut rows = Vec::new();
    for width in min..=top {
        let (report, mode): (PrecisionReport, &str) = if width <= max || full {
            (compare_precision_unordered(kern, ours, width), "exact")
        } else {
            (
                compare_precision_sampled(kern, ours, width, samples),
                "sampled",
            )
        };
        rows.push(vec![
            width.to_string(),
            report.total.to_string(),
            format!("{} ({})", report.equal, pct(report.equal, report.total)),
            format!(
                "{} ({})",
                report.different,
                pct(report.different, report.total)
            ),
            format!(
                "{} ({})",
                report.comparable,
                pct(report.comparable, report.different.max(1))
            ),
            format!(
                "{} ({})",
                report.a_more_precise,
                pct(report.a_more_precise, report.comparable.max(1))
            ),
            format!(
                "{} ({})",
                report.b_more_precise,
                pct(report.b_more_precise, report.comparable.max(1))
            ),
            mode.to_string(),
        ]);
        eprintln!("width {width} done ({mode})");
    }

    println!(
        "{}",
        render(
            &[
                "bitwidth",
                "total pairs",
                "equal",
                "different",
                "comparable (of diff)",
                "kern_mul more precise",
                "our_mul more precise",
                "mode",
            ],
            &rows,
        )
    );
    println!("Paper reference (Table I, exact): w5: 8 diff, 2 vs 6; w6: 180 diff, 41 vs 139;");
    println!("w7: 2693 diff, 580 vs 2113; w8: 33002 diff, 6846 vs 26156.");
}
