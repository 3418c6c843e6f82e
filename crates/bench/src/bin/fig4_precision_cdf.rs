//! **Figure 4** (§IV-A): cumulative distribution of the ratio of
//! concretized set sizes produced by (a) `kern_mul` vs `our_mul` and
//! (b) `bitwise_mul` vs `our_mul`, over all width-8 tnum pairs where the
//! outputs differ, in log₂ scale.
//!
//! Because `|γ(t)| = 2^popcount(mask)`, the log₂ ratio is exactly the
//! integer difference in unknown-trit counts; a tick at `+k` means
//! `our_mul` was more precise by `k` trits.
//!
//! Usage:
//!
//! ```text
//! cargo run -p bench --release --bin fig4_precision_cdf [--width 8]
//! ```

use bench::cli::{Args, Flag};
use bench::table::render;
use tnum::Tnum;
use tnum_verify::ops::{Op2, OpCatalog};
use tnum_verify::ratio_histogram;

fn cdf_rows(name: &str, hist: &std::collections::BTreeMap<i32, u64>) -> Vec<Vec<String>> {
    let total: u64 = hist.values().sum();
    let mut cum = 0u64;
    hist.iter()
        .map(|(k, v)| {
            cum += v;
            vec![
                name.to_string(),
                format!("{k:+}"),
                v.to_string(),
                format!("{:.2}%", cum as f64 / total as f64 * 100.0),
            ]
        })
        .collect()
}

fn run(name: &str, a: Op2<Tnum>, b: Op2<Tnum>, width: u32) -> Vec<Vec<String>> {
    let hist = ratio_histogram(a, b, width);
    let total: u64 = hist.values().sum();
    let precise: u64 = hist.iter().filter(|(k, _)| **k > 0).map(|(_, v)| *v).sum();
    println!(
        "{name}: {total} differing pairs; our_mul more precise in {precise} \
         ({:.1}% — paper: ~80%)",
        precise as f64 / total.max(1) as f64 * 100.0
    );
    cdf_rows(name, &hist)
}

fn main() {
    let args = Args::parse(&[Flag::Int("width")]);
    let width = args.get_u64("width", 8) as u32;
    assert!((2..=10).contains(&width), "--width must be in 2..=10");

    println!("Figure 4: CDF of log2 set-size ratio vs our_mul at width {width}\n");
    let mut rows = run(
        "kern_mul/our_mul",
        OpCatalog::<Tnum>::mul_kernel(),
        OpCatalog::<Tnum>::mul(),
        width,
    );
    rows.extend(run(
        "bitwise_mul/our_mul",
        OpCatalog::<Tnum>::mul_bitwise(),
        OpCatalog::<Tnum>::mul(),
        width,
    ));
    println!();
    println!(
        "{}",
        render(&["comparison", "log2 ratio", "count", "cumulative"], &rows)
    );
    println!("Ticks right of 0 are inputs where our_mul's output is smaller (more precise).");
}
