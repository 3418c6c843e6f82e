//! **Figure 5** (§IV-B): cumulative distribution of the minimum number of
//! CPU cycles taken by `bitwise_mul`, `kern_mul`, and `our_mul` over
//! randomly sampled 64-bit tnum pairs.
//!
//! Methodology matches the paper: each input pair is run `--trials` times
//! (default 10) per algorithm and the minimum cycle count (RDTSC) is
//! recorded; the binary prints per-algorithm means and a CDF at selected
//! percentiles. The paper used 40M pairs on a 20-core Skylake; the
//! default here is 200k pairs to fit a small container — pass
//! `--pairs 40000000` to reproduce the full workload.
//!
//! The paper measured one operand shape, `random` (a uniformly random
//! mask, then a random value under it). Two more shapes are measured
//! next to it, one table each: `unknown-x-small`, ⊤ times a constant in
//! `[2, 40)` (the verifier's `r6 *= 3` on an unknown register), and
//! `const-x-const`, two random constants.
//!
//! Usage:
//!
//! ```text
//! cargo run -p bench --release --bin fig5_mul_performance \
//!     [--pairs 200000] [--trials 10] [--seed 1] [--naive]
//! ```
//!
//! `--naive` additionally measures the unoptimized trit-at-a-time
//! `bitwise_mul` (the ~4921-cycle version of §IV-B) — experiment E7.

use bench::cli::{Args, Flag};
use bench::cycles::min_cycles;
use bench::table::render;
use bitwise_domain::{bitwise_mul, bitwise_mul_naive};
use domain::rng::SplitMix64;
use domain::AbstractDomain;
use tnum::Tnum;

struct Algo {
    name: &'static str,
    f: fn(Tnum, Tnum) -> Tnum,
}

/// A named family of operand pairs.
struct Shape {
    name: &'static str,
    what: &'static str,
    draw: fn(&mut SplitMix64) -> (Tnum, Tnum),
}

const SHAPES: [Shape; 3] = [
    Shape {
        name: "random",
        what: "random 64-bit tnum pairs, the paper's Fig. 5 workload",
        draw: |rng| (Tnum::random(rng), Tnum::random(rng)),
    },
    Shape {
        name: "unknown-x-small",
        what: "unknown times a constant in [2, 40)",
        draw: |rng| (Tnum::UNKNOWN, Tnum::constant(rng.range(2, 40))),
    },
    Shape {
        name: "const-x-const",
        what: "two random constants",
        draw: |rng| {
            (
                Tnum::constant(rng.next_u64()),
                Tnum::constant(rng.next_u64()),
            )
        },
    },
];

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

fn main() {
    let args = Args::parse(&[
        Flag::Int("pairs"),
        Flag::Int("trials"),
        Flag::Int("seed"),
        Flag::Switch("naive"),
    ]);
    let pairs = args.get_u64("pairs", 200_000);
    let trials = args.get_u32_in("trials", 10, 1..=u32::MAX);
    let seed = args.get_u64("seed", 1);

    let mut algos: Vec<Algo> = vec![
        Algo {
            name: "bitwise_mul",
            f: bitwise_mul,
        },
        Algo {
            name: "kern_mul",
            f: |a, b| a.mul_kernel_legacy(b),
        },
        Algo {
            name: "our_mul",
            f: |a, b| a.mul(b),
        },
    ];
    if args.has("naive") {
        algos.push(Algo {
            name: "bitwise_mul_naive",
            f: bitwise_mul_naive,
        });
    }

    for shape in &SHAPES {
        println!(
            "Figure 5, shape {}: min-of-{trials} RDTSC cycles per multiplication over \
             {pairs} pairs ({})\n",
            shape.name, shape.what
        );

        // Every shape draws from the same seed, so `random` measures the
        // pairs it always did.
        let mut rng = SplitMix64::new(seed);
        let inputs: Vec<(Tnum, Tnum)> = (0..pairs).map(|_| (shape.draw)(&mut rng)).collect();

        let mut rows = Vec::new();
        for algo in &algos {
            let mut samples: Vec<u64> = Vec::with_capacity(inputs.len());
            for &(p, q) in &inputs {
                samples.push(min_cycles(trials, || (algo.f)(p, q)));
            }
            samples.sort_unstable();
            let mean = samples.iter().sum::<u64>() as f64 / samples.len() as f64;
            rows.push(vec![
                algo.name.to_string(),
                format!("{mean:.0}"),
                percentile(&samples, 0.10).to_string(),
                percentile(&samples, 0.50).to_string(),
                percentile(&samples, 0.90).to_string(),
                percentile(&samples, 0.99).to_string(),
            ]);
            eprintln!("{} {} done", shape.name, algo.name);
        }

        println!(
            "{}",
            render(&["algorithm", "mean", "p10", "p50", "p90", "p99"], &rows)
        );
    }
    println!("Paper reference (shape random; means on 2.2 GHz Skylake): kern_mul ~393, optimized");
    println!("bitwise_mul ~387, our_mul ~262 cycles (our_mul ~33%/32% faster); the");
    println!("naive bitwise_mul ~4921 cycles. Expect the same ordering and rough");
    println!("ratios here; absolute counts differ with the CPU.");
}
