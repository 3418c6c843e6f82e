//! `verifbench` — the verifier's known-answer end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path verifbench/Cargo.toml -- \
//!     --workload corpus_fixpoint --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Generates the workload's corpus from the seed, hands it to the
//! verifier only as bytes through `ebpf::Program::from_bytes`, verifies
//! it round after round through the public `verifier` API for the given
//! seconds, checks every verdict against the known answer and every
//! accepted program against the VM, and prints every metric with its
//! unit and sample count. The last line of standard output is one JSON
//! object: end-to-end metrics with `--trace 0`, the per-layer ledger
//! with `--trace 1`. Exits 1 when any verdict was wrong or any accepted
//! program faulted, 2 on bad arguments. See `DESIGN.md`.

mod corpus;
mod engine;
mod measure;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use corpus::Workload;
use engine::Governance;
use measure::{check_pass, peak_rss_mib, prepare, timed_rounds, Tally};
use stats::{percentile, quantile, HOLD};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: verifbench --workload <corpus_fixpoint|deep_path> \
     --seed <u64> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Prints the per-family latency table and the quantile ladder of one
/// window of whole rounds, showing that no reported percentile sits on a
/// gap.
fn print_distribution(workload: Workload, items: &[corpus::Item], samples: &[u64]) {
    println!("family          programs  unsafe   p50_us   p99_us");
    for family in workload.family_names() {
        let mut of: Vec<u64> = samples
            .iter()
            .enumerate()
            .filter(|(k, _)| items[k % items.len()].family == family)
            .map(|(_, &ns)| ns)
            .collect();
        of.sort_unstable();
        let programs = items.iter().filter(|i| i.family == family).count();
        let unsafe_count = items
            .iter()
            .filter(|i| i.family == family && !i.safe())
            .count();
        println!(
            "family {family:<15} {programs:>3} {unsafe_count:>7} {:>8.1} {:>8.1}",
            percentile(&of, 0.5) as f64 / 1e3,
            percentile(&of, 0.99) as f64 / 1e3
        );
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let ladder: Vec<String> = [0.1, 0.25, 0.45, 0.5, 0.55, 0.75, 0.9, 0.99]
        .iter()
        .map(|&p| {
            format!(
                "p{}={:.1}",
                (p * 100.0) as u32,
                percentile(&sorted, p) as f64 / 1e3
            )
        })
        .collect();
    println!("quantiles_us {}", ladder.join(" "));
}

/// Formats a metrics object; every value must be finite.
fn metrics_json(metrics: &[(&str, f64, &str, usize)]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit, _)| {
            assert!(value.is_finite(), "{name} = {value}");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn main() -> ExitCode {
    let main_start = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("verifbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let workload = args.workload;
    let mut gov = Governance::default();
    let mut tally = Tally::default();
    let prep = prepare(workload, args.seed, &mut gov, &mut tally);
    let mut setup_times = vec![main_start.elapsed().as_secs_f64()];
    let items = &prep.corpus.items;
    println!(
        "verifbench workload={} seed={} seconds={} trace={} threads_available={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    println!(
        "corpus programs={} unsafe={} hash={:016x}",
        items.len(),
        items.iter().filter(|i| !i.safe()).count(),
        prep.corpus.hash()
    );
    // (name, value, unit, samples behind the value)
    let mut metrics: Vec<(&str, f64, &str, usize)>;
    let mut tracer = trace::Tracer::default();
    if args.trace {
        let run = trace::traced_run(
            workload,
            &prep,
            args.seconds,
            &mut tracer,
            &mut gov,
            &mut tally,
        );
        println!("ledger per program (ns): self times account for the session span");
        for (name, ns) in &run.accounting {
            println!("ledger {name:<28} {ns:>12.1}");
        }
        metrics = run
            .layers
            .into_iter()
            .map(|(name, value, unit)| (name, value, unit, items.len()))
            .collect();
    } else {
        let rounds = timed_rounds(
            workload,
            &prep,
            args.seconds,
            args.seed,
            &mut setup_times,
            &mut gov,
            &mut tally,
        );
        print_distribution(args.workload, items, &rounds.window);
        let pps: Vec<f64> = rounds
            .round_ns
            .iter()
            .map(|&ns| items.len() as f64 / (ns as f64 * 1e-9))
            .collect();
        println!(
            "samples latency={} rounds={} tail_windows={}",
            rounds.samples,
            pps.len(),
            rounds.window_p99.len(),
        );
        println!(
            "setups_s {}",
            setup_times
                .iter()
                .map(|t| format!("{t:.4}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
        metrics = vec![
            (
                "latency_p50_us",
                quantile(&rounds.round_p50, HOLD) / 1e3,
                "us",
                rounds.samples,
            ),
            (
                "latency_p99_us",
                quantile(&rounds.window_p99, HOLD) / 1e3,
                "us",
                rounds.samples,
            ),
            (
                "programs_per_s",
                quantile(&pps, 1.0 - HOLD),
                "1/s",
                pps.len(),
            ),
            (
                "setup_s",
                quantile(&setup_times, HOLD),
                "s",
                setup_times.len(),
            ),
            ("peak_rss_mib", peak_rss_mib(), "MiB", 1),
        ];
    }

    let check = check_pass(workload, &prep, args.seed, &mut gov);
    tally.attempted += check.tally.attempted;
    tally.wrong += check.tally.wrong;
    let failed = tally.wrong + check.vm_faults;
    if !args.trace {
        metrics.push((
            "unknown_bits",
            check.unknown_bits as f64 / check.accepted.max(1) as f64,
            "bits",
            check.accepted as usize,
        ));
    }
    println!(
        "check accepted={} vm_faults={} wrong_verdicts={} deadline_exceeded={} internal_faults={}",
        check.accepted, check.vm_faults, tally.wrong, gov.deadline_exceeded, gov.internal_faults
    );
    println!(
        "metric failed_frac = {} (n={})",
        failed as f64 / tally.attempted as f64,
        tally.attempted
    );
    for (name, value, unit, n) in &metrics {
        println!("metric {name} = {value} {unit} (n={n})");
    }
    if args.trace {
        // `cargo run` names the package directory; run directly, the
        // binary is expected to start from the repository root.
        let dir = std::env::var_os("CARGO_MANIFEST_DIR")
            .map_or_else(|| PathBuf::from("verifbench"), PathBuf::from);
        let path = dir
            .join("spans")
            .join(format!("{}.tsv", args.workload.name()));
        match tracer.write(&path) {
            Ok(()) => println!("spans {} written to {}", tracer.spans.len(), path.display()),
            Err(e) => eprintln!("verifbench: writing spans to {}: {e}", path.display()),
        }
    }
    let correct = failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        tally.attempted,
        metrics_json(&metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
