//! Benchmarks of the exploration strategies over loopy programs: a
//! masked-memset loop swept across trip counts (fixpoint strategy) ×
//! unroll bounds (path-sensitive strategy), the register-bounded loop,
//! the two-back-edge pruning workload, an unbounded loop (pure widening
//! cost), and the VM executing the same loops for scale.
//!
//! For the fixpoint, the eager ascent widens the memset's loop head at
//! its first changing join and the narrowing walks recover the exit
//! bound, so the memset is proved at every trip count at about the same
//! cost. The register-bounded loop's ascent widens its counter past the
//! buffer; its narrowing walks, which run the checks, re-tighten the
//! counter and prove the store in one more walk. The
//! path-sensitive strategy trades on `unroll_k` instead — per-trip
//! exact states below the bound, widening fallback above it — and pays
//! per *path*, with the visited table pruning re-convergent ones.
//!
//! Every configuration also reports its `AnalysisStats` — deep copies
//! vs. shared clones vs. short-circuited joins under the copy-on-write
//! state layer, plus the pruning-table ledger (states pruned / subset
//! checks / fingerprint rejects / evictions) and the
//! `bytes_materialized` working-set proxy of the chunked stack frames.
//! The deterministic ones are pinned exactly in `tests/guard_pins.rs`.
//!
//! Run with: `cargo bench -p bench --bench fixpoint`

use bench::fixpoint_suite;
use bench::harness::Group;
use bench::table;
use ebpf::asm::assemble;
use ebpf::Vm;
use verifier::VerificationSession;

fn main() {
    let mut group = Group::new("fixpoint_sweep");

    for (label, prog, session) in fixpoint_suite::sweep_configs() {
        group.bench(&label, || session.run(&prog).expect("sweep accepted"));
    }

    // Pure widening cost: no exit test at all, the head must climb the
    // whole threshold ladder to ⊤ before stabilizing.
    let unbounded = assemble(
        r"
            r1 = 0
        loop:
            r1 += 1
            if r2 > 0 goto loop
            r0 = 0
            exit
        ",
    )
    .expect("assembles");
    let session = VerificationSession::new();
    group.bench("analyze/unbounded_to_top", || {
        session.run(&unbounded).expect("terminates at ⊤")
    });

    // Concrete execution of the same loops, for an abstract-vs-concrete
    // scale reference.
    let mut vm = Vm::new();
    for &trips in &[16u32, 1024] {
        let prog = fixpoint_suite::masked_memset(trips);
        group.bench(&format!("vm/trips={trips}"), || {
            vm.run(&prog, &mut []).expect("runs")
        });
    }

    // One un-timed analysis per sweep configuration for the
    // copy-on-write and pruning statistics (deterministic, unlike the
    // timings).
    let stats = fixpoint_suite::collect_stats();

    // The batched-throughput family: the 64-program mixed batch at each
    // worker count on default (memo-off) sessions, plus one memo-on row
    // through a cold, explicitly shared cache.
    let throughput = fixpoint_suite::throughput_rows();

    // The parallel-exploration family: branchy-tree and deep-unroll
    // workloads under the parshard strategy at each job count. Wall
    // clock and counters are scheduling-dependent, so they get their
    // own table.
    let parshard = fixpoint_suite::parshard_rows();

    group.finish();

    println!("\n## parallel path exploration (parshard)\n");
    let parshard_table: Vec<Vec<String>> = parshard
        .iter()
        .map(|(label, ms, s)| {
            vec![
                label.clone(),
                format!("{ms:.1}"),
                s.visits.to_string(),
                s.subtrees_spawned.to_string(),
                s.steals.to_string(),
                s.shared_prunes.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        table::render(
            &[
                "configuration",
                "wall ms",
                "visits",
                "subtrees",
                "steals",
                "shared prunes"
            ],
            &parshard_table
        )
    );

    println!("\n## batched throughput (64 mixed programs)\n");
    let throughput_table: Vec<Vec<String>> = throughput
        .iter()
        .map(|(label, s)| {
            vec![
                label.clone(),
                format!("{:.1}", s.programs_per_sec()),
                format!("{:.1}%", s.memo_hit_rate() * 100.0),
                s.memo_hits.to_string(),
                s.memo_misses.to_string(),
                s.memo_evicted.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        table::render(
            &[
                "configuration",
                "programs/sec",
                "memo hit rate",
                "hits",
                "misses",
                "evicted"
            ],
            &throughput_table
        )
    );

    // Render the sharing and pruning counters alongside the timings.
    println!("\n## fixpoint_sweep state sharing and pruning\n");
    let rows: Vec<Vec<String>> = stats
        .iter()
        .map(|(label, s)| {
            vec![
                label.clone(),
                s.states_allocated.to_string(),
                s.widenings_applied.to_string(),
                s.states_pruned.to_string(),
                s.subset_checks.to_string(),
                s.fingerprint_rejects.to_string(),
                s.visited_evicted.to_string(),
                s.bytes_materialized.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        table::render(
            &[
                "configuration",
                "allocated",
                "widenings",
                "pruned",
                "subset checks",
                "fp rejects",
                "evicted",
                "bytes"
            ],
            &rows
        )
    );
}
