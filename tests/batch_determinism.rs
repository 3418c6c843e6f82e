//! Batch-vs-sequential determinism: the batched engine
//! ([`verifier::VerificationSession::run_batch`]) is a pure throughput
//! layer. At every worker count, memo off and on, it must return each
//! program's sequential verdict and report, in submission order — cross-
//! thread scheduling reorders execution, never results, and a memo hit
//! must be indistinguishable from recomputation.

mod oracle;

use oracle::{cases, check_batch, check_warm_memo, gen};
use verifier::{AnalysisStats, AnalyzerOptions, Strategy, VerificationSession};

#[test]
fn batch_matches_sequential_across_jobs_and_memo_settings() {
    let cases = cases(0xBA7C4, 24, 0x81c3_3845_efc5_db20, gen::batch_mix);
    check_batch(&cases, &[1, 2, 8]);
}

#[test]
fn memo_hits_never_change_a_sequential_report() {
    let cases = cases(0x5EED5, 12, 0xc3e1_4036_9f46_a2a0, gen::batch_mix);
    check_warm_memo(&cases);
}

#[test]
fn a_runs_stats_do_not_depend_on_earlier_work_on_its_thread() {
    let mut names: Vec<_> = std::fs::read_dir("fixtures")
        .expect("fixtures directory")
        .map(|e| e.expect("entry").path())
        .collect();
    names.sort();
    let progs: Vec<_> = names
        .iter()
        .map(|p| {
            ebpf::asm::assemble(&std::fs::read_to_string(p).expect("reads")).expect("assembles")
        })
        .collect();
    for strategy in [Strategy::WideningFixpoint, Strategy::PathSensitive] {
        let session = VerificationSession::new().with_strategy(strategy);
        let stats = |prog: &ebpf::Program| -> AnalysisStats {
            session.run(prog).expect("fixtures verify").stats()
        };
        for (i, prog) in progs.iter().enumerate() {
            let other = &progs[(i + 1) % progs.len()];
            let alone = std::thread::scope(|s| s.spawn(|| stats(prog)).join().expect("runs"));
            // Earlier work on the same thread: a different program
            // accepted, then rejected mid-walk by its budget.
            let after = std::thread::scope(|s| {
                s.spawn(|| {
                    stats(other);
                    let starved = session.clone().with_options(AnalyzerOptions {
                        analysis_budget: 3,
                        ..session.options()
                    });
                    assert!(starved.run(other).is_err());
                    stats(prog)
                })
                .join()
                .expect("runs")
            });
            assert_eq!(alone, after, "{strategy:?} {}", names[i].display());
        }
    }
}
