//! The fault-injection campaign: drives the `verifier::failpoint`
//! subsystem through the batch and parallel engines and checks the
//! containment contract from the outside —
//!
//! * a panic injected into one program's analysis faults **exactly
//!   that program**; every sibling's verdict and annotated state log
//!   stay bit-identical to a fault-free run;
//! * lock-poisoning panics at the in-lock sites (memo shard, visited
//!   stripe) are recovered by the poison-tolerant accessors and never
//!   spread;
//! * the degradation ladder turns a governance fault under the
//!   parallel strategy into the sequential strategy's verdict,
//!   reproduced exactly;
//! * deadlines are cooperative, deterministic at zero, caught when they
//!   pass mid-run, and inert when generous.
//!
//! Every test holds the [`failpoint::install`] guard for **all** of
//! its analysis runs — including the fault-free baselines, which run
//! under an empty plan — because the plan and its hit counters are
//! process-global and `cargo test` is multi-threaded.

use std::sync::Arc;
use std::time::Duration;

use ebpf::asm::assemble;
use ebpf::Program;
use verifier::failpoint::{self, FaultPlan, FaultSite};
use verifier::{
    AnalyzerOptions, DegradationPolicy, Strategy, TransferMemo, VerificationSession, VerifierError,
};

/// A bounded loop filling a stack window — loopy enough that every
/// strategy takes many visits (so mid-analysis fail points are
/// reachable) and every strategy accepts it.
fn loopy() -> Program {
    assemble(
        r"
        r1 = 0
    loop:
        r3 = r10
        r3 += -16
        r3 += r1
        *(u8 *)(r3 + 0) = 0
        r1 += 1
        if r1 < 16 goto loop
        r0 = r1
        exit
    ",
    )
    .expect("assembles")
}

/// The register-bounded store loop of `fixtures/reg_bound_loop.ebpf`:
/// the store check fails on the fixpoint's widened ascent and its
/// narrowing walks prove it, so a fixpoint run's visits span the ascent
/// and a walk that fails a check.
fn reg_bound_loop() -> Program {
    assemble(include_str!("../../../fixtures/reg_bound_loop.ebpf")).expect("assembles")
}

/// A branch tree over ALU ops feeding one guarded store — forky enough
/// that the parallel explorer spawns real subtree jobs.
fn branchy() -> Program {
    assemble(
        r"
        r2 = *(u8 *)(r1 + 0)
        r3 = *(u8 *)(r1 + 1)
        if r2 > 3 goto a
        r3 += 1
    a:
        if r3 > 7 goto b
        r2 += 2
    b:
        if r2 s> r3 goto c
        r2 ^= r3
    c:
        r2 &= 6
        r4 = r10
        r4 += -16
        r4 += r2
        *(u8 *)(r4 + 0) = 0
        r0 = 0
        exit
    ",
    )
    .expect("assembles")
}

/// The fixture fleet every batch test verifies.
fn fleet() -> Vec<Program> {
    vec![loopy(), branchy(), loopy(), branchy(), loopy(), branchy()]
}

/// The per-visit fail-point site on `strategy`'s hot loop.
fn site_of(strategy: Strategy) -> FaultSite {
    match strategy {
        Strategy::WideningFixpoint => FaultSite::FixpointVisit,
        Strategy::PathSensitive => FaultSite::PathVisit,
        Strategy::PathParallel => FaultSite::ParshardJob,
    }
}

/// The batch session for one strategy, failing fast so tests observe
/// raw governance errors instead of ladder re-runs.
fn session(strategy: Strategy, options: &AnalyzerOptions) -> VerificationSession {
    VerificationSession::new()
        .with_options(options.clone())
        .with_strategy(strategy)
        .with_degradation(DegradationPolicy::FailFast)
}

fn options_for(strategy: Strategy) -> AnalyzerOptions {
    AnalyzerOptions {
        // Give the parallel explorer real workers and shallow spawns so
        // subtree jobs actually land on sibling threads.
        explore_jobs: if strategy == Strategy::PathParallel {
            2
        } else {
            0
        },
        ..AnalyzerOptions::default()
    }
}

/// The annotated per-pc state log — the bit-identity witness used by
/// every comparison below.
fn annotations(
    results: &[Result<verifier::Analysis, VerifierError>],
    progs: &[Program],
) -> Vec<Option<String>> {
    results
        .iter()
        .zip(progs)
        .map(|(r, p)| r.as_ref().ok().map(|a| a.annotate(p)))
        .collect()
}

#[test]
fn injected_panic_faults_exactly_one_program_per_batch() {
    let progs = fleet();
    for strategy in Strategy::ALL {
        let options = options_for(strategy);
        let baseline = {
            let _quiet = failpoint::install(FaultPlan::new());
            session(strategy, &options).run_batch(&progs, 1)
        };
        assert_eq!(baseline.stats.accepted, progs.len(), "{strategy:?}");
        let expected = annotations(&baseline.results, &progs);

        for jobs in [1usize, 2, 8] {
            let plan = FaultPlan::new().panic_at(site_of(strategy), 10);
            let report = {
                let _guard = failpoint::install(plan);
                session(strategy, &options).run_batch(&progs, jobs)
            };
            let faults: Vec<usize> = report
                .results
                .iter()
                .enumerate()
                .filter(|(_, r)| r.is_err())
                .map(|(i, _)| i)
                .collect();
            assert_eq!(
                faults.len(),
                1,
                "{strategy:?} jobs={jobs}: exactly one program absorbs the panic"
            );
            assert!(
                matches!(
                    &report.results[faults[0]],
                    Err(VerifierError::InternalFault { detail })
                        if detail.contains("injected panic")
                ),
                "{strategy:?} jobs={jobs}: the fault surfaces as a contained InternalFault"
            );
            assert_eq!(report.stats.internal_faults, 1, "{strategy:?} jobs={jobs}");
            assert_eq!(
                report.stats.deadline_exceeded, 0,
                "{strategy:?} jobs={jobs}"
            );
            let got = annotations(&report.results, &progs);
            for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
                if i == faults[0] {
                    continue;
                }
                assert_eq!(
                    g, e,
                    "{strategy:?} jobs={jobs}: sibling {i} must be bit-identical"
                );
            }
        }
    }
}

#[test]
fn poisoned_memo_shard_is_recovered_and_does_not_spread() {
    let progs = fleet();
    let options = AnalyzerOptions {
        memo_cache: Some(Arc::new(TransferMemo::new())),
        ..AnalyzerOptions::default()
    };
    let baseline = {
        let _quiet = failpoint::install(FaultPlan::new());
        session(Strategy::WideningFixpoint, &options).run_batch(&progs, 2)
    };
    assert_eq!(baseline.stats.accepted, progs.len());
    let expected = annotations(&baseline.results, &progs);

    // The poison panic unwinds while a memo shard lock is held; every
    // later insert/lookup on that shard goes through `lock_recover`.
    let plan = FaultPlan::new().poison_at(FaultSite::MemoInsert, 5);
    let report = {
        let _guard = failpoint::install(plan);
        let options = AnalyzerOptions {
            memo_cache: Some(Arc::new(TransferMemo::new())),
            ..AnalyzerOptions::default()
        };
        session(Strategy::WideningFixpoint, &options).run_batch(&progs, 2)
    };
    let faults: Vec<usize> = report
        .results
        .iter()
        .enumerate()
        .filter(|(_, r)| r.is_err())
        .map(|(i, _)| i)
        .collect();
    assert_eq!(faults.len(), 1, "one program absorbs the poison");
    assert_eq!(report.stats.internal_faults, 1);
    let got = annotations(&report.results, &progs);
    for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
        if i != faults[0] {
            assert_eq!(g, e, "sibling {i} unaffected by the poisoned shard");
        }
    }
}

#[test]
fn ladder_downgrades_parallel_faults_to_the_sequential_verdict() {
    for prog in [loopy(), branchy()] {
        let sequential = {
            let _quiet = failpoint::install(FaultPlan::new());
            VerificationSession::new()
                .with_strategy(Strategy::PathSensitive)
                .run(&prog)
                .expect("fixture is accepted sequentially")
        };

        // Poisoning a visited-table stripe (held-lock site) and panicking
        // a job both count as governance faults; either way the ladder's
        // next rung must reproduce the sequential verdict exactly.
        for plan in [
            FaultPlan::new().panic_at(FaultSite::ParshardJob, 10),
            FaultPlan::new().poison_at(FaultSite::VisitedProbe, 5),
        ] {
            let _guard = failpoint::install(plan);
            let analysis = VerificationSession::new()
                .with_options(options_for(Strategy::PathParallel))
                .with_strategy(Strategy::PathParallel)
                .run(&prog)
                .expect("the ladder rescues the run");
            assert_eq!(analysis.strategy(), Strategy::PathSensitive);
            assert_eq!(analysis.stats().degradations, 1);
            assert_eq!(
                analysis.annotate(&prog),
                sequential.annotate(&prog),
                "ladder re-run reproduces the sequential states bit-for-bit"
            );
        }
    }
}

#[test]
fn fail_fast_reports_the_raw_governance_fault() {
    let prog = loopy();
    let _guard = failpoint::install(FaultPlan::new().panic_at(FaultSite::ParshardJob, 10));
    let err = VerificationSession::new()
        .with_options(options_for(Strategy::PathParallel))
        .with_strategy(Strategy::PathParallel)
        .with_degradation(DegradationPolicy::FailFast)
        .run(&prog)
        .expect_err("fail-fast skips the ladder");
    assert!(matches!(err, VerifierError::InternalFault { .. }), "{err}");
}

#[test]
fn a_visit_panic_at_hit_n_leaves_exactly_n_visits_in_the_batch() {
    // The fail-point fires after the visit is counted, so the unwound
    // walk has charged exactly `n` visits, and the batch counts each.
    for strategy in [Strategy::WideningFixpoint, Strategy::PathSensitive] {
        let prog = match strategy {
            Strategy::WideningFixpoint => reg_bound_loop(),
            _ => loopy(),
        };
        let unfailed = {
            let _quiet = failpoint::install(FaultPlan::new());
            session(strategy, &options_for(strategy))
                .run(&prog)
                .expect("accepted")
                .stats()
                .visits
        };
        assert!(
            unfailed >= 37,
            "{strategy:?}: {unfailed} visits, every hit must fire"
        );
        for n in [1u64, 10, 37] {
            let report = {
                let _guard = failpoint::install(FaultPlan::new().panic_at(site_of(strategy), n));
                session(strategy, &options_for(strategy)).run_batch(std::slice::from_ref(&prog), 1)
            };
            assert!(
                matches!(report.results[0], Err(VerifierError::InternalFault { .. })),
                "{strategy:?} hit {n}"
            );
            assert_eq!(
                report.stats.per_worker_visits.iter().sum::<u64>(),
                n,
                "{strategy:?} hit {n}"
            );
        }
    }
}

#[test]
fn a_ladder_rerun_counts_both_walks_in_the_batch_but_not_in_its_analysis() {
    let fixpoint = {
        let _quiet = failpoint::install(FaultPlan::new());
        VerificationSession::new()
            .run(&loopy())
            .expect("accepted")
            .stats()
    };
    for n in [1u64, 10, 37] {
        let _guard = failpoint::install(FaultPlan::new().panic_at(FaultSite::PathVisit, n));
        let report = VerificationSession::new()
            .with_strategy(Strategy::PathSensitive)
            .run_batch(&[loopy()], 1);
        let analysis = report.results[0]
            .as_ref()
            .expect("the ladder rescues the run");
        assert_eq!(analysis.strategy(), Strategy::WideningFixpoint);
        assert_eq!(analysis.stats().degradations, 1);
        assert_eq!(analysis.stats().visits, fixpoint.visits, "hit {n}");
        assert_eq!(
            report.stats.per_worker_visits.iter().sum::<u64>(),
            n + fixpoint.visits,
            "hit {n}"
        );
    }
}

#[test]
fn zero_deadline_deterministically_rejects_every_loopy_fixture() {
    let _quiet = failpoint::install(FaultPlan::new());
    let progs = [loopy(), branchy()];
    for strategy in Strategy::ALL {
        for policy in [DegradationPolicy::FailFast, DegradationPolicy::Ladder] {
            for prog in &progs {
                let err = VerificationSession::new()
                    .with_options(AnalyzerOptions {
                        deadline: Some(Duration::ZERO),
                        ..options_for(strategy)
                    })
                    .with_strategy(strategy)
                    .with_degradation(policy)
                    .run(prog)
                    .expect_err("a zero deadline can never be met");
                assert!(
                    matches!(err, VerifierError::DeadlineExceeded { .. }),
                    "{strategy:?} {policy:?}: {err}"
                );
            }
        }
    }
}

#[test]
fn zero_deadline_batches_account_every_program() {
    let _quiet = failpoint::install(FaultPlan::new());
    let progs = fleet();
    let options = AnalyzerOptions {
        deadline: Some(Duration::ZERO),
        ..AnalyzerOptions::default()
    };
    let report = session(Strategy::WideningFixpoint, &options).run_batch(&progs, 2);
    assert_eq!(report.stats.deadline_exceeded, progs.len());
    assert_eq!(report.stats.accepted, 0);
    // The rejected runs' partial walks still land in the visit roll-up.
    let burned: u64 = report.stats.per_worker_visits.iter().sum();
    assert!(burned > 0, "partial work of rejected runs is accounted");
}

#[test]
fn deadline_expiring_mid_run_is_caught_on_a_later_visit() {
    // 1024 straight-line visits under every strategy: the clock is read
    // on visit 1 and then every 256th, so the expiry must be caught on
    // a later read, not on the first.
    let src = "r0 = 0\n".to_string() + &"r0 += 1\n".repeat(1023) + "exit\n";
    let prog = assemble(&src).expect("assembles");
    for strategy in Strategy::ALL {
        // The second visit sleeps past the deadline.
        let _guard = failpoint::install(FaultPlan::new().delay_at(
            site_of(strategy),
            2,
            Duration::from_millis(60),
        ));
        let options = AnalyzerOptions {
            deadline: Some(Duration::from_millis(20)),
            ..options_for(strategy)
        };
        let err = session(strategy, &options)
            .run(&prog)
            .expect_err("the deadline passes mid-run");
        assert!(
            matches!(err, VerifierError::DeadlineExceeded { pc, .. } if pc > 1 && pc < 1024),
            "{strategy:?}: {err}"
        );
    }
}

#[test]
fn guard_dropped_while_unwinding_does_not_abort() {
    // A panic with the guard held (an injected one here, a failing
    // assertion in a broken test) drops the guard while unwinding: that
    // must surface as this closure's `Err`, not abort the test binary.
    let caught = std::panic::catch_unwind(|| {
        let _guard = failpoint::install(FaultPlan::new().panic_at(FaultSite::FixpointVisit, 1));
        failpoint::fire(FaultSite::FixpointVisit);
    });
    assert!(caught.is_err(), "the injected panic propagates");
    // A later install arms afresh: its hit counter starts at zero.
    let _guard = failpoint::install(FaultPlan::new().panic_at(FaultSite::FixpointVisit, 2));
    failpoint::fire(FaultSite::FixpointVisit);
    let again = std::panic::catch_unwind(|| failpoint::fire(FaultSite::FixpointVisit));
    assert!(
        again.is_err(),
        "the re-armed plan fires on its own hit count"
    );
}

#[test]
fn generous_deadline_changes_no_verdict() {
    let _quiet = failpoint::install(FaultPlan::new());
    let progs = fleet();
    for strategy in Strategy::ALL {
        let plain = {
            let opts = options_for(strategy);
            session(strategy, &opts).run_batch(&progs, 2)
        };
        let governed = {
            let opts = AnalyzerOptions {
                deadline: Some(Duration::from_millis(10_000)),
                ..options_for(strategy)
            };
            session(strategy, &opts).run_batch(&progs, 2)
        };
        assert_eq!(governed.stats.deadline_exceeded, 0, "{strategy:?}");
        assert_eq!(
            annotations(&plain.results, &progs),
            annotations(&governed.results, &progs),
            "{strategy:?}: a 10 s deadline is inert on this fleet"
        );
    }
}

#[test]
fn scattered_campaign_never_escapes_containment() {
    let progs = fleet();
    for seed in [1u64, 7, 42] {
        for jobs in [1usize, 2, 8] {
            for strategy in Strategy::ALL {
                let options = AnalyzerOptions {
                    memo_cache: Some(Arc::new(TransferMemo::new())),
                    ..options_for(strategy)
                };
                let baseline = {
                    let _quiet = failpoint::install(FaultPlan::new());
                    session(strategy, &options).run_batch(&progs, jobs)
                };
                let expected = annotations(&baseline.results, &progs);

                let plan = FaultPlan::scattered(seed, 3, 40);
                let report = {
                    let _guard = failpoint::install(plan);
                    session(strategy, &options).run_batch(&progs, jobs)
                };
                // The batch always completes with a verdict per program;
                // any slot either matches the fault-free run exactly or
                // reports a contained internal fault (the plan sets no
                // deadline, and delays alone change no verdict).
                assert_eq!(report.results.len(), progs.len());
                let got = annotations(&report.results, &progs);
                let mut faulted = 0usize;
                for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
                    match &report.results[i] {
                        Ok(_) => assert_eq!(g, e, "seed={seed} jobs={jobs} {strategy:?} slot {i}"),
                        Err(VerifierError::InternalFault { .. }) => faulted += 1,
                        Err(other) => {
                            panic!("seed={seed} jobs={jobs} {strategy:?}: unexpected {other}")
                        }
                    }
                }
                assert!(
                    faulted <= 3,
                    "seed={seed} jobs={jobs} {strategy:?}: at most one fault per panic entry"
                );
                assert_eq!(report.stats.internal_faults, faulted);
            }
        }
    }
}
