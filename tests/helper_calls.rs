//! The helper-call contract, end to end: NULL-until-checked map value
//! pointers, registry-driven argument checking, equivalence of all four
//! entry points (fixpoint, path-sensitive, parshard, batch) on the map
//! fixtures, and the memo-cache exclusion for helper transfers.

use std::sync::Arc;

use ebpf::asm::assemble;
use ebpf::{Program, Reg};
use verifier::{AnalyzerOptions, Strategy, TransferMemo, VerificationSession, VerifierError};

fn session(strategy: Strategy) -> VerificationSession {
    VerificationSession::new().with_strategy(strategy)
}

const ALL_STRATEGIES: [Strategy; 3] = [
    Strategy::WideningFixpoint,
    Strategy::PathSensitive,
    Strategy::PathParallel,
];

/// A lookup whose result is dereferenced without any NULL check.
const UNCHECKED_DEREF: &str = r"
    *(u32 *)(r10 - 4) = 1
    r1 = map 0
    r2 = r10
    r2 += -4
    call 1
    r3 = *(u64 *)(r0 + 0)
    r0 = r3
    exit
";

#[test]
fn unchecked_map_value_deref_is_rejected_precisely() {
    let prog = assemble(UNCHECKED_DEREF).expect("assembles");
    for strategy in ALL_STRATEGIES {
        let err = session(strategy).run(&prog).expect_err("must reject");
        assert_eq!(
            err,
            VerifierError::NullMapValue {
                reg: Reg::R0,
                pc: 5
            },
            "{}: wrong rejection",
            strategy.name()
        );
        assert!(
            err.to_string().contains("may be NULL"),
            "diagnosis should explain the missing NULL check: {err}"
        );
    }
}

#[test]
fn null_check_makes_the_nonzero_edge_dereferenceable() {
    // Same program with the check inserted — every strategy accepts,
    // and the annotated report shows the or_null pointer refined on the
    // surviving edge.
    let prog = assemble(
        r"
        *(u32 *)(r10 - 4) = 1
        r1 = map 0
        r2 = r10
        r2 += -4
        call 1
        if r0 == 0 goto miss
        r3 = *(u64 *)(r0 + 0)
        r0 = r3
        exit
    miss:
        r0 = 0
        exit
    ",
    )
    .expect("assembles");
    for strategy in ALL_STRATEGIES {
        let analysis = session(strategy)
            .run(&prog)
            .unwrap_or_else(|e| panic!("{}: rejected NULL-checked deref: {e}", strategy.name()));
        let report = analysis.annotate(&prog);
        assert!(
            report.contains("map0_value?"),
            "{}: report should show the may-be-NULL pointer\n{report}",
            strategy.name()
        );
        assert!(
            report.contains("r0=map0_value+0"),
            "{}: report should show the refined pointer on the hit edge\n{report}",
            strategy.name()
        );
    }
}

#[test]
fn null_check_also_works_inverted_and_against_a_zero_register() {
    // `!= 0` jumps to the dereference; the fall-through is the NULL
    // edge. A register holding constant 0 refines exactly like `Imm(0)`.
    let prog = assemble(
        r"
        *(u32 *)(r10 - 4) = 1
        r1 = map 0
        r2 = r10
        r2 += -4
        call 1
        r6 = 0
        if r0 != r6 goto hit
        r0 = 0
        exit
    hit:
        r3 = *(u64 *)(r0 + 0)
        r0 = r3
        exit
    ",
    )
    .expect("assembles");
    for strategy in ALL_STRATEGIES {
        session(strategy)
            .run(&prog)
            .unwrap_or_else(|e| panic!("{}: rejected inverted check: {e}", strategy.name()));
    }
}

#[test]
fn helper_argument_errors_are_precise() {
    // r1 is a scalar, not a map handle.
    let prog = assemble("*(u32 *)(r10 - 4) = 1\nr1 = 7\nr2 = r10\nr2 += -4\ncall 1\nr0 = 0\nexit")
        .expect("assembles");
    let err = session(Strategy::WideningFixpoint)
        .run(&prog)
        .expect_err("must reject");
    assert_eq!(
        err,
        VerifierError::BadHelperArg {
            helper: 1,
            arg: 1,
            expected: "a map handle",
            pc: 4
        }
    );
    assert!(err.to_string().contains("argument r1 is not a map handle"));

    // The key region is never initialized.
    let prog = assemble("r1 = map 0\nr2 = r10\nr2 += -4\ncall 1\nr0 = 0\nexit").expect("assembles");
    assert_eq!(
        session(Strategy::PathSensitive)
            .run(&prog)
            .expect_err("must reject"),
        VerifierError::UninitStackRead { pc: 3 }
    );

    // An id outside the registry.
    let prog = assemble("call 42\nexit").expect("assembles");
    assert_eq!(
        session(Strategy::WideningFixpoint)
            .run(&prog)
            .expect_err("must reject"),
        VerifierError::UnknownHelper { helper: 42, pc: 0 }
    );

    // A tagged lddw naming a map that does not exist.
    let prog = assemble("r1 = map 9\nr0 = 0\nexit").expect("assembles");
    assert_eq!(
        session(Strategy::WideningFixpoint)
            .run(&prog)
            .expect_err("must reject"),
        VerifierError::UnknownMap { map: 9, pc: 0 }
    );
}

#[test]
fn map_value_accesses_are_bounds_checked_and_leak_free() {
    let checked_deref = |tail: &str| {
        assemble(&format!(
            r"
            *(u32 *)(r10 - 4) = 1
            r1 = map 0
            r2 = r10
            r2 += -4
            call 1
            if r0 == 0 goto miss
            {tail}
        miss:
            r0 = 0
            exit
        "
        ))
        .expect("assembles")
    };
    // map 0's value is 8 bytes: offset 8 is out of bounds.
    let oob = checked_deref("r3 = *(u64 *)(r0 + 8)\nr0 = 0\nexit");
    assert!(matches!(
        session(Strategy::PathSensitive)
            .run(&oob)
            .expect_err("must reject"),
        VerifierError::OutOfBounds {
            region: "map_value",
            ..
        }
    ));
    // Pointer arithmetic within the value region is fine...
    let shifted = checked_deref("r0 += 4\nr3 = *(u32 *)(r0 + 0)\nr0 = r3\nexit");
    session(Strategy::PathSensitive)
        .run(&shifted)
        .expect("in-bounds after += 4");
    // ...but arithmetic on the *unchecked* pointer is not.
    let early_math =
        assemble("*(u32 *)(r10 - 4) = 1\nr1 = map 0\nr2 = r10\nr2 += -4\ncall 1\nr0 += 4\nexit")
            .expect("assembles");
    assert_eq!(
        session(Strategy::PathSensitive)
            .run(&early_math)
            .expect_err("must reject"),
        VerifierError::BadPointerArithmetic { pc: 5 }
    );
    // Storing a pointer into a map value would publish a kernel address.
    let leak = checked_deref("*(u64 *)(r0 + 0) = r10\nr0 = 0\nexit");
    assert_eq!(
        session(Strategy::PathSensitive)
            .run(&leak)
            .expect_err("must reject"),
        VerifierError::PointerLeak { pc: 6 }
    );
    // Returning the pointer leaks it just the same.
    let ret_leak = checked_deref("exit");
    assert_eq!(
        session(Strategy::PathSensitive)
            .run(&ret_leak)
            .expect_err("must reject"),
        VerifierError::PointerLeak { pc: 6 }
    );
}

#[test]
fn helper_transfers_are_never_memoized() {
    // A program of nothing but helper calls: with the memo cache on (an
    // explicit opt-in), the analysis must record zero cache traffic —
    // helper transfers produce pointers and model impure runtime
    // behaviour, so they are structurally outside the memo's domain.
    let prog = assemble("call 7\ncall 7\ncall 7\nexit").expect("assembles");
    for strategy in ALL_STRATEGIES {
        let analysis = session(strategy)
            .with_options(AnalyzerOptions {
                memo_cache: Some(Arc::new(TransferMemo::new())),
                ..AnalyzerOptions::default()
            })
            .run(&prog)
            .expect("accepts");
        let stats = analysis.stats();
        assert_eq!(
            (stats.memo_hits, stats.memo_misses),
            (0, 0),
            "{}: helper calls must not touch the memo cache",
            strategy.name()
        );
    }
}

#[test]
fn all_four_entry_points_agree_on_the_map_fixtures() {
    let load = |name: &str| {
        let source = std::fs::read_to_string(format!("fixtures/{name}")).expect("fixture exists");
        assemble(&source).expect("fixture assembles")
    };
    let progs: Vec<Program> = vec![load("map_filter.ebpf"), load("map_update_loop.ebpf")];

    // The batch engine runs the path-sensitive walk per program; every
    // entry point must produce the same verdict and the same annotated
    // per-pc report, and within the path family (path, parshard, batch —
    // the same walk under three schedulers) the per-pc states must be
    // bit-identical. The fixpoint engine joins loop trips instead of
    // unrolling them, so its state *structure* may legitimately be
    // coarser even when the reported values agree.
    let batch = VerificationSession::new()
        .with_strategy(Strategy::PathSensitive)
        .run_batch(&progs, 2);
    for (prog, batch_result) in progs.iter().zip(&batch.results) {
        let batch_analysis = batch_result.as_ref().expect("fixtures verify");
        let reference = batch_analysis.annotate(prog);
        for strategy in ALL_STRATEGIES {
            let analysis = session(strategy).run(prog).expect("fixtures verify");
            assert_eq!(
                analysis.annotate(prog),
                reference,
                "{} vs batch: report diverged",
                strategy.name()
            );
            if strategy == Strategy::WideningFixpoint {
                continue;
            }
            for pc in 0..prog.len() {
                assert_eq!(
                    analysis.state_before(pc),
                    batch_analysis.state_before(pc),
                    "{} vs batch: state diverged at pc {pc}",
                    strategy.name()
                );
            }
        }
    }
}

#[test]
fn helper_clobbers_are_path_accurate() {
    // r6 (callee-saved) survives the call; r7 copied from r1 before the
    // call is fine, but reading r1 itself after the call is an uninit
    // read — the registry clobber must not be weakened by liveness
    // masking or memoization.
    let ok = assemble("r6 = 5\ncall 7\nr0 = r6\nexit").expect("assembles");
    session(Strategy::PathSensitive)
        .run(&ok)
        .expect("callee-saved survives");
    let bad = assemble("r1 = 5\ncall 7\nr0 = r1\nexit").expect("assembles");
    assert_eq!(
        session(Strategy::PathSensitive)
            .run(&bad)
            .expect_err("must reject"),
        VerifierError::UninitRead {
            reg: Reg::R1,
            pc: 2
        }
    );
}
