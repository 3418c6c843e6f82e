//! Bounded loops through both exploration strategies: a counted memset
//! and a memcpy-style filter — the workload class the classic
//! loop-rejecting verifier could not touch — are verified with eager
//! widening and narrowing, re-verified path-sensitively (exact
//! per-trip unrolling, visited-state pruning) side by side, then
//! executed on the concrete VM to confirm the proven facts.
//!
//! Run with: `cargo run --example bounded_loop`

use ebpf::asm::assemble;
use ebpf::{Reg, Vm};
use verifier::{AnalyzerOptions, Strategy, VerificationSession, VerifierError};

/// `for i in 0..13 { buf[i] = 0; sum += i }; return i` — 13 is chosen
/// deliberately: it is not a power of two, so the interval half of the
/// reduced product (not the tnum half) carries the whole safety proof.
const MEMSET: &str = r"
    r1 = 0                  ; i
    r6 = 0                  ; sum
loop:
    r3 = r10
    r3 += -13
    r3 += r1                ; &buf[i], i in [0, 12]
    *(u8 *)(r3 + 0) = 0
    r6 += r1
    r1 += 1
    if r1 < 13 goto loop
    r0 = r1
    exit
";

/// Copy-and-mask filter: move 8 context bytes onto the stack, masking
/// each — a memcpy-shaped loop whose index bounds both a context load
/// and a stack store.
const MEMCPY_FILTER: &str = r"
    r6 = 0                  ; i
loop:
    r3 = r1
    r3 += r6
    r2 = *(u8 *)(r3 + 0)    ; ctx[i]
    r2 &= 127               ; filter: clear the top bit
    r4 = r10
    r4 += -8
    r4 += r6
    *(u8 *)(r4 + 0) = r2    ; buf[i]
    r6 += 1
    if r6 < 8 goto loop
    r0 = r6
    exit
";

/// The same memset without the exit test: genuinely unbounded. The
/// analysis must still terminate — widening drives the counter to ⊤ and
/// the unbounded store is rejected, not looped on forever.
const UNBOUNDED: &str = r"
    r1 = 0
loop:
    r3 = r10
    r3 += -13
    r3 += r1
    *(u8 *)(r3 + 0) = 0
    r1 += 1
    goto loop
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let memset = assemble(MEMSET)?;
    let analysis = VerificationSession::new()
        .with_options(AnalyzerOptions::default())
        .run(&memset)?;
    println!("== counted memset: ACCEPTED ==\n");
    print!("{}", analysis.annotate(&memset));

    // The fixpoint's exit state pins the counter exactly: the loop runs
    // 13 trips, and narrowing recovers i = 13 from the widened head.
    let exit_state = analysis.state_before(memset.len() - 1).expect("reachable");
    let r0 = exit_state.reg(Reg::R0).as_scalar().expect("scalar");
    println!("\nabstract exit r0 = {r0} (finite, sound)");
    let ret = Vm::new().run(&memset, &mut [0u8; 8])?;
    println!("concrete  exit r0 = {ret}");
    assert!(r0.contains(ret), "soundness: concrete result contained");

    // The copy-on-write state layer shares register files and stack
    // frames across the fixpoint iteration instead of cloning them.
    let stats = analysis.stats();
    println!(
        "\nstate sharing: {} deep copies vs {} under clone-everything \
         ({} O(1) clones, {} joins short-circuited, {} widenings)",
        stats.states_allocated,
        stats.clone_everything_equivalent(),
        stats.states_shared,
        stats.joins_short_circuited,
        stats.widenings_applied,
    );

    // Widening extrapolates i before the exit test can cap it. With the
    // program's own comparison constants in the widening ladder
    // ("widening with thresholds") the ascent lands the counter on the
    // `i < 13` guard; without them it jumps to the built-in i32::MAX
    // rung, the store check fails on the ascent's heads, and the
    // narrowing walks that run the checks re-tighten the counter to the
    // exit test. Both accept, with the same exit counter.
    for harvest_thresholds in [true, false] {
        let analysis = VerificationSession::new()
            .with_options(AnalyzerOptions {
                harvest_thresholds,
                ..AnalyzerOptions::default()
            })
            .run(&memset)?;
        let exit = analysis.state_before(memset.len() - 1).expect("reachable");
        let exit_r0 = exit.reg(Reg::R0).as_scalar().expect("scalar");
        assert_eq!(exit_r0, r0, "the narrowing walks recover the same exit");
        println!(
            "harvested thresholds {}: ACCEPTED, {} visits, {} widenings",
            if harvest_thresholds { "on" } else { "off" },
            analysis.stats().visits,
            analysis.stats().widenings_applied,
        );
    }

    // ---- Side by side: widening fixpoint vs path-sensitive ----
    //
    // The same memset under both exploration strategies. The fixpoint
    // joins all 13 trips at the loop head and needs widening + narrowing
    // to recover the exit bound; the path-sensitive explorer unrolls the
    // 13 trips with exact per-trip states (unroll_k defaults to 32) and
    // never widens at all. A loop with two back-edges shows the other
    // half of the kernel-style machinery: re-converging paths are pruned
    // against the visited-state table.
    println!("\n== strategy comparison on the counted memset ==\n");
    let mut per_strategy = Vec::new();
    for strategy in Strategy::ALL {
        let analysis = VerificationSession::new()
            .with_strategy(strategy)
            .run(&memset)?;
        let exit = analysis.state_before(memset.len() - 1).expect("reachable");
        let r0 = exit.reg(Reg::R0).as_scalar().expect("scalar");
        println!(
            "{:>8}: exit r0 = {r0}, {} visits, {} widenings, {} unrolled trips, \
             {} pruned / {} subset checks",
            strategy.name(),
            analysis.stats().visits,
            analysis.stats().widenings_applied,
            analysis.stats().unrolled_trips,
            analysis.stats().states_pruned,
            analysis.stats().subset_checks,
        );
        per_strategy.push(analysis.stats());
    }
    let (fp, ps) = (per_strategy[0], per_strategy[1]);
    println!(
        "\ndelta (path - fixpoint): {:+} visits, {:+} widenings, {:+} deep copies",
        ps.visits as i64 - fp.visits as i64,
        ps.widenings_applied as i64 - fp.widenings_applied as i64,
        ps.states_allocated as i64 - fp.states_allocated as i64,
    );
    assert_eq!(ps.widenings_applied, 0, "unrolling needs no widening");

    // Pruning needs paths that re-converge: the bench suite's canonical
    // continue-style loop with two back-edges hands the visited table
    // states to cover.
    let two_back_edge = bench::fixpoint_suite::two_back_edge();
    let pruned = VerificationSession::new()
        .with_strategy(Strategy::PathSensitive)
        .with_options(AnalyzerOptions {
            unroll_k: 4,
            ..AnalyzerOptions::default()
        })
        .run(&two_back_edge)?;
    println!(
        "\n== two-back-edge loop, unroll_k = 4 == ACCEPTED \
         ({} states pruned by the visited table, {} widenings past the unroll bound)",
        pruned.stats().states_pruned,
        pruned.stats().widenings_applied,
    );
    assert!(pruned.stats().states_pruned > 0, "pruning fired");

    let filter = assemble(MEMCPY_FILTER)?;
    let analyzer = VerificationSession::new().with_options(AnalyzerOptions {
        ctx_size: 8,
        ..AnalyzerOptions::default()
    });
    analyzer.run(&filter)?;
    let mut ctx = *b"\xff\x80\x7f12345";
    let ret = Vm::new().run(&filter, &mut ctx)?;
    println!("\n== memcpy filter: ACCEPTED == (copied {ret} bytes)");

    // And the unbounded variant terminates the *analysis* (widening to
    // ⊤ makes the store unprovable) instead of iterating forever.
    let unbounded = assemble(UNBOUNDED)?;
    match VerificationSession::new()
        .with_options(AnalyzerOptions::default())
        .run(&unbounded)
    {
        Err(VerifierError::OutOfBounds { pc, .. }) => {
            println!(
                "\n== unbounded memset: REJECTED == (store at pc {pc} unprovable after widening)"
            );
        }
        other => unreachable!("expected out-of-bounds rejection, got {other:?}"),
    }
    Ok(())
}
