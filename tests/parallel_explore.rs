//! Parallel-vs-sequential determinism: the work-stealing path explorer
//! ([`Strategy::PathParallel`]) is a pure wall-clock layer over the
//! sequential path walk. Every job count × spawn depth × visited cap ×
//! masking combination must reproduce the sequential verdict, rejection
//! text and per-pc report ([`Relation::Parallel`]).
//!
//! This locks the three ways intra-program parallelism could go wrong:
//! subtree scheduling (stealing reorders execution, never the merged
//! report), the shared concurrent visited table (a cross-worker prune may
//! only skip work) and the error path (any worker's rejection must be the
//! sequential one verbatim).

mod oracle;

use oracle::{campaign, cases, check, gen, Case, Relation::*};
use verifier::{AnalyzerOptions, Strategy};

#[test]
fn parallel_explorer_is_bit_identical_across_the_matrix() {
    let cases = cases(0x9A51, 24, 0x984f_6517_5e9f_7f15, gen::parallel_mix);
    let tally = campaign(
        &cases,
        |c| {
            c.matrix(
                &[Strategy::PathSensitive],
                &[true, false],
                &[false],
                &[0, 2, 32],
            )
        },
        &[Parallel {
            jobs: &[1, 2, 8],
            spawn_depths: &[0, 2, 8],
        }],
    );
    assert!(tally.accepts > 10 && tally.rejects >= 3, "{tally:?}");
}

#[test]
fn fork_before_widening_loop_matches_sequential() {
    // A fork feeding a loop that outruns `unroll_k = 4`: the spawned
    // subtree and the stealing worker both hit the widening fallback.
    let case = Case::asm(
        r"
        r2 = *(u8 *)(r1 + 0)
        r3 = 1
        if r2 > 3 goto c
        r3 = 0
    c:
        r8 = 0
    loop:
        r3 += 1
        r8 += 1
        if r8 < 100 goto loop
        r0 = 0
        exit
    ",
    )
    .strategy(Strategy::PathSensitive)
    .options(AnalyzerOptions {
        unroll_k: 4,
        ..AnalyzerOptions::default()
    });
    check(
        &case,
        &[Parallel {
            jobs: &[1, 2, 8],
            spawn_depths: &[0, 1],
        }],
    );
}

#[test]
fn map_helper_programs_are_bit_identical_across_the_matrix() {
    // Map-heavy shapes stress the state the parallel layer ships across
    // workers: MapHandle/MapValuePtr registers (their fingerprints feed
    // the shared visited table), the NULL-check fork (edges differ in
    // register kind, not just range) and helper clobbers inside loops.
    let lookup_filter = r"
        *(u32 *)(r10 - 4) = 1
        r1 = map 0
        r2 = r10
        r2 += -4
        call 1
        if r0 == 0 goto miss
        r1 = *(u64 *)(r0 + 0)
        r1 += 1
        *(u64 *)(r0 + 0) = r1
        r0 = 1
        exit
    miss:
        r0 = 0
        exit
    ";
    let update_loop = r"
        r6 = 0
    loop:
        *(u32 *)(r10 - 4) = r6
        *(u64 *)(r10 - 16) = r6
        r1 = map 0
        r2 = r10
        r2 += -4
        r3 = r10
        r3 += -16
        r4 = 0
        call 2
        r6 += 1
        if r6 < 8 goto loop
        r0 = 0
        exit
    ";
    // Lookup under a data-dependent fork, delete on one side; both edges
    // re-join on a second NULL check.
    let forked_lookup = r"
        r6 = *(u8 *)(r1 + 0)
        *(u32 *)(r10 - 4) = r6
        r1 = map 0
        r2 = r10
        r2 += -4
        if r6 > 7 goto probe
        call 1
        if r0 != 0 goto hit
        r0 = 0
        exit
    probe:
        call 3
        r0 = 0
        exit
    hit:
        r7 = *(u64 *)(r0 + 0)
        r0 = r7
        exit
    ";
    let cases: Vec<Case> = [lookup_filter, update_loop, forked_lookup]
        .iter()
        .map(|src| {
            Case::asm(src).options(AnalyzerOptions {
                unroll_k: 4,
                ..AnalyzerOptions::default()
            })
        })
        .collect();
    campaign(
        &cases,
        |c| {
            c.matrix(
                &[Strategy::PathSensitive],
                &[true, false],
                &[false],
                &[0, 2, 32],
            )
        },
        &[Parallel {
            jobs: &[1, 2, 8],
            spawn_depths: &[0, 2],
        }],
    );
}

#[test]
fn budget_exhaustion_reproduces_the_sequential_error() {
    // A 40-visit budget trips mid-walk at every job count; the parallel
    // explorer discards its partial work and re-runs sequentially, so the
    // budget error (and its pc) is the sequential one verbatim.
    let cases = cases(0xB0D6, 1, 0x5d97_004b_5fc4_892e, |rng, _| {
        let prog = gen::NARROW.counted_loop(rng, 8, gen::Counter::Ctx, ebpf::Width::W64);
        Case::new("", prog)
            .strategy(Strategy::PathSensitive)
            .options(AnalyzerOptions {
                analysis_budget: 40,
                ..AnalyzerOptions::default()
            })
    });
    check(
        &cases[0],
        &[
            Rejects,
            Parallel {
                jobs: &[1, 2, 8],
                spawn_depths: &[2], // the default
            },
        ],
    );
}
