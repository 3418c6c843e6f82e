//! Differential campaigns against the concrete VM: random ALU programs,
//! branchy and loopy ones, map-helper programs and regression shapes are
//! verified and executed, and every concrete state must lie in the
//! abstract one ([`Relation::Sound`]) — the whole transfer-function
//! stack against concrete BPF semantics. The pruning campaigns check
//! that the fixpoint and path explorers, visited-table caps and liveness
//! masking never disagree on a verdict.

mod oracle;

use ebpf::{Insn, Reg, Src, Width};
use oracle::{as_is, campaign, cases, check, gen, Case, Relation::*};
use verifier::{AnalyzerOptions, Strategy};

#[test]
fn random_alu_programs_abstract_containment() {
    let cases = cases(0xBEEF, 200, 0x2f18_356b_136a_c9ff, |rng, _| {
        gen::alu_program(rng, 30)
    });
    campaign(&cases, as_is, &[Accepts, Sound]);
}

#[test]
fn random_alu_programs_with_branches() {
    // Forward conditional branches (still loop-free): branch refinement
    // against concrete control flow.
    let cases = cases(0xFACE, 100, 0x0c13_1dac_e97c_8fb6, gen::branchy_alu);
    campaign(&cases, as_is, &[Accepts, Sound]);
}

#[test]
fn random_loop_programs_abstract_containment() {
    // Six random contexts per program vary the trip count through ctx[0].
    let cases = cases(0x100D, 60, 0x6690_41f2_09cc_4294, |rng, _| {
        gen::ctx_loop(rng, Width::W64, 6)
    });
    campaign(&cases, as_is, &[Accepts, Sound]);
}

#[test]
fn random_w32_guarded_loop_programs_abstract_containment() {
    // The same loops guarded by `if w8 < limit`: `refine32` must keep the
    // counter bounded (and sound) through the zero-extended compare.
    let cases = cases(0x32B1, 60, 0xd565_f5b1_537a_82de, |rng, _| {
        gen::ctx_loop(rng, Width::W32, 6)
    });
    campaign(&cases, as_is, &[Accepts, Sound]);
}

/// The 13-byte memset, its exit test at `cmp` (`r1` or `w1`).
fn memset(cmp: &str) -> Case {
    Case::asm(&format!(
        "r1 = 0\nloop:\nr3 = r10\nr3 += -13\nr3 += r1\n*(u8 *)(r3 + 0) = 0\nr1 += 1\n\
         if {cmp} < 13 goto loop\nr0 = r1\nexit"
    ))
    .ret(13)
}

/// Options without harvested widening thresholds.
fn no_thresholds() -> AnalyzerOptions {
    AnalyzerOptions {
        harvest_thresholds: false,
        ..AnalyzerOptions::default()
    }
}

/// Asserts that the reference run pins `r0` at the exit to `value`.
fn assert_exit_r0(case: &Case, out: &oracle::Outcome, value: u64) {
    let analysis = out.result.as_ref().expect("accepted");
    let exit = analysis
        .state_before(case.prog.len() - 1)
        .expect("reachable");
    let r0 = exit.reg(Reg::R0).as_scalar().expect("scalar at exit");
    assert_eq!(r0.as_constant(), Some(value), "narrowing pins the counter");
}

#[test]
fn w32_guarded_memset_verifies_and_matches_vm() {
    // Before `refine32`, both edges of `if w1 < 13` passed through
    // unrefined and the counter widened past the buffer, rejecting a
    // program the VM runs safely. Thresholds stay off so the 32-bit
    // refinement alone carries the proof.
    check(&memset("w1").options(no_thresholds()), &[Accepts, Sound]);
}

#[test]
fn per_register_widening_keeps_counter_plus_accumulator_vs_vm() {
    // A continue-style loop with two back edges hands the head two
    // changing joins per trip (the accumulator differs on the two paths).
    // One shared per-head delay counter was burned twice per trip by the
    // accumulator and widened the counter mid-ascent. Now every changing
    // component widens on its own, and the narrowing walks re-tighten
    // the counter to the exit test.
    let case = Case::asm(
        r"
            r1 = 0              ; i
            r6 = 0              ; sum
        loop:
            r3 = r10
            r3 += -13
            r3 += r1
            *(u8 *)(r3 + 0) = 0 ; in bounds iff i <= 12
            r1 += 1
            r6 += 1
            if r1 > 12 goto out
            if r2 > 0 goto loop ; back-edge 1
            r6 += 7
            goto loop           ; back-edge 2
        out:
            r0 = r1
            exit
        ",
    )
    .options(no_thresholds())
    .ret(13);
    let out = check(&case, &[Accepts, Sound]);
    assert_exit_r0(&case, &out, 13);
}

#[test]
fn narrowed_widening_regression_vs_vm() {
    // The memset's whole safety argument is i <= 12 (the tnum can only
    // offer [0, 15]). Without thresholds the ascent extrapolates the
    // counter before the exit test caps it and the store check fails on
    // its heads; the narrowing walks re-tighten it and accept. Harvested
    // thresholds land it on the `i < 13` guard during the ascent. The VM
    // confirms both acceptances, and both narrow the exit counter.
    let case = memset("r1");
    for options in [no_thresholds(), AnalyzerOptions::default()] {
        let case = case.clone().options(options);
        let out = check(&case, &[Accepts, Sound]);
        assert_exit_r0(&case, &out, 13);
    }
}

#[test]
fn strategies_agree_on_loop_free_programs() {
    // Both strategies give the same verdict, and on acceptance the VM is
    // contained in both.
    let cases = cases(0x51AE, 120, 0x72b7_3db2_850a_6130, gen::store_verdict);
    let tally = campaign(&cases, as_is, &[PathAgrees, Sound]);
    assert!(tally.accepts > 10 && tally.rejects > 10, "{tally:?}");
}

#[test]
fn path_sensitive_never_less_precise_on_bounded_loops() {
    // Trip limits (<= 24) sit inside the default unroll_k (32): the path
    // explorer accepts by pure unrolling and is never less precise than
    // the loop-head join. 30 rounds at each guard width.
    let cases = cases(0xC0DE, 60, 0x5777_cd38_d2d3_fc15, |rng, round| {
        let width = if round < 30 { Width::W64 } else { Width::W32 };
        gen::ctx_loop(rng, width, 4)
    });
    campaign(&cases, as_is, &[Accepts, PathWithin, Sound]);
}

#[test]
fn helper_programs_differential_against_vm_map_store() {
    // The accept verdict on map-helper programs is backed by the VM
    // executing the map semantics: updates land, lookups hit exactly when
    // the shadow store says so, deletes invalidate.
    let cases = cases(0x3A95, 60, 0x742c_8c36_5ce0_354f, gen::helper_case);
    for (round, case) in cases.iter().enumerate() {
        let out = check(case, &[Accepts, Sound]);
        if round % 3 == 0 {
            let (ret, vm) = &out.runs[0];
            let Insn::Store {
                src: Src::Imm(key), ..
            } = case.prog.insns()[0]
            else {
                unreachable!("helper programs store the key first")
            };
            assert_eq!(
                vm.maps().get(0, &key.to_le_bytes()),
                Some(ret.to_le_bytes().as_slice()),
                "{}: the update did not land in the store",
                case.name
            );
        }
    }
}

#[test]
fn helper_update_loop_populates_the_store() {
    // After the verified update loop runs, every key 0..8 sits in map 0
    // with its trip counter as the value.
    let case = Case::asm(
        r"
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
    ",
    )
    .ret(0);
    let out = check(&case, &[Accepts, Sound]);
    let maps = out.runs[0].1.maps();
    for k in 0u32..8 {
        assert_eq!(
            maps.get(0, &k.to_le_bytes()),
            Some(u64::from(k).to_le_bytes().as_slice()),
            "key {k} missing after the update loop"
        );
    }
    assert_eq!(maps.get(0, &8u32.to_le_bytes()), None);
}

#[test]
fn byte_round_trip_of_random_programs() {
    let cases = cases(0xD15C, 100, 0x002f_2b46_d659_ec60, |rng, _| {
        gen::alu_program(rng, 20)
    });
    campaign(&cases, as_is, &[RoundTrip, Accepts, Sound]);
}

#[test]
fn eviction_and_chain_caps_never_change_verdicts() {
    // Fingerprint-gated probes, dominance eviction and per-pc chain caps
    // are a pure optimization: from unbounded chains (0) through the
    // default (32) to caps that evict almost everything, the path
    // explorer keeps its verdict and its exit state.
    let cases = cases(0xE71C, 60, 0x1600_9d1a_ef29_7e56, gen::pruning_mix);
    let tally = campaign(
        &cases,
        |c| c.matrix(&[Strategy::PathSensitive], &[true], &[false], &[0]),
        &[Caps(&[32, 2, 1])],
    );
    assert!(tally.accepts > 5 && tally.rejects > 5, "{tally:?}");
}

#[test]
fn liveness_masked_pruning_never_changes_verdicts_or_reports() {
    // Dead components compare as ⊤ and hash to a fixed salt, so states
    // differing only in dead registers prune; no live fact may move,
    // across strategies × memo × visited caps.
    let cases = cases(0x11FE, 30, 0x3482_5a34_66c2_1fc0, gen::pruning_mix);
    let tally = campaign(
        &cases,
        |c| {
            c.matrix(
                &[Strategy::WideningFixpoint, Strategy::PathSensitive],
                &[true],
                &[false, true],
                &[0, 2, 32],
            )
        },
        &[Unmasked],
    );
    assert!(tally.accepts > 5 && tally.rejects > 5, "{tally:?}");
}
