//! Every fixture's per-pc reported states, pinned by hash under all three
//! strategies.
//!
//! The explorers may change *how* they build a report (cheaper joins,
//! deferred reduction, different sharing) but not *what* it says: the
//! `Debug` form of all eleven registers and all 64 stack slots before
//! every instruction. A change that moves one bound of one register at
//! one pc of one fixture fails here, with the fixture and configuration
//! named.

use ebpf::asm::assemble;
use ebpf::Reg;
use verifier::{Analysis, AnalyzerOptions, Strategy, VerificationSession};

/// FNV-1a over `bytes`, continuing from `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// The hash of an analysis's report: per pc, either `-` (unreachable)
/// or the `Debug` form of every register and every slot.
fn report_hash(analysis: &Analysis, len: usize) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for pc in 0..len {
        let line = match analysis.state_before(pc) {
            None => format!("{pc}: -\n"),
            Some(state) => {
                let mut line = format!("{pc}:");
                for r in Reg::ALL {
                    line.push_str(&format!(" {:?}", state.reg(r)));
                }
                for off in (-512..0).step_by(8) {
                    line.push_str(&format!(" {:?}", state.stack_slot(off).expect("in frame")));
                }
                line.push('\n');
                line
            }
        };
        h = fnv1a(h, line.as_bytes());
    }
    h
}

/// The configurations pinned: every strategy, the path walk both within
/// its unroll bound and past it (where widened loop-head summaries reach
/// the report), and the parallel walk with real spawns and merges.
fn configurations() -> [(&'static str, Strategy, AnalyzerOptions); 5] {
    let parallel = AnalyzerOptions {
        explore_jobs: 2,
        spawn_depth: 1,
        ..AnalyzerOptions::default()
    };
    [
        (
            "fixpoint",
            Strategy::WideningFixpoint,
            AnalyzerOptions::default(),
        ),
        ("path", Strategy::PathSensitive, AnalyzerOptions::default()),
        (
            "path/unroll=4",
            Strategy::PathSensitive,
            AnalyzerOptions {
                unroll_k: 4,
                ..AnalyzerOptions::default()
            },
        ),
        ("parshard", Strategy::PathParallel, parallel.clone()),
        (
            "parshard/unroll=4",
            Strategy::PathParallel,
            AnalyzerOptions {
                unroll_k: 4,
                ..parallel
            },
        ),
    ]
}

#[test]
fn every_fixture_report_is_pinned_under_every_strategy() {
    let mut fixtures: Vec<_> = std::fs::read_dir("fixtures")
        .expect("fixtures directory")
        .map(|entry| entry.expect("fixture entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "ebpf"))
        .collect();
    fixtures.sort();
    let names: Vec<String> = fixtures
        .iter()
        .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
        .collect();
    assert_eq!(
        names,
        [
            "arith_mix",
            "branch_guard",
            "map_filter",
            "map_update_loop",
            "masked_store",
            "memset_loop",
            "spill_loop",
            "two_back_edge",
        ],
        "the pinned fixture set changed"
    );
    // One row per configuration, one hash per fixture in the order above.
    // The parallel rows equal the path rows except `two_back_edge` at
    // unroll 4: a job spawned inside that loop starts its own loop-head
    // summary, so it widens from a different state than the sequential
    // walk does. The pin records that output as it stands.
    let pinned: [[u64; 8]; 5] = [
        [
            0x660d_da57_cb57_7584,
            0x0dc3_6f58_0460_de2e,
            0xf520_ab88_02e5_3f70,
            0x7016_be8c_93a3_4585,
            0x4b9d_d02d_7b0d_aba0,
            0x4885_586c_8415_fa8b,
            0x4320_a459_d68d_4f57,
            0x7e2d_ceac_49be_8500,
        ],
        [
            0x660d_da57_cb57_7584,
            0x0dc3_6f58_0460_de2e,
            0xf520_ab88_02e5_3f70,
            0xc246_c8b2_b37c_b7c9,
            0x4b9d_d02d_7b0d_aba0,
            0x0c12_7f33_5cfd_87ed,
            0x5faa_1057_506c_8c65,
            0x0456_0682_4836_c571,
        ],
        [
            0x660d_da57_cb57_7584,
            0x0dc3_6f58_0460_de2e,
            0xf520_ab88_02e5_3f70,
            0xe1be_7c74_8bef_e9d5,
            0x4b9d_d02d_7b0d_aba0,
            0x0377_034a_b1fc_26ad,
            0x6bc3_f26b_9749_ef37,
            0x8b30_3caf_656a_6506,
        ],
        [
            0x660d_da57_cb57_7584,
            0x0dc3_6f58_0460_de2e,
            0xf520_ab88_02e5_3f70,
            0xc246_c8b2_b37c_b7c9,
            0x4b9d_d02d_7b0d_aba0,
            0x0c12_7f33_5cfd_87ed,
            0x5faa_1057_506c_8c65,
            0x0456_0682_4836_c571,
        ],
        [
            0x660d_da57_cb57_7584,
            0x0dc3_6f58_0460_de2e,
            0xf520_ab88_02e5_3f70,
            0xe1be_7c74_8bef_e9d5,
            0x4b9d_d02d_7b0d_aba0,
            0x0377_034a_b1fc_26ad,
            0x6bc3_f26b_9749_ef37,
            0x07b0_f6ff_2ff2_a0be,
        ],
    ];
    let mut got = [[0u64; 8]; 5];
    for (row, (label, strategy, options)) in configurations().into_iter().enumerate() {
        for (col, path) in fixtures.iter().enumerate() {
            let source = std::fs::read_to_string(path).expect("fixture reads");
            let prog = assemble(&source).expect("fixture assembles");
            let analysis = VerificationSession::new()
                .with_strategy(strategy)
                .with_options(options.clone())
                .run(&prog)
                .unwrap_or_else(|e| panic!("{} rejected under {label}: {e}", names[col]));
            got[row][col] = report_hash(&analysis, prog.len());
        }
    }
    for (row, (label, ..)) in configurations().iter().enumerate() {
        for (col, name) in names.iter().enumerate() {
            assert_eq!(
                got[row][col], pinned[row][col],
                "{name} under {label}: the per-pc report changed (all hashes: {got:#x?})"
            );
        }
    }
}
