//! Batch-vs-sequential determinism: the batched engine
//! ([`verifier::VerificationSession::run_batch`]) is a pure throughput
//! layer. At every worker count, memo off and on, it must return each
//! program's sequential verdict and report, in submission order — cross-
//! thread scheduling reorders execution, never results, and a memo hit
//! must be indistinguishable from recomputation.

mod oracle;

use oracle::{cases, check_batch, check_warm_memo, gen};

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
