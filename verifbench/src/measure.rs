//! Set-up, the timed closed loop, and the correctness pass.

use std::time::Instant;

use ebpf::Program;

use crate::corpus::{Corpus, Workload};
use crate::engine::{unknown_bits, vm_faults, Governance};
use crate::stats::{median, percentile, TAIL, TAIL_WINDOW};
use crate::trace::Tracer;

/// Complete set-ups per run. The first runs before the timed rounds,
/// the rest are spread evenly between them, so they sample the whole run
/// rather than one moment of it; `setup_s` is their
/// [`HOLD`](crate::stats::HOLD) quantile.
pub const SETUPS: usize = 21;

/// A decoded corpus ready to verify.
pub struct Prepared {
    pub corpus: Corpus,
    pub progs: Vec<Program>,
}

impl Prepared {
    /// Verifies program `i` with a fresh session; `true` when the
    /// verdict matches its known answer.
    pub fn verify(&self, workload: Workload, i: usize, gov: &mut Governance) -> bool {
        let result = workload.session().run(&self.progs[i]);
        gov.judge(&result, self.corpus.items[i].answer)
    }
}

/// Verifications attempted and verdicts that were wrong.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub wrong: u64,
}

impl Tally {
    pub fn record(&mut self, correct: bool) {
        self.attempted += 1;
        self.wrong += u64::from(!correct);
    }
}

/// One set-up: generate the corpus, encode it to bytes, decode it with
/// `Program::from_bytes`, and run one untimed warm-up pass, checking
/// every verdict.
pub fn prepare(workload: Workload, seed: u64, gov: &mut Governance, tally: &mut Tally) -> Prepared {
    let corpus = Corpus::generate(workload, seed);
    let progs = corpus.decode();
    let prep = Prepared { corpus, progs };
    for i in 0..prep.progs.len() {
        tally.record(prep.verify(workload, i, gov));
    }
    prep
}

/// What the timed rounds recorded, reduced as they go so the benchmark's
/// own memory stays flat: each round's length and median latency, the
/// tail of each window of whole rounds holding at least
/// [`TAIL_WINDOW`] samples, and the samples (ns, in submission order) of
/// the last complete window.
#[derive(Default)]
pub struct Rounds {
    pub round_ns: Vec<u64>,
    pub round_p50: Vec<f64>,
    pub window_p99: Vec<f64>,
    pub window: Vec<u64>,
    pub samples: usize,
    current: Vec<u64>,
}

impl Rounds {
    fn close_round(&mut self, per_round: usize) {
        let mut round = self.current[self.current.len() - per_round..].to_vec();
        round.sort_unstable();
        self.round_p50
            .push(median(&round.iter().map(|&x| x as f64).collect::<Vec<_>>()));
        if self.current.len() >= TAIL_WINDOW {
            self.close_window();
        }
    }

    fn close_window(&mut self) {
        let mut sorted = self.current.clone();
        sorted.sort_unstable();
        self.window_p99.push(percentile(&sorted, TAIL) as f64);
        self.window = std::mem::take(&mut self.current);
    }

    /// Closes a partial window when the run was shorter than one.
    pub fn finish(&mut self) {
        if self.window_p99.is_empty() && !self.current.is_empty() {
            self.close_window();
        }
    }
}

/// One pass over the corpus, each program with a fresh session. With a
/// tracer, each program also gets a span under one `round` span.
pub fn round(
    workload: Workload,
    prep: &Prepared,
    gov: &mut Governance,
    tally: &mut Tally,
    out: &mut Rounds,
    mut tracer: Option<&mut Tracer>,
) {
    let per_round = prep.progs.len();
    let round_span = tracer.as_deref_mut().map(|t| t.begin("round", None, 0));
    let start = Instant::now();
    for i in 0..per_round {
        let span = tracer
            .as_deref_mut()
            .map(|t| t.begin("verify", round_span, i as u32));
        let t0 = Instant::now();
        let correct = prep.verify(workload, i, gov);
        out.current.push(t0.elapsed().as_nanos() as u64);
        if let (Some(t), Some(id)) = (tracer.as_deref_mut(), span) {
            t.end(id);
        }
        tally.record(correct);
    }
    out.round_ns.push(start.elapsed().as_nanos() as u64);
    out.samples += per_round;
    out.close_round(per_round);
    if let (Some(t), Some(id)) = (tracer, round_span) {
        t.end(id);
    }
}

/// Whole untraced rounds until `seconds` have passed, with the set-ups
/// after the first spread evenly between them; their times are pushed
/// onto `setup_times`.
pub fn timed_rounds(
    workload: Workload,
    prep: &Prepared,
    seconds: f64,
    seed: u64,
    setup_times: &mut Vec<f64>,
    gov: &mut Governance,
    tally: &mut Tally,
) -> Rounds {
    let mut out = Rounds::default();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        round(workload, prep, gov, tally, &mut out, None);
        let due = setup_times.len() as f64 * seconds / SETUPS as f64;
        if setup_times.len() < SETUPS && start.elapsed().as_secs_f64() >= due {
            let t = Instant::now();
            drop(prepare(workload, seed, gov, tally));
            setup_times.push(t.elapsed().as_secs_f64());
        }
    }
    out.finish();
    out
}

/// The correctness pass: every verdict against its known answer, every
/// accepted program through the VM, and the precision of every
/// accepted analysis.
#[derive(Clone, Copy, Debug, Default)]
pub struct Check {
    pub tally: Tally,
    pub accepted: u64,
    pub vm_faults: u64,
    pub unknown_bits: u64,
}

pub fn check_pass(workload: Workload, prep: &Prepared, seed: u64, gov: &mut Governance) -> Check {
    let mut check = Check::default();
    for (i, (prog, item)) in prep.progs.iter().zip(&prep.corpus.items).enumerate() {
        let result = workload.session().run(prog);
        check.tally.record(gov.judge(&result, item.answer));
        if let Ok(analysis) = &result {
            check.accepted += 1;
            check.unknown_bits += unknown_bits(analysis, prog);
            check.vm_faults += u64::from(vm_faults(prog, seed ^ i as u64) > 0);
        }
    }
    check
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}
