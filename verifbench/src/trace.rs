//! The traced run: spans recorded around each public call the benchmark
//! makes, and the per-layer ledger built from them.
//!
//! The verifier has no spans of its own, so the layers inside
//! `VerificationSession::run` are reached by timing their public entry
//! points separately on the same program: `explore_with` is a logical
//! child of `run`, and `Cfg::build` and `ProgramPasses::compute` (which
//! `explore_with` recomputes internally) are logical children of
//! `explore`. A span's self time is its duration minus its children's,
//! so `session.run` self time is the session overhead (`catch_unwind`,
//! the degradation loop, result wrapping) and `explore` self time is the
//! strategy's own walk. The self times of a program's subtree add up to
//! its `session.run` span by construction.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use ebpf::{AluOp, Insn, Program, Src, Width};
use tnum::Tnum;
use verifier::transfer::Transfer;
use verifier::{
    AbsState, Analysis, AnalysisStats, AnalyzerOptions, Cfg, ProgramPasses, Scalar, Strategy,
};

use crate::corpus::Workload;
use crate::engine::{insn_class, Governance, STEP_METRICS, THREADS};
use crate::measure::{round, Prepared, Rounds, Tally};
use crate::stats::median;

/// One recorded span; `parent` is an index into the span list.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<u32>,
    pub program: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans kept in memory, written out at exit.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    pub fn begin(&mut self, name: &'static str, parent: Option<u32>, program: u32) -> u32 {
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            parent,
            program,
            start_ns,
            end_ns: start_ns,
        });
        (self.spans.len() - 1) as u32
    }

    /// Resets the start of span `id` to now.
    pub fn restart(&mut self, id: u32) {
        self.spans[id as usize].start_ns = self.origin.elapsed().as_nanos() as u64;
    }

    pub fn end(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        program: u32,
        f: impl FnOnce() -> R,
    ) -> (u32, R) {
        let id = self.begin(name, parent, program);
        let r = f();
        self.end(id);
        (id, r)
    }

    fn duration(&self, i: usize) -> i64 {
        (self.spans[i].end_ns - self.spans[i].start_ns) as i64
    }

    /// Each span's duration minus its children's.
    pub fn self_ns(&self) -> Vec<i64> {
        let mut own: Vec<i64> = (0..self.spans.len()).map(|i| self.duration(i)).collect();
        for (i, span) in self.spans.iter().enumerate() {
            if let Some(p) = span.parent {
                own[p as usize] -= self.duration(i);
            }
        }
        own
    }

    /// `(Σ self ns, count)` per span name over spans `from..`.
    pub fn self_by_name(&self, from: usize) -> BTreeMap<&'static str, (i64, u64)> {
        let own = self.self_ns();
        let mut out: BTreeMap<&'static str, (i64, u64)> = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate().skip(from) {
            let e = out.entry(span.name).or_default();
            e.0 += own[i];
            e.1 += 1;
        }
        out
    }

    /// Writes one tab-separated line per span.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tprogram\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, i64::from);
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.program, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Seconds the ledger passes repeat for (at least one pass).
const LEDGER_SECONDS: f64 = 1.0;

/// Seconds each replay probe repeats for.
const REPLAY_SECONDS: f64 = 0.05;

/// Repetitions of the jobs-1-vs-2 and sequential-vs-parallel probes.
const PROBE_REPS: usize = 2;

/// Programs per `run_batch` call in the batch probe.
const PROBE_BATCH: usize = 16;

/// The per-layer metrics of one traced run, in report order:
/// `(name, value, unit)`.
pub type Layers = Vec<(&'static str, f64, &'static str)>;

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Sums the statistics of accepted analyses.
fn sum_stats(all: impl IntoIterator<Item = AnalysisStats>) -> AnalysisStats {
    let mut t = AnalysisStats::default();
    for s in all {
        t.states_allocated += s.states_allocated;
        t.states_shared += s.states_shared;
        t.joins_short_circuited += s.joins_short_circuited;
        t.widenings_applied += s.widenings_applied;
        t.visits += s.visits;
        t.states_pruned += s.states_pruned;
        t.subset_checks += s.subset_checks;
        t.fingerprint_rejects += s.fingerprint_rejects;
        t.visited_evicted += s.visited_evicted;
        t.bytes_materialized += s.bytes_materialized;
        t.memo_hits += s.memo_hits;
        t.memo_misses += s.memo_misses;
        t.memo_evicted += s.memo_evicted;
        t.subtrees_spawned += s.subtrees_spawned;
        t.steals += s.steals;
        t.shared_prunes += s.shared_prunes;
        t.degradations += s.degradations;
    }
    t
}

/// One ledger pass: per program, `from_bytes`, `run`, and the replayed
/// layer calls, each in its span. Returns the `run` results.
fn ledger_pass(
    workload: Workload,
    prep: &Prepared,
    tracer: &mut Tracer,
    gov: &mut Governance,
    tally: &mut Tally,
) -> Vec<Option<Analysis>> {
    let strategy = workload.strategy().implementation();
    let mut out = Vec::with_capacity(prep.progs.len());
    for (i, item) in prep.corpus.items.iter().enumerate() {
        let id = i as u32;
        let program = tracer.begin("program", None, id);
        let (_, prog) = tracer.time("ebpf.from_bytes", Some(program), id, || {
            Program::from_bytes(&item.bytes).expect("generated bytes decode")
        });
        // One untimed run first, whose result is the pass's verdict and
        // analysis, so the timed calls below all start from warm caches
        // rather than the first paying for the second. Each timed call
        // gets a fresh session (a cold memo, as in the timed rounds) and
        // drops its result inside its span, so both see the same heap.
        let result = workload.session().run(&prog);
        // Which of the two goes first alternates, so neither gains from
        // the other's warm-up on average.
        let run = tracer.begin("session.run", Some(program), id);
        let explore = tracer.begin("explore", Some(run), id);
        for first in [i % 2 == 0, i % 2 == 1] {
            let session = workload.session();
            let span = if first { run } else { explore };
            tracer.restart(span);
            if first {
                black_box(session.run(&prog).is_ok());
            } else {
                black_box(session.explore_with(strategy, &prog).is_ok());
            }
            tracer.end(span);
        }
        let (_, cfg) = tracer.time("cfg.build", Some(explore), id, || Cfg::build(&prog));
        tracer.time("passes.compute", Some(explore), id, || {
            black_box(ProgramPasses::compute(&prog, &cfg));
        });
        tracer.end(program);
        tally.record(gov.judge(&result, item.answer));
        out.push(result.ok());
    }
    out
}

/// Per-class `Transfer::step` cost, replayed on the reported states.
fn replay_steps(workload: Workload, prep: &Prepared, analyses: &[Option<Analysis>]) -> [f64; 4] {
    let transfer = Transfer::new(AnalyzerOptions {
        memo_cache: None,
        ..workload.options()
    });
    let mut work: [Vec<(usize, usize, AbsState)>; 4] = Default::default();
    for (i, a) in analyses.iter().enumerate() {
        let Some(a) = a else { continue };
        let prog = &prep.progs[i];
        for pc in 0..prog.len() {
            if let Some(state) = a.state_before(pc) {
                work[insn_class(prog.insns()[pc])].push((i, pc, state.clone()));
            }
        }
    }
    work.map(|steps| {
        repeat_ns(steps.len(), || {
            for (i, pc, state) in &steps {
                black_box(transfer.step(&prep.progs[*i], state.clone(), *pc).is_ok());
            }
        })
    })
}

/// Runs `pass` (which does `ops` operations) until [`REPLAY_SECONDS`]
/// have passed; ns per operation, or 0 when there is nothing to do.
fn repeat_ns(ops: usize, mut pass: impl FnMut()) -> f64 {
    if ops == 0 {
        return 0.0;
    }
    let start = Instant::now();
    let mut reps = 0u64;
    while reps == 0 || start.elapsed().as_secs_f64() < REPLAY_SECONDS {
        pass();
        reps += 1;
    }
    start.elapsed().as_nanos() as f64 / (reps as f64 * ops as f64)
}

/// The scalar operands of every reachable ALU instruction, as reported.
fn alu_operands(
    prep: &Prepared,
    analyses: &[Option<Analysis>],
) -> Vec<(Width, AluOp, Scalar, Scalar)> {
    let mut out = Vec::new();
    for (i, a) in analyses.iter().enumerate() {
        let Some(a) = a else { continue };
        for (pc, insn) in prep.progs[i].insns().iter().enumerate() {
            let (
                Insn::Alu {
                    width,
                    op,
                    dst,
                    src,
                },
                Some(state),
            ) = (*insn, a.state_before(pc))
            else {
                continue;
            };
            if matches!(op, AluOp::Mov | AluOp::Neg) {
                continue;
            }
            let rhs = match src {
                Src::Reg(r) => state.reg(r).as_scalar(),
                Src::Imm(k) => Some(Scalar::constant(i64::from(k) as u64)),
            };
            if let (Some(lhs), Some(rhs)) = (state.reg(dst).as_scalar(), rhs) {
                out.push((width, op, lhs, rhs));
            }
        }
    }
    out
}

/// `Scalar::alu` ns/op, then `Tnum::mul` and `Tnum::mul_kernel_legacy`
/// ns/op on the reported mul operands.
fn replay_ops(ops: &[(Width, AluOp, Scalar, Scalar)]) -> (f64, f64, f64) {
    let alu = repeat_ns(ops.len(), || {
        for &(w, op, l, r) in ops {
            black_box(black_box(l).alu(w, op, black_box(r)));
        }
    });
    let muls: Vec<(Tnum, Tnum)> = ops
        .iter()
        .filter(|o| o.1 == AluOp::Mul)
        .map(|o| (o.2.tnum(), o.3.tnum()))
        .collect();
    let (mut ours, mut kernel) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        ours.push(repeat_ns(muls.len(), || {
            for &(p, q) in &muls {
                black_box(black_box(p).mul(black_box(q)));
            }
        }));
        kernel.push(repeat_ns(muls.len(), || {
            for &(p, q) in &muls {
                black_box(black_box(p).mul_kernel_legacy(black_box(q)));
            }
        }));
    }
    (alu, median(&ours), median(&kernel))
}

/// The same batches at jobs 1 vs 2: `(speedup, imbalance)`, where
/// imbalance is the mean over jobs-2 batches of max/mean worker visits.
fn batch_probe(workload: Workload, prep: &Prepared) -> (f64, f64) {
    let (mut t1, mut t2) = (0.0, 0.0);
    let mut imbalance = Vec::new();
    for _ in 0..PROBE_REPS {
        for batch in prep.progs.chunks(PROBE_BATCH) {
            let start = Instant::now();
            black_box(workload.session().run_batch(batch, 1).stats.accepted);
            t1 += start.elapsed().as_secs_f64();
            let start = Instant::now();
            let report = workload.session().run_batch(batch, THREADS);
            t2 += start.elapsed().as_secs_f64();
            let visits = &report.stats.per_worker_visits;
            let mean = visits.iter().sum::<u64>() as f64 / visits.len().max(1) as f64;
            let max = visits.iter().copied().max().unwrap_or(0) as f64;
            if mean > 0.0 {
                imbalance.push(max / mean);
            }
        }
    }
    let imbalance = if imbalance.is_empty() {
        0.0
    } else {
        imbalance.iter().sum::<f64>() / imbalance.len() as f64
    };
    (ratio(t1, t2), imbalance)
}

/// `PathSensitive` vs `PathParallel` (2 explorer jobs) wall time on the
/// same programs, and the summed statistics of the parallel runs' first
/// repetition — the parallel explorer's counters on every workload's
/// corpus.
fn parshard_probe(workload: Workload, prep: &Prepared) -> (f64, AnalysisStats) {
    let (mut seq, mut par) = (0.0, 0.0);
    let mut par_stats = Vec::new();
    for rep in 0..PROBE_REPS {
        for prog in &prep.progs {
            let start = Instant::now();
            let sequential = workload.session_with(Strategy::PathSensitive).run(prog);
            seq += start.elapsed().as_secs_f64();
            black_box(sequential.is_ok());
            let start = Instant::now();
            let parallel = workload.session_with(Strategy::PathParallel).run(prog);
            par += start.elapsed().as_secs_f64();
            if let (0, Ok(a)) = (rep, &parallel) {
                par_stats.push(a.stats());
            }
        }
    }
    (ratio(seq, par), sum_stats(par_stats))
}

/// Everything a traced run reports besides its spans.
pub struct TracedRun {
    pub layers: Layers,
    /// Per program: `session.run` mean ns and the mean self times that
    /// account for it, for the printed ledger.
    pub accounting: Vec<(&'static str, f64)>,
}

/// The traced run after set-up: alternating untraced and traced rounds
/// for `seconds`, the ledger passes, the replay probes and the
/// comparison probes.
pub fn traced_run(
    workload: Workload,
    prep: &Prepared,
    seconds: f64,
    tracer: &mut Tracer,
    gov: &mut Governance,
    tally: &mut Tally,
) -> TracedRun {
    let n = prep.progs.len() as f64;
    let (mut plain, mut traced) = (Rounds::default(), Rounds::default());
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        round(workload, prep, gov, tally, &mut plain, None);
        round(workload, prep, gov, tally, &mut traced, Some(tracer));
    }
    let pps = |r: &Rounds| {
        median(
            &r.round_ns
                .iter()
                .map(|&ns| n / (ns as f64 * 1e-9))
                .collect::<Vec<_>>(),
        )
    };
    let (plain_pps, traced_pps) = (pps(&plain), pps(&traced));

    let ledger_from = tracer.spans.len();
    let mut passes = 0u64;
    let mut analyses = Vec::new();
    let start = Instant::now();
    while passes == 0 || start.elapsed().as_secs_f64() < LEDGER_SECONDS {
        let results = ledger_pass(workload, prep, tracer, gov, tally);
        if passes == 0 {
            analyses = results;
        }
        passes += 1;
    }
    let by_name = tracer.self_by_name(ledger_from);
    let per_program = |name: &str| {
        by_name
            .get(name)
            .map_or(0.0, |&(ns, count)| ns as f64 / count as f64)
    };
    // Explore self time of accepted programs only, to match the visits
    // their analyses report.
    let own = tracer.self_ns();
    let accepted_explore_ns: i64 = tracer.spans[ledger_from..]
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "explore" && analyses[s.program as usize].is_some())
        .map(|(k, _)| own[ledger_from + k])
        .sum();

    let stats = sum_stats(analyses.iter().flatten().map(Analysis::stats));

    let steps = replay_steps(workload, prep, &analyses);
    let (alu_ns, mul_ns, mul_kernel_ns) = replay_ops(&alu_operands(prep, &analyses));
    let (batch_speedup, batch_imbalance) = batch_probe(workload, prep);
    let (parshard_speedup, parallel) = parshard_probe(workload, prep);

    let runs: Vec<f64> = tracer.spans[ledger_from..]
        .iter()
        .filter(|s| s.name == "session.run")
        .map(|s| (s.end_ns - s.start_ns) as f64)
        .collect();
    let session_span = runs.iter().sum::<f64>() / runs.len() as f64;
    let overhead_ns = per_program("session.run");
    let accounting = vec![
        ("session.run span", session_span),
        ("  session overhead (self)", overhead_ns),
        ("  explore (self)", per_program("explore")),
        ("  cfg.build", per_program("cfg.build")),
        ("  passes.compute", per_program("passes.compute")),
    ];

    let mut layers: Layers = vec![
        ("ebpf.from_bytes_ns", per_program("ebpf.from_bytes"), "ns"),
        ("cfg.build_ns", per_program("cfg.build"), "ns"),
        ("passes.compute_ns", per_program("passes.compute"), "ns"),
        ("explore.self_ns", per_program("explore"), "ns"),
        ("explore.visits", stats.visits as f64, "count"),
        (
            "explore.ns_per_visit",
            ratio(accepted_explore_ns as f64, (passes * stats.visits) as f64),
            "ns",
        ),
        ("session.run_ns", session_span, "ns"),
        ("session.overhead_ns", overhead_ns, "ns"),
    ];
    layers.extend(
        STEP_METRICS
            .into_iter()
            .zip(steps)
            .map(|(name, ns)| (name, ns, "ns")),
    );
    let total_states = (stats.states_shared + stats.states_allocated) as f64;
    layers.extend([
        ("scalar.alu_ns", alu_ns, "ns"),
        ("tnum.mul_ns", mul_ns, "ns"),
        ("tnum.mul_kernel_ns", mul_kernel_ns, "ns"),
        ("tnum.mul_ratio", ratio(mul_ns, mul_kernel_ns), "ratio"),
        ("state.allocated", stats.states_allocated as f64, "count"),
        (
            "state.bytes_materialized",
            stats.bytes_materialized as f64,
            "bytes",
        ),
        (
            "state.share_ratio",
            ratio(stats.states_shared as f64, total_states),
            "ratio",
        ),
        ("visited.subset_checks", stats.subset_checks as f64, "count"),
        (
            "visited.fingerprint_rejects",
            stats.fingerprint_rejects as f64,
            "count",
        ),
        ("visited.pruned", stats.states_pruned as f64, "count"),
        ("visited.evicted", stats.visited_evicted as f64, "count"),
        (
            "visited.prune_ratio",
            ratio(stats.states_pruned as f64, stats.subset_checks as f64),
            "ratio",
        ),
        ("memo.hits", stats.memo_hits as f64, "count"),
        ("memo.misses", stats.memo_misses as f64, "count"),
        (
            "memo.hit_ratio",
            ratio(
                stats.memo_hits as f64,
                (stats.memo_hits + stats.memo_misses) as f64,
            ),
            "ratio",
        ),
        ("memo.evicted", stats.memo_evicted as f64, "count"),
        (
            "fixpoint.widenings",
            stats.widenings_applied as f64,
            "count",
        ),
        (
            "fixpoint.joins_short_circuited",
            stats.joins_short_circuited as f64,
            "count",
        ),
        ("batch.speedup", batch_speedup, "ratio"),
        ("batch.imbalance", batch_imbalance, "ratio"),
        ("parshard.speedup", parshard_speedup, "ratio"),
        (
            "parshard.subtrees_spawned",
            parallel.subtrees_spawned as f64,
            "count",
        ),
        ("parshard.steals", parallel.steals as f64, "count"),
        (
            "parshard.shared_prunes",
            parallel.shared_prunes as f64,
            "count",
        ),
        (
            "governance.degradations",
            stats.degradations as f64,
            "count",
        ),
        (
            "governance.deadline_exceeded",
            gov.deadline_exceeded as f64,
            "count",
        ),
        (
            "governance.internal_faults",
            gov.internal_faults as f64,
            "count",
        ),
        ("trace.programs_per_s", traced_pps, "1/s"),
        (
            "trace.overhead_pct",
            (ratio(plain_pps, traced_pps) - 1.0) * 100.0,
            "%",
        ),
    ]);
    TracedRun { layers, accounting }
}
