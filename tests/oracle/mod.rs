//! The program-level soundness oracle shared by the differential suites.
//!
//! The paper earns its soundness claims by checking every tnum operator
//! against concrete semantics; this module applies the same check to the
//! verifier as a whole. A [`Case`] is a program, the reference
//! configuration it is verified under and the concrete inputs the VM
//! runs it on. [`check`] runs the reference and asserts each requested
//! [`Relation`]:
//!
//! * [`Relation::Sound`]: every accepted run contains the VM — on every
//!   input the VM runs without fault, and every traced scalar lies in the
//!   state reported before its pc;
//! * on every accepted fixpoint run, whatever the relations: the heads
//!   its narrowing walks were checked from are re-walked with the strict
//!   checks and must cover every reachable state
//!   ([`assert_covering_heads`]);
//! * the differential relations: a strategy, an ablation knob or an
//!   execution layer (the parallel walk, the memo, the batch engine)
//!   never changes a verdict, and where it promises to, never changes a
//!   report.
//!
//! A campaign is a generator from [`gen`], a seed, a round count, a
//! configuration matrix and the relations that hold. [`cases`] pins the
//! hash of the generated program bytes, so no generator change can
//! silently change the data a campaign runs on.

// Each suite compiles this module on its own and uses only its slice.
#![allow(dead_code)]

use std::sync::Arc;

use domain::rng::SplitMix64;
use ebpf::{Program, Reg, Vm};
use verifier::transfer::Transfer;
use verifier::{
    AbsState, Analysis, AnalyzerOptions, Cfg, ProgramPasses, RegValue, Strategy, TransferMemo,
    VerificationSession, VerifierError,
};

pub mod gen;

/// A program, its reference configuration and its concrete inputs.
#[derive(Clone)]
pub struct Case {
    /// Names the case in failure messages (a round or a fixture).
    pub name: String,
    pub prog: Program,
    /// The strategy of the reference run every relation compares with.
    pub strategy: Strategy,
    /// The options of the reference run.
    pub options: AnalyzerOptions,
    /// Context buffers the VM runs the program on ([`Relation::Sound`]).
    pub ctxs: Vec<Vec<u8>>,
    /// Map-0 entries stored in the VM before each run.
    pub map0: Vec<(u32, u64)>,
    /// The value every VM run must return, when known by construction.
    pub ret: Option<u64>,
    /// The cache [`Relation::Memo`] runs with. `None` gives each memo
    /// run a fresh one; cases that hold one `Arc` share it, so later
    /// runs are served by entries earlier programs and strategies wrote.
    pub memo: Option<Arc<TransferMemo>>,
}

impl Case {
    /// A case under the default session, run on one zeroed 8-byte
    /// context.
    pub fn new(name: impl Into<String>, prog: Program) -> Case {
        Case {
            name: name.into(),
            prog,
            strategy: Strategy::WideningFixpoint,
            options: AnalyzerOptions::default(),
            ctxs: vec![vec![0; 8]],
            map0: Vec::new(),
            ret: None,
            memo: None,
        }
    }

    /// [`Case::new`] for assembly source.
    pub fn asm(source: &str) -> Case {
        Case::new("asm", ebpf::asm::assemble(source).expect("assembles"))
    }

    pub fn strategy(mut self, strategy: Strategy) -> Case {
        self.strategy = strategy;
        self
    }

    pub fn options(mut self, options: AnalyzerOptions) -> Case {
        self.options = options;
        self
    }

    pub fn ctxs(mut self, ctxs: impl IntoIterator<Item = Vec<u8>>) -> Case {
        self.ctxs = ctxs.into_iter().collect();
        self
    }

    pub fn ret(mut self, ret: u64) -> Case {
        self.ret = Some(ret);
        self
    }

    pub fn shared_memo(mut self, memo: &Arc<TransferMemo>) -> Case {
        self.memo = Some(Arc::clone(memo));
        self
    }

    /// This case under every strategy × masking × memo × visited-cap
    /// combination, nested in that order.
    pub fn matrix(
        &self,
        strategies: &[Strategy],
        masking: &[bool],
        memos: &[bool],
        caps: &[u32],
    ) -> Vec<Case> {
        let mut out = Vec::new();
        for &strategy in strategies {
            for &liveness_pruning in masking {
                for &memo in memos {
                    for &visited_cap in caps {
                        out.push(self.clone().strategy(strategy).options(AnalyzerOptions {
                            liveness_pruning,
                            memo_cache: memo.then(|| Arc::new(TransferMemo::new())),
                            visited_cap,
                            ..self.options.clone()
                        }));
                    }
                }
            }
        }
        out
    }

    /// The name plus the reference configuration, for failure messages.
    fn label(&self) -> String {
        let o = &self.options;
        format!(
            "{} ({:?}, cap={}, masking={}, memo={}, unroll_k={})",
            self.name,
            self.strategy,
            o.visited_cap,
            o.liveness_pruning,
            o.memo_cache.is_some(),
            o.unroll_k,
        )
    }

    fn fail(&self, msg: &str) -> ! {
        panic!(
            "{}: {msg}\nprogram:\n{}",
            self.label(),
            self.prog.disassemble()
        )
    }
}

/// `rounds` cases from one generator seeded with `seed`, named by round.
/// Asserts that the programs hash to `pinned` (see [`hash`]).
pub fn cases(
    seed: u64,
    rounds: usize,
    pinned: u64,
    mut gen: impl FnMut(&mut SplitMix64, usize) -> Case,
) -> Vec<Case> {
    let mut rng = SplitMix64::new(seed);
    let cases: Vec<Case> = (0..rounds)
        .map(|round| Case {
            name: format!("round {round}"),
            ..gen(&mut rng, round)
        })
        .collect();
    assert_eq!(
        hash(&cases),
        pinned,
        "the campaign's programs changed (seed {seed:#x})"
    );
    cases
}

/// FNV-1a over the byte encoding of every case's program, in order.
fn hash(cases: &[Case]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for b in cases.iter().flat_map(|c| c.prog.to_bytes()) {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// A relation between the reference run of a [`Case`] and the concrete
/// VM or other runs of the same program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Relation {
    /// The reference run accepts.
    Accepts,
    /// The reference run rejects.
    Rejects,
    /// Every accepted run of the check — the reference and the runs the
    /// other relations make — contains the VM on every context: no
    /// fault, every executed pc reachable, every traced scalar in the
    /// state before its pc, the return value in `r0` at the exit, and
    /// the case's known return value.
    Sound,
    /// The path-sensitive explorer gives the reference's verdict (on
    /// loop-free programs joining paths loses nothing a check needs).
    PathAgrees,
    /// Whenever the reference (the fixpoint) accepts, the path-sensitive
    /// explorer accepts by pure unrolling (no widening) and reports a
    /// state inside the reference's at every pc it reaches.
    PathWithin,
    /// Each visited-table cap keeps the reference's verdict and, on
    /// acceptance, its exit state.
    Caps(&'static [u32]),
    /// Liveness masking off keeps the verdict, the rejection text, the
    /// reachable pcs and every live component of every reported state.
    Unmasked,
    /// A transfer memo (the case's [`Case::memo`], else a fresh one) is
    /// consulted and keeps the verdict, the rejection, the report and
    /// the cleaned-component count.
    Memo,
    /// `PathParallel` at every job count × spawn depth reproduces the
    /// reference (`PathSensitive`) verdict, rejection and report.
    Parallel {
        jobs: &'static [u32],
        spawn_depths: &'static [u32],
    },
    /// The program survives the byte encoding and the disassembler.
    RoundTrip,
}

/// What [`check`] saw: the reference result and, under
/// [`Relation::Sound`] on acceptance, one VM run per context (its return
/// value and the VM afterwards, maps included).
pub struct Outcome {
    pub result: Result<Analysis, VerifierError>,
    pub runs: Vec<(u64, Vm)>,
}

/// Runs `case`'s reference configuration and asserts every relation.
///
/// # Panics
///
/// On the first violated relation, naming the case, its configuration
/// and the program.
pub fn check(case: &Case, relations: &[Relation]) -> Outcome {
    let result = run(case, case.strategy, case.options.clone());
    let mut others = Vec::new();
    for &relation in relations {
        match relation {
            Relation::Accepts => {
                if let Err(e) = &result {
                    case.fail(&format!("rejected: {e}"));
                }
            }
            Relation::Rejects => {
                if result.is_ok() {
                    case.fail("accepted, but must reject");
                }
            }
            Relation::Sound => {}
            Relation::PathAgrees => {
                let path = run(case, Strategy::PathSensitive, case.options.clone());
                if path.is_ok() != result.is_ok() {
                    case.fail(&format!("verdicts disagree: {result:?} vs path {path:?}"));
                }
                others.extend(path);
            }
            Relation::PathWithin => {
                if let Ok(fixpoint) = &result {
                    let path = run(case, Strategy::PathSensitive, case.options.clone())
                        .unwrap_or_else(|e| case.fail(&format!("path rejected: {e}")));
                    if path.stats().widenings_applied != 0 {
                        case.fail("path exploration widened (must be pure unrolling)");
                    }
                    for pc in 0..case.prog.len() {
                        match (path.state_before(pc), fixpoint.state_before(pc)) {
                            (Some(p), Some(f)) if !p.is_subset_of(f) => {
                                case.fail(&format!("pc {pc}: path state not inside fixpoint's"))
                            }
                            (Some(_), None) => case.fail(&format!("pc {pc}: only path reaches")),
                            _ => {}
                        }
                    }
                    others.push(path);
                }
            }
            Relation::Caps(caps) => {
                for &visited_cap in caps {
                    let capped = run(
                        case,
                        case.strategy,
                        AnalyzerOptions {
                            visited_cap,
                            ..case.options.clone()
                        },
                    );
                    assert_same_exit(
                        case,
                        &format!("visited_cap={visited_cap}"),
                        &capped,
                        &result,
                    );
                    others.extend(capped);
                }
            }
            Relation::Unmasked => {
                let unmasked = run(
                    case,
                    case.strategy,
                    AnalyzerOptions {
                        liveness_pruning: false,
                        ..case.options.clone()
                    },
                );
                assert_same_live(case, &result, &unmasked);
                others.extend(unmasked);
            }
            Relation::Memo => {
                let memo_cache = case.memo.clone().unwrap_or_default();
                let memo = VerificationSession::new()
                    .with_strategy(case.strategy)
                    .with_options(AnalyzerOptions {
                        memo_cache: Some(memo_cache),
                        ..case.options.clone()
                    })
                    .run(&case.prog);
                if let (Ok(a), Ok(b)) = (&result, &memo) {
                    let (sa, sb) = (a.stats(), b.stats());
                    if case.options.memo_cache.is_none() && sa.memo_hits + sa.memo_misses != 0 {
                        case.fail(&format!("memo traffic without a memo: {sa:?}"));
                    }
                    if sb.memo_hits + sb.memo_misses == 0 {
                        case.fail(&format!("the memo was never consulted: {sb:?}"));
                    }
                    if sa.dead_components_cleared != sb.dead_components_cleared {
                        case.fail(&format!("the memo changed cleaning: {sa:?} vs {sb:?}"));
                    }
                }
                assert_same_report(case, "memo", &memo, &result);
                others.extend(memo);
            }
            Relation::Parallel { jobs, spawn_depths } => {
                for &explore_jobs in jobs {
                    for &spawn_depth in spawn_depths {
                        let parallel = run(
                            case,
                            Strategy::PathParallel,
                            AnalyzerOptions {
                                explore_jobs,
                                spawn_depth,
                                ..case.options.clone()
                            },
                        );
                        let what = format!("jobs={explore_jobs}, spawn_depth={spawn_depth}");
                        assert_same_report(case, &what, &parallel, &result);
                        others.extend(parallel);
                    }
                }
            }
            Relation::RoundTrip => {
                let decoded = Program::from_bytes(&case.prog.to_bytes()).expect("decodes");
                let reassembled =
                    ebpf::asm::assemble(&case.prog.disassemble()).expect("disassembly assembles");
                if decoded != case.prog || reassembled != case.prog {
                    case.fail("byte or text round trip changed the program");
                }
            }
        }
    }
    let mut runs = Vec::new();
    if relations.contains(&Relation::Sound) {
        let accepted: Vec<&Analysis> = result.iter().chain(&others).collect();
        if !accepted.is_empty() {
            runs = case
                .ctxs
                .iter()
                .map(|ctx| assert_sound(case, ctx, &accepted))
                .collect();
        }
    }
    Outcome { result, runs }
}

/// One verifier run of `case.prog`. A run with a memo gets a cache of
/// its own, so no run is served by another's; only [`Relation::Memo`]
/// shares [`Case::memo`]. An accepted fixpoint run's checked heads are
/// audited ([`assert_covering_heads`]).
fn run(
    case: &Case,
    strategy: Strategy,
    mut options: AnalyzerOptions,
) -> Result<Analysis, VerifierError> {
    if options.memo_cache.is_some() {
        options.memo_cache = Some(Arc::new(TransferMemo::new()));
    }
    let result = VerificationSession::new()
        .with_strategy(strategy)
        .with_options(options.clone())
        .run(&case.prog);
    if strategy == Strategy::WideningFixpoint && result.is_ok() {
        assert_covering_heads(case, &options);
    }
    result
}

/// Re-walks, with the strict checks of [`Transfer::step`] and apart from
/// the engine, the start heads of every narrowing walk the fixpoint
/// accepted on `case.prog` under `options`: no check may fail, the
/// first accepted walk's heads must be inductive (its arrivals at the
/// heads, entry included, lie inside them), and each later accepted
/// walk's heads must cover the arrivals of the walk before. So the
/// accepted report was checked from states covering every reachable
/// one.
fn assert_covering_heads(case: &Case, options: &AnalyzerOptions) {
    let walks = verifier::fixpoint::narrowing_walks(&case.prog, options).unwrap_or_else(|e| {
        case.fail(&format!(
            "the fixpoint's walks reject ({e}) where its run accepts"
        ))
    });
    let Some(first) = walks.iter().position(|(_, accepted)| *accepted) else {
        return; // an acyclic program: its one pass checked every pc
    };
    let checked: Vec<&Vec<Option<AbsState>>> = walks[first..]
        .iter()
        .take_while(|(_, accepted)| *accepted)
        .map(|(heads, _)| heads)
        .collect();
    let cfg = Cfg::build(&case.prog);
    let transfer = Transfer::new(options.clone());
    let arrivals: Vec<_> = checked
        .iter()
        .map(|heads| strict_walk(case, &cfg, &transfer, heads))
        .collect();
    let inside = |states: &[Option<AbsState>], bounds: &[Option<AbsState>]| {
        states.iter().zip(bounds).all(|pair| match pair {
            (None, _) => true,
            (Some(_), None) => false,
            (Some(s), Some(b)) => s.is_subset_of(b) || !b.clone().flow_join(s, None),
        })
    };
    if !inside(&arrivals[0], checked[0]) {
        case.fail(&format!(
            "walk {first}'s heads are accepted but not inductive"
        ));
    }
    for (i, (arrived, heads)) in arrivals.iter().zip(&checked[1..]).enumerate() {
        if !inside(arrived, heads) {
            case.fail(&format!("walk {}'s heads miss arrivals", first + i + 1));
        }
    }
}

/// Steps every head's segment once from `heads` with the strict checks,
/// returning the arrivals joined at each head (the entry state at pc 0).
fn strict_walk(
    case: &Case,
    cfg: &Cfg,
    transfer: &Transfer,
    heads: &[Option<AbsState>],
) -> Vec<Option<AbsState>> {
    let mut arrivals = vec![None; heads.len()];
    arrivals[0] = Some(AbsState::entry());
    for (head, state) in heads.iter().enumerate() {
        let Some(state) = state else { continue };
        let mut arms = vec![(head, state.clone())];
        while let Some((pc, state)) = arms.pop() {
            let succs = transfer.step(&case.prog, state, pc).unwrap_or_else(|e| {
                case.fail(&format!(
                    "an accepted walk's heads fail a strict check: {e}"
                ))
            });
            for (succ, next) in succs {
                if !cfg.is_checkpoint(succ) {
                    arms.push((succ, next));
                    continue;
                }
                match &mut arrivals[succ] {
                    slot @ None => *slot = Some(next),
                    Some(joined) => {
                        joined.flow_join(&next, None);
                    }
                }
            }
        }
    }
    arrivals
}

/// Runs the VM on `ctx` and asserts that every analysis contains the
/// trace.
fn assert_sound(case: &Case, ctx: &[u8], analyses: &[&Analysis]) -> (u64, Vm) {
    let mut vm = Vm::new();
    for &(key, value) in &case.map0 {
        assert!(vm
            .maps_mut()
            .update(0, &key.to_le_bytes(), &value.to_le_bytes()));
    }
    let (ret, trace) = vm
        .run_traced(&case.prog, &mut ctx.to_vec())
        .unwrap_or_else(|e| case.fail(&format!("accepted, but faults on ctx {ctx:?}: {e}")));
    if let Some(want) = case.ret {
        if ret != want {
            case.fail(&format!("VM returned {ret:#x}, expected {want:#x}"));
        }
    }
    for analysis in analyses {
        let at = |pc: usize| {
            analysis.state_before(pc).unwrap_or_else(|| {
                case.fail(&format!(
                    "{:?} executed unreachable pc {pc}",
                    analysis.strategy()
                ))
            })
        };
        for snap in &trace {
            let state = at(snap.pc);
            for reg in Reg::ALL {
                let value = snap.regs[reg.index()];
                if let RegValue::Scalar(s) = state.reg(reg) {
                    if !s.contains(value) {
                        case.fail(&format!(
                            "pc {} ({:?}, ctx {ctx:?}): {reg} = {value:#x} escapes {s:?}",
                            snap.pc,
                            analysis.strategy(),
                        ));
                    }
                }
            }
        }
        let exit = trace.last().expect("every run executes its exit").pc;
        match at(exit).reg(Reg::R0).as_scalar() {
            Some(r0) if r0.contains(ret) => {}
            r0 => case.fail(&format!(
                "return {ret:#x} escapes r0 = {r0:?} at exit pc {exit}"
            )),
        }
    }
    (ret, vm)
}

/// Same verdict, same rejection, same `annotate` and the same state
/// before every pc.
fn assert_same_report(
    case: &Case,
    what: &str,
    got: &Result<Analysis, VerifierError>,
    want: &Result<Analysis, VerifierError>,
) {
    match (got, want) {
        (Ok(g), Ok(w)) => {
            if g.annotate(&case.prog) != w.annotate(&case.prog) {
                case.fail(&format!("{what}: report diverged"));
            }
            for pc in 0..case.prog.len() {
                if g.state_before(pc) != w.state_before(pc) {
                    case.fail(&format!("{what}: state diverged at pc {pc}"));
                }
            }
        }
        (Err(g), Err(w)) if g == w => {}
        _ => case.fail(&format!("{what}: verdict diverged: {got:?} vs {want:?}")),
    }
}

/// Same verdict and, on acceptance, the same exit state (both sides
/// included in each other) or the same exit unreachability.
fn assert_same_exit(
    case: &Case,
    what: &str,
    got: &Result<Analysis, VerifierError>,
    want: &Result<Analysis, VerifierError>,
) {
    match (got, want) {
        (Ok(g), Ok(w)) => {
            let exit = case.prog.len() - 1;
            let same = match (g.state_before(exit), w.state_before(exit)) {
                (Some(g), Some(w)) => g.is_subset_of(w) && w.is_subset_of(g),
                (g, w) => g.is_none() == w.is_none(),
            };
            if !same {
                case.fail(&format!("{what}: exit state diverged"));
            }
        }
        (Err(_), Err(_)) => {}
        _ => case.fail(&format!("{what}: verdict diverged: {got:?} vs {want:?}")),
    }
}

/// The masked and unmasked runs agree on the verdict, the rejection
/// text, the reachable pcs and every component live at each pc; dead
/// components may differ, since masking cleans them to ⊤.
fn assert_same_live(
    case: &Case,
    masked: &Result<Analysis, VerifierError>,
    unmasked: &Result<Analysis, VerifierError>,
) {
    match (masked, unmasked) {
        (Ok(m), Ok(u)) => {
            let passes = ProgramPasses::compute(&case.prog, &Cfg::build(&case.prog));
            for pc in 0..case.prog.len() {
                match (m.state_before(pc), u.state_before(pc)) {
                    (None, None) => {}
                    (Some(m), Some(u)) => {
                        let live = passes.live_in(pc);
                        let (mut m, mut u) = (m.clone(), u.clone());
                        m.clear_dead(live.regs, live.slots);
                        u.clear_dead(live.regs, live.slots);
                        if !(m.is_subset_of(&u) && u.is_subset_of(&m)) {
                            case.fail(&format!(
                                "masking moved a live component at pc {pc}\
                                 \nmasked:   {m:?}\nunmasked: {u:?}"
                            ));
                        }
                    }
                    _ => case.fail(&format!("masking changed reachability at pc {pc}")),
                }
            }
        }
        (Err(m), Err(u)) if m.to_string() == u.to_string() => {}
        _ => case.fail(&format!(
            "masking changed the verdict: {masked:?} vs unmasked {unmasked:?}"
        )),
    }
}

/// Verdict counts of a campaign, one per case.
#[derive(Debug, Default)]
pub struct Tally {
    pub accepts: u32,
    pub rejects: u32,
}

/// Checks `relations` on every case under every configuration `matrix`
/// derives from it, and tallies each case's verdict under its first
/// configuration.
pub fn campaign(
    cases: &[Case],
    matrix: impl Fn(&Case) -> Vec<Case>,
    relations: &[Relation],
) -> Tally {
    let mut tally = Tally::default();
    for case in cases {
        for (i, config) in matrix(case).iter().enumerate() {
            let accepted = check(config, relations).result.is_ok();
            match (i, accepted) {
                (0, true) => tally.accepts += 1,
                (0, false) => tally.rejects += 1,
                _ => {}
            }
        }
    }
    tally
}

/// The matrix of one configuration: the case as generated.
pub fn as_is(case: &Case) -> Vec<Case> {
    vec![case.clone()]
}

/// The batch engine at each job count, memo off and on, returns every
/// case's reference result, in submission order. All cases share the
/// first case's configuration.
pub fn check_batch(cases: &[Case], jobs: &[usize]) {
    let progs: Vec<Program> = cases.iter().map(|c| c.prog.clone()).collect();
    let reference: Vec<_> = cases
        .iter()
        .map(|c| run(c, c.strategy, c.options.clone()))
        .collect();
    for memo in [false, true] {
        for &jobs in jobs {
            let report = VerificationSession::new()
                .with_strategy(cases[0].strategy)
                .with_options(AnalyzerOptions {
                    memo_cache: memo.then(|| Arc::new(TransferMemo::new())),
                    ..cases[0].options.clone()
                })
                .run_batch(&progs, jobs);
            assert_eq!(report.results.len(), cases.len());
            for ((case, got), want) in cases.iter().zip(&report.results).zip(&reference) {
                assert_same_report(
                    case,
                    &format!("batch (memo={memo}, jobs={jobs})"),
                    got,
                    want,
                );
            }
        }
    }
}

/// One memo shared by a cold and then a warm pass over the corpus: the
/// warm pass is served from the cache, and both passes reproduce the
/// memo-less reference.
pub fn check_warm_memo(cases: &[Case]) {
    let shared = VerificationSession::new()
        .with_strategy(cases[0].strategy)
        .with_options(AnalyzerOptions {
            memo_cache: Some(Arc::new(TransferMemo::new())),
            ..cases[0].options.clone()
        });
    let cold: Vec<_> = cases.iter().map(|c| shared.run(&c.prog)).collect();
    let warm: Vec<_> = cases.iter().map(|c| shared.run(&c.prog)).collect();
    let mut warm_hits = 0;
    for ((case, cold), warm) in cases.iter().zip(&cold).zip(&warm) {
        let reference = run(case, case.strategy, case.options.clone());
        assert_same_report(case, "cold memo", cold, &reference);
        assert_same_report(case, "warm memo", warm, cold);
        warm_hits += warm.as_ref().map_or(0, |a| a.stats().memo_hits);
    }
    assert!(warm_hits > 0, "the warm pass must be served from the cache");
}
