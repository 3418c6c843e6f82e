//! Deterministic fail-point injection for testing the analyzer's own
//! fault tolerance.
//!
//! The batch and parallel layers promise *containment*: a panic, a
//! poisoned lock, or a blown deadline in one program's analysis must
//! never take down its siblings. That promise is only worth something
//! if it is exercised, so this module lets tests (and operators, via
//! the `TNUM_FAILPOINTS` environment variable) register a
//! [`FaultPlan`] — a deterministic schedule of faults keyed on
//! *site × hit-count* — and have the hot paths trigger them at
//! instrumented [`FaultSite`]s.
//!
//! Design constraints, in order:
//!
//! 1. **Zero cost when disarmed.** Production runs carry no plan; the
//!    only overhead at each site is one relaxed atomic load of
//!    [`ARMED`](struct@std::sync::atomic::AtomicBool) and a predicted
//!    branch. No lock is touched.
//! 2. **Deterministic.** A plan fires at exact hit counts, and the
//!    randomized campaign constructor ([`FaultPlan::scattered`]) is
//!    seeded with the same SplitMix64 generator as the rest of the
//!    workspace's fuzz infrastructure — every failure is replayable.
//! 3. **Serialized.** `cargo test` runs tests on concurrent threads,
//!    and the plan is process-global, so [`install`] hands back an
//!    RAII [`FaultGuard`] that holds a global install lock: two
//!    fault-injection tests never interleave, and dropping the guard
//!    always disarms.
//!
//! The sites are chosen so every containment layer is reachable: the
//! per-visit sites sit on the cooperative budget/deadline checks of
//! each strategy, [`FaultSite::MemoInsert`] and
//! [`FaultSite::VisitedProbe`] fire *while the corresponding shard or
//! stripe lock is held* (so an injected panic poisons a real lock,
//! exercising the poison-recovering accessors), and
//! [`FaultSite::ParshardJob`] fires inside a stealable job on a worker
//! thread.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use domain::rng::SplitMix64;

/// An instrumented location in the analyzer where a registered fault
/// plan can fire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultSite {
    /// The widening fixpoint's per-visit budget check
    /// (`fixpoint::run`'s worklist loop).
    FixpointVisit,
    /// The sequential path explorer's per-visit budget check (the
    /// shared path walk under `PathSensitive`).
    PathVisit,
    /// The parallel explorer's per-visit budget check, on a worker
    /// thread inside a stealable job (the shared path walk under
    /// `PathParallel`).
    ParshardJob,
    /// Inside [`TransferMemo::insert`](crate::TransferMemo::insert),
    /// **while the shard lock is held** — a panic here poisons the
    /// shard.
    MemoInsert,
    /// Inside the parallel explorer's shared visited-table probe,
    /// **while the stripe lock is held** — a panic here poisons the
    /// stripe.
    VisitedProbe,
}

/// All sites, for randomized campaigns.
pub const ALL_SITES: [FaultSite; 5] = [
    FaultSite::FixpointVisit,
    FaultSite::PathVisit,
    FaultSite::ParshardJob,
    FaultSite::MemoInsert,
    FaultSite::VisitedProbe,
];

impl FaultSite {
    fn index(self) -> usize {
        match self {
            FaultSite::FixpointVisit => 0,
            FaultSite::PathVisit => 1,
            FaultSite::ParshardJob => 2,
            FaultSite::MemoInsert => 3,
            FaultSite::VisitedProbe => 4,
        }
    }

    /// The spec-string name used by [`FaultPlan::from_spec`].
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::FixpointVisit => "fixpoint-visit",
            FaultSite::PathVisit => "path-visit",
            FaultSite::ParshardJob => "parshard-job",
            FaultSite::MemoInsert => "memo-insert",
            FaultSite::VisitedProbe => "visited-probe",
        }
    }

    fn from_name(name: &str) -> Option<FaultSite> {
        ALL_SITES.into_iter().find(|s| s.name() == name)
    }
}

/// What happens when a planned fault fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic with an `"injected panic …"` string payload. Contained by
    /// the session/batch/parshard `catch_unwind` layers and surfaced
    /// as [`VerifierError::InternalFault`](crate::VerifierError).
    Panic,
    /// Sleep for the given duration — for racing deadlines and
    /// exercising slow-worker paths without changing any verdict.
    Delay(Duration),
    /// Panic like [`FaultAction::Panic`], but the payload says
    /// `"injected poison …"`. Meaningful at the in-lock sites
    /// ([`FaultSite::MemoInsert`], [`FaultSite::VisitedProbe`]), where
    /// the unwind poisons the held lock and the poison-recovering
    /// accessors must carry the siblings through.
    Poison,
}

/// One scheduled fault: fire `action` the `hit`-th time (1-based)
/// execution reaches `site`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Entry {
    site: FaultSite,
    hit: u64,
    action: FaultAction,
}

/// A deterministic schedule of faults, built with the chainable
/// constructors and activated with [`install`].
///
/// Hit counts are 1-based and process-global per site: `panic_at(site,
/// 3)` fires on the third time *any* thread reaches `site` after
/// installation.
///
/// # Examples
///
/// ```
/// use verifier::failpoint::{self, FaultPlan, FaultSite};
/// let plan = FaultPlan::new()
///     .panic_at(FaultSite::PathVisit, 10)
///     .delay_at(FaultSite::ParshardJob, 1, std::time::Duration::from_millis(1));
/// let _guard = failpoint::install(plan); // disarmed again on drop
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    entries: Vec<Entry>,
}

impl FaultPlan {
    /// An empty plan (fires nothing).
    #[must_use]
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// True if the plan schedules no faults.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Schedules a panic the `hit`-th time `site` is reached.
    #[must_use]
    pub fn panic_at(mut self, site: FaultSite, hit: u64) -> FaultPlan {
        self.entries.push(Entry {
            site,
            hit,
            action: FaultAction::Panic,
        });
        self
    }

    /// Schedules a sleep of `delay` the `hit`-th time `site` is
    /// reached.
    #[must_use]
    pub fn delay_at(mut self, site: FaultSite, hit: u64, delay: Duration) -> FaultPlan {
        self.entries.push(Entry {
            site,
            hit,
            action: FaultAction::Delay(delay),
        });
        self
    }

    /// Schedules a lock-poisoning panic the `hit`-th time `site` is
    /// reached (see [`FaultAction::Poison`]).
    #[must_use]
    pub fn poison_at(mut self, site: FaultSite, hit: u64) -> FaultPlan {
        self.entries.push(Entry {
            site,
            hit,
            action: FaultAction::Poison,
        });
        self
    }

    /// A randomized campaign plan: `faults` faults scattered over all
    /// sites at hit counts in `[1, max_hit]`, derived deterministically
    /// from `seed` with the workspace's SplitMix64. Panics dominate
    /// (3:1 over 1 ms delays) because they exercise the containment
    /// layers hardest.
    #[must_use]
    pub fn scattered(seed: u64, faults: usize, max_hit: u64) -> FaultPlan {
        let mut rng = SplitMix64::new(seed);
        let mut plan = FaultPlan::new();
        for _ in 0..faults {
            let site = ALL_SITES[rng.below(ALL_SITES.len() as u64) as usize];
            let hit = rng.range(1, max_hit.max(1) + 1);
            plan = if rng.below(4) == 0 {
                plan.delay_at(site, hit, Duration::from_millis(1))
            } else {
                plan.panic_at(site, hit)
            };
        }
        plan
    }

    /// Parses the `TNUM_FAILPOINTS` spec format: comma-separated
    /// `site:action@hit` clauses, where `site` is a
    /// [`FaultSite::name`], `action` is `panic`, `poison`, or
    /// `delay=<ms>`, and `hit` is the 1-based hit count.
    ///
    /// ```
    /// use verifier::failpoint::FaultPlan;
    /// let plan = FaultPlan::from_spec("path-visit:panic@10,memo-insert:delay=5@1").unwrap();
    /// assert!(!plan.is_empty());
    /// ```
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the malformed clause.
    pub fn from_spec(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new();
        for clause in spec.split(',').filter(|c| !c.trim().is_empty()) {
            let clause = clause.trim();
            let bad = || format!("malformed fail-point clause `{clause}` (want site:action@hit)");
            let (site, rest) = clause.split_once(':').ok_or_else(bad)?;
            let (action, hit) = rest.split_once('@').ok_or_else(bad)?;
            let site = FaultSite::from_name(site)
                .ok_or_else(|| format!("unknown fail-point site `{site}`"))?;
            let hit: u64 = hit.parse().map_err(|_| bad())?;
            plan = if action == "panic" {
                plan.panic_at(site, hit)
            } else if action == "poison" {
                plan.poison_at(site, hit)
            } else if let Some(ms) = action.strip_prefix("delay=") {
                let ms: u64 = ms.parse().map_err(|_| bad())?;
                plan.delay_at(site, hit, Duration::from_millis(ms))
            } else {
                return Err(format!("unknown fail-point action `{action}`"));
            };
        }
        Ok(plan)
    }
}

/// The armed plan plus per-site hit counters (reset on every install).
struct PlanState {
    entries: Vec<Entry>,
    hits: [u64; ALL_SITES.len()],
}

/// Fast-path gate: true only while a non-empty plan is installed.
static ARMED: AtomicBool = AtomicBool::new(false);
static PLAN: Mutex<Option<PlanState>> = Mutex::new(None);
/// Serializes concurrent [`install`]s (the plan is process-global and
/// `cargo test` is multi-threaded).
static INSTALL_LOCK: Mutex<()> = Mutex::new(());

fn recover<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A test that fails an assertion while holding the install lock
    // poisons it; the lock data is `()`/plain state, so recovery is
    // always safe.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// RAII handle for an installed [`FaultPlan`]: holds the global
/// install lock (serializing fault-injection tests) and disarms the
/// plan and restores the panic hook when dropped.
#[must_use = "the plan is disarmed when the guard drops"]
pub struct FaultGuard {
    _lock: MutexGuard<'static, ()>,
}

/// Installs `plan` process-wide and returns the guard keeping it
/// armed. Hit counters start at zero. While armed, a quiet panic hook
/// suppresses the default stderr backtrace for *injected* panics only
/// (their payloads are recognizable strings); genuine panics still
/// reach the previous hook.
pub fn install(plan: FaultPlan) -> FaultGuard {
    let lock = recover(&INSTALL_LOCK);
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let injected = payload
            .downcast_ref::<String>()
            .is_some_and(|s| s.starts_with("injected "));
        if !injected {
            prev(info);
        }
    }));
    *recover(&PLAN) = Some(PlanState {
        entries: plan.entries,
        hits: [0; ALL_SITES.len()],
    });
    ARMED.store(true, Ordering::SeqCst);
    FaultGuard { _lock: lock }
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        ARMED.store(false, Ordering::SeqCst);
        *recover(&PLAN) = None;
        // take_hook also reinstates the std default hook, dropping the
        // quiet wrapper installed by `install`.
        drop(std::panic::take_hook());
    }
}

/// Arms a plan from the `TNUM_FAILPOINTS` environment variable, if
/// set and non-empty. Used by the `annotate` CLI so operators can
/// rehearse fault handling without writing a test.
///
/// # Errors
///
/// Propagates [`FaultPlan::from_spec`] parse errors.
pub fn arm_from_env() -> Result<Option<FaultGuard>, String> {
    match std::env::var("TNUM_FAILPOINTS") {
        Ok(spec) if !spec.trim().is_empty() => Ok(Some(install(FaultPlan::from_spec(&spec)?))),
        _ => Ok(None),
    }
}

/// The instrumentation hook: called from each [`FaultSite`]. Free when
/// no plan is armed (one relaxed load); otherwise bumps the site's hit
/// counter and performs the scheduled action, if any.
///
/// # Panics
///
/// Panics deliberately when the armed plan schedules
/// [`FaultAction::Panic`] or [`FaultAction::Poison`] for this hit.
#[inline]
pub fn fire(site: FaultSite) {
    if !ARMED.load(Ordering::Relaxed) {
        return;
    }
    fire_armed(site);
}

#[cold]
fn fire_armed(site: FaultSite) {
    // Decide under the plan lock, act after releasing it: an injected
    // panic must never poison the plan's own mutex.
    let action = {
        let mut plan = recover(&PLAN);
        let Some(state) = plan.as_mut() else { return };
        state.hits[site.index()] += 1;
        let hit = state.hits[site.index()];
        state
            .entries
            .iter()
            .find(|e| e.site == site && e.hit == hit)
            .map(|e| e.action)
    };
    match action {
        None => {}
        Some(FaultAction::Delay(d)) => std::thread::sleep(d),
        Some(FaultAction::Panic) => {
            std::panic::panic_any(format!("injected panic at {} ", site.name()))
        }
        Some(FaultAction::Poison) => {
            std::panic::panic_any(format!("injected poison at {} ", site.name()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_fire_is_a_no_op() {
        for site in ALL_SITES {
            fire(site); // must not panic, must not block
        }
    }

    #[test]
    fn plan_fires_at_exact_hit_count() {
        let _guard = install(FaultPlan::new().panic_at(FaultSite::MemoInsert, 3));
        fire(FaultSite::MemoInsert);
        fire(FaultSite::MemoInsert);
        fire(FaultSite::VisitedProbe); // different site: own counter
        let caught = std::panic::catch_unwind(|| fire(FaultSite::MemoInsert));
        let payload = caught.unwrap_err();
        let msg = payload.downcast_ref::<String>().expect("string payload");
        assert!(msg.starts_with("injected panic at memo-insert"));
        // Hit 4 and beyond: nothing scheduled.
        fire(FaultSite::MemoInsert);
    }

    #[test]
    fn guard_drop_disarms() {
        {
            let _guard = install(FaultPlan::new().panic_at(FaultSite::PathVisit, 1));
        }
        fire(FaultSite::PathVisit); // must not panic: plan disarmed
    }

    #[test]
    fn spec_round_trip_and_errors() {
        let plan = FaultPlan::from_spec("path-visit:panic@10, memo-insert:delay=5@1").unwrap();
        assert_eq!(
            plan,
            FaultPlan::new()
                .panic_at(FaultSite::PathVisit, 10)
                .delay_at(FaultSite::MemoInsert, 1, Duration::from_millis(5))
        );
        assert_eq!(FaultPlan::from_spec("").unwrap(), FaultPlan::new());
        assert!(FaultPlan::from_spec("nowhere:panic@1")
            .unwrap_err()
            .contains("unknown fail-point site"));
        assert!(FaultPlan::from_spec("path-visit:explode@1")
            .unwrap_err()
            .contains("unknown fail-point action"));
        assert!(FaultPlan::from_spec("path-visit")
            .unwrap_err()
            .contains("malformed"));
    }

    #[test]
    fn scattered_is_deterministic_in_the_seed() {
        let a = FaultPlan::scattered(7, 6, 50);
        let b = FaultPlan::scattered(7, 6, 50);
        assert_eq!(a, b);
        assert_eq!(a.entries.len(), 6);
        assert!(a.entries.iter().all(|e| (1..=50).contains(&e.hit)));
        assert_ne!(a, FaultPlan::scattered(8, 6, 50));
    }

    #[test]
    fn delay_action_sleeps_without_panicking() {
        let _guard = install(FaultPlan::new().delay_at(
            FaultSite::FixpointVisit,
            1,
            Duration::from_millis(1),
        ));
        let before = std::time::Instant::now();
        fire(FaultSite::FixpointVisit);
        assert!(before.elapsed() >= Duration::from_millis(1));
    }
}
