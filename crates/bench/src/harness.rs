//! A tiny self-contained microbenchmark harness (the workspace is
//! dependency-free, so this stands in for criterion).
//!
//! Methodology: each benchmark closure is warmed up, then timed over
//! adaptive batches until the measurement window is filled; the harness
//! reports mean ns/iter over the best half of the batches (discarding
//! scheduler noise, in the spirit of the paper's min-of-trials cycle
//! methodology, §IV-B).
//!
//! [`paired`] is the other method: a reference and a subject timed
//! alternately in one process, judged by the [`median`] of their
//! per-pair ratios — the same-run comparison the wall-clock gates of
//! `fixpoint_guard` use.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// A benchmark group: runs closures and renders a table of results.
pub struct Group {
    name: String,
    warmup: Duration,
    window: Duration,
    rows: Vec<(String, f64)>,
}

impl Group {
    /// Creates a group with the default windows (0.2 s warmup, 0.5 s
    /// measurement — tuned to keep the whole workspace bench run under a
    /// minute on a small container).
    #[must_use]
    pub fn new(name: &str) -> Group {
        Group {
            name: name.to_string(),
            warmup: Duration::from_millis(200),
            window: Duration::from_millis(500),
            rows: Vec::new(),
        }
    }

    /// Overrides the measurement window.
    #[must_use]
    pub fn window(mut self, warmup: Duration, measure: Duration) -> Group {
        self.warmup = warmup;
        self.window = measure;
        self
    }

    /// Times `f` and records a row. The closure's result is passed
    /// through [`black_box`] so the work cannot be optimized away.
    pub fn bench<R>(&mut self, label: &str, mut f: impl FnMut() -> R) {
        // Warm up and estimate the per-call cost.
        let warm_start = Instant::now();
        let mut calls = 0u64;
        while warm_start.elapsed() < self.warmup {
            black_box(f());
            calls += 1;
        }
        let per_call = self.warmup.as_secs_f64() / calls.max(1) as f64;
        // Pick a batch size of roughly 1 ms per batch.
        let batch = ((0.001 / per_call) as u64).clamp(1, 1 << 24);
        let mut samples: Vec<f64> = Vec::new();
        let run_start = Instant::now();
        while run_start.elapsed() < self.window {
            let t = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            samples.push(t.elapsed().as_secs_f64() / batch as f64);
        }
        // Mean of the best half: robust against preemption spikes.
        samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in timings"));
        let half = &samples[..(samples.len() / 2).max(1)];
        let mean_ns = half.iter().sum::<f64>() / half.len() as f64 * 1e9;
        self.rows.push((label.to_string(), mean_ns));
    }

    /// Renders the group as a table, with throughput ratios against the
    /// fastest row.
    pub fn finish(self) {
        println!("\n## {}\n", self.name);
        let best = self
            .rows
            .iter()
            .map(|(_, ns)| *ns)
            .fold(f64::INFINITY, f64::min);
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|(label, ns)| {
                vec![
                    label.clone(),
                    format!("{ns:.1}"),
                    format!("{:.2}x", ns / best),
                ]
            })
            .collect();
        println!(
            "{}",
            crate::table::render(&["benchmark", "ns/iter", "vs best"], &rows)
        );
    }
}

/// Runs `reference` and `subject` alternately for `pairs` pairs and
/// returns the per-pair ratios `subject / reference`, in pair order.
/// Each closure returns one measurement (a rate or a cost). The
/// reference goes first in even pairs and second in odd ones, so a
/// drift in machine speed (frequency scaling, a noisy neighbour, a cold
/// cache on the first run) lands on both sides alike.
pub fn paired(
    pairs: usize,
    mut reference: impl FnMut() -> f64,
    mut subject: impl FnMut() -> f64,
) -> Vec<f64> {
    (0..pairs)
        .map(|i| {
            let (r, s) = if i % 2 == 0 {
                let r = reference();
                (r, subject())
            } else {
                let s = subject();
                (reference(), s)
            };
            s / r
        })
        .collect()
}

/// The median of `samples`: the mean of the middle two for an even
/// count.
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in samples"));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 0 {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairs_alternate_and_report_subject_over_reference() {
        use std::cell::RefCell;
        let log = RefCell::new(String::new());
        let refs = RefCell::new([10.0, 10.0, 20.0, 10.0, 5.0].into_iter());
        let subs = RefCell::new([5.0, 20.0, 10.0, 8.0, 4.0].into_iter());
        let ratios = paired(
            5,
            || {
                log.borrow_mut().push('R');
                refs.borrow_mut().next().unwrap()
            },
            || {
                log.borrow_mut().push('S');
                subs.borrow_mut().next().unwrap()
            },
        );
        assert_eq!(log.into_inner(), "RSSRRSSRRS");
        assert_eq!(ratios, [0.5, 2.0, 0.5, 0.8, 0.8]);
        assert_eq!(median(&ratios), 0.8);
        assert_eq!(ratios.iter().filter(|&&r| r < 1.0).count(), 4);
        assert!((median(&ratios[..4]) - 0.65).abs() < 1e-12);
    }

    #[test]
    fn measures_something_positive() {
        let mut g = Group::new("smoke").window(Duration::from_millis(5), Duration::from_millis(10));
        g.bench("add", || std::hint::black_box(1u64).wrapping_add(2));
        assert_eq!(g.rows.len(), 1);
        assert!(g.rows[0].1 > 0.0);
        g.finish();
    }
}
