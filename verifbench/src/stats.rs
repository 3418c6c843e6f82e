//! Order statistics over timing samples.

/// The median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` (in `(0, 1]`) of ascending `sorted`.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples a window needs so that the tail percentile [`TAIL`] has at
/// least ten samples beyond it.
pub const TAIL_WINDOW: usize = 1000;

/// The tail percentile reported as `latency_p99_us`.
pub const TAIL: f64 = 0.99;

/// The share of rounds, tail windows or set-ups a reported timing must
/// hold in: the median latency 9 rounds in 10 stay under, the rate 9
/// rounds in 10 reach, the tail 9 windows in 10 stay under, the set-up
/// time 9 set-ups in 10 stay under. Neighbours on a shared host only ever
/// slow the benchmark down, in bursts of one round to minutes, so every
/// such series is bimodal (contended or not); a median over it flips with
/// how long a run happened to spend uncontended, while this slow-side
/// quantile stays in the contended mode unless nine tenths of the run
/// were quiet (see `DESIGN.md`).
pub const HOLD: f64 = 0.9;

/// Nearest-rank quantile `p` of unsorted `values`.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_nearest_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let sorted: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&sorted, 0.99), 990);
        assert_eq!(percentile(&sorted, 0.5), 500);
        assert_eq!(percentile(&[7], 0.99), 7);
    }

    #[test]
    fn quantile_takes_the_nearest_rank() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(quantile(&v, HOLD), 5.0);
        assert_eq!(quantile(&v, 1.0 - HOLD), 1.0);
        assert_eq!(quantile(&v, 0.5), 3.0);
    }
}
