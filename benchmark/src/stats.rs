//! Order statistics for job walls and probe samples.

/// Ascending copy of `v` (NaN-free by construction: every sample is an
/// elapsed time).
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median of a non-empty sample (mean of the two middle values for an
/// even count). Used for small repeat counts (set-up reps, probe reps)
/// where a tail percentile would be refused.
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of an empty sample");
    let s = sorted(v);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Nearest-rank percentile of an ascending sample: the `ceil(q·n)`-th
/// smallest value. Refuses (`None`) when fewer than ten samples lie
/// beyond that rank — a p90 needs 100 samples, a p99 needs 1000 — so a
/// tail is never reported off a handful of observations.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    let rank = (q * n as f64).ceil() as usize;
    if rank == 0 || rank > n || n - rank < 10 {
        return None;
    }
    Some(sorted[rank - 1])
}

/// [`percentile`], falling back to the highest rank that still has ten
/// samples beyond it when the run was too short for `q` (a warning
/// goes to stderr; with fewer than eleven samples the maximum is
/// returned). A run always emits every metric.
pub fn percentile_or_clamped(sorted: &[f64], q: f64, what: &str) -> f64 {
    percentile(sorted, q).unwrap_or_else(|| {
        let n = sorted.len();
        eprintln!(
            "warning: {what}: {n} samples are too few for p{:.0}; reporting the highest rank with ten samples beyond it",
            q * 100.0
        );
        sorted[if n > 10 { n - 11 } else { n - 1 }]
    })
}

/// Median over blocks of `stat(block)`: the time-ordered `samples` are
/// cut into up to five equal blocks of at least `min_block` samples
/// (one block when there are fewer than `2 * min_block`). A slow phase
/// that covers a minority of the run then moves the result little.
pub fn block_median(samples: &[f64], min_block: usize, stat: impl Fn(&[f64]) -> f64) -> f64 {
    let n = samples.len();
    let blocks = (n / min_block).clamp(1, 5);
    let per_block: Vec<f64> = (0..blocks)
        .map(|b| stat(&samples[b * n / blocks..(b + 1) * n / blocks]))
        .collect();
    median(&per_block)
}

/// Geometric mean of positive ratios.
pub fn geomean(v: &[f64]) -> f64 {
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_ceil_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), Some(50.0));
        assert_eq!(percentile(&s, 0.9), Some(90.0));
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.99), Some(990.0));
        assert_eq!(percentile(&s, 0.901), Some(901.0));
    }

    #[test]
    fn refuses_a_tail_with_fewer_than_ten_samples_beyond_it() {
        let s: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.9), None, "99 samples leave 9 beyond p90");
        let s: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.99), None);
        assert_eq!(percentile(&s, 0.9), Some(900.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn clamped_fallback_keeps_ten_beyond() {
        let s: Vec<f64> = (1..=50).map(f64::from).collect();
        assert_eq!(percentile_or_clamped(&s, 0.9, "test"), 40.0);
        assert_eq!(percentile_or_clamped(&[3.0, 4.0], 0.9, "test"), 4.0);
    }

    #[test]
    fn block_median_ignores_a_minority_slow_phase() {
        // 500 samples: the first 150 (30 %) are a slow phase.
        let samples: Vec<f64> = (0..500).map(|i| if i < 150 { 60.0 } else { 2.0 }).collect();
        assert_eq!(block_median(&samples, 20, median), 2.0);
        assert_eq!(median(&samples), 2.0);
        let p90 = |b: &[f64]| percentile(&sorted(b), 0.9).unwrap();
        assert_eq!(
            block_median(&samples, 100, p90),
            2.0,
            "whole-run p90 would be 60"
        );
        assert_eq!(percentile(&sorted(&samples), 0.9), Some(60.0));
        // Fewer than two blocks' worth: one block, the whole sample.
        let few: Vec<f64> = (1..=150).map(f64::from).collect();
        assert_eq!(block_median(&few, 100, p90), 135.0);
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }
}
