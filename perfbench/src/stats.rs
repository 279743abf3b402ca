//! Order statistics over raw samples.

/// Percentiles a timing may be reported at, highest first.
const LADDER: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// Nearest-rank percentile `p` (0–100] of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Samples per block for [`block_median`] at percentile `p`: the fewest
/// that leave ten samples beyond `p`, and at least 100.
pub fn block_len(p: f64) -> usize {
    ((10.0 / (1.0 - p / 100.0)).round() as usize).max(100)
}

/// Median over consecutive blocks of `len` time-ordered samples of
/// `stat(block)`; a trailing partial block is dropped. A host stall that
/// delays a run of consecutive samples moves a few blocks, not the
/// reported value.
fn per_block(samples: &[f64], len: usize, stat: impl Fn(&[f64]) -> f64) -> Option<f64> {
    let values: Vec<f64> = samples.chunks_exact(len).map(stat).collect();
    (!values.is_empty()).then(|| median(&values))
}

/// Block median of percentile `p`, over blocks of [`block_len`]`(p)`.
pub fn block_median(samples: &[f64], p: f64) -> Option<f64> {
    per_block(samples, block_len(p), |block| {
        let mut sorted = block.to_vec();
        sorted.sort_by(f64::total_cmp);
        percentile(&sorted, p)
    })
}

/// Block median of the mean, over blocks of 100 samples. Unlike p50 it
/// does not jump between the modes of a two-valued cost (say, batches
/// with and without a spectrum emission).
pub fn block_mean(samples: &[f64]) -> Option<f64> {
    per_block(samples, block_len(50.0), |block| {
        block.iter().sum::<f64>() / block.len() as f64
    })
}

/// The highest percentile of [`LADDER`] that leaves at least ten of `n`
/// samples above it, if any does.
pub fn highest_supported(n: usize) -> Option<f64> {
    // Samples beyond p, in thousandths, without float rounding: 10 beyond
    // means n * (1000 - per_mille) >= 10_000.
    LADDER.into_iter().find(|&p| {
        let above_per_mille = ((100.0 - p) * 10.0).round() as usize;
        n * above_per_mille >= 10_000
    })
}

/// Per-position median over repeated passes of one fixed plan:
/// `passes[p][k]` is pass `p`'s figure at position `k`. A host stall
/// that hits a position in fewer than half of the passes does not move
/// it. Positions past the shortest pass are dropped.
pub fn median_by_position(passes: &[Vec<f64>]) -> Vec<f64> {
    let n = passes.iter().map(Vec::len).min().unwrap_or(0);
    (0..n)
        .map(|k| median(&passes.iter().map(|p| p[k]).collect::<Vec<_>>()))
        .collect()
}

/// The median of the per-pass medians of the passes with at least
/// `min_len` samples; `None` if there are none. For samples that do not
/// line up with plan positions, such as reads due on a clock.
pub fn median_pass_median(passes: &[Vec<f64>], min_len: usize) -> Option<f64> {
    let medians: Vec<f64> = passes
        .iter()
        .filter(|p| !p.is_empty() && p.len() >= min_len)
        .map(|p| median(p))
        .collect();
    (!medians.is_empty()).then(|| median(&medians))
}

/// Steady closed-loop rate over repeated passes of one fixed plan.
/// `marks[p]` is pass `p`'s clock, in seconds, at its start and after
/// each step; `cum[k]` is the records carried by the steps before mark
/// `k`. The steps are cut into windows of `window` steps (a trailing
/// partial window is dropped). Each window takes its median time over
/// the passes, and the rate is the windows' records over the sum of
/// those times. `None` without a whole window.
pub fn steady_rate(marks: &[Vec<f64>], cum: &[u64], window: usize) -> Option<f64> {
    let durations: Vec<Vec<f64>> = marks
        .iter()
        .map(|m| {
            m.windows(window + 1)
                .step_by(window)
                .map(|w| w[window] - w[0])
                .collect()
        })
        .collect();
    let typical = median_by_position(&durations);
    if typical.is_empty() {
        return None;
    }
    let records = cum[typical.len() * window];
    Some(records as f64 / typical.iter().sum::<f64>())
}

/// A timing's raw samples, summarised.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p99: f64,
    /// The highest percentile the sample supports and its value.
    pub top: Option<(f64, f64)>,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        if sorted.is_empty() {
            return Summary {
                n: 0,
                p50: 0.0,
                p99: 0.0,
                top: None,
            };
        }
        Summary {
            n: sorted.len(),
            p50: percentile(&sorted, 50.0),
            p99: percentile(&sorted, 99.0),
            top: highest_supported(sorted.len()).map(|p| (p, percentile(&sorted, p))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.1), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn supported_percentile_leaves_ten_samples_above() {
        assert_eq!(highest_supported(10_000), Some(99.9));
        assert_eq!(highest_supported(9_999), Some(99.0));
        assert_eq!(highest_supported(1_000), Some(99.0));
        assert_eq!(highest_supported(999), Some(90.0));
        assert_eq!(highest_supported(100), Some(90.0));
        assert_eq!(highest_supported(20), Some(50.0));
        assert_eq!(highest_supported(19), None);
    }

    #[test]
    fn block_lengths_leave_ten_samples_beyond() {
        assert_eq!(block_len(50.0), 100);
        assert_eq!(block_len(90.0), 100);
        assert_eq!(block_len(99.0), 1_000);
        assert_eq!(block_len(99.9), 10_000);
    }

    #[test]
    fn block_median_ignores_one_stalled_block() {
        const B: usize = 1_000;
        let mut v: Vec<f64> = (0..3 * B).map(|i| (i % B) as f64).collect();
        // A stall inflates the whole middle block.
        for x in &mut v[B..2 * B] {
            *x += 1e6;
        }
        assert_eq!(block_median(&v, 99.0), Some(989.0));
        // p50 uses blocks of 100: 30 blocks, 10 of them stalled, so the
        // median is the 15th/16th of the 20 unstalled block medians.
        assert_eq!(block_median(&v, 50.0), Some(749.0));
        // The trailing partial block is dropped; too few samples give none.
        assert_eq!(block_median(&v[..B + 10], 99.0), Some(989.0));
        assert_eq!(block_median(&v[..B - 1], 99.0), None);
    }

    #[test]
    fn block_mean_is_stable_across_two_modes() {
        // Alternating cheap and dear batches, one stalled block.
        let mut v: Vec<f64> = (0..1_000)
            .map(|i| if i % 2 == 0 { 100.0 } else { 300.0 })
            .collect();
        for x in &mut v[..100] {
            *x += 1e6;
        }
        assert_eq!(block_mean(&v), Some(200.0));
        assert_eq!(block_mean(&v[..99]), None);
    }

    #[test]
    fn median_by_position_drops_stalls_and_ragged_tails() {
        let passes = vec![
            vec![1.0, 9.0, 3.0, 4.0],
            vec![5.0, 2.0, 3.0],
            vec![1.0, 2.0, 8.0],
        ];
        assert_eq!(median_by_position(&passes), vec![1.0, 2.0, 3.0]);
        assert!(median_by_position(&[]).is_empty());
    }

    #[test]
    fn median_pass_median_skips_short_passes() {
        let passes = vec![
            vec![5.0, 1.0, 9.0],
            vec![2.0, 4.0, 3.0, 8.0],
            vec![7.0, 6.0, 6.0],
            vec![0.5],
        ];
        // Pass medians 5, 3.5 and 6; the single-sample pass is left out.
        assert_eq!(median_pass_median(&passes, 3), Some(5.0));
        assert_eq!(median_pass_median(&passes, 1), Some(4.25));
        assert_eq!(median_pass_median(&passes, 5), None);
        assert_eq!(median_pass_median(&[vec![]], 0), None);
    }

    #[test]
    fn steady_rate_takes_each_windows_median_pass() {
        // Five steps of 10 records each: two windows of two steps and a
        // partial one. Pass 0 stalls in the first window, pass 2 in the
        // second.
        let cum = [0, 10, 20, 30, 40, 50];
        let marks = vec![
            vec![0.0, 5.0, 6.0, 7.0, 8.0, 8.5],
            vec![0.0, 1.0, 2.0, 3.0, 4.0, 4.5],
            vec![0.0, 1.0, 2.0, 9.0, 10.0, 10.5],
        ];
        // Median times: 2.0 s and 2.0 s for 40 records.
        assert_eq!(steady_rate(&marks, &cum, 2), Some(10.0));
        // A window longer than the plan gives nothing.
        assert_eq!(steady_rate(&marks, &cum, 6), None);
        assert_eq!(steady_rate(&[], &cum, 2), None);
    }

    #[test]
    fn summary_reports_count_and_top() {
        let v: Vec<f64> = (0..2_000).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!(s.n, 2_000);
        assert_eq!(s.p50, 999.0);
        assert_eq!(s.p99, 1_979.0);
        assert_eq!(s.top, Some((99.0, 1_979.0)));
        assert_eq!(Summary::of(&v[..500]).top.map(|(p, _)| p), Some(90.0));
    }
}
