//! Non-parametric monotone-trend inference: the Mann–Kendall test and Sen's
//! slope estimator.
//!
//! These are the classical tools of measurement-based software-aging
//! analysis (Garg et al. 1998; Vaidyanathan & Trivedi 1998): detect whether a
//! resource series trends monotonically, estimate the depletion rate
//! robustly, and extrapolate a time to exhaustion. They serve as the
//! baseline the multifractal detector of the target paper is compared
//! against.

use crate::error::{Error, Result};
use crate::ring::RingBuffer;

/// Direction of a detected monotone trend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrendDirection {
    /// Statistically significant increasing trend.
    Increasing,
    /// Statistically significant decreasing trend.
    Decreasing,
    /// No significant monotone trend at the requested level.
    None,
}

impl std::fmt::Display for TrendDirection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            TrendDirection::Increasing => "increasing",
            TrendDirection::Decreasing => "decreasing",
            TrendDirection::None => "none",
        };
        f.write_str(s)
    }
}

/// Result of a Mann–Kendall trend test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MannKendall {
    /// The Mann–Kendall S statistic: the number of concordant minus
    /// discordant pairs.
    pub s: i64,
    /// Variance of S under the null hypothesis (tie-corrected).
    pub var_s: f64,
    /// Standardised statistic (continuity-corrected).
    pub z: f64,
    /// Two-sided p-value from the normal approximation.
    pub p_value: f64,
    /// Kendall's tau: `S` normalised by the number of pairs.
    pub tau: f64,
}

impl MannKendall {
    /// Performs the Mann–Kendall test on `data`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::TooShort`] with fewer than four samples (the normal
    /// approximation is meaningless below that) and [`Error::NonFinite`]
    /// for NaN/infinite input.
    ///
    /// # Examples
    ///
    /// ```
    /// use aging_timeseries::trend::MannKendall;
    ///
    /// # fn main() -> Result<(), aging_timeseries::Error> {
    /// let rising: Vec<f64> = (0..40).map(|i| i as f64).collect();
    /// let mk = MannKendall::test(&rising)?;
    /// assert!(mk.p_value < 0.001);
    /// assert!(mk.s > 0);
    /// # Ok(())
    /// # }
    /// ```
    pub fn test(data: &[f64]) -> Result<Self> {
        Error::require_len(data, 4)?;
        Error::require_finite(data)?;
        let mut sorted = data.to_vec();
        sorted.sort_unstable_by(f64::total_cmp);
        Ok(MannKendall::from_parts(
            s_statistic(data),
            data.len(),
            tie_term(&sorted),
        ))
    }

    /// The test of `n` samples whose S statistic is `s` and whose tie
    /// correction Σ t(t−1)(2t+5) is `tie_term`.
    fn from_parts(s: i64, n: usize, tie_term: f64) -> Self {
        let nf = n as f64;
        let var_s = (nf * (nf - 1.0) * (2.0 * nf + 5.0) - tie_term) / 18.0;
        let z = if var_s <= 0.0 {
            0.0
        } else if s > 0 {
            (s as f64 - 1.0) / var_s.sqrt()
        } else if s < 0 {
            (s as f64 + 1.0) / var_s.sqrt()
        } else {
            0.0
        };
        let pairs = (n * (n - 1) / 2) as f64;
        MannKendall {
            s,
            var_s,
            z,
            p_value: 2.0 * normal_sf(z.abs()),
            tau: s as f64 / pairs,
        }
    }

    /// Classifies the trend at significance level `alpha` (e.g. `0.05`).
    pub fn direction(&self, alpha: f64) -> TrendDirection {
        if self.p_value < alpha {
            if self.s > 0 {
                TrendDirection::Increasing
            } else {
                TrendDirection::Decreasing
            }
        } else {
            TrendDirection::None
        }
    }
}

/// The Mann–Kendall S statistic of `data`: the sum of sign(x_j − x_i) over
/// every pair i < j.
fn s_statistic(data: &[f64]) -> i64 {
    let mut s: i64 = 0;
    for (i, &earlier) in data.iter().enumerate() {
        for &later in &data[i + 1..] {
            let d = later - earlier;
            if d > 0.0 {
                s += 1;
            } else if d < 0.0 {
                s -= 1;
            }
        }
    }
    s
}

/// Seasonal Mann–Kendall test (Hirsch & Slack): the series is split into
/// `period` interleaved sub-series (e.g. hour-of-day buckets for diurnal
/// data) and the per-season S statistics and variances are summed, so a
/// periodic cycle does not masquerade as a monotone trend.
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] when `period < 2`, and
/// [`Error::TooShort`] unless every season holds at least four samples.
///
/// # Examples
///
/// ```
/// use aging_timeseries::trend::{seasonal_mann_kendall, TrendDirection};
///
/// # fn main() -> Result<(), aging_timeseries::Error> {
/// // A pure daily cycle sampled 24×: no trend once deseasonalised.
/// let data: Vec<f64> = (0..240)
///     .map(|i| (2.0 * std::f64::consts::PI * (i % 24) as f64 / 24.0).sin())
///     .collect();
/// let mk = seasonal_mann_kendall(&data, 24)?;
/// assert_eq!(mk.direction(0.05), TrendDirection::None);
/// # Ok(())
/// # }
/// ```
pub fn seasonal_mann_kendall(data: &[f64], period: usize) -> Result<MannKendall> {
    if period < 2 {
        return Err(Error::invalid("period", "must be at least 2"));
    }
    Error::require_len(data, 4 * period)?;
    Error::require_finite(data)?;

    let mut s_total: i64 = 0;
    let mut var_total = 0.0;
    let mut pairs_total = 0.0;
    for season in 0..period {
        let sub: Vec<f64> = data.iter().skip(season).step_by(period).copied().collect();
        if sub.len() < 4 {
            return Err(Error::TooShort {
                required: 4 * period,
                actual: data.len(),
            });
        }
        let mk = MannKendall::test(&sub)?;
        s_total += mk.s;
        var_total += mk.var_s;
        pairs_total += (sub.len() * (sub.len() - 1) / 2) as f64;
    }
    let z = if var_total <= 0.0 {
        0.0
    } else if s_total > 0 {
        (s_total as f64 - 1.0) / var_total.sqrt()
    } else if s_total < 0 {
        (s_total as f64 + 1.0) / var_total.sqrt()
    } else {
        0.0
    };
    Ok(MannKendall {
        s: s_total,
        var_s: var_total,
        z,
        p_value: 2.0 * normal_sf(z.abs()),
        tau: s_total as f64 / pairs_total,
    })
}

/// Sen's slope estimate (median of pairwise slopes) for a uniformly sampled
/// series, expressed **per unit time** given the sampling period `dt`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SenSlope {
    /// Median pairwise slope, per unit time.
    pub slope: f64,
    /// Intercept `median(x) - slope * median(t)` anchored at the first
    /// sample's time 0.
    pub intercept: f64,
}

impl SenSlope {
    /// Estimates Sen's slope of `data` sampled every `dt` time units.
    ///
    /// Uses all `O(n²)` pairs up to 1500 samples, a deterministic strided
    /// subsample beyond.
    ///
    /// # Errors
    ///
    /// Returns [`Error::TooShort`] with fewer than two samples,
    /// [`Error::InvalidParameter`] for non-positive `dt`, and
    /// [`Error::NonFinite`] for NaN/infinite input.
    pub fn estimate(data: &[f64], dt: f64) -> Result<Self> {
        SenSlope::estimate_with(data, dt, &mut Vec::new())
    }

    /// [`SenSlope::estimate`] with a caller-owned scratch buffer for the
    /// pairwise slopes — the allocation-free form streaming refit loops
    /// call once per detection stride.
    ///
    /// Only the one or two middle order statistics of the slopes and of
    /// the data are needed, so both are *selected*, not sorted. The slope
    /// selection runs inside a band between two pivots drawn from a fixed
    /// sample of the slopes whenever that band holds both middle ranks
    /// (DESIGN.md §7 gives the argument). Every output is built from order
    /// statistics of the same multisets under [`f64::total_cmp`], so it
    /// does not depend on the order in which slopes are generated or on
    /// the pivots: results are bit-identical to sorting every slope and
    /// every sample, and to [`SenSlope::estimate`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`SenSlope::estimate`].
    pub fn estimate_with(data: &[f64], dt: f64, slopes: &mut Vec<f64>) -> Result<Self> {
        let slope = median_slope(data, dt, slopes)?;
        // `slopes` is done with; reuse it to select the data's middle pair.
        slopes.clear();
        slopes.extend_from_slice(data);
        let middle = middle_pair(slopes, data.len(), 0);
        Ok(SenSlope::anchored(slope, middle, data.len(), dt))
    }

    /// Completes an estimate from its slope and the middle pair of its `n`
    /// samples under [`f64::total_cmp`]: the fitted line passes through
    /// the medians of time and data.
    fn anchored(slope: f64, (x_lo, x_hi): (f64, f64), n: usize, dt: f64) -> Self {
        // The time axis 0·dt, 1·dt, … is already sorted, so its type-7
        // median is closed-form. Both medians replicate
        // [`crate::stats::quantile`]'s arithmetic exactly.
        let pos = 0.5 * (n - 1) as f64;
        let t_lo = pos.floor() as usize;
        let t_hi = pos.ceil() as usize;
        let frac = pos - t_lo as f64;
        let time_median = (t_lo as f64 * dt) * (1.0 - frac) + (t_hi as f64 * dt) * frac;
        let data_median = x_lo * (1.0 - frac) + x_hi * frac;
        SenSlope {
            slope,
            intercept: data_median - slope * time_median,
        }
    }

    /// Predicted level at time `t` (measured from the first sample).
    pub fn predict(&self, t: f64) -> f64 {
        self.intercept + self.slope * t
    }

    /// Time (from the first sample) at which the fitted line crosses
    /// `level`, or `None` when the slope is zero or the crossing lies in the
    /// past.
    pub fn time_to_level(&self, level: f64) -> Option<f64> {
        if self.slope.abs() <= f64::EPSILON {
            return None;
        }
        let t = (level - self.intercept) / self.slope;
        if t.is_finite() && t >= 0.0 {
            Some(t)
        } else {
            None
        }
    }
}

/// Slope populations smaller than this select directly: below it (windows
/// under ~32 samples) the band's sample and extra passes cost about what
/// they save.
const BAND_MIN_PAIRS: usize = 512;
/// Size of the fixed strided sample of slopes the band pivots come from.
const PIVOT_SAMPLE: usize = 64;
/// Sample positions between each pivot and the sample's middle pair. The
/// band holds about (2·margin + 2)/64 of the slopes, and misses a middle
/// rank when the sample's median strays by more than the margin. On the
/// E14 fleet's trend refits, margins 7–9 cost the same within noise; at 8
/// the band holds ~26 % of the slopes and ~4 % of refits fall back.
const PIVOT_MARGIN: usize = 8;

/// Sen's slope of `data`: the median of its pairwise slopes under
/// [`f64::total_cmp`]; `slopes` is left holding scratch.
///
/// Uses all pairs up to [`crate::regression::THEIL_SEN_EXACT_LIMIT`]
/// samples and the pairs of a strided subsample beyond.
fn median_slope(data: &[f64], dt: f64, slopes: &mut Vec<f64>) -> Result<f64> {
    Error::require_len(data, 2)?;
    Error::require_finite(data)?;
    if !dt.is_finite() || dt <= 0.0 {
        return Err(Error::invalid("dt", "must be finite and positive"));
    }
    let n = data.len();
    let stride = if n > crate::regression::THEIL_SEN_EXACT_LIMIT {
        n / crate::regression::THEIL_SEN_EXACT_LIMIT + 1
    } else {
        1
    };
    fill_slopes(data, dt, stride, slopes);
    let m = slopes.len();
    // The data are finite, so a slope is NaN only where a divisor
    // overflows; the band's value comparisons need NaN-free slopes.
    let banded = m >= BAND_MIN_PAIRS && ((n - 1) as f64 * dt).is_finite();
    let (below_mid, above_mid) = if banded {
        let pivots = band_pivots(slopes);
        middle_pair_banded(data, dt, stride, slopes, pivots)
    } else {
        middle_pair(slopes, m, 0)
    };
    Ok(if m % 2 == 1 {
        above_mid
    } else {
        0.5 * (below_mid + above_mid)
    })
}

/// Fills `slopes` with the pairwise slopes of the samples at multiples of
/// `stride`, one lag at a time so each row is a branch-free loop over two
/// slices. Every pair gets the expression (x_j − x_i) / ((j − i)·dt), with
/// the divisor hoisted out of the row. The unit stride (every window up
/// to [`crate::regression::THEIL_SEN_EXACT_LIMIT`]) zips plain slices:
/// `step_by` would stop the row from vectorising.
fn fill_slopes(data: &[f64], dt: f64, stride: usize, slopes: &mut Vec<f64>) {
    slopes.clear();
    for lag in (stride..data.len()).step_by(stride) {
        let div = lag as f64 * dt;
        let slope = |(&later, &earlier): (&f64, &f64)| (later - earlier) / div;
        if stride == 1 {
            slopes.extend(data[lag..].iter().zip(data).map(slope));
        } else {
            let later = data[lag..].iter().step_by(stride);
            slopes.extend(later.zip(data.iter().step_by(stride)).map(slope));
        }
    }
}

/// Pivots for [`middle_pair_banded`]: the order statistics
/// [`PIVOT_MARGIN`] positions below and above the middle pair of a fixed
/// strided sample of `slopes`.
fn band_pivots(slopes: &[f64]) -> (f64, f64) {
    let step = slopes.len() / PIVOT_SAMPLE;
    let mut sample: [f64; PIVOT_SAMPLE] = std::array::from_fn(|k| slopes[k * step]);
    let (_, &mut lo, above) =
        sample.select_nth_unstable_by(PIVOT_SAMPLE / 2 - 1 - PIVOT_MARGIN, f64::total_cmp);
    let hi = *above
        .select_nth_unstable_by(2 * PIVOT_MARGIN, f64::total_cmp)
        .1;
    (lo, hi)
}

/// The middle pair of the NaN-free `slopes` (the pairwise slopes of
/// `data`, `dt`, `stride`) under [`f64::total_cmp`], selected inside the
/// band of slopes between the pivots `lo..=hi` when it holds both middle
/// ranks.
///
/// One pass counts the slopes below `lo` and another moves the band to
/// the front. Value comparisons split NaN-free slopes into runs of the
/// total order (the one pair they tie, −0.0 and +0.0, is adjacent in it),
/// so rank `r` of the whole population is rank `r − below` of the band.
/// When a middle rank falls outside the band, the population the
/// compaction overwrote is regenerated and the selection runs over all of
/// it. Either way the result is the same multiset's order statistics: the
/// pivots change the cost, never the bits.
fn middle_pair_banded(
    data: &[f64],
    dt: f64,
    stride: usize,
    slopes: &mut Vec<f64>,
    (lo, hi): (f64, f64),
) -> (f64, f64) {
    let m = slopes.len();
    let below = slopes.iter().filter(|&&x| x < lo).count();
    let mut band = 0;
    for i in 0..m {
        let x = slopes[i];
        slopes[band] = x;
        band += usize::from((lo <= x) & (x <= hi));
    }
    if below <= (m - 1) / 2 && m / 2 < below + band {
        middle_pair(&mut slopes[..band], m, below)
    } else {
        fill_slopes(data, dt, stride, slopes);
        middle_pair(slopes, m, 0)
    }
}

/// The order statistics at ranks ⌊(n − 1)/2⌋ and ⌊n/2⌋ under
/// [`f64::total_cmp`] (one element twice when `n` is odd) of a multiset
/// of `n` elements whose `skip` smallest are not in `values`.
fn middle_pair(values: &mut [f64], n: usize, skip: usize) -> (f64, f64) {
    let (_, &mut low, above) = values.select_nth_unstable_by((n - 1) / 2 - skip, f64::total_cmp);
    if n % 2 == 1 {
        return (low, low);
    }
    // The selection leaves every element of higher rank after it, so the
    // upper middle is the least of those.
    let high = above.iter().copied().min_by(f64::total_cmp);
    (low, high.expect("an even count has an upper middle"))
}

/// Windowed-incremental Mann–Kendall test over the trailing `window`
/// samples of a stream.
///
/// The batch [`MannKendall::test`] costs O(n²) sign comparisons. This
/// kernel keeps the trailing window in a [`RingBuffer`] and maintains the
/// S statistic under sliding: evicting the oldest sample removes its
/// comparisons against the surviving window (O(window)), and the incoming
/// sample adds its own (O(window)) — so a stream of length N costs
/// O(N·window) instead of O(N·window²) for a recompute-per-sample loop.
/// The same two scans count the samples below and above each sample
/// entering or leaving, which locates it in a sorted copy of the window:
/// that keeps the tie correction current too, and hands Sen's slope its
/// data median.
///
/// [`StreamingMannKendall::statistic`] reproduces [`MannKendall::test`] on
/// the current window exactly (same S, ties, variance, z and p).
///
/// # Examples
///
/// ```
/// use aging_timeseries::trend::{MannKendall, StreamingMannKendall};
///
/// # fn main() -> Result<(), aging_timeseries::Error> {
/// let mut mk = StreamingMannKendall::new(32)?;
/// for i in 0..100 {
///     mk.push(i as f64 * 0.5)?;
/// }
/// let streaming = mk.statistic()?;
/// let batch = MannKendall::test(&mk.window())?;
/// assert_eq!(streaming.s, batch.s);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct StreamingMannKendall {
    ring: RingBuffer,
    s: i64,
    /// The window's samples in [`f64::total_cmp`] order. Derived from
    /// `ring`, so it is rebuilt on restore rather than persisted.
    sorted: Vec<f64>,
    /// Σ t(t−1)(2t+5) over the runs of equal (`==`) samples in the window,
    /// exact: a `u128` cannot overflow for any window that fits in memory.
    ties: u128,
}

impl StreamingMannKendall {
    /// Creates a kernel over a trailing window of `window` samples.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] when `window < 4` (the normal
    /// approximation needs at least four samples).
    pub fn new(window: usize) -> Result<Self> {
        if window < 4 {
            return Err(Error::invalid("window", "must be at least 4"));
        }
        Ok(StreamingMannKendall {
            ring: RingBuffer::new(window)?,
            s: 0,
            sorted: Vec::with_capacity(window),
            ties: 0,
        })
    }

    /// Number of samples currently in the window.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Whether the window has filled (the statistic now covers exactly
    /// `window` samples).
    pub fn is_full(&self) -> bool {
        self.ring.is_full()
    }

    /// The current window, oldest first.
    pub fn window(&self) -> Vec<f64> {
        self.ring.to_vec()
    }

    /// Feeds one sample, sliding the window if full.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NonFinite`] for NaN/infinite input.
    pub fn push(&mut self, value: f64) -> Result<()> {
        if !value.is_finite() {
            return Err(Error::NonFinite {
                index: self.ring.pushed() as usize,
            });
        }
        if self.ring.is_full() {
            // The evictee is the oldest element: every pair it belongs to
            // has it on the earlier side.
            let oldest = self.ring.get(0).expect("full ring");
            let (front, tail) = self.ring.as_slices();
            let (below, above) = count_below_above(oldest, [&front[1..], tail]);
            self.s -= above as i64 - below as i64;
            // Comparisons order finite samples like `total_cmp` but for
            // ±0.0, which it keeps adjacent: so in the sorted copy the
            // evictee's run of equal samples starts after the `below`
            // smaller ones and ends before the `above` larger ones.
            let (start, end) = (below, self.sorted.len() - above);
            self.ties -= tie_weight(end - start) - tie_weight(end - start - 1);
            // Every element of a run has the same bits, except that a run
            // of zeros holds −0.0 before +0.0 in total order: so a negative
            // sample leaves from the run's start and any other from its end.
            let at = if oldest.is_sign_negative() {
                start
            } else {
                end - 1
            };
            self.sorted.remove(at);
        }
        // The incoming sample compares against every survivor. `front`
        // holds the oldest element, so the eviction skip stays in-bounds.
        let skip = usize::from(self.ring.is_full());
        let (front, tail) = self.ring.as_slices();
        let (below, above) = count_below_above(value, [&front[skip..], tail]);
        self.s += below as i64 - above as i64;
        let (start, end) = (below, self.sorted.len() - above);
        self.ties += tie_weight(end - start + 1) - tie_weight(end - start);
        let at = if value.is_sign_negative() { start } else { end };
        self.sorted.insert(at, value);
        self.ring.push(value);
        Ok(())
    }

    /// Feeds a column of samples, sliding the window as needed; results are
    /// bit-identical to calling [`StreamingMannKendall::push`] per element.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NonFinite`] at the first NaN/infinite input;
    /// samples before the offending one remain pushed, exactly as a
    /// caller-side loop would leave them.
    pub fn push_slice(&mut self, values: &[f64]) -> Result<()> {
        for &value in values {
            self.push(value)?;
        }
        Ok(())
    }

    /// The maintained S statistic (sum of pairwise signs in the window).
    pub fn s(&self) -> i64 {
        self.s
    }

    /// Serializes the dynamic state (window ring + maintained S) with
    /// [`crate::persist`]; see [`crate::ring::RingBuffer::encode_state`]
    /// for the bit-identity contract.
    pub fn encode_state(&self, out: &mut Vec<u8>) {
        self.ring.encode_state(out);
        crate::persist::put_i64(out, self.s);
    }

    /// Restores state written by [`StreamingMannKendall::encode_state`]
    /// into a kernel constructed with the same window, rebuilding the
    /// sorted copy and tie term from the restored window. Every later
    /// push adjusts S, so the persisted S is checked against the window's
    /// own, recomputed in O(window²). A failed restore leaves the kernel
    /// unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] on truncation, a window
    /// mismatch, a non-finite sample in the window, or an S that is not
    /// the window's.
    pub fn restore_state(&mut self, r: &mut crate::persist::Reader<'_>) -> Result<()> {
        let mut ring = RingBuffer::new(self.ring.capacity())?;
        ring.restore_state(r)?;
        if ring.iter().any(|v| !v.is_finite()) {
            return Err(Error::invalid("persist", "non-finite sample in window"));
        }
        let s = r.i64()?;
        if s != s_statistic(&ring.to_vec()) {
            return Err(Error::invalid("persist", "S does not match the window"));
        }
        self.s = s;
        self.ring = ring;
        self.sorted.clear();
        self.sorted.extend(self.ring.iter());
        self.sorted.sort_unstable_by(f64::total_cmp);
        self.ties = self
            .sorted
            .chunk_by(|a, b| a == b)
            .map(|run| tie_weight(run.len()))
            .sum();
        Ok(())
    }

    /// The full Mann–Kendall statistic of the current window, identical to
    /// running [`MannKendall::test`] on [`StreamingMannKendall::window`].
    /// O(1) and allocation-free: S and the tie term are maintained by
    /// every push.
    ///
    /// # Errors
    ///
    /// Returns [`Error::TooShort`] while the window holds fewer than four
    /// samples.
    pub fn statistic(&self) -> Result<MannKendall> {
        let n = self.ring.len();
        if n < 4 {
            return Err(Error::TooShort {
                required: 4,
                actual: n,
            });
        }
        // The batch test adds the same integer-valued terms in f64. Below
        // 2^53 every partial sum is exact, so the integer converts to the
        // same bits; beyond, replay that sum over the sorted copy.
        let tie_term = if self.ties < 1 << 53 {
            self.ties as f64
        } else {
            tie_term(&self.sorted)
        };
        Ok(MannKendall::from_parts(self.s, n, tie_term))
    }

    /// Sen's slope of the current window, computed on demand — call at the
    /// detection stride, not per sample: it selects from all
    /// window·(window − 1)/2 pairwise slopes.
    ///
    /// # Errors
    ///
    /// Propagates [`SenSlope::estimate`] failures (window too short).
    pub fn sen_slope(&self, dt: f64) -> Result<SenSlope> {
        self.sen_slope_with(dt, &mut Vec::new(), &mut Vec::new())
    }

    /// [`StreamingMannKendall::sen_slope`] with caller-owned scratch
    /// buffers (window copy + pairwise slopes) — the allocation-free form
    /// for refit loops. Results are bit-identical to `sen_slope` and to
    /// [`SenSlope::estimate`] on the window; the data median comes from
    /// the maintained sorted copy.
    ///
    /// # Errors
    ///
    /// Same conditions as [`StreamingMannKendall::sen_slope`].
    pub fn sen_slope_with(
        &self,
        dt: f64,
        window: &mut Vec<f64>,
        slopes: &mut Vec<f64>,
    ) -> Result<SenSlope> {
        self.ring.copy_to(window);
        let slope = median_slope(window, dt, slopes)?;
        let n = self.sorted.len();
        let middle = (self.sorted[(n - 1) / 2], self.sorted[n / 2]);
        Ok(SenSlope::anchored(slope, middle, n, dt))
    }

    /// Clears the window (e.g. after a reboot); the configured width is
    /// retained.
    pub fn reset(&mut self) {
        self.ring.clear();
        self.s = 0;
        self.sorted.clear();
        self.ties = 0;
    }
}

/// A run of `t` equal samples' share t(t−1)(2t+5) of the tie term.
fn tie_weight(t: usize) -> u128 {
    let t = t as u128;
    t * t.saturating_sub(1) * (2 * t + 5)
}

/// The Mann–Kendall tie term Σ t(t−1)(2t+5) over the runs of equal
/// samples in `sorted`, summed in f64 in ascending order of value.
fn tie_term(sorted: &[f64]) -> f64 {
    sorted
        .chunk_by(|a, b| a == b)
        .filter(|run| run.len() > 1)
        .fold(0.0, |sum, run| {
            let t = run.len() as f64;
            sum + t * (t - 1.0) * (2.0 * t + 5.0)
        })
}

/// How many samples in `parts` are below and above `base`, counted with
/// direct comparisons.
///
/// For finite operands `x > base` iff `x - base > 0` and `x < base` iff
/// `x - base < 0`: IEEE-754 subtraction with gradual underflow yields zero
/// only on exact equality and otherwise preserves the sign of the true
/// difference. So the counts give the sign sums of the batch test, and
/// the branch-free body autovectorizes, which is what makes the streaming
/// Mann–Kendall scans slice-speed.
#[inline]
fn count_below_above(base: f64, parts: [&[f64]; 2]) -> (usize, usize) {
    let (mut below, mut above) = (0, 0);
    for xs in parts {
        for &x in xs {
            below += usize::from(x < base);
            above += usize::from(x > base);
        }
    }
    (below, above)
}

/// Survival function `P(Z > z)` of the standard normal distribution, via an
/// Abramowitz–Stegun style erfc approximation (max abs error ≈ 1.2e-7).
pub fn normal_sf(z: f64) -> f64 {
    0.5 * erfc(z / std::f64::consts::SQRT_2)
}

/// Complementary error function (numerical approximation, 7-digit accuracy).
pub fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let ans = t
        * (-z * z - 1.26551223
            + t * (1.00002368
                + t * (0.37409196
                    + t * (0.09678418
                        + t * (-0.18628806
                            + t * (0.27886807
                                + t * (-1.13520398
                                    + t * (1.48851587 + t * (-0.82215223 + t * 0.17087277)))))))))
            .exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erfc_reference_values() {
        assert!((erfc(0.0) - 1.0).abs() < 1e-7);
        assert!((erfc(1.0) - 0.157_299_2).abs() < 1e-6);
        assert!((erfc(-1.0) - 1.842_700_8).abs() < 1e-6);
        assert!(erfc(5.0) < 2e-12);
    }

    #[test]
    fn normal_sf_symmetry() {
        assert!((normal_sf(0.0) - 0.5).abs() < 1e-7);
        assert!((normal_sf(1.96) - 0.025).abs() < 1e-4);
        assert!((normal_sf(-1.96) - 0.975).abs() < 1e-4);
    }

    #[test]
    fn mk_detects_monotone_trends() {
        let up: Vec<f64> = (0..30).map(|i| i as f64).collect();
        let mk = MannKendall::test(&up).unwrap();
        assert_eq!(mk.s, (30 * 29 / 2) as i64);
        assert!((mk.tau - 1.0).abs() < 1e-12);
        assert!(mk.p_value < 1e-6);
        assert_eq!(mk.direction(0.05), TrendDirection::Increasing);

        let down: Vec<f64> = (0..30).map(|i| -(i as f64)).collect();
        let mk = MannKendall::test(&down).unwrap();
        assert_eq!(mk.direction(0.05), TrendDirection::Decreasing);
    }

    #[test]
    fn mk_antisymmetric_under_negation() {
        let d = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let neg: Vec<f64> = d.iter().map(|v| -v).collect();
        let a = MannKendall::test(&d).unwrap();
        let b = MannKendall::test(&neg).unwrap();
        assert_eq!(a.s, -b.s);
        assert!((a.p_value - b.p_value).abs() < 1e-12);
    }

    #[test]
    fn mk_no_trend_on_alternating() {
        let d: Vec<f64> = (0..40)
            .map(|i| if i % 2 == 0 { 1.0 } else { 0.0 })
            .collect();
        let mk = MannKendall::test(&d).unwrap();
        assert_eq!(mk.direction(0.05), TrendDirection::None);
    }

    #[test]
    fn mk_tie_correction_reduces_variance() {
        let no_ties: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let with_ties: Vec<f64> = (0..20).map(|i| (i / 4) as f64).collect();
        let a = MannKendall::test(&no_ties).unwrap();
        let b = MannKendall::test(&with_ties).unwrap();
        assert!(b.var_s < a.var_s);
    }

    #[test]
    fn mk_guards() {
        assert!(MannKendall::test(&[1.0, 2.0, 3.0]).is_err());
        assert!(MannKendall::test(&[1.0, f64::NAN, 2.0, 3.0]).is_err());
    }

    #[test]
    fn seasonal_mk_ignores_pure_cycle() {
        // A strong daily cycle fools the plain test but not the seasonal
        // one.
        let data: Vec<f64> = (0..24 * 12)
            .map(|i| {
                (2.0 * std::f64::consts::PI * (i % 24) as f64 / 24.0).sin() * 100.0
                    + ((i * 7) % 5) as f64 * 0.01
            })
            .collect();
        let seasonal = seasonal_mann_kendall(&data, 24).unwrap();
        assert_eq!(seasonal.direction(0.05), TrendDirection::None);
    }

    #[test]
    fn seasonal_mk_finds_trend_under_cycle() {
        let data: Vec<f64> = (0..24 * 12)
            .map(|i| {
                (2.0 * std::f64::consts::PI * (i % 24) as f64 / 24.0).sin() * 100.0 - 0.5 * i as f64
            })
            .collect();
        let seasonal = seasonal_mann_kendall(&data, 24).unwrap();
        assert_eq!(seasonal.direction(0.05), TrendDirection::Decreasing);
        assert!(seasonal.s < 0);
    }

    #[test]
    fn seasonal_mk_guards() {
        let d: Vec<f64> = (0..100).map(|i| i as f64).collect();
        assert!(seasonal_mann_kendall(&d, 1).is_err());
        assert!(seasonal_mann_kendall(&d[..10], 24).is_err());
        let mut bad = d.clone();
        bad[5] = f64::NAN;
        assert!(seasonal_mann_kendall(&bad, 4).is_err());
    }

    #[test]
    fn seasonal_mk_period_one_season_matches_plain() {
        // With period = 2 and a monotone series both sub-series trend the
        // same way, so the combined verdict matches the plain test.
        let d: Vec<f64> = (0..60).map(|i| i as f64).collect();
        let plain = MannKendall::test(&d).unwrap();
        let seasonal = seasonal_mann_kendall(&d, 2).unwrap();
        assert_eq!(plain.direction(0.01), seasonal.direction(0.01));
    }

    #[test]
    fn sen_slope_exact_on_line() {
        let d: Vec<f64> = (0..25).map(|i| 100.0 - 2.0 * i as f64).collect();
        let sen = SenSlope::estimate(&d, 0.5).unwrap();
        // slope per unit time: -2 per sample / 0.5 s per sample = -4 /s.
        assert!((sen.slope + 4.0).abs() < 1e-12);
        assert!((sen.predict(0.0) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn sen_slope_robust_to_outliers() {
        let mut d: Vec<f64> = (0..50).map(|i| 10.0 + 0.5 * i as f64).collect();
        d[7] = 1e6;
        d[23] = -1e6;
        let sen = SenSlope::estimate(&d, 1.0).unwrap();
        assert!((sen.slope - 0.5).abs() < 0.05);
    }

    #[test]
    fn time_to_level_extrapolates() {
        // Free memory falling from 100 at 2 units/s hits 0 at t = 50.
        let d: Vec<f64> = (0..10).map(|i| 100.0 - 2.0 * i as f64).collect();
        let sen = SenSlope::estimate(&d, 1.0).unwrap();
        let t = sen.time_to_level(0.0).unwrap();
        assert!((t - 50.0).abs() < 1e-9);
        // Rising series never reaches a level below its start.
        let up: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let sen_up = SenSlope::estimate(&up, 1.0).unwrap();
        assert_eq!(sen_up.time_to_level(-5.0), None);
    }

    #[test]
    fn sen_guards() {
        assert!(SenSlope::estimate(&[1.0], 1.0).is_err());
        assert!(SenSlope::estimate(&[1.0, 2.0], 0.0).is_err());
        assert!(SenSlope::estimate(&[1.0, f64::NAN], 1.0).is_err());
    }

    #[test]
    fn trend_direction_display() {
        assert_eq!(TrendDirection::Increasing.to_string(), "increasing");
        assert_eq!(TrendDirection::None.to_string(), "none");
    }

    fn assert_mk_bits(got: &MannKendall, want: &MannKendall, at: &str) {
        assert_eq!(got.s, want.s, "{at}");
        assert_eq!(got.var_s.to_bits(), want.var_s.to_bits(), "{at}");
        assert_eq!(got.z.to_bits(), want.z.to_bits(), "{at}");
        assert_eq!(got.p_value.to_bits(), want.p_value.to_bits(), "{at}");
        assert_eq!(got.tau.to_bits(), want.tau.to_bits(), "{at}");
    }

    #[test]
    fn streaming_mk_matches_batch_on_sliding_windows() {
        let pick = |i: u64, levels: &[f64]| {
            levels[(i.wrapping_mul(2654435761) >> 7) as usize % levels.len()]
        };
        // A wiggly signal, then a stretch drawn from four levels (±0.0
        // among them, +0.0 twice as likely) so tied values are evicted on
        // almost every push.
        let mut data: Vec<f64> = (0..200)
            .map(|i| ((i * 13) % 29) as f64 + if i % 7 == 0 { 0.0 } else { 0.5 })
            .collect();
        data.extend((0..300u64).map(|i| pick(i, &[0.0, -0.0, 1.5, -2.0, 0.0])));
        // The run of zeros at the bottom of the sorted window, at its top,
        // then filling it: −0.0 and +0.0 enter and leave the run at both
        // of its ends, and the run sits at both ends of the window.
        for levels in [[0.0, -0.0, 3.0], [-0.0, 0.0, -3.0], [0.0, -0.0, -0.0]] {
            data.extend((0..120u64).map(|i| pick(i, &levels)));
        }
        // Window 40 has 780 pairs, so Sen's slope takes the banded
        // selection; window 4 is the smallest the kernel allows.
        for window in [4, 40] {
            let mut mk = StreamingMannKendall::new(window).unwrap();
            // Samples pushed since the last reset: the batch test's window
            // never reaches back past a reset.
            let mut since = 0;
            for (i, &v) in data.iter().enumerate() {
                if i == 260 {
                    mk.reset();
                    since = i;
                }
                if i % 37 == 11 {
                    // Persist and continue from the restored copy.
                    let mut blob = Vec::new();
                    mk.encode_state(&mut blob);
                    let mut restored = StreamingMannKendall::new(window).unwrap();
                    let mut r = crate::persist::Reader::new(&blob);
                    restored.restore_state(&mut r).unwrap();
                    r.finish().unwrap();
                    mk = restored;
                }
                mk.push(v).unwrap();
                let start = (i + 1).saturating_sub(window).max(since);
                if i + 1 - start >= 4 {
                    let at = format!("window {window}, sample {i}");
                    let batch = MannKendall::test(&data[start..=i]).unwrap();
                    assert_mk_bits(&mk.statistic().unwrap(), &batch, &at);
                    let sen = SenSlope::estimate(&data[start..=i], 5.0).unwrap();
                    assert_sen_bits(&mk.sen_slope(5.0).unwrap(), &sen, &at);
                    assert_sen_bits(&sen, &sen_reference(&data[start..=i], 5.0), &at);
                }
            }
        }
    }

    #[test]
    fn streaming_mk_restore_rejects_non_finite_window() {
        let mut ring = RingBuffer::new(8).unwrap();
        for v in [1.0, f64::NAN, 2.0, 3.0, 4.0] {
            ring.push(v);
        }
        let mut blob = Vec::new();
        ring.encode_state(&mut blob);
        crate::persist::put_i64(&mut blob, 0);

        let mut mk = StreamingMannKendall::new(8).unwrap();
        for v in [5.0, 4.0, 4.0, 2.0] {
            mk.push(v).unwrap();
        }
        let before = mk.statistic().unwrap();
        let mut r = crate::persist::Reader::new(&blob);
        assert!(mk.restore_state(&mut r).is_err());
        // The failed restore left the kernel as it was.
        assert_mk_bits(&mk.statistic().unwrap(), &before, "after failed restore");
        mk.push(1.0).unwrap();
        assert_eq!(mk.s(), MannKendall::test(&mk.window()).unwrap().s);
    }

    #[test]
    fn streaming_mk_restore_rejects_wrong_s() {
        let mut mk = StreamingMannKendall::new(8).unwrap();
        for v in [5.0, 4.0, 4.0, 2.0, 7.0, 1.0, 3.0, 3.0, 0.5, 6.0] {
            mk.push(v).unwrap();
        }
        // S is the blob's last field: bump it by one.
        let mut blob = Vec::new();
        mk.encode_state(&mut blob);
        blob.truncate(blob.len() - 8);
        crate::persist::put_i64(&mut blob, mk.s() + 1);

        let mut target = StreamingMannKendall::new(8).unwrap();
        for v in [1.0, 2.0, 2.0, 9.0] {
            target.push(v).unwrap();
        }
        let before = target.statistic().unwrap();
        let mut r = crate::persist::Reader::new(&blob);
        assert!(target.restore_state(&mut r).is_err());
        // The failed restore left the kernel as it was.
        assert_mk_bits(
            &target.statistic().unwrap(),
            &before,
            "after failed restore",
        );
        assert_eq!(target.window(), [1.0, 2.0, 2.0, 9.0]);
    }

    #[test]
    fn streaming_mk_rejects_bad_input() {
        assert!(StreamingMannKendall::new(3).is_err());
        let mut mk = StreamingMannKendall::new(8).unwrap();
        assert!(mk.push(f64::NAN).is_err());
        mk.push(1.0).unwrap();
        assert!(mk.statistic().is_err()); // too short
    }

    /// The type-7 median of `values` sorted by [`f64::total_cmp`].
    fn total_order_median(values: &[f64]) -> f64 {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let pos = 0.5 * (sorted.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }

    /// Reference Sen estimate: the textbook `i < j` pair loop (strided
    /// past [`crate::regression::THEIL_SEN_EXACT_LIMIT`]), a full sort of
    /// the slope population under [`f64::total_cmp`] and a sorted data
    /// median — the parity oracle for the banded selection.
    fn sen_reference(data: &[f64], dt: f64) -> SenSlope {
        let n = data.len();
        let stride = if n > crate::regression::THEIL_SEN_EXACT_LIMIT {
            n / crate::regression::THEIL_SEN_EXACT_LIMIT + 1
        } else {
            1
        };
        let mut slopes = Vec::new();
        for i in (0..n).step_by(stride) {
            for j in (i + stride..n).step_by(stride) {
                slopes.push((data[j] - data[i]) / ((j - i) as f64 * dt));
            }
        }
        slopes.sort_by(f64::total_cmp);
        let m = slopes.len();
        let slope = if m % 2 == 1 {
            slopes[m / 2]
        } else {
            0.5 * (slopes[m / 2 - 1] + slopes[m / 2])
        };
        let times: Vec<f64> = (0..n).map(|i| i as f64 * dt).collect();
        SenSlope {
            slope,
            intercept: total_order_median(data) - slope * total_order_median(&times),
        }
    }

    fn assert_sen_bits(got: &SenSlope, want: &SenSlope, at: &str) {
        assert_eq!(got.slope.to_bits(), want.slope.to_bits(), "slope {at}");
        assert_eq!(
            got.intercept.to_bits(),
            want.intercept.to_bits(),
            "intercept {at}"
        );
    }

    /// A test window of `n` samples of shape `kind`, drawn from `seed`.
    fn sen_window(kind: u8, n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed | 1;
        let mut unit = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|i| {
                let u = unit();
                let t = i as f64;
                match kind {
                    // Heavy ties: five levels.
                    0 => (u * 5.0).floor() - 2.0,
                    // Constant.
                    1 => 7.25,
                    // Monotone, with runs of equal values.
                    2 => -((i / 3) as f64),
                    // A noisy decline with ±1e6 spikes.
                    3 if u < 0.05 => 1e6,
                    3 if u > 0.95 => -1e6,
                    3 => 100.0 - 0.5 * t + u,
                    // Level steps with small noise.
                    4 => 1e9 - 4096.0 * (i / 25) as f64 + (u * 8.0).floor(),
                    // Signed zeros among ±1.0.
                    5 => [0.0, -0.0, 1.0, -1.0][(u * 4.0) as usize],
                    // Near f64::MAX: differences overflow to ±inf slopes.
                    6 if u < 0.5 => f64::MAX * (0.5 + u),
                    6 => -f64::MAX * u,
                    // Continuous noise around a slow decline.
                    _ => 1e9 - 7.0 * t + 1e4 * u,
                }
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(160))]
        #[test]
        fn sen_selection_matches_full_sort_bitwise(
            n in 2usize..=400,
            kind in 0u8..8,
            seed in 0u64..u64::MAX,
            dt in proptest::sample::select(vec![1.0, 5.0, 0.3]),
        ) {
            let data = sen_window(kind, n, seed);
            let got = SenSlope::estimate(&data, dt).unwrap();
            assert_sen_bits(&got, &sen_reference(&data, dt), &format!("kind={kind} n={n}"));
        }
    }

    #[test]
    fn sen_strided_selection_matches_full_sort_bitwise() {
        let n = crate::regression::THEIL_SEN_EXACT_LIMIT + 101;
        for kind in [0, 3, 7] {
            let data = sen_window(kind, n, 17);
            let got = SenSlope::estimate(&data, 5.0).unwrap();
            assert_sen_bits(&got, &sen_reference(&data, 5.0), &format!("kind={kind}"));
        }
    }

    #[test]
    fn sen_signed_zeros_rank_by_total_order() {
        // Under `==`, −0.0 and +0.0 tie, and a selection that ranks by it
        // returns whichever zero it happened to leave at a rank.
        let data = [1.0, -1.0, 0.0, -0.0, -0.0, -0.0, -0.0, 0.0, -0.0];
        let got = SenSlope::estimate(&data, 1.0).unwrap();
        assert_sen_bits(&got, &sen_reference(&data, 1.0), "signed zeros");
    }

    #[test]
    fn band_selection_falls_back_when_pivots_miss() {
        // 1,711 and 1,770 slopes: an odd and an even middle pair.
        for n in [59, 60] {
            let data = sen_window(4, n, 3);
            let mut slopes = Vec::new();
            fill_slopes(&data, 5.0, 1, &mut slopes);
            let mut sorted = slopes.clone();
            sorted.sort_by(f64::total_cmp);
            let m = sorted.len();
            let (low, high) = (sorted[(m - 1) / 2], sorted[m / 2]);
            let above_low = *sorted.iter().find(|&&x| x > low).unwrap();
            let below_high = *sorted.iter().rev().find(|&&x| x < high).unwrap();
            let (third, two_thirds) = (sorted[m / 3], sorted[2 * m / 3]);
            let (inf, neg) = (f64::INFINITY, f64::NEG_INFINITY);
            for pivots in [
                (third, two_thirds), // brackets both middle ranks
                (neg, inf),          // the band is everything
                (low, high),         // exactly the middle pair's values
                (above_low, inf),    // misses low: the lower middle is below
                (neg, below_high),   // misses high: the upper middle is above
                (two_thirds, third), // inverted: empty band
                (inf, neg),          // inverted: empty band
                (inf, inf),          // everything below the band
                (neg, neg),          // everything above the band
            ] {
                let (lo, hi) = middle_pair_banded(&data, 5.0, 1, &mut slopes, pivots);
                assert_eq!(
                    (lo.to_bits(), hi.to_bits()),
                    (low.to_bits(), high.to_bits()),
                    "n={n} pivots {pivots:?}"
                );
                fill_slopes(&data, 5.0, 1, &mut slopes);
            }
        }
    }

    #[test]
    fn streaming_mk_push_slice_matches_push_bitwise() {
        let data: Vec<f64> = (0..97u64)
            .map(|i| ((i.wrapping_mul(2654435761) % 53) as f64) * 0.25 + (i as f64) * 0.1)
            .collect();
        for chunk in [1usize, 2, 7] {
            let mut looped = StreamingMannKendall::new(12).unwrap();
            let mut sliced = StreamingMannKendall::new(12).unwrap();
            for block in data.chunks(chunk) {
                for &v in block {
                    looped.push(v).unwrap();
                }
                sliced.push_slice(block).unwrap();
                let mut a = Vec::new();
                let mut b = Vec::new();
                looped.encode_state(&mut a);
                sliced.encode_state(&mut b);
                assert_eq!(a, b, "chunk={chunk}");
            }
            let a = looped.statistic().unwrap();
            let b = sliced.statistic().unwrap();
            assert_eq!(a.s, b.s);
            assert_eq!(a.z.to_bits(), b.z.to_bits());
            let sa = looped.sen_slope(5.0).unwrap();
            let sb = sliced
                .sen_slope_with(5.0, &mut Vec::new(), &mut Vec::new())
                .unwrap();
            assert_sen_bits(&sa, &sb, &format!("chunk={chunk}"));
        }
    }

    #[test]
    fn streaming_mk_reset_restarts_window() {
        let mut mk = StreamingMannKendall::new(8).unwrap();
        for i in 0..20 {
            mk.push(i as f64).unwrap();
        }
        assert!(mk.s() > 0);
        mk.reset();
        assert_eq!(mk.s(), 0);
        assert!(mk.is_empty());
        for i in 0..8 {
            mk.push(-(i as f64)).unwrap();
        }
        assert!(mk.statistic().unwrap().s < 0);
    }
}
