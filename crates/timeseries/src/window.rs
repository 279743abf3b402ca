//! Sliding / tumbling window iteration and dyadic partitions.
//!
//! Window plans are central to the paper's method: the Hölder trace, the
//! windowed fractal dimension and the multifractal spectra are all computed
//! over sliding windows of the raw counter series.

use crate::error::{Error, Result};

/// A sliding-window plan over a slice: windows of `width` samples advancing
/// by `stride` samples.
///
/// # Examples
///
/// ```
/// use aging_timeseries::window::SlidingWindows;
///
/// # fn main() -> Result<(), aging_timeseries::Error> {
/// let data = [1.0, 2.0, 3.0, 4.0, 5.0];
/// let windows: Vec<&[f64]> = SlidingWindows::new(&data, 3, 2)?.collect();
/// assert_eq!(windows, vec![&[1.0, 2.0, 3.0][..], &[3.0, 4.0, 5.0][..]]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SlidingWindows<'a> {
    data: &'a [f64],
    width: usize,
    stride: usize,
    pos: usize,
}

impl<'a> SlidingWindows<'a> {
    /// Creates a window plan.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] if `width` or `stride` is zero,
    /// and [`Error::TooShort`] if not even one window fits.
    pub fn new(data: &'a [f64], width: usize, stride: usize) -> Result<Self> {
        if width == 0 {
            return Err(Error::invalid("width", "must be positive"));
        }
        if stride == 0 {
            return Err(Error::invalid("stride", "must be positive"));
        }
        Error::require_len(data, width)?;
        Ok(SlidingWindows {
            data,
            width,
            stride,
            pos: 0,
        })
    }

    /// Number of windows the plan will yield.
    pub fn count_windows(&self) -> usize {
        if self.data.len() < self.width {
            0
        } else {
            (self.data.len() - self.width) / self.stride + 1
        }
    }
}

impl<'a> Iterator for SlidingWindows<'a> {
    type Item = &'a [f64];

    fn next(&mut self) -> Option<&'a [f64]> {
        if self.pos + self.width > self.data.len() {
            return None;
        }
        let w = &self.data[self.pos..self.pos + self.width];
        self.pos += self.stride;
        Some(w)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = if self.pos + self.width > self.data.len() {
            0
        } else {
            (self.data.len() - self.pos - self.width) / self.stride + 1
        };
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for SlidingWindows<'_> {}

/// Splits `data` into non-overlapping blocks of `size` samples, dropping a
/// trailing partial block.
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] when `size == 0` and
/// [`Error::TooShort`] when no complete block fits.
pub fn blocks(data: &[f64], size: usize) -> Result<Vec<&[f64]>> {
    if size == 0 {
        return Err(Error::invalid("size", "must be positive"));
    }
    Error::require_len(data, size)?;
    Ok(data.chunks_exact(size).collect())
}

/// The dyadic scales `2, 4, 8, …` that fit at least `min_blocks` times into
/// a series of length `n`.
///
/// Used by box-counting, DFA and structure-function estimators, which all
/// regress a statistic against scale on a log–log grid.
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] when `min_blocks == 0`, and
/// [`Error::TooShort`] when no dyadic scale qualifies.
pub fn dyadic_scales(n: usize, min_blocks: usize) -> Result<Vec<usize>> {
    if min_blocks == 0 {
        return Err(Error::invalid("min_blocks", "must be positive"));
    }
    let mut scales = Vec::new();
    let mut s = 2usize;
    while s.checked_mul(min_blocks).is_some_and(|need| need <= n) {
        scales.push(s);
        match s.checked_mul(2) {
            Some(next) => s = next,
            None => break,
        }
    }
    if scales.is_empty() {
        return Err(Error::TooShort {
            required: 2 * min_blocks,
            actual: n,
        });
    }
    Ok(scales)
}

/// Logarithmically spaced integer scales between `min_scale` and
/// `max_scale` (inclusive bounds, deduplicated, ascending).
///
/// Offers finer scale grids than [`dyadic_scales`] for estimators whose
/// variance benefits from more regression points.
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] when bounds are zero, reversed, or
/// `count < 2`.
pub fn log_scales(min_scale: usize, max_scale: usize, count: usize) -> Result<Vec<usize>> {
    if min_scale == 0 {
        return Err(Error::invalid("min_scale", "must be positive"));
    }
    if max_scale < min_scale {
        return Err(Error::invalid("max_scale", "must be >= min_scale"));
    }
    if count < 2 {
        return Err(Error::invalid("count", "must be at least 2"));
    }
    let lo = (min_scale as f64).ln();
    let hi = (max_scale as f64).ln();
    let mut out: Vec<usize> = (0..count)
        .map(|i| {
            let t = i as f64 / (count - 1) as f64;
            (lo + t * (hi - lo)).exp().round() as usize
        })
        .collect();
    out.sort_unstable();
    out.dedup();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sliding_windows_basic() {
        let d = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let w: Vec<_> = SlidingWindows::new(&d, 4, 1).unwrap().collect();
        assert_eq!(w.len(), 3);
        assert_eq!(w[0], &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(w[2], &[3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn sliding_windows_stride_skips() {
        let d = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0];
        let plan = SlidingWindows::new(&d, 3, 2).unwrap();
        assert_eq!(plan.count_windows(), 3);
        let w: Vec<_> = plan.collect();
        assert_eq!(w[1], &[3.0, 4.0, 5.0]);
        assert_eq!(w[2], &[5.0, 6.0, 7.0]);
    }

    #[test]
    fn sliding_windows_exact_fit() {
        let d = [1.0, 2.0];
        let w: Vec<_> = SlidingWindows::new(&d, 2, 5).unwrap().collect();
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn sliding_windows_rejects_bad_params() {
        let d = [1.0, 2.0];
        assert!(SlidingWindows::new(&d, 0, 1).is_err());
        assert!(SlidingWindows::new(&d, 1, 0).is_err());
        assert!(SlidingWindows::new(&d, 3, 1).is_err());
    }

    #[test]
    fn size_hint_is_exact() {
        let d = [0.0; 10];
        let plan = SlidingWindows::new(&d, 4, 3).unwrap();
        let expected = plan.count_windows();
        assert_eq!(plan.len(), expected);
        assert_eq!(plan.count(), expected);
    }

    #[test]
    fn blocks_drop_partial() {
        let d = [1.0, 2.0, 3.0, 4.0, 5.0];
        let b = blocks(&d, 2).unwrap();
        assert_eq!(b.len(), 2);
        assert_eq!(b[1], &[3.0, 4.0]);
        assert!(blocks(&d, 0).is_err());
        assert!(blocks(&d, 6).is_err());
    }

    #[test]
    fn dyadic_scales_respect_min_blocks() {
        assert_eq!(dyadic_scales(64, 4).unwrap(), vec![2, 4, 8, 16]);
        assert_eq!(dyadic_scales(64, 1).unwrap(), vec![2, 4, 8, 16, 32, 64]);
        assert!(dyadic_scales(3, 2).is_err());
        assert!(dyadic_scales(64, 0).is_err());
    }

    #[test]
    fn log_scales_are_sorted_unique() {
        let s = log_scales(4, 256, 10).unwrap();
        assert_eq!(*s.first().unwrap(), 4);
        assert_eq!(*s.last().unwrap(), 256);
        let mut sorted = s.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(s, sorted);
        assert!(log_scales(0, 10, 5).is_err());
        assert!(log_scales(10, 5, 5).is_err());
        assert!(log_scales(2, 8, 1).is_err());
    }
}
