//! Order statistics over timing samples.
//!
//! Quantiles follow the default ("exclusive") method of Python's
//! `statistics.quantiles`: position `(n + 1) * p`, linear interpolation
//! between the two bracketing order statistics, and the bracket clamped
//! to the first or last pair, so extreme positions extrapolate. The
//! spread this benchmark prints is therefore the spread a Python reader
//! of its result lines computes.

/// The `p`-quantile (`0 < p < 1`) of `samples`, or `None` when empty.
pub fn quantile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 1 {
        return Some(sorted[0]);
    }
    let pos = (n as f64 + 1.0) * p;
    let j = (pos.floor() as usize).clamp(1, n - 1);
    let frac = pos - j as f64;
    Some(sorted[j - 1] + frac * (sorted[j] - sorted[j - 1]))
}

/// Median, first and third quartile of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    /// First quartile.
    pub p25: f64,
    /// Median.
    pub p50: f64,
    /// Third quartile.
    pub p75: f64,
}

impl Quartiles {
    /// The quartiles of `samples`, or `None` when empty.
    pub fn of(samples: &[f64]) -> Option<Self> {
        Some(Self {
            p25: quantile(samples, 0.25)?,
            p50: quantile(samples, 0.5)?,
            p75: quantile(samples, 0.75)?,
        })
    }

    /// Interquartile range as a share of the median (0 when the median
    /// is 0).
    pub fn relative_iqr(&self) -> f64 {
        if self.p50 == 0.0 {
            0.0
        } else {
            (self.p75 - self.p25) / self.p50.abs()
        }
    }
}
