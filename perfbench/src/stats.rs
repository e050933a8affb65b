//! Timing summaries and process measurements.
//!
//! A timing is reported as its median plus the highest percentile that
//! has at least ten samples beyond it; under forty samples there is no
//! such tail on the ladder, and the median stands alone.

use std::time::Duration;

/// The percentiles a tail may be reported at, as tenths of a percent
/// (p75, p90, p99, p99.9), lowest first.
const TAIL_LADDER: [u64; 4] = [750, 900, 990, 999];

/// Samples that must lie beyond a reported tail percentile.
const TAIL_BEYOND: u64 = 10;

/// A summary of one timing's samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// The median.
    pub median: f64,
    /// The tail, as (percentile, value), when the rule allows one.
    pub tail: Option<(f64, f64)>,
}

/// The value at percentile `p` (0–100) of `sorted`, interpolating
/// linearly between the two nearest ranks.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let pos = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The highest ladder percentile (in tenths of a percent) with at least
/// ten of `n` samples beyond it, or `None` when no ladder step has.
pub fn tail_tenths(n: usize) -> Option<u64> {
    let n = n as u64;
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&t| n * (1000 - t) >= TAIL_BEYOND * 1000)
}

/// Summarizes `samples` by the reporting rule.
pub fn summarize(samples: &[f64]) -> Summary {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let tail = tail_tenths(sorted.len()).map(|t| {
        let p = t as f64 / 10.0;
        (p, percentile(&sorted, p))
    });
    Summary {
        n: sorted.len(),
        median: percentile(&sorted, 50.0),
        tail,
    }
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).median
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set size of process `pid` (`"self"` for this one), in
/// MiB, from the kernel's `VmHWM` high-water mark.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
    let kib: u64 = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("no VmHWM line in {path}"))?;
    Ok(kib as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn under_forty_samples_the_median_stands_alone() {
        for n in [1, 2, 10, 39] {
            let s = summarize(&ramp(n));
            assert_eq!(s.tail, None, "n = {n}");
            assert_eq!(s.n, n);
        }
        assert_eq!(summarize(&ramp(39)).median, 20.0);
        assert_eq!(summarize(&[3.0, 1.0]).median, 2.0);
    }

    #[test]
    fn the_tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_tenths(40), Some(750));
        assert_eq!(tail_tenths(99), Some(750));
        assert_eq!(tail_tenths(100), Some(900));
        assert_eq!(tail_tenths(999), Some(900));
        assert_eq!(tail_tenths(1000), Some(990));
        assert_eq!(tail_tenths(10_000), Some(999));
        let s = summarize(&ramp(100));
        let (p, v) = s.tail.expect("100 samples have a p90");
        assert_eq!(p, 90.0);
        // Ten samples (91..=100) lie beyond the reported value.
        assert_eq!(ramp(100).iter().filter(|&&x| x > v).count(), 10);
    }

    #[test]
    fn percentiles_interpolate_and_ignore_input_order() {
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), 2.5);
        assert_eq!(summarize(&[5.0, 1.0, 4.0, 2.0, 3.0]).median, 3.0);
    }
}
