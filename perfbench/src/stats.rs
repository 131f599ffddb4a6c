//! Order statistics for the benchmark's reports.
//!
//! Percentiles use the nearest-rank rule: the p-th percentile of `n`
//! sorted samples is the sample at rank `ceil(p/100 · n)` (1-based). A
//! tail percentile is only reported when at least ten samples lie beyond
//! it; with fewer it would describe a handful of batches, not a tail.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `sorted` (ascending). `None` when empty or
/// when `p` is outside (0, 100].
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Nearest-rank tail percentile that refuses to report unless at least
/// [`MIN_BEYOND`] samples rank above it.
pub fn tail_percentile(sorted: &[f64], p: f64) -> Result<f64, String> {
    let value = nearest_rank(sorted, p).ok_or_else(|| format!("no samples for p{p}"))?;
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    let beyond = sorted.len() - rank.clamp(1, sorted.len());
    if beyond < MIN_BEYOND {
        return Err(format!(
            "p{p} of {} samples has only {beyond} beyond it (need {MIN_BEYOND})",
            sorted.len()
        ));
    }
    Ok(value)
}

/// Median of unsorted values (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Sorts a copy ascending (the percentile functions take sorted input).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50.0), Some(5.0));
        assert_eq!(nearest_rank(&v, 51.0), Some(6.0));
        assert_eq!(nearest_rank(&v, 90.0), Some(9.0));
        assert_eq!(nearest_rank(&v, 100.0), Some(10.0));
        assert_eq!(nearest_rank(&v, 0.1), Some(1.0));
        assert_eq!(nearest_rank(&v, 0.0), None);
        assert_eq!(nearest_rank(&[], 50.0), None);
        assert_eq!(nearest_rank(&[7.0], 99.0), Some(7.0));
    }

    #[test]
    fn p99_of_1000_samples_is_rank_990() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 99.0), Some(990.0));
        assert_eq!(tail_percentile(&v, 99.0), Ok(990.0));
    }

    #[test]
    fn tail_percentile_refuses_thin_tails() {
        // 999 samples: rank 990, only 9 beyond it.
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert!(tail_percentile(&v, 99.0).is_err());
        // 1010 samples: rank 1000, ten beyond.
        let v: Vec<f64> = (1..=1010).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 99.0), Ok(1000.0));
        // The median of 21 samples has ten beyond it.
        let v: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 50.0), Ok(11.0));
        assert!(tail_percentile(&v[..20], 50.0).is_ok());
        assert!(tail_percentile(&v[..19], 50.0).is_err());
        assert!(tail_percentile(&[], 50.0).is_err());
    }

    #[test]
    fn median_handles_odd_even_and_order() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(sorted(&[2.0, -1.0, 0.5]), vec![-1.0, 0.5, 2.0]);
    }
}
