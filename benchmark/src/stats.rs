//! Order statistics over wall-clock samples.

/// Median of `values` (mean of the two middle values for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Nearest-rank percentile (`pct` in `[0, 100]`) of already sorted
/// samples; 0 for an empty slice.
pub fn percentile_sorted<T: Copy + Into<f64>>(sorted: &[T], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1].into()
}

/// A nanosecond duration as `u32` samples store it (saturating at ~4 s,
/// far above any single timed call).
pub fn ns_u32(ns: u64) -> u32 {
    u32::try_from(ns).unwrap_or(u32::MAX)
}

/// `num / den`, or 0 when nothing was measured.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let sorted: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile_sorted(&sorted, 50.0), 50.0);
        assert_eq!(percentile_sorted(&sorted, 99.0), 99.0);
        assert_eq!(percentile_sorted(&sorted, 100.0), 100.0);
        assert_eq!(percentile_sorted::<u32>(&[], 50.0), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
