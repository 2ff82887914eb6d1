//! Order statistics for the benchmark's reports: medians, percentiles
//! that refuse to be reported from too few samples, equal slices of a
//! segment, and open-loop latency from the due time.

use std::ops::Range;

/// Samples that must lie beyond a tail percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Slices a timed segment is cut into; the reported value is the median
/// slice, so one noisy-neighbour burst does not set the number.
pub const SLICES: usize = 5;

/// Median of `values` (mean of the two middle values when even).
/// Panics on an empty slice: every caller has at least one sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Arithmetic mean; 0 for no samples (a layer the workload never entered).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Nearest-rank percentile `p` in (0, 1) of `values`. A tail percentile
/// (`p > 0.5`) is `None` unless at least [`MIN_BEYOND`] samples lie beyond
/// it: p99 needs 1,000 samples.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 1.0, "percentile {p} outside (0, 1)");
    if values.is_empty() {
        return None;
    }
    let n = values.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    if p > 0.5 && n - rank < MIN_BEYOND {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// `SLICES` contiguous index ranges covering `0..n` as evenly as possible.
pub fn slices(n: usize) -> Vec<Range<usize>> {
    (0..SLICES)
        .map(|k| k * n / SLICES..(k + 1) * n / SLICES)
        .collect()
}

/// The median over slices of a per-slice statistic of `values`; slices
/// where the statistic is `None` (too few samples) are skipped.
pub fn slice_median(values: &[f64], stat: impl Fn(&[f64]) -> Option<f64>) -> Option<f64> {
    let per_slice: Vec<f64> = slices(values.len())
        .into_iter()
        .filter_map(|r| stat(&values[r]))
        .collect();
    (!per_slice.is_empty()).then(|| median(&per_slice))
}

/// Percentile `p` as the median of the per-slice percentiles when every
/// slice supports it, else over the whole segment, else `None`.
pub fn steady_percentile(values: &[f64], p: f64) -> Option<f64> {
    let all_supported = slices(values.len())
        .into_iter()
        .all(|r| percentile(&values[r], p).is_some());
    if all_supported {
        slice_median(values, |s| percentile(s, p))
    } else {
        percentile(values, p)
    }
}

/// Open-loop latency: from when the request was *due*, not from when the
/// generator got round to sending it, so a stalled generator cannot hide
/// the queueing its stall caused.
pub fn latency_from_due(due_ns: u64, done_ns: u64) -> u64 {
    done_ns.saturating_sub(due_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn p99_refused_below_ten_samples_beyond() {
        let v: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), None, "999 samples leave 9 beyond p99");
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(
            percentile(&v, 0.99),
            Some(989.0),
            "1000 samples leave 10 beyond"
        );
        assert_eq!(percentile(&v, 0.5), Some(499.0));
        assert_eq!(
            percentile(&[7.0], 0.5),
            Some(7.0),
            "a median needs one sample"
        );
    }

    #[test]
    fn slices_cover_everything_once() {
        for n in [0, 4, 5, 1003] {
            let s = slices(n);
            assert_eq!(s.len(), SLICES);
            assert_eq!(s[0].start, 0);
            assert_eq!(s[SLICES - 1].end, n);
            for w in s.windows(2) {
                assert_eq!(w[0].end, w[1].start);
            }
        }
    }

    #[test]
    fn slice_median_ignores_one_burst() {
        // Slice 2 of 5 is ten times slower; the median slice is not.
        let mut v = vec![1.0; 500];
        for x in &mut v[100..200] {
            *x = 10.0;
        }
        assert_eq!(slice_median(&v, |s| Some(mean(s))), Some(1.0));
    }

    #[test]
    fn steady_percentile_falls_back_to_the_whole_segment() {
        // 2,000 samples: no slice of 400 supports p99, the whole does.
        let v: Vec<f64> = (0..2000).map(f64::from).collect();
        assert_eq!(steady_percentile(&v, 0.99), Some(1979.0));
        // 5,000 samples: every slice of 1,000 supports it.
        let v: Vec<f64> = (0..5000).map(|i| f64::from(i % 1000)).collect();
        assert_eq!(steady_percentile(&v, 0.99), Some(989.0));
        assert_eq!(steady_percentile(&v[..500], 0.99), None);
    }

    #[test]
    fn stalled_generator_does_not_hide_queueing() {
        // Three requests due at 0, 1 and 2 ms. The generator stalls and
        // sends all three at 10 ms; each then takes 0.1 ms. Timed from
        // the send they would read 0.1–0.3 ms; from the due time they
        // carry the stall.
        let due = [0u64, 1_000_000, 2_000_000];
        let done = [10_100_000u64, 10_200_000, 10_300_000];
        let lat: Vec<u64> = due
            .iter()
            .zip(done)
            .map(|(&d, f)| latency_from_due(d, f))
            .collect();
        assert_eq!(lat, vec![10_100_000, 9_200_000, 8_300_000]);
    }
}
