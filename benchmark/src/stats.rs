//! The summaries every reported number goes through.

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice or a NaN: both mean a measurement loop is
/// broken, and a silently wrong median would hide it.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in a measured series"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The highest of a series of throughput readings — how the slices of a
/// measurement are summarized.
///
/// Other tenants of the host only ever slow a reading down: the slices of
/// a quiet stretch sit on a plateau and the disturbed ones fall below it,
/// sometimes nine in ten of them for a minute on end. The best slice is
/// the one reading that stays on the plateau through that (the quartiles
/// and the median do not; see README.md for the measured spreads), for the
/// same reason `timeit` reports a minimum. A slice is a tenth of a second
/// or more of work, so there is no "lucky" slice to fear.
///
/// # Panics
/// Panics on an empty slice, like [`median`].
pub fn fastest(rates: &[f64]) -> f64 {
    assert!(!rates.is_empty(), "fastest of no readings");
    rates.iter().copied().fold(f64::MIN, f64::max)
}

/// [`fastest`] for a series of durations: the shortest.
pub fn shortest(times: &[f64]) -> f64 {
    assert!(!times.is_empty(), "shortest of no readings");
    times.iter().copied().fold(f64::MAX, f64::min)
}

/// Nearest-rank percentile of `samples` for `q` in `(0, 1]`: the smallest
/// sample with at least `q` of the samples at or below it. Sorts in
/// place. Zero for an empty slice.
pub fn percentile(samples: &mut [u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // One wild round does not move it.
        assert_eq!(median(&[1.0, 1.1, 0.9, 1.0, 50.0]), 1.0);
    }

    #[test]
    #[should_panic(expected = "median of no values")]
    fn median_of_nothing_panics() {
        median(&[]);
    }

    #[test]
    fn fastest_stays_on_the_plateau_through_a_disturbed_stretch() {
        // A plateau at 100 with most slices disturbed.
        let rates = [100.0, 60.0, 71.0, 70.0, 80.0, 99.0, 85.0, 64.0, 90.0, 77.0];
        assert_eq!(fastest(&rates), 100.0);
        assert_eq!(median(&rates), 78.5);
        // Durations mirror rates: the same slice is picked either way.
        let times: Vec<f64> = rates.iter().map(|r| 1.0 / r).collect();
        assert_eq!(shortest(&times), 1.0 / 100.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let mut s: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut s, 0.99), 99);
        assert_eq!(percentile(&mut s, 0.50), 50);
        assert_eq!(percentile(&mut s, 1.0), 100);
        assert_eq!(percentile(&mut s, 0.001), 1);
        // A p99 needs a tail: with 10 samples it is the maximum.
        let mut few: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&mut few, 0.99), 10);
        assert_eq!(percentile(&mut [], 0.99), 0);
    }
}
