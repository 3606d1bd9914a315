//! The benchmark's arithmetic: one latency-quantile routine, the quartile
//! rule the A/A comparison shares with the driver, and the decile over
//! slices the workloads report.

/// Nearest-rank quantile of `sorted` latencies out of `attempted`
/// operations. Operations that failed have no sample, so they sit past
/// the end of `sorted`: a quantile that lands on one is `None` — a failed
/// op misses every latency limit.
pub fn quantile(sorted: &[u64], attempted: usize, q: f64) -> Option<u64> {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    debug_assert!(attempted >= sorted.len());
    if attempted == 0 {
        return None;
    }
    let rank = ((q * attempted as f64).ceil() as usize).clamp(1, attempted);
    sorted.get(rank - 1).copied()
}

/// Median of floats (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Quartiles exactly as Python's `statistics.quantiles(values, n=4)`
/// (the default "exclusive" method) gives them — the rule the driver
/// applies to ten runs, so `bench aa` applies the same one.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Which end of a run's slices is the good one.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Good {
    /// Throughput: the upper decile.
    High,
    /// Latency, CPU per operation: the lower decile.
    Low,
}

/// The good-side decile of per-slice values (linear interpolation between
/// ranks); a single slice (a smoke run) stands for itself.
///
/// The shared reference box switches, for tens of seconds at a time,
/// into a state in which everything runs about 30 % slower, and nothing
/// it does to a slice makes the slice faster. A mean, a median or even a
/// quartile over the slices of a run then reads the neighbours, not the
/// program: a 30-second run that spent 22 seconds in the slow state read
/// 223 ops/s by its upper quartile where its neighbours in time read 268
/// and 275, and 266 by its upper decile. The decile needs only a tenth of
/// the run to be quiet, and with hundreds of slices in a run it still has
/// tens of samples beyond it.
pub fn slice_decile(values: &[f64], good: Good) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let q = match good {
        Good::High => 0.9,
        Good::Low => 0.1,
    };
    let at = q * (v.len() - 1) as f64;
    let (lo, frac) = (at.floor() as usize, at.fract());
    let hi = (lo + 1).min(v.len() - 1);
    v[lo] + (v[hi] - v[lo]) * frac
}

/// Inter-quartile distance as a share of the median.
pub fn iqr_share(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_nearest_rank() {
        let s: Vec<u64> = (1..=10).collect();
        assert_eq!(quantile(&s, 10, 0.5), Some(5));
        assert_eq!(quantile(&s, 10, 0.9), Some(9));
        assert_eq!(quantile(&s, 10, 1.0), Some(10));
        assert_eq!(quantile(&s, 10, 0.0), Some(1));
        assert_eq!(quantile(&[7], 1, 0.99), Some(7));
        assert_eq!(quantile(&[], 0, 0.5), None);
    }

    #[test]
    fn failed_ops_miss_the_quantile_they_land_on() {
        // 10 attempted, 2 failed: p50 still has a sample, p90 does not.
        let s: Vec<u64> = (1..=8).collect();
        assert_eq!(quantile(&s, 10, 0.5), Some(5));
        assert_eq!(quantile(&s, 10, 0.8), Some(8));
        assert_eq!(quantile(&s, 10, 0.9), None);
    }

    #[test]
    fn good_side_decile_ignores_disturbed_slices() {
        let quiet: Vec<f64> = vec![100.0; 40];
        let mut disturbed = quiet.clone();
        // Thirty of forty slices lost 30% of their throughput: median and
        // upper quartile read the disturbance, the upper decile does not.
        for slot in disturbed.iter_mut().take(30) {
            *slot = 70.0;
        }
        assert_eq!(median(&disturbed), 70.0);
        assert_eq!(quartiles(&disturbed)[2], 92.5);
        assert_eq!(slice_decile(&disturbed, Good::High), 100.0);
        assert_eq!(slice_decile(&quiet, Good::High), 100.0);
        // Latency: the lower decile shrugs off slow slices the same way.
        let mut lat = vec![15.0; 40];
        for slot in lat.iter_mut().skip(8) {
            *slot = 21.0;
        }
        assert_eq!(slice_decile(&lat, Good::Low), 15.0);
        // Interpolated between ranks: 0.9 * 10 = rank 9 of 0..=10.
        let ramp: Vec<f64> = (0..=10).map(f64::from).collect();
        assert_eq!(slice_decile(&ramp, Good::High), 9.0);
        assert_eq!(slice_decile(&ramp, Good::Low), 1.0);
        assert_eq!(slice_decile(&[0.0, 10.0], Good::High), 9.0);
        assert_eq!(slice_decile(&[7.0], Good::High), 7.0);
        assert_eq!(slice_decile(&[], Good::Low), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
    }
}
