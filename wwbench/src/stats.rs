//! Order statistics with the benchmark's percentile rule.
//!
//! A tail percentile is only reported where at least [`MIN_BEYOND`]
//! samples lie beyond it: with `n` samples the highest reportable
//! percentile is `100 · (n − 10) / n`, so a p99 needs 1000 samples. When a
//! run has fewer, the rule reports the highest percentile it can support
//! and says which one, together with the sample count.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// A tail percentile as reported: the percentile actually used (at most
/// the one asked for), its value, and the sample count behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    pub pct: f64,
    pub value: f64,
    pub n: usize,
}

/// Nearest-rank percentile of an ascending slice: the value at rank
/// `ceil(pct · n / 100)`.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let n = sorted.len();
    // The epsilon keeps exact products such as 99 · 1000 / 100 = 990 from
    // rounding up to the next rank.
    let rank = ((pct / 100.0 * n as f64) - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// The highest percentile not above `want` that leaves at least
/// [`MIN_BEYOND`] samples beyond it; `None` with too few samples for any.
pub fn tail(samples: &[f64], want: f64) -> Option<Tail> {
    let n = samples.len();
    if n <= MIN_BEYOND {
        return None;
    }
    let pct = want.min(100.0 * (n - MIN_BEYOND) as f64 / n as f64);
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Tail {
        pct,
        value: percentile(&sorted, pct),
        n,
    })
}

/// Median (nearest rank) of unsorted samples; `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(percentile(&sorted, 50.0))
}

/// Median over groups of samples of each group's p99 (by [`tail`]; a
/// group too small to support a p99 is left out), with the number of
/// groups it was taken over.
pub fn median_p99<'a>(groups: impl IntoIterator<Item = &'a [f64]>) -> Option<(f64, usize)> {
    let p99: Vec<f64> = groups
        .into_iter()
        .filter_map(|g| tail(g, 99.0).filter(|t| t.pct == 99.0).map(|t| t.value))
        .collect();
    median(&p99).map(|m| (m, p99.len()))
}

/// Arithmetic mean; `None` when empty.
pub fn mean(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        None
    } else {
        Some(samples.iter().sum::<f64>() / samples.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled so the functions cannot rely on sorted input.
        (0..n).map(|i| ((i * 7919) % n + 1) as f64).collect()
    }

    #[test]
    fn p99_of_a_thousand_samples_leaves_exactly_ten_beyond() {
        let t = tail(&ramp(1000), 99.0).unwrap();
        assert_eq!(t.pct, 99.0);
        assert_eq!(t.n, 1000);
        assert_eq!(t.value, 990.0);
        let beyond = ramp(1000).iter().filter(|&&v| v > t.value).count();
        assert_eq!(beyond, MIN_BEYOND);
    }

    #[test]
    fn short_runs_fall_back_to_the_highest_supported_percentile() {
        let t = tail(&ramp(500), 99.0).unwrap();
        assert_eq!(t.pct, 98.0);
        assert_eq!(t.value, 490.0);
        assert_eq!(ramp(500).iter().filter(|&&v| v > t.value).count(), 10);
        // Plenty of samples: the requested percentile is used as is.
        let t = tail(&ramp(100_000), 99.0).unwrap();
        assert_eq!(t.pct, 99.0);
        assert_eq!(t.value, 99_000.0);
    }

    #[test]
    fn too_few_samples_report_nothing() {
        assert!(tail(&ramp(10), 99.0).is_none());
        assert!(tail(&[], 50.0).is_none());
        let t = tail(&ramp(11), 99.0).unwrap();
        assert_eq!(t.value, 1.0, "one sample at or below, ten beyond");
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn median_p99_skips_groups_too_small_for_a_p99() {
        let (a, b, c) = (ramp(1000), ramp(2000), ramp(3000));
        let small = ramp(500);
        let groups = [&a[..], &small[..], &b[..], &c[..]];
        // p99s 990, 1980 and 2970; the 500-sample group has none.
        assert_eq!(median_p99(groups), Some((1980.0, 3)));
        assert_eq!(median_p99([&small[..]]), None);
    }
}
