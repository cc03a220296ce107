//! Summary statistics for timings: medians, quartiles, and the tail rule
//! (the highest percentile that still has at least ten samples beyond it).

/// Percentiles considered for a tail, highest first.
const TAIL_PERCENTILES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// A timing summary: median, the highest percentile with at least
/// [`MIN_BEYOND`] samples beyond it (when there is one), and the count.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// `(percentile, value)`; `None` with fewer than `4 * MIN_BEYOND`
    /// samples, where even p75 has too few beyond it.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    pub fn of(xs: &[f64]) -> Summary {
        let mut sorted = xs.to_vec();
        sorted.sort_by(f64::total_cmp);
        let tail = TAIL_PERCENTILES.iter().find_map(|&p| {
            let (v, beyond) = nearest_rank(&sorted, p)?;
            (beyond >= MIN_BEYOND).then_some((p, v))
        });
        Summary {
            n: sorted.len(),
            p50: median_sorted(&sorted),
            tail,
        }
    }

    /// `p50 0.054 ms, p99 0.101 ms, n=1043`.
    pub fn describe(&self, unit: &str) -> String {
        let tail = match self.tail {
            Some((p, v)) => format!("p{} {v:.4} {unit}, ", fmt_pct(p)),
            None => String::new(),
        };
        format!("p50 {:.4} {unit}, {tail}n={}", self.p50, self.n)
    }
}

/// `99.0` → `"99"`, `99.9` → `"99.9"`.
pub fn fmt_pct(p: f64) -> String {
    if p.fract() == 0.0 {
        format!("{p:.0}")
    } else {
        format!("{p}")
    }
}

/// Nearest-rank percentile of sorted samples, with the number of samples
/// strictly after its rank. `None` for an empty slice.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<(f64, usize)> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    // The epsilon keeps float error in `p / 100 * n` from bumping an exact
    // rank (990.0000000000001 for p99 of 1000) to the next sample.
    let rank = ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n);
    Some((sorted[rank - 1], n - rank))
}

fn median_sorted(sorted: &[f64]) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Median of unsorted samples (NaN when empty).
pub fn median(xs: &[f64]) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    median_sorted(&sorted)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_is_highest_percentile_with_ten_beyond() {
        // 1000 samples: p99 sits at rank 990 with exactly 10 beyond it.
        let s = Summary::of(&ramp(1000));
        assert_eq!(s.n, 1000);
        assert_eq!(s.tail, Some((99.0, 990.0)));
        // 999 samples: p99 would leave only 9 beyond, so p95 is reported.
        let s = Summary::of(&ramp(999));
        assert_eq!(s.tail, Some((95.0, 950.0)));
        // 10000 samples reach p99.9.
        assert_eq!(Summary::of(&ramp(10_000)).tail, Some((99.9, 9990.0)));
        // 192 sweep cells: p95 leaves 9 beyond, p90 leaves 19.
        let s = Summary::of(&ramp(192));
        assert_eq!(s.tail, Some((90.0, 173.0)));
    }

    #[test]
    fn too_few_samples_give_no_tail() {
        let s = Summary::of(&ramp(39));
        assert_eq!(s.tail, None);
        assert_eq!(s.p50, 20.0);
        assert_eq!(s.n, 39);
        assert_eq!(s.describe("s"), "p50 20.0000 s, n=39");
        // 40 samples: p75 leaves exactly ten beyond.
        assert_eq!(Summary::of(&ramp(40)).tail, Some((75.0, 30.0)));
    }

    #[test]
    fn sample_count_and_median_ignore_input_order() {
        let mut xs = ramp(1000);
        xs.reverse();
        let s = Summary::of(&xs);
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50, 500.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!(median(&[]).is_nan());
        assert_eq!(s.describe("ms"), "p50 500.5000 ms, p99 990.0000 ms, n=1000");
    }
}
