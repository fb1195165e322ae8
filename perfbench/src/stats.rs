//! Exact percentiles over stored raw samples.
//!
//! Every latency the benchmark reports is a nearest-rank percentile of
//! the full sample vector, never an estimate from the program's bucketed
//! histograms, and it travels with its sample count.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` percent of the samples at or below it. `p` is
/// clamped to `0..=100`; `p = 0` gives the minimum and `p = 100` the
/// maximum. `None` for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let p = if p.is_nan() { 0.0 } else { p.clamp(0.0, 100.0) };
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Splits `samples` (in arrival order) into `windows` consecutive,
/// near-equal chunks and returns the median over the chunks of each
/// chunk's nearest-rank `p`-th percentile; `0.0` when empty. A stall
/// that hits one window moves this far less than the percentile of the
/// pooled samples.
pub fn windowed(samples: &[f64], windows: usize, p: f64) -> f64 {
    let n = samples.len();
    let windows = windows.clamp(1, n.max(1));
    let per_window: Vec<f64> = (0..windows)
        .map(|w| Dist::new(samples[w * n / windows..(w + 1) * n / windows].to_vec()).p(p))
        .collect();
    Dist::new(per_window).p(50.0)
}

/// The percentile ladder [`Dist::deepest`] picks from.
const LADDER: [f64; 6] = [50.0, 90.0, 99.0, 99.9, 99.99, 99.999];

/// A sorted sample set.
#[derive(Clone, Debug, Default)]
pub struct Dist {
    sorted: Vec<f64>,
}

impl Dist {
    /// Sorts `samples` (NaNs are dropped).
    pub fn new(mut samples: Vec<f64>) -> Self {
        samples.retain(|x| !x.is_nan());
        samples.sort_by(f64::total_cmp);
        Dist { sorted: samples }
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.sorted.len()
    }

    /// The nearest-rank `p`-th percentile, `0.0` when empty.
    pub fn p(&self, p: f64) -> f64 {
        percentile(&self.sorted, p).unwrap_or(0.0)
    }

    /// The deepest percentile of the ladder (p50, p90, p99, ...) that
    /// still has at least ten samples above its rank, with its value.
    /// `None` when even the median lacks ten samples beyond it.
    pub fn deepest(&self) -> Option<(f64, f64)> {
        let n = self.sorted.len();
        LADDER
            .iter()
            .copied()
            .rev()
            .find(|&p| {
                let rank = ((p / 100.0) * n as f64).ceil() as usize;
                n.saturating_sub(rank.max(1)) >= 10
            })
            .map(|p| (p, self.p(p)))
    }

    /// `p50 .. p99 (n = ..; deepest pX = ..)` for the human summary.
    pub fn describe(&self, unit: &str) -> String {
        let deepest = match self.deepest() {
            Some((p, v)) => format!("p{p} = {v:.1} {unit} has >= 10 samples beyond it"),
            None => "fewer than 10 samples beyond p50".to_string(),
        };
        format!(
            "p50 {:.1} {unit}, p99 {:.1} {unit}, max {:.1} {unit} (n = {}; {deepest})",
            self.p(50.0),
            self.p(99.0),
            self.p(100.0),
            self.count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sample_has_no_percentile() {
        assert_eq!(percentile(&[], 50.0), None);
        let d = Dist::new(Vec::new());
        assert_eq!(d.count(), 0);
        assert_eq!(d.p(99.0), 0.0);
        assert_eq!(d.deepest(), None);
    }

    #[test]
    fn one_sample_is_every_percentile() {
        for p in [0.0, 1.0, 50.0, 99.0, 100.0] {
            assert_eq!(percentile(&[7.5], p), Some(7.5));
        }
    }

    #[test]
    fn nearest_rank_edges() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.0), Some(1.0));
        assert_eq!(percentile(&sorted, 50.0), Some(50.0));
        assert_eq!(percentile(&sorted, 99.0), Some(99.0));
        assert_eq!(percentile(&sorted, 99.5), Some(100.0));
        assert_eq!(percentile(&sorted, 100.0), Some(100.0));
        assert_eq!(percentile(&sorted, 250.0), Some(100.0));
        assert_eq!(percentile(&sorted, -3.0), Some(1.0));
        assert_eq!(percentile(&[1.0, 2.0], 50.0), Some(1.0));
    }

    #[test]
    fn windowed_percentiles_shrug_off_one_bad_window() {
        assert_eq!(windowed(&[], 10, 99.0), 0.0);
        assert_eq!(windowed(&[3.0], 10, 99.0), 3.0);
        // Ten windows of 1..=100; one window also holds a 1000x stall.
        let mut samples: Vec<f64> = (0..10).flat_map(|_| (1..=100).map(f64::from)).collect();
        samples[50] = 100_000.0;
        assert_eq!(
            percentile(&Dist::new(samples.clone()).sorted, 99.9),
            Some(100_000.0)
        );
        assert_eq!(windowed(&samples, 10, 100.0), 100.0);
        assert_eq!(windowed(&samples, 10, 99.0), 99.0);
        assert_eq!(windowed(&samples, 1, 100.0), 100_000.0);
    }

    #[test]
    fn dist_sorts_and_picks_the_deepest_supported_percentile() {
        let d = Dist::new((0..1000).rev().map(f64::from).collect());
        assert_eq!(d.p(100.0), 999.0);
        assert_eq!(d.p(50.0), 499.0);
        // p99 leaves 10 samples above rank 990; p99.9 only 1.
        assert_eq!(d.deepest(), Some((99.0, 989.0)));
        let small = Dist::new((0..25).map(f64::from).collect());
        assert_eq!(small.deepest().map(|(p, _)| p), Some(50.0));
        assert_eq!(Dist::new(vec![1.0; 12]).deepest(), None);
    }
}
