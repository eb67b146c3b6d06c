//! Small statistics helpers: quantiles over samples and the ordered
//! metric list a run reports.

/// Nearest-rank quantile `q` in `[0, 1]` of `samples` (sorted in place).
/// Returns 0 for an empty sample.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Median of `samples` (sorted in place); 0 for an empty sample.
pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Samples bucketed by segment of a phase: quantiles are taken per
/// segment and the median over segments is reported, so one preempted
/// stretch of a run moves one segment, not the result.
///
/// Storage is allocated and touched up front, so the benchmark's own
/// memory does not grow with the speed of the program under test (and
/// `peak_rss_mib` stays the program's). A segment that fills up keeps a
/// uniform sample of what it saw (reservoir sampling, seeded by the
/// sample count, so runs stay reproducible).
#[derive(Debug)]
pub struct Segmented {
    segments: Vec<Segment>,
}

#[derive(Debug)]
struct Segment {
    samples: Vec<f64>,
    len: usize,
    seen: u64,
}

impl Segmented {
    /// `segments` segments of at most `cap` stored samples each.
    pub fn new(segments: usize, cap: usize) -> Self {
        Segmented {
            segments: (0..segments)
                .map(|_| Segment {
                    samples: vec![0.0; cap],
                    len: 0,
                    seen: 0,
                })
                .collect(),
        }
    }

    /// Add `value` to segment `seg`; values past the last segment are
    /// not kept.
    pub fn push(&mut self, seg: usize, value: f64) {
        let Some(s) = self.segments.get_mut(seg) else {
            return;
        };
        s.seen += 1;
        if s.len < s.samples.len() {
            s.samples[s.len] = value;
            s.len += 1;
        } else {
            let j = (splitmix64(s.seen ^ (seg as u64) << 48) % s.seen) as usize;
            if let Some(slot) = s.samples.get_mut(j) {
                *slot = value;
            }
        }
    }

    /// Median over segments with at least `min_len` samples of each
    /// segment's `q` quantile.
    pub fn median_of(&mut self, q: f64, min_len: usize) -> f64 {
        let mut per: Vec<f64> = self
            .segments
            .iter_mut()
            .filter(|s| s.len >= min_len.max(1))
            .map(|s| quantile(&mut s.samples[..s.len], q))
            .collect();
        median(&mut per)
    }

    /// Every stored sample, in segment order.
    #[cfg(test)]
    pub fn all(&self) -> Vec<f64> {
        self.segments
            .iter()
            .flat_map(|s| s.samples[..s.len].iter().copied())
            .collect()
    }
}

impl Default for Segmented {
    /// No segments: keeps nothing.
    fn default() -> Self {
        Segmented::new(0, 0)
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One named, unit-carrying value in a run's report.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value (always finite).
    pub value: f64,
    /// Unit string.
    pub unit: &'static str,
}

/// The metrics of one run, in insertion order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Set `name` to `value`, replacing an earlier value. Non-finite
    /// values (an empty ratio) are stored as 0 so the report stays JSON.
    pub fn set(&mut self, name: &'static str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        match self.0.iter_mut().find(|m| m.name == name) {
            Some(m) => {
                m.value = value;
                m.unit = unit;
            }
            None => self.0.push(Metric { name, value, unit }),
        }
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.5), 50.0);
        assert_eq!(quantile(&mut v, 0.99), 99.0);
        assert_eq!(quantile(&mut v, 1.0), 100.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn segment_median_ignores_one_outlier_segment() {
        let mut s = Segmented::new(5, 16);
        for seg in 0..5 {
            for i in 0..10 {
                s.push(seg, if seg == 2 { 1000.0 } else { f64::from(i) });
            }
        }
        assert_eq!(s.median_of(1.0, 1), 9.0);
    }

    #[test]
    fn a_full_segment_keeps_a_uniform_sample() {
        let mut s = Segmented::new(1, 1000);
        for i in 0..100_000 {
            s.push(0, f64::from(i));
        }
        s.push(7, 1.0);
        let kept = s.all();
        assert_eq!(kept.len(), 1000);
        let median = s.median_of(0.5, 1);
        assert!((40_000.0..60_000.0).contains(&median), "median {median}");
    }
}
