//! Medians, quantiles and the warm-up-plus-slices treatment every timing
//! metric goes through.

/// Length of one slice of a measured phase. Every timing metric is the
/// median over slices of the per-slice value. This box changes speed in
/// bursts of 0.1–5 s (a third faster or slower, NOISE.md); a slice this
/// short is wholly inside or outside a burst, so the median over slices
/// reads the base speed as long as bursts cover under half the phase —
/// five long segments each soak up part of a burst and do not repeat.
pub const SLICE_NS: u64 = 200_000_000;

/// Share of a phase discarded as warm-up.
pub const WARM_UP: f64 = 1.0 / 6.0;

/// Nearest-rank quantile of an ascending slice (`q` in 0..=1).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_unstable_by(f64::total_cmp);
    v
}

pub fn median(v: Vec<f64>) -> f64 {
    quantile(&sorted(v), 0.5)
}

pub fn geomean(v: &[f64]) -> f64 {
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

/// One request as a client saw it: when the reply was in hand (ns since
/// the run clock started) and how long it took.
#[derive(Clone, Copy)]
pub struct Sample {
    pub end_ns: u64,
    pub lat_ns: u32,
}

/// Per-slice values of one or more read bursts.
#[derive(Default)]
pub struct Slices {
    pub qps: Vec<f64>,
    pub p50_us: Vec<f64>,
    pub p99_us: Vec<f64>,
    pub samples: usize,
}

impl Slices {
    /// Drops the warm-up share of the burst `[0, end_ns)` and cuts the
    /// rest into [`SLICE_NS`] slices (a shorter burst is one slice).
    pub fn add_burst(&mut self, samples: &[Sample], end_ns: u64) {
        let begin = (end_ns as f64 * WARM_UP) as u64;
        let slice = SLICE_NS.min(end_ns - begin);
        let slices = ((end_ns - begin) / slice) as usize;
        let mut per_slice: Vec<Vec<f64>> = vec![Vec::new(); slices];
        for s in samples {
            if s.end_ns >= begin {
                if let Some(lat) = per_slice.get_mut(((s.end_ns - begin) / slice) as usize) {
                    lat.push(f64::from(s.lat_ns) / 1e3);
                }
            }
        }
        for lat in per_slice.into_iter().filter(|l| !l.is_empty()) {
            self.samples += lat.len();
            self.qps.push(lat.len() as f64 / (slice as f64 / 1e9));
            let lat = sorted(lat);
            self.p50_us.push(quantile(&lat, 0.5));
            self.p99_us.push(quantile(&lat, 0.99));
        }
    }

    /// Median over slices of throughput, p50 and p99; `None` when no
    /// slice answered a request.
    pub fn summary(&self) -> Option<Summary> {
        if self.qps.is_empty() {
            return None;
        }
        let qps = sorted(self.qps.clone());
        Some(Summary {
            qps: quantile(&qps, 0.5),
            p50_us: median(self.p50_us.clone()),
            p99_us: median(self.p99_us.clone()),
            samples: self.samples,
            slices: qps.len(),
            qps_quartiles: (quantile(&qps, 0.25), quantile(&qps, 0.75)),
        })
    }
}

/// Median-over-slices summary of a workload's reads, with the sample and
/// slice counts and the quartiles of per-slice throughput behind it
/// (reported so a reader can see the spread).
pub struct Summary {
    pub qps: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    pub samples: usize,
    pub slices: usize,
    pub qps_quartiles: (f64, f64),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.5), 2.0);
        assert_eq!(quantile(&v, 0.99), 4.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn warm_up_is_discarded_and_a_burst_does_not_move_the_median() {
        // Six slices' worth: one sample per slice, the first is warm-up,
        // one later slice sits in a slow burst.
        let samples: Vec<Sample> = (0..6)
            .map(|i| Sample {
                end_ns: i * SLICE_NS + 5,
                lat_ns: if i == 0 || i == 3 { 9_000_000 } else { 1000 },
            })
            .collect();
        let mut slices = Slices::default();
        slices.add_burst(&samples, 6 * SLICE_NS);
        let s = slices.summary().expect("five slices answered");
        assert_eq!((s.samples, s.slices), (5, 5));
        assert!(Slices::default().summary().is_none());
        assert_eq!(s.p50_us, 1.0);
        assert_eq!(s.p99_us, 1.0);
    }
}
