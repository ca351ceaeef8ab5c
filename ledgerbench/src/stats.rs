//! Sample statistics, the clock-read calibration, and the metric record
//! every workload reports through.

use std::time::{Duration, Instant};

/// Median and quartiles of a sample set, as Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) gives
/// them, so the benchmark's own spread figures match the acceptance
/// check's arithmetic.
#[derive(Debug, Clone, Copy)]
pub struct Spread {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
}

impl Spread {
    pub fn of(values: &[f64]) -> Spread {
        let mut v: Vec<f64> = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        if n == 0 {
            return Spread {
                q1: 0.0,
                median: 0.0,
                q3: 0.0,
                n,
            };
        }
        if n == 1 {
            return Spread {
                q1: v[0],
                median: v[0],
                q3: v[0],
                n,
            };
        }
        // Exclusive method: the i-th cut point sits at position
        // i·(n+1)/4 in 1-based order, interpolated (or, at the clamped
        // ends, extrapolated) between neighbours — Python's arithmetic.
        let cut = |i: usize| {
            let m = (n + 1) as i64;
            let i = i as i64;
            let j = (i * m / 4).clamp(1, n as i64 - 1);
            let delta = (i * m - j * 4) as f64;
            let (lo, hi) = (v[j as usize - 1], v[j as usize]);
            (lo * (4.0 - delta) + hi * delta) / 4.0
        };
        Spread {
            q1: cut(1),
            median: cut(2),
            q3: cut(3),
            n,
        }
    }

    /// Interquartile distance as a share of the median.
    pub fn rel_iqr(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// A nearest-rank percentile of a sample set, with how many samples lie
/// strictly above it.
#[derive(Debug, Clone, Copy)]
pub struct Percentile {
    pub value: f64,
    pub n: usize,
    pub beyond: usize,
}

impl Percentile {
    /// `p` in (0, 100]; `sorted` ascending.
    pub fn of(sorted: &[f64], p: f64) -> Percentile {
        let n = sorted.len();
        if n == 0 {
            return Percentile {
                value: 0.0,
                n,
                beyond: 0,
            };
        }
        let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
        let value = sorted[rank - 1];
        let beyond = sorted.iter().filter(|&&x| x > value).count();
        Percentile { value, n, beyond }
    }
}

/// The mean cost of one `Instant::now()` on this host, in nanoseconds.
/// Every timed boundary crossing reads the clock twice; one read lands
/// inside the measured interval and one outside it, so each side of the
/// boundary is charged one read, which self times subtract.
pub fn clock_read_ns() -> f64 {
    const READS: u32 = 200_000;
    let mut best = f64::MAX;
    // Best of several batches: a batch that was preempted reads high.
    for _ in 0..7 {
        let t0 = Instant::now();
        let mut last = t0;
        for _ in 0..READS {
            last = std::hint::black_box(Instant::now());
        }
        let ns = last.duration_since(t0).as_nanos() as f64 / f64::from(READS);
        best = best.min(ns);
    }
    best
}

/// Peak resident set of this process in MiB (`VmHWM`), or `None` where
/// `/proc` does not provide it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Share of a run's timing samples its timing figures come from: the
/// fastest hundredth, and never fewer than [`UNSLOWED_MIN`] samples.
///
/// Interference from other tenants of a shared host only ever makes a
/// sample slower, and it comes and goes for fractions of a second to
/// minutes at a stretch: on a 2-vCPU KVM guest the same SLANG+LYRA pass
/// took 24 ms in one stretch and 40 ms in the next, with the code
/// unchanged. The samples it did not slow are the fastest ones, and a
/// change to the code moves them as much as any other sample.
pub const UNSLOWED_SHARE: f64 = 0.01;
/// The fewest samples an unslowed figure is taken over.
pub const UNSLOWED_MIN: usize = 5;

/// The unslowed share of `samples`: the lowest ones when `lower_is_faster`,
/// else the highest, in ascending order.
pub fn unslowed(samples: &[f64], lower_is_faster: bool) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    if !lower_is_faster {
        v.reverse();
    }
    let k = ((v.len() as f64 * UNSLOWED_SHARE).ceil() as usize)
        .max(UNSLOWED_MIN)
        .min(v.len());
    v.truncate(k);
    v.sort_by(f64::total_cmp);
    v
}

/// `ops_per_s`, `req_p50_us` and `req_p90_us` of a CPU-bound workload
/// whose unit of work (one pass, `ops` operations) took `pass_secs`,
/// computed over the unslowed share of passes.
pub fn put_pass_timing(m: &mut Metrics, ops: f64, pass_secs: &[f64]) {
    let us: Vec<f64> = pass_secs.iter().map(|s| s * 1e6).collect();
    let fast = unslowed(&us, true);
    let pool = Some(us.len());
    let median_us = Spread::of(&fast).median;
    m.put("ops_per_s", ops / median_us * 1e6, "1/s");
    m.put_percentile("req_p50_us", Percentile::of(&fast, 50.0), "us");
    m.put_percentile("req_p90_us", Percentile::of(&fast, 90.0), "us");
    for metric in m.0.iter_mut().rev().take(3) {
        metric.pool = pool;
    }
}

/// One line describing a set of pass times.
pub fn pass_profile(pass_secs: &[f64]) -> String {
    let mut sorted_us: Vec<f64> = pass_secs.iter().map(|s| s * 1e6).collect();
    sorted_us.sort_by(f64::total_cmp);
    let p = |q: f64| Percentile::of(&sorted_us, q).value;
    format!(
        "all {} passes (us): min {:.0}, p10 {:.0}, p50 {:.0}, p90 {:.0}, max {:.0}",
        sorted_us.len(),
        sorted_us.first().copied().unwrap_or(0.0),
        p(10.0),
        p(50.0),
        p(90.0),
        sorted_us.last().copied().unwrap_or(0.0)
    )
}

pub fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

/// One reported metric. `spread` describes the samples behind a median;
/// `percentile` the samples behind a tail figure.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub spread: Option<Spread>,
    pub percentile: Option<Percentile>,
    /// The number of samples an unslowed figure was chosen from.
    pub pool: Option<usize>,
}

/// The metrics one run reports, in print order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
            spread: None,
            percentile: None,
            pool: None,
        });
    }

    /// The median of `samples`, keeping the spread.
    pub fn put_median(&mut self, name: &str, samples: &[f64], unit: &'static str) {
        let spread = Spread::of(samples);
        self.0.push(Metric {
            name: name.to_string(),
            value: spread.median,
            unit,
            spread: Some(spread),
            percentile: None,
            pool: None,
        });
    }

    pub fn put_percentile(&mut self, name: &str, p: Percentile, unit: &'static str) {
        self.0.push(Metric {
            name: name.to_string(),
            value: p.value,
            unit,
            spread: None,
            percentile: Some(p),
            pool: None,
        });
    }

    /// The median of the unslowed share of `samples` (see
    /// [`UNSLOWED_SHARE`]), keeping the spread of that share and the
    /// number of samples it was chosen from.
    pub fn put_unslowed(
        &mut self,
        name: &str,
        samples: &[f64],
        lower_is_faster: bool,
        unit: &'static str,
    ) {
        self.put_median(name, &unslowed(samples, lower_is_faster), unit);
        if let Some(m) = self.0.last_mut() {
            m.pool = Some(samples.len());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Spread::of(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Spread::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
    }

    #[test]
    fn unslowed_share_keeps_the_fastest_samples() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(unslowed(&v, true), (1..=10).map(f64::from).collect::<Vec<_>>());
        assert_eq!(
            unslowed(&v, false),
            (991..=1000).map(f64::from).collect::<Vec<_>>()
        );
        // Never fewer than UNSLOWED_MIN samples, nor more than there are.
        assert_eq!(unslowed(&v[..20], true).len(), UNSLOWED_MIN);
        assert_eq!(unslowed(&v[..3], true).len(), 3);
    }

    #[test]
    fn percentile_counts_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let p = Percentile::of(&v, 90.0);
        assert_eq!((p.value, p.beyond, p.n), (90.0, 10, 100));
    }
}
