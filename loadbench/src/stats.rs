//! Percentiles, the metric list a workload reports, and the pass/fail
//! tally of its correctness checks.

use std::fmt::Write as _;

/// Nearest-rank percentile of `values` (sorted in place), with the
/// number of samples strictly beyond it. `None` when empty.
pub fn percentile(values: &mut [u64], q: f64) -> Option<(u64, usize)> {
    if values.is_empty() {
        return None;
    }
    values.sort_unstable();
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    Some((values[rank - 1], values.len() - rank))
}

/// Median of `values` (the mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Median of integer samples.
pub fn median_u64(values: &[u64]) -> f64 {
    median(&values.iter().map(|&v| v as f64).collect::<Vec<_>>())
}

/// Mean of integer samples.
pub fn mean_u64(values: &[u64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<u64>() as f64 / values.len() as f64
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// How the value was formed, for the human-readable report
    /// (sample counts behind percentiles, medians over episodes).
    pub basis: String,
}

/// The metrics of one run, in report order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str, basis: String) {
        self.0.push(Metric {
            name,
            value,
            unit,
            basis,
        });
    }

    /// The `q` percentile of nanosecond samples, in `unit`. The `also`
    /// percentiles go into the report line only, not the result.
    pub fn push_percentile(
        &mut self,
        name: &'static str,
        samples: &[u64],
        (q, also): (f64, &[f64]),
        unit: &'static str,
        ns_per_unit: f64,
    ) {
        let mut v = samples.to_vec();
        let mut at = |q: f64| {
            let (value, beyond) = percentile(&mut v, q).unwrap_or((0, 0));
            (value as f64 / ns_per_unit, beyond)
        };
        let (value, beyond) = at(q);
        let mut basis = format!(
            "p{} of {} samples, {beyond} beyond",
            q * 100.0,
            samples.len()
        );
        for &a in also {
            let (v, b) = at(a);
            basis += &format!("; p{} {v:.6} {unit} ({b} beyond)", a * 100.0);
        }
        self.push(name, value, unit, basis);
    }

    /// The `metrics` object of the result line.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, m) in self.0.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                m.name,
                value,
                m.unit
            );
        }
        out.push('}');
        out
    }
}

/// Correctness accounting: every engine call, slice and check is one
/// attempt; an attempt that errs or disagrees is one failure.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure descriptions, for the report.
    pub failures: Vec<String>,
}

impl Tally {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 16 {
                self.failures.push(what());
            }
        }
    }
}
