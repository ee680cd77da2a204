//! What one run reports: output-check tallies, named metrics, the host
//! stamp, and the final one-line JSON result.

use std::fmt::Write as _;

/// Output checks of one run. Every check is one operation attempted;
/// a check that does not hold is one operation failed.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    failures: Vec<String>,
}

impl Checks {
    /// Records one check; `what` describes it and is kept (for the first
    /// few failures) when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    /// Descriptions of the first failed checks.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

/// One named measurement.
#[derive(Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind a median or percentile; `None` for totals, counts
    /// and ratios.
    pub samples: Option<usize>,
}

/// The metrics of one run, in the order they were measured.
#[derive(Debug, Default)]
pub struct Metrics(Vec<Metric>);

impl Metrics {
    /// Adds a measurement taken from `samples` samples.
    pub fn sampled(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.push(name, value, unit, Some(samples));
    }

    /// Adds a total, count or ratio.
    pub fn total(&mut self, name: &str, value: f64, unit: &'static str) {
        self.push(name, value, unit, None);
    }

    fn push(&mut self, name: &str, value: f64, unit: &'static str, samples: Option<usize>) {
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.0.iter().find(|m| m.name == name)
    }

    pub fn iter(&self) -> impl Iterator<Item = &Metric> {
        self.0.iter()
    }
}

/// Wall time no layer timing covers: `wall` minus the sum of `layers`.
/// All arguments are means over the same operations, so the rows
/// reconcile exactly: the layers plus this row add up to the wall time.
pub fn unattributed(wall: f64, layers: &[f64]) -> f64 {
    wall - layers.iter().sum::<f64>()
}

/// The host a result was measured on.
pub struct Host {
    pub cpu: String,
    pub nproc: usize,
}

impl Host {
    pub fn detect() -> Host {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        Host { cpu, nproc }
    }
}

/// Human-readable lines: the stamp, then every metric with its unit and
/// sample count.
pub fn render_text(
    host: &Host,
    workload: &str,
    seed: u64,
    trace: bool,
    metrics: &Metrics,
) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# workload={workload} seed={seed} trace={} cpu=\"{}\" nproc={}",
        u8::from(trace),
        host.cpu,
        host.nproc
    );
    for m in metrics.iter() {
        let samples = m.samples.map_or(String::new(), |n| format!("  (n={n})"));
        let _ = writeln!(out, "{:<36} {:>16.6} {}{samples}", m.name, m.value, m.unit);
    }
    out
}

/// The final result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, the latter holding `wanted` in order, each looked up in
/// `metrics`. A wanted metric the run did not produce is an error.
pub fn render_json(
    checks: &Checks,
    metrics: &Metrics,
    wanted: &[(&str, &'static str)],
) -> Result<String, String> {
    let mut body = Vec::with_capacity(wanted.len());
    for &(name, unit) in wanted {
        let m = metrics
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if m.unit != unit {
            return Err(format!("metric {name} is in {}, not {unit}", m.unit));
        }
        if !m.value.is_finite() {
            return Err(format!("metric {name} is not finite: {}", m.value));
        }
        body.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            m.value
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0 && checks.attempted > 0,
        checks.attempted,
        checks.failed,
        body.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unattributed_is_wall_minus_the_layers() {
        assert_eq!(unattributed(10.0, &[2.0, 3.0, 1.5]), 3.5);
        assert_eq!(unattributed(4.0, &[]), 4.0);
        // Layers that overlap the wall more than once show as negative.
        assert_eq!(unattributed(1.0, &[0.75, 0.5]), -0.25);
    }

    #[test]
    fn checks_count_attempts_and_failures() {
        let mut c = Checks::default();
        c.check(true, || "fine".into());
        c.check(false, || "broken".into());
        assert_eq!((c.attempted, c.failed), (2, 1));
        assert_eq!(c.failures(), ["broken".to_string()]);
    }

    #[test]
    fn json_holds_exactly_the_wanted_metrics() {
        let mut m = Metrics::default();
        m.sampled("a_ms", 1.25, "ms", 10);
        m.total("b", 3.0, "count");
        let mut c = Checks::default();
        c.check(true, String::new);
        let line = render_json(&c, &m, &[("a_ms", "ms")]).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \
             \"metrics\": {\"a_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        assert!(render_json(&c, &m, &[("missing", "ms")]).is_err());
        assert!(render_json(&c, &m, &[("a_ms", "s")]).is_err());
    }

    #[test]
    fn a_failed_check_makes_the_result_incorrect() {
        let mut m = Metrics::default();
        m.total("x", 1.0, "count");
        let mut c = Checks::default();
        c.check(false, String::new);
        let line = render_json(&c, &m, &[("x", "count")]).unwrap();
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 1, \"failed\": 1"));
    }
}
