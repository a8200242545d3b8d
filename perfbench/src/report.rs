//! Sample statistics, metric records, the host fingerprint and the result
//! line every run ends with.

use std::fmt::Write as _;
use std::process::Command;

/// Order statistics of one metric's samples within a run.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
}

/// Quantile `p` of sorted `xs` by the "exclusive" method (position
/// `(n + 1) p`, linear interpolation), the default of Python's
/// `statistics.quantiles`, so in-run quartiles read like the ones computed
/// over runs.
fn quantile(xs: &[f64], p: f64) -> f64 {
    let n = xs.len();
    if n == 1 {
        return xs[0];
    }
    let pos = (n as f64 + 1.0) * p;
    let lo = (pos.floor() as usize).clamp(1, n) - 1;
    let hi = (pos.ceil() as usize).clamp(1, n) - 1;
    let frac = pos - pos.floor();
    xs[lo] + (xs[hi] - xs[lo]) * frac
}

pub fn summarize(samples: &[f64]) -> Summary {
    assert!(!samples.is_empty(), "summarize needs at least one sample");
    let mut xs = samples.to_vec();
    xs.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    Summary {
        n: xs.len(),
        median: quantile(&xs, 0.5),
        q1: quantile(&xs, 0.25),
        q3: quantile(&xs, 0.75),
        min: xs[0],
        max: xs[xs.len() - 1],
    }
}

/// `q`-quantile (0..1) of unsorted samples, nearest-rank; used for tail
/// percentiles such as p90.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile needs at least one sample");
    let mut xs = samples.to_vec();
    xs.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    let rank = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
    xs[rank - 1]
}

/// One reported metric: the value the result line carries plus the samples
/// it came from.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub summary: Summary,
}

impl Metric {
    /// A metric whose value is the median of its samples.
    pub fn median(name: impl Into<String>, unit: &'static str, samples: &[f64]) -> Metric {
        let summary = summarize(samples);
        Metric {
            name: name.into(),
            unit,
            value: summary.median,
            summary,
        }
    }

    /// A metric with an explicit value (a count, a ratio, a percentile)
    /// summarised over `samples`.
    pub fn with_value(
        name: impl Into<String>,
        unit: &'static str,
        value: f64,
        samples: &[f64],
    ) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
            summary: summarize(samples),
        }
    }

    /// A single measured number (count, ratio) with no spread.
    pub fn single(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric::with_value(name, unit, value, &[value])
    }
}

/// Correctness tally of one run: every check is one attempted operation.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Checks {
    /// Record one check; a failure keeps `what` for the report.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(what());
        }
    }

    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Where and with what a run was measured.
pub struct Host {
    pub cores: usize,
    pub cpu: String,
    pub rustc: String,
    pub git_rev: String,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

impl Host {
    pub fn probe() -> Host {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Host {
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu,
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
            git_rev: command_line("git", &["rev-parse", "--short=12", "HEAD"])
                .unwrap_or_else(|| "none (not a git checkout)".into()),
        }
    }
}

/// The process's peak resident set (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Everything one run produced.
pub struct RunRecord<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub trace: bool,
    pub host: &'a Host,
    /// Result-line metrics.
    pub metrics: &'a [Metric],
    /// Informational metrics, shown in the table and the record only.
    pub extra: &'a [Metric],
    pub checks: &'a Checks,
}

impl RunRecord<'_> {
    /// Human-readable table: one line per metric with its sample spread.
    pub fn table(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "# perfbench workload={} seed={} trace={} | host: {} cores, {}, {}, rev {}",
            self.workload,
            self.seed,
            u8::from(self.trace),
            self.host.cores,
            self.host.cpu,
            self.host.rustc,
            self.host.git_rev
        );
        let _ = writeln!(
            s,
            "{:<44} {:>14} {:<6} {:>5} {:>12} {:>12} {:>12} {:>12} {:>12}",
            "metric", "value", "unit", "N", "median", "q1", "q3", "min", "max"
        );
        for m in self.metrics.iter().chain(self.extra) {
            let x = &m.summary;
            let _ = writeln!(
                s,
                "{:<44} {:>14.6} {:<6} {:>5} {:>12.6} {:>12.6} {:>12.6} {:>12.6} {:>12.6}",
                m.name, m.value, m.unit, x.n, x.median, x.q1, x.q3, x.min, x.max
            );
        }
        let _ = writeln!(
            s,
            "# checks: {} attempted, {} failed, error_rate {}",
            self.checks.attempted,
            self.checks.failed,
            self.checks.error_rate()
        );
        for n in &self.checks.notes {
            let _ = writeln!(s, "# FAILED: {n}");
        }
        s
    }

    /// Full record (host, seed, every metric with N/median/quartiles/min/
    /// max, every failed check) as one JSON document.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        let _ = write!(
            s,
            "\"workload\":{},\"seed\":{},\"trace\":{},\"host\":{{\"cores\":{},\"cpu\":{},\"rustc\":{},\"git_rev\":{}}},",
            json_str(self.workload),
            self.seed,
            self.trace,
            self.host.cores,
            json_str(&self.host.cpu),
            json_str(&self.host.rustc),
            json_str(&self.host.git_rev)
        );
        let _ = write!(
            s,
            "\"attempted\":{},\"failed\":{},\"error_rate\":{},\"failures\":[{}],\"metrics\":{{",
            self.checks.attempted,
            self.checks.failed,
            json_num(self.checks.error_rate()),
            self.checks
                .notes
                .iter()
                .map(|n| json_str(n))
                .collect::<Vec<_>>()
                .join(",")
        );
        for (i, m) in self.metrics.iter().chain(self.extra).enumerate() {
            let x = &m.summary;
            let _ = write!(
                s,
                "{}{}:{{\"value\":{},\"unit\":{},\"n\":{},\"median\":{},\"q1\":{},\"q3\":{},\"min\":{},\"max\":{}}}",
                if i == 0 { "" } else { "," },
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit),
                x.n,
                json_num(x.median),
                json_num(x.q1),
                json_num(x.q3),
                json_num(x.min),
                json_num(x.max)
            );
        }
        s.push_str("}}");
        s
    }

    /// The last stdout line: exactly `correct`, `attempted`, `failed` and
    /// `metrics` (value and unit per metric).
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    json_str(&m.name),
                    json_num(m.value),
                    json_str(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.checks.failed == 0 && self.checks.attempted > 0,
            self.checks.attempted,
            self.checks.failed,
            metrics.join(",")
        )
    }
}
