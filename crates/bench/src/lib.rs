//! Shared helpers for the experiment harnesses.
//!
//! Every table and figure of the paper has one binary under `src/bin/`;
//! run them with `cargo run -p aurora-bench --bin <name>` (release mode
//! recommended). Each prints the paper's reference numbers next to the
//! reproduction's, so the *shape* comparison is immediate.
//!
//! The actual experiment logic lives in [`suite`]; the binaries are thin
//! wrappers over [`bench_main`], which adds `--json [PATH]` to every one
//! of them (machine-readable `BENCH_<name>.json` export). The `bench_all`
//! binary runs the whole suite and writes every report. Set
//! `AURORA_BENCH_QUICK=1` to shrink workload sizes for smoke runs.

pub mod memcached_sim;
pub mod suite;

use std::collections::HashMap;

/// True when `AURORA_BENCH_QUICK` asks for shrunken smoke-test sizes.
pub fn quick() -> bool {
    std::env::var("AURORA_BENCH_QUICK").map(|v| !v.is_empty() && v != "0").unwrap_or(false)
}

/// One named measurement of a benchmark: `group` scopes it (a table row,
/// a configuration), `name` says what was measured, `value` is the raw
/// number (ns, ops/s, pages — the name carries the unit).
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub group: String,
    pub name: String,
    pub value: f64,
}

/// Frame-arena gauges at the end of a benchmark run, exported as the
/// report's `frames` block: how much page sharing the unified COW frame
/// arena achieved (resident frames, frames with refcount ≥ 2, COW copies
/// broken by writes, and sharing observed during the last system-shadow
/// checkpoint, right after its flush stage).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FrameBlock {
    pub resident: u64,
    pub shared: u64,
    pub copies_broken: u64,
    pub shared_at_checkpoint: u64,
}

/// A machine-readable benchmark result: everything the printed table
/// shows, as raw numbers.
#[derive(Clone, Debug, Default)]
pub struct BenchReport {
    /// Benchmark name (`table5_memory_objects`, …) — the `BENCH_<name>`
    /// stem of the exported file.
    pub name: String,
    pub metrics: Vec<Metric>,
    /// Frame-arena gauges, when the benchmark exercises the arena.
    pub frames: Option<FrameBlock>,
    /// Pre-rendered virtual-time series
    /// ([`aurora_trace::Sampler::series_json`]), spliced verbatim into
    /// the report's `timeseries` key.
    pub timeseries: Option<String>,
    /// Named latency histograms merged across the benchmark's runs,
    /// summarized into the report's `histograms` block.
    pub histograms: Vec<(String, aurora_trace::Histogram)>,
}

impl BenchReport {
    /// Creates an empty report.
    pub fn new(name: &str) -> Self {
        Self::default().named(name)
    }

    fn named(mut self, name: &str) -> Self {
        self.name = name.to_string();
        self
    }

    /// Records one measurement.
    pub fn push(&mut self, group: impl Into<String>, name: impl Into<String>, value: f64) {
        self.metrics.push(Metric { group: group.into(), name: name.into(), value });
    }

    /// Attaches the frame-arena gauge snapshot.
    pub fn set_frames(&mut self, frames: FrameBlock) {
        self.frames = Some(frames);
    }

    /// Attaches a virtual-time metrics series (the sampler's
    /// deterministic JSON). Panics on malformed JSON — the string is
    /// spliced into the report verbatim.
    pub fn set_timeseries(&mut self, series_json: String) {
        aurora_trace::json::validate(&series_json)
            .unwrap_or_else(|e| panic!("timeseries block is not valid JSON: {e}"));
        self.timeseries = Some(series_json);
    }

    /// Merges `h` into the named histogram (creating it on first use) —
    /// per-run histograms accumulate via [`aurora_trace::Histogram::merge`].
    pub fn merge_histogram(&mut self, name: &str, h: &aurora_trace::Histogram) {
        if h.count() == 0 {
            return;
        }
        match self.histograms.iter_mut().find(|(n, _)| n == name) {
            Some((_, have)) => have.merge(h),
            None => self.histograms.push((name.to_string(), h.clone())),
        }
    }

    /// Serializes the report as deterministic JSON (insertion order, no
    /// wall-clock timestamps — two identical runs produce identical
    /// bytes).
    pub fn to_json(&self) -> String {
        use aurora_trace::json::escape;
        let mut out = String::with_capacity(256 + self.metrics.len() * 64);
        out.push_str("{\"bench\":\"");
        out.push_str(&escape(&self.name));
        out.push_str("\",\"metrics\":[");
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            out.push_str(&format!(
                "{{\"group\":\"{}\",\"name\":\"{}\",\"value\":{}}}",
                escape(&m.group),
                escape(&m.name),
                v
            ));
        }
        out.push(']');
        if let Some(f) = &self.frames {
            out.push_str(&format!(
                ",\"frames\":{{\"resident\":{},\"shared\":{},\"copies_broken\":{},\
                 \"shared_at_checkpoint\":{}}}",
                f.resident, f.shared, f.copies_broken, f.shared_at_checkpoint
            ));
        }
        if let Some(ts) = &self.timeseries {
            out.push_str(",\"timeseries\":");
            out.push_str(ts);
        }
        if !self.histograms.is_empty() {
            out.push_str(",\"histograms\":{");
            for (i, (name, h)) in self.histograms.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "\"{}\":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{},\
                     \"p50\":{},\"p95\":{},\"p99\":{}}}",
                    escape(name),
                    h.count(),
                    h.sum(),
                    h.min(),
                    h.max(),
                    h.mean(),
                    h.percentile(50.0),
                    h.percentile(95.0),
                    h.percentile(99.0),
                ));
            }
            out.push('}');
        }
        out.push('}');
        out
    }
}

/// The first pair of metric groups that share at least one metric name
/// and agree on every shared one: two variants the report compares but
/// that measured the same thing.
fn indistinct_groups(report: &BenchReport) -> Option<(&str, &str)> {
    let mut groups: Vec<(&str, HashMap<&str, f64>)> = Vec::new();
    for m in &report.metrics {
        let i = match groups.iter().position(|(g, _)| *g == m.group) {
            Some(i) => i,
            None => {
                groups.push((&m.group, HashMap::new()));
                groups.len() - 1
            }
        };
        groups[i].1.insert(&m.name, m.value);
    }
    for (i, (a, ma)) in groups.iter().enumerate() {
        for (b, mb) in &groups[i + 1..] {
            let mut shared = ma.iter().filter_map(|(n, v)| Some((v, mb.get(n)?))).peekable();
            if shared.peek().is_some() && shared.all(|(x, y)| x == y) {
                return Some((a, b));
            }
        }
    }
    None
}

/// Writes a report to `path` (the `--json` and `bench_all` export path).
/// Panics if two of its metric groups are indistinguishable (see
/// [`indistinct_groups`]): a comparison whose variants cannot differ
/// measures nothing.
pub fn write_report(report: &BenchReport, path: &str) {
    if let Some((a, b)) = indistinct_groups(report) {
        panic!("{}: metric groups '{a}' and '{b}' agree on every shared metric", report.name);
    }
    std::fs::write(path, report.to_json())
        .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    eprintln!("wrote {path}");
}

/// Entry point for every benchmark binary: runs the suite function and
/// honors `--json [PATH]` (default `BENCH_<name>.json`).
pub fn bench_main(run: fn() -> BenchReport) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let report = run();
    if let Some(i) = args.iter().position(|a| a == "--json") {
        let path = match args.get(i + 1) {
            Some(p) if !p.starts_with('-') => p.clone(),
            _ => format!("BENCH_{}.json", report.name),
        };
        write_report(&report, &path);
    }
}

/// Prints a table header.
pub fn header(title: &str, columns: &[&str]) {
    println!("\n=== {title} ===");
    let row = columns.iter().map(|c| format!("{c:>16}")).collect::<Vec<_>>().join(" ");
    println!("{row}");
    println!("{}", "-".repeat(row.len()));
}

/// Prints one row of right-aligned cells.
pub fn row(cells: &[String]) {
    println!("{}", cells.iter().map(|c| format!("{c:>16}")).collect::<Vec<_>>().join(" "));
}

/// Mean and sample standard deviation over repeated experiment runs.
///
/// The paper runs each benchmark at least three times and reports the
/// standard deviation as error bars.
#[derive(Clone, Copy, Debug, PartialEq)]
struct RunSummary {
    /// Mean over runs.
    mean: f64,
    /// Sample standard deviation over runs (0 for a single run).
    stddev: f64,
}

/// Summarizes a slice of per-run measurements.
fn summarize_runs(runs: &[f64]) -> RunSummary {
    if runs.is_empty() {
        return RunSummary { mean: 0.0, stddev: 0.0 };
    }
    let mean = runs.iter().sum::<f64>() / runs.len() as f64;
    let stddev = if runs.len() < 2 {
        0.0
    } else {
        let var =
            runs.iter().map(|r| (r - mean) * (r - mean)).sum::<f64>() / (runs.len() - 1) as f64;
        var.sqrt()
    };
    RunSummary { mean, stddev }
}

/// Formats mean±std over runs using a unit formatter.
pub fn mean_pm(runs: &[f64], fmt: impl Fn(f64) -> String) -> String {
    let s = summarize_runs(runs);
    if runs.len() > 1 && s.stddev > 0.0 {
        format!("{}±{}", fmt(s.mean), fmt(s.stddev))
    } else {
        fmt(s.mean)
    }
}

/// Ratio string (`2.1×`).
pub fn ratio(a: f64, b: f64) -> String {
    if b == 0.0 {
        "∞".to_string()
    } else {
        format!("{:.1}×", a / b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_summary_matches_hand_computation() {
        let s = summarize_runs(&[1.0, 2.0, 3.0]);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert!((s.stddev - 1.0).abs() < 1e-12);
        let single = summarize_runs(&[5.0]);
        assert_eq!(single.stddev, 0.0);
    }

    #[test]
    fn mean_pm_formats() {
        let s = mean_pm(&[1.0, 3.0], |v| format!("{v:.1}"));
        assert!(s.contains('±'), "{s}");
        assert_eq!(mean_pm(&[2.0], |v| format!("{v:.0}")), "2");
    }

    #[test]
    fn indistinct_groups_are_caught() {
        let mut r = BenchReport::new("t");
        r.push("healthy", "ops", 1.0);
        r.push("healthy", "ckpts", 3.0);
        r.push("storm", "aborts", 2.0);
        r.push("degraded", "ops", 1.0);
        r.push("degraded", "ckpts", 3.0);
        assert_eq!(indistinct_groups(&r), Some(("healthy", "degraded")));
        // One differing shared metric tells the groups apart; groups
        // sharing no metric name are never compared.
        r.push("healthy", "p95", 8.0);
        r.push("degraded", "p95", 9.0);
        assert_eq!(indistinct_groups(&r), None);
    }

    #[test]
    fn ratio_formats() {
        assert_eq!(ratio(4.0, 2.0), "2.0×");
        assert_eq!(ratio(1.0, 0.0), "∞");
    }
}
