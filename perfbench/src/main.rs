//! The Aurora reproduction's benchmark: three seeded workloads, measured
//! end to end on the host clock and the virtual clock, and split by layer
//! in a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload kv_ckpt|image_restore|repl_quorum|all \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Every run makes two untraced trials of the same seeded work; an
//! untraced run pools both into the end-to-end metrics. A traced run adds
//! a third trial that records spans: the single-layer metrics come from
//! it, and its host time over the second (equally warm) untraced trial's
//! is `trace.overhead_ratio`. The workload-specific end-to-end figures a
//! traced run also reports come from its untraced trials.
//! The last line of output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Any failed output
//! oracle makes the exit code 1.
//!
//! The determinism check compares the two untraced trials' virtual-clock
//! values and counts, which must be identical; a mismatch is a failure.
//! `repl_quorum` fails it today: once `coordinated_prune` frees store
//! blocks, the object store hands them out in hash-map order, so block
//! placement — and with it the virtual I/O timing of later rounds —
//! differs between processes.

mod harness;
mod image_restore;
mod kv_ckpt;
mod metrics;
mod repl_quorum;
mod spans;
mod stats;

use harness::{peak_rss_mb, Rec};
use metrics::{Def, Value, END_TO_END, PER_LAYER};
use stats::Tally;
use std::fmt::Write as _;
use std::process::ExitCode;

/// Untraced trials per run (a traced run adds one traced trial).
const TRIALS: usize = 2;
/// Set-ups timed per untraced run (the trials' own, plus set-up-only
/// repetitions); `setup_s` is their median.
const SETUPS: usize = 7;
/// Where a traced run writes its spans, relative to the working
/// directory.
const SPANS_DIR: &str = ".bench_out";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    KvCkpt,
    ImageRestore,
    ReplQuorum,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::KvCkpt,
        Workload::ImageRestore,
        Workload::ReplQuorum,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::KvCkpt => "kv_ckpt",
            Workload::ImageRestore => "image_restore",
            Workload::ReplQuorum => "repl_quorum",
        }
    }

    /// Work per trial (checkpoints, epochs or rounds) for a run of
    /// `seconds`; a pure function of it, so the virtual-clock figures
    /// depend only on the seed and the run length.
    fn size(self, seconds: u64) -> u64 {
        match self {
            Workload::KvCkpt => kv_ckpt::checkpoints(seconds),
            Workload::ImageRestore => image_restore::epochs(seconds),
            Workload::ReplQuorum => repl_quorum::rounds(seconds),
        }
    }

    fn trial(self, seed: u64, size: u64, traced: bool) -> Rec {
        match self {
            Workload::KvCkpt => kv_ckpt::trial(seed, size, traced),
            Workload::ImageRestore => image_restore::trial(seed, size, traced),
            Workload::ReplQuorum => repl_quorum::trial(seed, size, traced),
        }
    }

    fn setup_only(self, seed: u64) -> f64 {
        match self {
            Workload::KvCkpt => kv_ckpt::setup_only(seed),
            Workload::ImageRestore => image_restore::setup_only(seed),
            Workload::ReplQuorum => repl_quorum::setup_only(seed),
        }
    }
}

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = std::env::args().skip(1);
    let (mut workloads, mut seed, mut seconds, mut trace) = (None, None, 10, false);
    while let Some(flag) = args.next() {
        let mut val = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = val()?;
                workloads = Some(match v.as_str() {
                    "all" => Workload::ALL.to_vec(),
                    _ => vec![*Workload::ALL
                        .iter()
                        .find(|w| w.name() == v)
                        .ok_or(format!("unknown workload {v}"))?],
                });
            }
            "--seed" => seed = Some(val()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--catalogue" => {
                print!("{}", catalogue());
                return Ok(None);
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Some(Args {
        workloads: workloads.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    }))
}

/// The metric catalogue as a Markdown table.
fn catalogue() -> String {
    let mut out = String::new();
    for (title, defs) in [("End-to-end", END_TO_END), ("Per-layer", PER_LAYER)] {
        let _ = writeln!(out, "\n### {title}\n\n| metric | unit | better | layer | meaning / moves |\n|---|---|---|---|---|");
        for d in defs {
            let _ = writeln!(
                out,
                "| `{}` | {} | {} | {} | {} |",
                d.name,
                d.unit,
                d.better.as_str(),
                d.layer,
                d.moves
            );
        }
    }
    out
}

/// The outcome of one workload run.
struct Outcome {
    metrics: Vec<(&'static Def, Value)>,
    tally: Tally,
}

/// First difference between two trials' virtual-clock data, if any.
fn first_difference(a: &metrics::Data, b: &metrics::Data) -> Option<String> {
    let (a, b) = (a.deterministic(), b.deterministic());
    for (k, v) in &a.series {
        if b.series.get(k) != Some(v) {
            let at = v
                .iter()
                .zip(b.series.get(k).map_or(&[][..], |x| x))
                .position(|(x, y)| x != y);
            return Some(format!(
                "series {k} at sample {at:?}: {:?} vs {:?}",
                at.map(|i| v[i]),
                at.and_then(|i| b.series.get(k).map(|x| x[i]))
            ));
        }
    }
    for (k, v) in &a.sums {
        if b.sums.get(k) != Some(v) {
            return Some(format!("sum {k}: {v} vs {:?}", b.sums.get(k)));
        }
    }
    (a != b).then(|| "key sets".to_string())
}

fn run(w: Workload, seed: u64, seconds: u64, traced: bool) -> Outcome {
    let size = w.size(seconds);
    let mut tally = Tally::default();
    let trials = TRIALS + usize::from(traced);
    let mut recs: Vec<Rec> = Vec::with_capacity(trials);
    for t in 0..trials {
        let rec = w.trial(seed, size, t == TRIALS);
        let sum = |k| rec.data.sums.get(k).copied().unwrap_or(0.0);
        eprintln!(
            "{} trial {t}{}: {:.2} s body, checkpoint p50 {:.3} ms, {} ops checked, \
             {} failed; per checkpoint {:.1} writes, {:.0} user bytes",
            w.name(),
            if rec.tr.is_on() { " (traced)" } else { "" },
            sum("body_host_s"),
            rec.data
                .series
                .get("ckpt_host_ns")
                .and_then(|v| stats::median(v))
                .unwrap_or(0.0)
                / 1e6,
            rec.tally.attempted,
            rec.tally.failed,
            sum("writes") / sum("ckpts"),
            sum("user_bytes") / sum("ckpts")
        );
        recs.push(rec);
    }
    for r in &mut recs {
        tally.merge(std::mem::take(&mut r.tally));
    }
    let diff = first_difference(&recs[0].data, &recs[1].data);
    tally.check(diff.is_none(), || {
        format!(
            "determinism: two trials of seed {seed} differ in {}",
            diff.unwrap_or_default()
        )
    });

    let mut pooled = metrics::Data::default();
    for r in &recs[..TRIALS] {
        pooled.merge(&r.data);
    }
    // The workload-specific end-to-end figures come from the untraced
    // trials, in a traced run too: the traced trial's host clock carries
    // the tracer's cost.
    let specific = metrics::per_layer(&pooled, &[], 0.0);
    let e2e_specific = PER_LAYER.iter().filter(|d| d.layer == "e2e");

    let values = if traced {
        let host = |r: &Rec| r.data.sums.get("body_host_s").copied().unwrap_or(0.0);
        let overhead = host(&recs[TRIALS]) / host(&recs[TRIALS - 1]);
        let tr = &recs[TRIALS].tr;
        eprintln!("\nself time by span ({} spans):", tr.spans().len());
        for (name, calls, total, p50) in metrics::self_time_table(tr.spans()) {
            eprintln!(
                "  {name:<34} {calls:>9} calls {:>10.1} ms total {:>12.0} ns p50",
                total / 1e6,
                p50
            );
        }
        if let Err(e) = write_spans(w, tr) {
            eprintln!("could not write spans: {e}");
        }
        let mut m = metrics::per_layer(&recs[TRIALS].data, tr.spans(), overhead);
        for d in e2e_specific {
            m.insert(d.name, specific[d.name]);
        }
        m
    } else {
        let mut setups: Vec<f64> = recs[..TRIALS]
            .iter()
            .filter_map(|r| r.data.sums.get("setup_host_s").copied())
            .collect();
        while setups.len() < SETUPS {
            setups.push(w.setup_only(seed));
        }
        // The workload-specific figures, for the human-readable report.
        for d in e2e_specific {
            let v = specific[d.name];
            if v.value != 0.0 {
                println!(
                    "{:<32} {:>16.4} {:<6} (n={})  [{}]",
                    d.name,
                    v.value,
                    d.unit,
                    v.n,
                    w.name()
                );
            }
        }
        metrics::end_to_end(&pooled, &setups, peak_rss_mb())
    };

    let defs = if traced { PER_LAYER } else { END_TO_END };
    let mut out = Vec::with_capacity(defs.len());
    for d in defs {
        match values.get(d.name) {
            Some(&v) => out.push((d, v)),
            None => tally.fail(format!(
                "{}: metric {} could not be computed",
                w.name(),
                d.name
            )),
        }
    }
    Outcome {
        metrics: out,
        tally,
    }
}

fn write_spans(w: Workload, tr: &spans::Tracer) -> std::io::Result<()> {
    std::fs::create_dir_all(SPANS_DIR)?;
    let path = format!("{SPANS_DIR}/spans_{}.jsonl", w.name());
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
    tr.write_jsonl(&mut f)?;
    std::io::Write::flush(&mut f)?;
    eprintln!("spans written to {path}");
    Ok(())
}

fn json_line(tally: &Tally, metrics: &[(String, &'static str, Value)]) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed
    );
    for (i, (name, unit, v)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            v.value
        );
    }
    s.push_str("}}");
    s
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: --workload kv_ckpt|image_restore|repl_quorum|all --seed N [--seconds S] [--trace 0|1] | --catalogue");
            return ExitCode::from(2);
        }
    };
    let all = args.workloads.len() > 1;
    let mut total = Tally::default();
    let mut line: Vec<(String, &'static str, Value)> = Vec::new();
    for &w in &args.workloads {
        // `all` runs each workload untraced and then traced.
        let modes: &[bool] = if all {
            &[false, true]
        } else {
            std::slice::from_ref(&args.trace)
        };
        for &traced in modes {
            println!(
                "# {} seed={} seconds={} trace={}",
                w.name(),
                args.seed,
                args.seconds,
                traced as u8
            );
            let o = run(w, args.seed, args.seconds, traced);
            for (d, v) in &o.metrics {
                println!("{:<32} {:>16.4} {:<6} (n={})", d.name, v.value, d.unit, v.n);
                let name = if all {
                    format!("{}.{}", w.name(), d.name)
                } else {
                    d.name.to_string()
                };
                line.push((name, d.unit, *v));
            }
            println!(
                "{:<32} {:>16.6} {:<6} ({} of {} failed)",
                "error_rate",
                o.tally.error_rate(),
                "ratio",
                o.tally.failed,
                o.tally.attempted
            );
            for n in &o.tally.notes {
                println!("FAILED: {n}");
            }
            total.merge(o.tally);
        }
    }
    println!("{}", json_line(&total, &line));
    if total.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
