//! The metric catalogue and the reduction of raw samples to metrics.
//!
//! `END_TO_END` is what a user of the system sees; every entry exists on
//! every workload and is measured with tracing off. `PER_LAYER` is what
//! the traced run reports: single-layer metrics, plus the end-to-end
//! figures that only one workload has (listed here, rather than with the
//! end-to-end set, because that set must be present on every workload).
//! A per-layer metric reads 0 on a workload that does not exercise it.

use crate::spans::{self_ns_of, self_ns_per_op, self_times, Span};
use crate::stats::{median, percentile};
use std::collections::BTreeMap;

/// Whether lower or higher is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One catalogued metric.
#[derive(Clone, Copy, Debug)]
pub struct Def {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Owning layer (`e2e` for user-visible metrics).
    pub layer: &'static str,
    /// What an end-to-end metric means; for a single-layer metric, the
    /// end-to-end metric it should move and on which workload.
    pub moves: &'static str,
}

const fn d(
    name: &'static str,
    unit: &'static str,
    better: Better,
    layer: &'static str,
    moves: &'static str,
) -> Def {
    Def {
        name,
        unit,
        better,
        layer,
        moves,
    }
}

use Better::{Higher as H, Lower as L};

/// End-to-end metrics, reported on every workload by the untraced run.
#[rustfmt::skip]
pub const END_TO_END: &[Def] = &[
    d("setup_s", "s", L, "e2e", "median host seconds to build the machine, image and first checkpoint"),
    d("peak_rss_mb", "MiB", L, "e2e", "peak resident set (VmHWM) of the run"),
    d("stop_us_p50", "us", L, "e2e", "virtual application stop time per checkpoint, median"),
    d("release_us_p50", "us", L, "e2e", "virtual µs from checkpoint call to release: durable (kv_ckpt, image_restore) or quorum-acked (repl_quorum)"),
    d("virt_ops_per_s", "1/s", H, "e2e", "workload operations per virtual second"),
    d("host_ops_per_s", "1/s", H, "e2e", "workload operations per host second, checkpoints, restores and replication included"),
    d("ckpt_host_ms_p50", "ms", L, "e2e", "host ms of the checkpoint call (+ barriers in image_restore, + replication send in repl_quorum), median"),
    d("round_host_ms_p50", "ms", L, "e2e", "host ms of one epoch round: its operations plus its checkpoint (and quorum wait in repl_quorum), median"),
    d("dev_bytes_per_user_byte", "B/B", L, "e2e", "device bytes written by checkpoints per byte the application wrote"),
];

/// Per-layer metrics, reported by the traced run.
#[rustfmt::skip]
pub const PER_LAYER: &[Def] = &[
    // End-to-end figures that exist on one workload only.
    d("req_lat_us_p50", "us", L, "e2e", "kv_ckpt only: virtual request latency, median"),
    d("req_lat_us_p99", "us", L, "e2e", "kv_ckpt only: virtual request latency, p99"),
    d("stop_us_p90", "us", L, "e2e", "kv_ckpt, image_restore: stop time p90 (0 with fewer than 10 samples beyond)"),
    d("ckpt_host_ms_p90", "ms", L, "e2e", "kv_ckpt, image_restore: checkpoint host ms p90 (same rule)"),
    d("restore_host_ms_p50", "ms", L, "e2e", "image_restore only: host ms of a full restore, median"),
    d("restore_virt_ms", "ms", L, "e2e", "image_restore only: virtual ms of a full restore, median"),
    // apps
    d("apps.get_host_ns_p50", "ns", L, "apps", "host_ops_per_s on kv_ckpt"),
    d("apps.set_host_ns_p50", "ns", L, "apps", "host_ops_per_s on kv_ckpt"),
    d("apps.set_host_ns_p99", "ns", L, "apps", "host_ops_per_s on kv_ckpt"),
    // vm
    d("vm.cow_breaks_per_ckpt", "count", L, "vm", "virt_ops_per_s and req_lat_us_p99 on kv_ckpt"),
    d("vm.faults_per_kop", "count", L, "vm", "virt_ops_per_s and req_lat_us_p99 on kv_ckpt"),
    d("vm.pte_downgrades_per_ckpt", "count", L, "vm", "ckpt_host_ms_p50 and stop_us_p50 on image_restore"),
    d("frames.shared_at_ckpt", "count", L, "vm", "peak_rss_mb on every workload"),
    // posix
    d("posix.quiesce_us_p50", "us", L, "posix", "stop_us_p50 on every workload"),
    // core pipeline, virtual
    d("core.collapse_us_p50", "us", L, "core", "stop_us_p50 on every workload"),
    d("core.aio_us_p50", "us", L, "core", "stop_us_p50 on every workload"),
    d("core.os_state_us_p50", "us", L, "core", "stop_us_p50 on every workload"),
    d("core.shadow_us_p50", "us", L, "core", "stop_us_p50 on every workload"),
    d("core.resume_us_p50", "us", L, "core", "stop_us_p50 on every workload"),
    d("core.flush_us_p50", "us", L, "core", "release_us_p50 on repl_quorum"),
    d("core.commit_us_p50", "us", L, "core", "release_us_p50 on repl_quorum"),
    // core pipeline, host
    d("core.checkpoint_host_ms_p50", "ms", L, "core", "host_ops_per_s on kv_ckpt"),
    d("core.barrier_host_us_p50", "us", L, "core", "ckpt_host_ms_p50 on image_restore"),
    // core restore
    d("core.restore_full_host_ms", "ms", L, "core", "restore_host_ms_p50 and restore_virt_ms on image_restore"),
    d("core.restore_lazy_host_ms", "ms", L, "core", "restore_host_ms_p50 and restore_virt_ms on image_restore"),
    d("core.fault_in_host_us_per_page", "us", L, "core", "restore_host_ms_p50 and restore_virt_ms on image_restore"),
    d("core.pages_read_per_restore", "count", L, "core", "restore_host_ms_p50 and restore_virt_ms on image_restore"),
    // core sendrecv
    d("core.send_delta_host_ms_p50", "ms", L, "core", "round_host_ms_p50 on repl_quorum"),
    d("core.delta_pages_per_round", "count", L, "core", "release_us_p50 on repl_quorum"),
    d("core.delta_bytes_per_round", "B", L, "core", "release_us_p50 on repl_quorum"),
    // objstore
    d("objstore.cache_hit_ratio", "ratio", H, "objstore", "restore_host_ms_p50 on image_restore"),
    d("objstore.materializations_per_restore", "count", L, "objstore", "restore_host_ms_p50 on image_restore"),
    d("objstore.redo_chain_len_p95", "count", L, "objstore", "restore_host_ms_p50 on image_restore"),
    d("objstore.redo_appended_per_ckpt", "count", L, "objstore", "dev_bytes_per_user_byte on kv_ckpt"),
    // storage
    d("storage.dev_bytes_per_ckpt", "B", L, "storage", "dev_bytes_per_user_byte and stop_us_p90 on kv_ckpt and image_restore"),
    d("storage.queue_depth_max", "count", L, "storage", "dev_bytes_per_user_byte and stop_us_p90 on kv_ckpt and image_restore"),
    // cluster
    d("cluster.replicate_host_ms_p50", "ms", L, "cluster", "round_host_ms_p50 on repl_quorum"),
    d("cluster.drain_host_ms_p50", "ms", L, "cluster", "round_host_ms_p50 on repl_quorum"),
    d("cluster.wire_bytes_per_round", "B", L, "cluster", "release_us_p50 on repl_quorum"),
    d("cluster.ack_ratio", "ratio", H, "cluster", "release_us_p50 on repl_quorum"),
    d("cluster.cp_stage_us", "us", L, "cluster", "release_us_p50 on repl_quorum"),
    d("cluster.cp_link_us", "us", L, "cluster", "release_us_p50 on repl_quorum"),
    d("cluster.cp_member_us", "us", L, "cluster", "release_us_p50 on repl_quorum"),
    d("cluster.cp_local_us", "us", L, "cluster", "release_us_p50 on repl_quorum"),
    // trace
    d("trace.overhead_ratio", "ratio", L, "trace", "traced ÷ untraced host seconds of the same work, every workload"),
];

/// Raw samples and sums pooled over trials.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Data {
    /// Sample series by name.
    pub series: BTreeMap<&'static str, Vec<f64>>,
    /// Summed scalars by name.
    pub sums: BTreeMap<&'static str, f64>,
}

impl Data {
    /// Pools `other` into `self`.
    pub fn merge(&mut self, other: &Data) {
        for (k, v) in &other.series {
            self.series.entry(k).or_default().extend(v);
        }
        for (k, v) in &other.sums {
            *self.sums.entry(k).or_default() += v;
        }
    }

    /// The virtual-clock and count part: everything whose name does not
    /// contain `host`. Must repeat exactly for a given seed.
    pub fn deterministic(&self) -> Data {
        Data {
            series: self
                .series
                .iter()
                .filter(|(k, _)| !k.contains("host"))
                .map(|(k, v)| (*k, v.clone()))
                .collect(),
            sums: self
                .sums
                .iter()
                .filter(|(k, _)| !k.contains("host"))
                .map(|(k, v)| (*k, *v))
                .collect(),
        }
    }

    fn s(&self, name: &str) -> &[f64] {
        self.series.get(name).map_or(&[], |v| v)
    }

    fn sum(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }

    fn med(&self, name: &str) -> Option<f64> {
        median(self.s(name))
    }
}

/// A reduced metric: value plus the number of samples behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Value {
    /// The value, in the catalogue's unit.
    pub value: f64,
    /// Raw samples it was computed from (1 for ratios of sums).
    pub n: usize,
}

fn ratio(num: f64, den: f64) -> Option<f64> {
    (den > 0.0).then(|| num / den)
}

/// Reduces pooled untraced data to the end-to-end metrics. A metric is
/// absent when its samples are missing — which the caller reports as a
/// failure.
pub fn end_to_end(d: &Data, setups: &[f64], peak_rss_mb: f64) -> BTreeMap<&'static str, Value> {
    let mut m = BTreeMap::new();
    let mut put = |name, v: Option<f64>, n: usize| {
        if let Some(value) = v.filter(|x| x.is_finite()) {
            m.insert(name, Value { value, n });
        }
    };
    put("setup_s", median(setups), setups.len());
    put("peak_rss_mb", Some(peak_rss_mb), 1);
    put(
        "stop_us_p50",
        d.med("stop_ns").map(|x| x / 1e3),
        d.s("stop_ns").len(),
    );
    put(
        "release_us_p50",
        d.med("release_ns").map(|x| x / 1e3),
        d.s("release_ns").len(),
    );
    put(
        "virt_ops_per_s",
        ratio(d.sum("ops"), d.sum("body_virt_ns") / 1e9),
        1,
    );
    put(
        "host_ops_per_s",
        ratio(d.sum("ops"), d.sum("body_host_s")),
        1,
    );
    put(
        "ckpt_host_ms_p50",
        d.med("ckpt_host_ns").map(|x| x / 1e6),
        d.s("ckpt_host_ns").len(),
    );
    put(
        "round_host_ms_p50",
        d.med("round_host_ns").map(|x| x / 1e6),
        d.s("round_host_ns").len(),
    );
    put(
        "dev_bytes_per_user_byte",
        ratio(d.s("ckpt_dev_bytes").iter().sum(), d.sum("user_bytes")),
        1,
    );
    m
}

/// Reduces one traced trial (its data and spans) to the per-layer
/// metrics. `overhead` is traced ÷ untraced host seconds. Metrics a
/// workload does not exercise read 0.
pub fn per_layer(d: &Data, spans: &[Span], overhead: f64) -> BTreeMap<&'static str, Value> {
    let selfs = self_times(spans);
    let span_p = |names: &[&str], p: f64, scale: f64| {
        let v: Vec<f64> = names
            .iter()
            .flat_map(|n| self_ns_of(spans, &selfs, n))
            .collect();
        (percentile(&v, p).map(|x| x / scale), v.len())
    };
    let ser = |name: &str, p: f64, scale: f64| {
        (percentile(d.s(name), p).map(|x| x / scale), d.s(name).len())
    };
    let ckpts = d.sum("ckpts");
    let kops = d.sum("ops") / 1e3;
    let restores = d.s("materializations").len();

    let mut m: BTreeMap<&'static str, (Option<f64>, usize)> = BTreeMap::new();
    m.insert("req_lat_us_p50", ser("req_lat_ns", 50.0, 1e3));
    m.insert("req_lat_us_p99", ser("req_lat_ns", 99.0, 1e3));
    m.insert("stop_us_p90", ser("stop_ns", 90.0, 1e3));
    m.insert("ckpt_host_ms_p90", ser("ckpt_host_ns", 90.0, 1e6));
    m.insert(
        "restore_host_ms_p50",
        ser("restore_full_host_ns", 50.0, 1e6),
    );
    m.insert("restore_virt_ms", ser("restore_virt_ns", 50.0, 1e6));
    m.insert("apps.get_host_ns_p50", span_p(&["apps.get"], 50.0, 1.0));
    m.insert("apps.set_host_ns_p50", span_p(&["apps.set"], 50.0, 1.0));
    m.insert("apps.set_host_ns_p99", span_p(&["apps.set"], 99.0, 1.0));
    m.insert(
        "vm.cow_breaks_per_ckpt",
        (ratio(d.sum("vm.cow_breaks"), ckpts), 1),
    );
    m.insert("vm.faults_per_kop", (ratio(d.sum("vm.faults"), kops), 1));
    m.insert(
        "vm.pte_downgrades_per_ckpt",
        (ratio(d.sum("vm.pte_downgrades"), ckpts), 1),
    );
    m.insert("frames.shared_at_ckpt", ser("shared_frames", 50.0, 1.0));
    m.insert("posix.quiesce_us_p50", ser("quiesce_ns", 50.0, 1e3));
    m.insert("core.collapse_us_p50", ser("collapse_ns", 50.0, 1e3));
    m.insert("core.aio_us_p50", ser("aio_ns", 50.0, 1e3));
    m.insert("core.os_state_us_p50", ser("os_state_ns", 50.0, 1e3));
    m.insert("core.shadow_us_p50", ser("shadow_ns", 50.0, 1e3));
    m.insert("core.resume_us_p50", ser("resume_ns", 50.0, 1e3));
    m.insert("core.flush_us_p50", ser("flush_ns", 50.0, 1e3));
    m.insert("core.commit_us_p50", ser("commit_ns", 50.0, 1e3));
    m.insert(
        "core.checkpoint_host_ms_p50",
        span_p(&["core.sls_checkpoint", "core.checkpoint_all"], 50.0, 1e6),
    );
    m.insert(
        "core.barrier_host_us_p50",
        span_p(&["core.sls_barrier"], 50.0, 1e3),
    );
    m.insert(
        "core.restore_full_host_ms",
        ser("restore_full_host_ns", 50.0, 1e6),
    );
    m.insert(
        "core.restore_lazy_host_ms",
        ser("restore_lazy_host_ns", 50.0, 1e6),
    );
    m.insert(
        "core.fault_in_host_us_per_page",
        ser("fault_in_host_ns_per_page", 50.0, 1e3),
    );
    m.insert("core.pages_read_per_restore", ser("pages_read", 50.0, 1.0));
    m.insert(
        "core.send_delta_host_ms_p50",
        span_p(&["core.send_delta_stats"], 50.0, 1e6),
    );
    m.insert("core.delta_pages_per_round", ser("delta_pages", 50.0, 1.0));
    m.insert("core.delta_bytes_per_round", ser("delta_bytes", 50.0, 1.0));
    m.insert(
        "objstore.cache_hit_ratio",
        (
            ratio(
                d.sum("cache_hits"),
                d.sum("cache_hits") + d.sum("cache_misses"),
            ),
            1,
        ),
    );
    m.insert(
        "objstore.materializations_per_restore",
        (median(d.s("materializations")), restores),
    );
    m.insert(
        "objstore.redo_chain_len_p95",
        (median(d.s("chain_len_p95")), restores),
    );
    m.insert(
        "objstore.redo_appended_per_ckpt",
        ser("redo_appended", 50.0, 1.0),
    );
    m.insert(
        "storage.dev_bytes_per_ckpt",
        ser("ckpt_dev_bytes", 50.0, 1.0),
    );
    m.insert(
        "storage.queue_depth_max",
        (
            d.s("queue_depth").iter().copied().reduce(f64::max),
            d.s("queue_depth").len(),
        ),
    );
    m.insert(
        "cluster.replicate_host_ms_p50",
        span_p(&["cluster.checkpoint_and_replicate"], 50.0, 1e6),
    );
    let drains = self_ns_per_op(
        spans,
        &selfs,
        &["cluster.await_quorum", "cluster.run_until", "cluster.drain"],
    );
    m.insert(
        "cluster.drain_host_ms_p50",
        (median(&drains).map(|x| x / 1e6), drains.len()),
    );
    m.insert("cluster.wire_bytes_per_round", ser("wire_bytes", 50.0, 1.0));
    m.insert(
        "cluster.ack_ratio",
        (ratio(d.sum("acks_received"), d.sum("deltas_sent")), 1),
    );
    m.insert("cluster.cp_stage_us", ser("cp_stage_ns", 50.0, 1e3));
    m.insert("cluster.cp_link_us", ser("cp_link_ns", 50.0, 1e3));
    m.insert("cluster.cp_member_us", ser("cp_member_ns", 50.0, 1e3));
    m.insert("cluster.cp_local_us", ser("cp_local_ns", 50.0, 1e3));
    m.insert("trace.overhead_ratio", (Some(overhead), 1));
    m.into_iter()
        .map(|(k, (v, n))| {
            (
                k,
                Value {
                    value: v.filter(|x| x.is_finite()).unwrap_or(0.0),
                    n,
                },
            )
        })
        .collect()
}

/// Per span name: calls, total self time and median self time — where
/// the traced run's host time went.
pub fn self_time_table(spans: &[Span]) -> Vec<(&'static str, usize, f64, f64)> {
    let selfs = self_times(spans);
    let mut by: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (s, &t) in spans.iter().zip(&selfs) {
        by.entry(s.name).or_default().push(t as f64);
    }
    let mut rows: Vec<_> = by
        .into_iter()
        .map(|(name, v)| {
            (
                name,
                v.len(),
                v.iter().sum::<f64>(),
                median(&v).unwrap_or(0.0),
            )
        })
        .collect();
    rows.sort_by(|a, b| b.2.total_cmp(&a.2));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(def.name), "duplicate metric {}", def.name);
            assert!(def.name.len() <= 64);
            assert!(def.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(def
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(def.unit.len() <= 16);
            assert!(def
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == Better::Lower));
    }

    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let json = include_str!("../../BENCHMARK.json");
        for (defs, bounded) in [(END_TO_END, true), (PER_LAYER, false)] {
            for d in defs {
                let entry = format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{}",
                    d.name,
                    d.unit,
                    d.better.as_str(),
                    if bounded { ", \"bound\": " } else { "}" }
                );
                assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
            }
        }
        let listed = json.matches("\"unit\": ").count();
        assert_eq!(
            listed,
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json lists other metrics"
        );
    }

    #[test]
    fn deterministic_part_drops_host_clock_entries() {
        let mut d = Data::default();
        d.series.insert("stop_ns", vec![1.0]);
        d.series.insert("ckpt_host_ns", vec![2.0]);
        d.sums.insert("body_host_s", 3.0);
        d.sums.insert("ops", 4.0);
        let det = d.deterministic();
        assert_eq!(
            det.series.keys().copied().collect::<Vec<_>>(),
            vec!["stop_ns"]
        );
        assert_eq!(det.sums.keys().copied().collect::<Vec<_>>(), vec!["ops"]);
    }

    #[test]
    fn per_layer_reports_every_metric_and_zero_when_unexercised() {
        let m = per_layer(&Data::default(), &[], 1.0);
        for def in PER_LAYER {
            assert!(m.contains_key(def.name), "{} missing", def.name);
        }
        assert_eq!(m.len(), PER_LAYER.len());
        assert_eq!(m["core.send_delta_host_ms_p50"].value, 0.0);
        assert_eq!(m["trace.overhead_ratio"].value, 1.0);
    }

    #[test]
    fn end_to_end_from_pooled_samples() {
        let mut d = Data::default();
        d.series
            .insert("stop_ns", vec![100_000.0, 300_000.0, 200_000.0]);
        d.sums.insert("ops", 1000.0);
        d.sums.insert("body_host_s", 2.0);
        let m = end_to_end(&d, &[0.5, 0.7, 0.6], 10.0);
        assert_eq!(m["stop_us_p50"].value, 200.0);
        assert_eq!(m["host_ops_per_s"].value, 500.0);
        assert_eq!(m["setup_s"].value, 0.6);
        // No body virtual time recorded: the metric is absent, not 0.
        assert!(!m.contains_key("virt_ops_per_s"));
    }
}
