//! Observability-layer integration tests: the probe engine and the
//! virtual-time metrics sampler survive a machine crash, the reboot
//! discontinuity is marked exactly once, the online invariant checker
//! stays clean over a full checkpoint/crash/restore workload, and the
//! whole layer is invisible — armed or not, the virtual timeline and
//! every checkpoint stat are bit-identical.

use aurora_core::world::World;
use aurora_core::{AuroraApi, CheckpointStats, SlsOptions};
use aurora_trace::{InvariantChecker, ProbeSpec};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A deterministic workload: attach a counter app, four checkpointed
/// work intervals, a barrier, a crash, recovery, restore, and two more
/// intervals. Returns every committed checkpoint's stats.
fn crashy_workload(w: &mut World) -> Vec<CheckpointStats> {
    let pid = w.spawn_counter_app();
    let gid = w.sls.attach(pid, SlsOptions::default()).unwrap();
    let mut all = Vec::new();
    all.push(w.sls.sls_checkpoint(gid).unwrap());
    for _ in 0..4 {
        w.bump_counter(pid).unwrap();
        w.clock.advance(10_000_000);
        all.extend(w.sls.tick().unwrap());
    }
    w.sls.sls_barrier(gid).unwrap();
    w.sls.crash_and_reboot().unwrap();
    let epoch = w.sls.store().lock().last_epoch().unwrap();
    let manifest = w.sls.manifests_at(epoch).unwrap()[0];
    let r = w.sls.restore_image(manifest, epoch, aurora_core::RestoreMode::Full).unwrap();
    let pid = r.pids[0];
    for _ in 0..2 {
        w.bump_counter(pid).unwrap();
        w.clock.advance(10_000_000);
        all.extend(w.sls.tick().unwrap());
    }
    all
}

#[test]
fn probes_and_sampler_survive_crash_and_reboot() {
    let mut w = World::quickstart();
    let trace = w.enable_tracing();
    let sampler = w.enable_sampling(1_000);
    let commits = Arc::new(AtomicU64::new(0));
    let seen = commits.clone();
    let id = trace.probe(ProbeSpec::any().cat("objstore").name_prefix("epoch.commit"), move |_| {
        seen.fetch_add(1, Ordering::Relaxed);
    });
    crashy_workload(&mut w);

    // The probe fired on commits before *and* after the reboot: the
    // recovery replays at least one pre-crash epoch and the post-restore
    // ticks commit new ones, so hits must exceed the pre-crash count.
    let hits = trace.probe_hits(id);
    assert!(hits >= 7, "probe must see pre- and post-reboot commits, got {hits}");
    assert_eq!(hits, commits.load(Ordering::Relaxed), "hit counter and callback agree");

    // The sampler kept recording across the discontinuity: rows exist on
    // both sides of the reboot mark.
    let marks = sampler.marks();
    assert_eq!(marks.len(), 1);
    let (mark_ts, _) = marks[0];
    let rows = sampler.samples();
    assert!(rows.iter().any(|s| s.ts < mark_ts), "rows before the reboot");
    assert!(rows.iter().any(|s| s.ts > mark_ts), "rows after the reboot");
}

#[test]
fn reboot_discontinuity_marked_exactly_once() {
    let mut w = World::quickstart();
    w.enable_tracing();
    let sampler = w.enable_sampling(1_000);
    crashy_workload(&mut w);
    let marks = sampler.marks();
    assert_eq!(
        marks.iter().filter(|(_, l)| l == "machine.reboot").count(),
        1,
        "exactly one reboot mark, got {marks:?}"
    );
    // The discontinuity is never smoothed into the gauge rows: no sample
    // shares the mark's timestamp.
    let (mark_ts, _) = marks[0];
    assert!(sampler.samples().iter().all(|s| s.ts != mark_ts));
}

#[test]
fn invariant_checker_clean_over_crash_and_restore() {
    let mut w = World::quickstart();
    let trace = w.enable_tracing();
    let checker = InvariantChecker::arm(&trace);
    crashy_workload(&mut w);
    assert!(checker.checked() > 20, "checker saw {} events", checker.checked());
    checker.assert_clean();
}

#[test]
fn armed_observability_does_not_perturb_timings() {
    // Bare run: no trace, no sampler, no probes.
    let mut bare = World::quickstart();
    let bare_stats = crashy_workload(&mut bare);
    let bare_end = bare.clock.now();

    // Fully armed run: trace + sampler + invariant checker + a probe.
    let mut armed = World::quickstart();
    let trace = armed.enable_tracing();
    let _checker = InvariantChecker::arm(&trace);
    armed.enable_sampling(1_000);
    let _id = trace.probe(ProbeSpec::any(), |_| {});
    let armed_stats = crashy_workload(&mut armed);

    assert_eq!(bare_stats, armed_stats, "checkpoint stats must be bit-identical");
    assert_eq!(bare_end, armed.clock.now(), "virtual end time must be identical");
}

#[test]
fn exports_byte_identical_across_identical_runs() {
    let run = || {
        let mut w = World::quickstart();
        w.enable_tracing();
        let sampler = w.enable_sampling(1_000);
        crashy_workload(&mut w);
        w.sls.sample_metrics();
        (sampler.series_json(), sampler.prometheus_text("aurora"))
    };
    let (json_a, prom_a) = run();
    let (json_b, prom_b) = run();
    assert_eq!(json_a, json_b, "time-series JSON must be byte-identical");
    assert_eq!(prom_a, prom_b, "Prometheus text must be byte-identical");
    aurora_trace::json::validate(&json_a).expect("series JSON parses");
    assert!(
        prom_a.matches("# TYPE").count() >= 10,
        "at least 10 gauges in the exposition"
    );
}

#[test]
fn stat_gauges_are_sorted_and_cover_every_subsystem() {
    let mut w = World::quickstart();
    w.enable_tracing();
    w.enable_sampling(1_000);
    crashy_workload(&mut w);
    let gauges = w.sls.stat_gauges();
    let names: Vec<&str> = gauges.iter().map(|(n, _)| n.as_str()).collect();
    let mut sorted = names.clone();
    sorted.sort();
    assert_eq!(names, sorted, "gauges sorted by name");
    for prefix in ["frames.", "store.", "dev.", "quiesce.", "pipeline.", "extsync.", "trace."] {
        assert!(
            names.iter().any(|n| n.starts_with(prefix)),
            "no gauge for subsystem {prefix}"
        );
    }
    assert!(gauges.len() >= 20, "got {} gauges", gauges.len());
}

#[test]
fn redo_chain_len_p95_reports_chains_longer_than_31() {
    // One page dirtied in 40 consecutive checkpoints: after a crash its
    // materialization replays a 41-link chain (full base + 40 deltas).
    let mut w = World::quickstart();
    let pid = w.spawn_counter_app();
    let gid = w.sls.attach(pid, SlsOptions::default()).unwrap();
    w.sls.sls_checkpoint(gid).unwrap();
    for _ in 0..40 {
        w.bump_counter(pid).unwrap();
        w.sls.sls_checkpoint(gid).unwrap();
    }
    w.sls.sls_barrier(gid).unwrap();
    w.sls.crash_and_reboot().unwrap();
    let epoch = w.sls.store().lock().last_epoch().unwrap();
    let manifest = w.sls.manifests_at(epoch).unwrap()[0];
    let r = w.sls.restore_image(manifest, epoch, aurora_core::RestoreMode::Full).unwrap();
    assert_eq!(w.read_counter(r.pids[0]).unwrap(), 40);
    let p95 = w.sls.store().lock().gauges().redo_chain_len_p95;
    assert!(p95 > 31, "chain p95 clipped: {p95}");
}
