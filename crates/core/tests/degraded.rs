//! Degraded-mode storage end to end: mirror failover mid-checkpoint
//! under live traffic with the online invariant checker armed, rebuild
//! back to byte identity, degraded cadence stretch and flush throttling,
//! and durable floors across failover.

use aurora_core::world::World;
use aurora_core::{AuroraApi, RestoreMode, SlsOptions};
use aurora_sim::units::MS;
use aurora_storage::faulty::FaultPlan;
use aurora_storage::HealthState;
use aurora_trace::InvariantChecker;

const LEAF_BYTES: u64 = 1 << 28;

fn gauge(gauges: &[(String, u64)], name: &str) -> u64 {
    gauges
        .iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("gauge {name} missing"))
        .1
}

/// The acceptance soak: live traffic dirties pages and checkpoints on a
/// cadence; one mirror is rigged to die partway through a checkpoint's
/// flush. The epoch still completes on the survivor, the invariant
/// checker stays clean throughout, and reviving + resilvering +
/// scrubbing the dead mirror restores `Healthy` with byte-identical
/// contents on both members.
#[test]
fn mirror_death_mid_checkpoint_under_live_traffic_recovers() {
    let (mut w, mirror, faults) = World::with_mirrored_store(LEAF_BYTES);
    let trace = w.enable_tracing();
    let checker = InvariantChecker::arm(&trace);

    let pid = w.spawn_counter_app();
    let gid = w.sls.attach(pid, SlsOptions::default()).unwrap();
    let mut bumps = 0u64;

    // Warm traffic: both mirrors healthy.
    for round in 0..10 {
        w.bump_counter(pid).unwrap();
        bumps += 1;
        if round % 5 == 4 {
            assert!(w.sls.sls_checkpoint(gid).unwrap().committed());
        }
    }

    // Arm the kill two writes into the *next* checkpoint's flush, then
    // keep the traffic running straight through the storm.
    faults[0].set_plan(FaultPlan {
        die_at_write: Some(faults[0].writes_seen() + 2),
        ..FaultPlan::none()
    });
    let mut epochs_during_storm = 0u64;
    for round in 0..20 {
        w.bump_counter(pid).unwrap();
        bumps += 1;
        if round % 5 == 4 {
            let cp = w.sls.sls_checkpoint(gid).unwrap();
            // Mirror redundancy absorbs the death: every epoch in the
            // storm completes (a clean abort + retry would also be
            // acceptable; the mirror makes it unnecessary).
            assert!(cp.committed(), "epoch survives mirror death: {:?}", cp.failure);
            epochs_during_storm += 1;
        }
    }
    assert_eq!(epochs_during_storm, 4);

    let report = mirror.health_report();
    assert_eq!(report.member_states[0], HealthState::Failed, "mirror 0 died");
    assert!(report.rebuild_pending_blocks > 0, "missed writes tracked for resilver");
    assert!(w.sls.device_degraded());

    // The failed state is visible as structured health through every
    // layer: mirror handle, store, and the SLS gauge surface.
    let store_health = w.sls.store().lock().device_health();
    assert_eq!(store_health.member_states[0], HealthState::Failed);
    let gauges = w.sls.stat_gauges();
    assert_eq!(gauge(&gauges, "device.health.degraded_members"), 1);
    assert_eq!(gauge(&gauges, "device.health.worst"), HealthState::Failed.code());

    // Replace the drive and resilver it incrementally under virtual
    // time, then verify with a full scrub.
    faults[0].revive();
    mirror.revive_mirror(0);
    assert_eq!(mirror.health_report().member_states[0], HealthState::Degraded);
    while mirror.rebuild_pending(0) > 0 {
        assert!(mirror.rebuild_step(0, 64).unwrap() > 0);
    }
    mirror.flush_members();
    assert_eq!(mirror.health_report().member_states[0], HealthState::Healthy);
    assert!(!w.sls.device_degraded());

    let scrub = mirror.scrub().unwrap();
    mirror.flush_members();
    assert_eq!(scrub.mismatched_blocks, 0, "full resilver already restored identity");
    assert!(mirror.mirrors_identical().unwrap(), "mirrors byte-identical after rebuild");
    assert!(mirror.health_report().rebuilds_completed >= 1);

    // Post-recovery epoch writes both mirrors again and restores clean.
    w.bump_counter(pid).unwrap();
    bumps += 1;
    assert!(w.sls.sls_checkpoint(gid).unwrap().committed());
    let r = w.sls.sls_restore(gid, None, RestoreMode::Full).unwrap();
    assert_eq!(w.read_counter(r.pids[0]).unwrap(), bumps);

    // Zero online-invariant violations across the whole storm.
    assert!(checker.checked() > 0, "checker observed events");
    checker.assert_clean();
}

/// While the device stack reports a degraded member, `tick()` stretches
/// every group's effective period 4×; recovery restores the configured
/// cadence immediately.
#[test]
fn degraded_device_stretches_checkpoint_cadence() {
    let (mut w, mirror, _faults) = World::with_mirrored_store(LEAF_BYTES);
    let pid = w.spawn_counter_app();
    let gid = w.sls.attach(pid, SlsOptions { period_ns: 10 * MS, ..Default::default() }).unwrap();

    w.bump_counter(pid).unwrap();
    w.clock.advance_to(w.clock.now() + 10 * MS);
    assert_eq!(w.sls.tick().unwrap().len(), 1, "healthy: due after one period");

    // Pull a drive: one period is no longer enough.
    mirror.fail_mirror(0);
    assert!(w.sls.device_degraded());
    w.bump_counter(pid).unwrap();
    let t0 = w.clock.now();
    w.clock.advance_to(t0 + 15 * MS);
    assert!(w.sls.tick().unwrap().is_empty(), "degraded: cadence stretched 4x");
    w.clock.advance_to(t0 + 60 * MS);
    let taken = w.sls.tick().unwrap();
    assert_eq!(taken.len(), 1, "stretched period elapses eventually");
    assert!(taken[0].committed(), "degraded checkpoint lands on the survivor");

    // Resilver: cadence snaps back on the next tick.
    mirror.revive_mirror(0);
    while mirror.rebuild_pending(0) > 0 {
        mirror.rebuild_step(0, 64).unwrap();
    }
    assert!(!w.sls.device_degraded());
    w.bump_counter(pid).unwrap();
    w.clock.advance_to(w.clock.now() + 15 * MS);
    assert_eq!(w.sls.tick().unwrap().len(), 1, "recovery restores the cadence");
    assert!(w.sls.sls_restore(gid, None, RestoreMode::Full).is_ok());
}

/// Epochs committed before, during, and after a mirror death all stay
/// restorable: the per-group durable floor tracks what actually reached
/// a healthy mirror, so failover never silently rolls a group back.
#[test]
fn durable_floors_survive_mirror_failover() {
    let (mut w, mirror, faults) = World::with_mirrored_store(LEAF_BYTES);
    let pid = w.spawn_counter_app();
    let gid = w.sls.attach(pid, SlsOptions::default()).unwrap();

    // Epoch A: both mirrors healthy.
    w.bump_counter(pid).unwrap();
    let a = w.sls.sls_checkpoint(gid).unwrap();
    assert!(a.committed());

    // Kill mirror 0, then commit epoch B on the survivor alone.
    faults[0].kill();
    w.bump_counter(pid).unwrap();
    w.bump_counter(pid).unwrap();
    let b = w.sls.sls_checkpoint(gid).unwrap();
    assert!(b.committed(), "failover epoch commits on the survivor");
    assert!(b.epoch > a.epoch);

    // Both floors hold while degraded: the old epoch and the failover
    // epoch restore to their exact counter values.
    let ra = w.sls.sls_restore(gid, Some(a.epoch), RestoreMode::Full).unwrap();
    assert_eq!(w.read_counter(ra.pids[0]).unwrap(), 1);
    let rb = w.sls.sls_restore(gid, Some(b.epoch), RestoreMode::Full).unwrap();
    assert_eq!(w.read_counter(rb.pids[0]).unwrap(), 3);

    // Resilver mirror 0 and verify the floors again on a whole array.
    faults[0].revive();
    mirror.revive_mirror(0);
    while mirror.rebuild_pending(0) > 0 {
        mirror.rebuild_step(0, 64).unwrap();
    }
    mirror.flush_members();
    assert!(mirror.mirrors_identical().unwrap());
    let r = w.sls.sls_restore(gid, Some(b.epoch), RestoreMode::Full).unwrap();
    assert_eq!(w.read_counter(r.pids[0]).unwrap(), 3, "floor intact after resilver");
}

/// The degraded-mode gauge surface: health, rebuild, and retry-budget
/// gauges move with the array's state so `sls stat`/`watch` can show a
/// storm as it happens.
#[test]
fn degraded_and_rebuild_gauges_track_the_array() {
    let (mut w, mirror, faults) = World::with_mirrored_store(LEAF_BYTES);
    let pid = w.spawn_counter_app();
    let gid = w.sls.attach(pid, SlsOptions::default()).unwrap();
    w.bump_counter(pid).unwrap();
    assert!(w.sls.sls_checkpoint(gid).unwrap().committed());

    let healthy = w.sls.stat_gauges();
    assert_eq!(gauge(&healthy, "device.health.degraded_members"), 0);
    assert_eq!(gauge(&healthy, "device.health.worst"), HealthState::Healthy.code());
    assert_eq!(gauge(&healthy, "raid.rebuild.pending_blocks"), 0);
    assert_eq!(gauge(&healthy, "device.health.m0"), HealthState::Healthy.code());
    assert_eq!(gauge(&healthy, "device.health.m1"), HealthState::Healthy.code());

    faults[0].kill();
    w.bump_counter(pid).unwrap();
    assert!(w.sls.sls_checkpoint(gid).unwrap().committed());
    let degraded = w.sls.stat_gauges();
    assert_eq!(gauge(&degraded, "device.health.degraded_members"), 1);
    assert_eq!(gauge(&degraded, "device.health.m0"), HealthState::Failed.code());
    assert!(gauge(&degraded, "raid.rebuild.pending_blocks") > 0);

    faults[0].revive();
    mirror.revive_mirror(0);
    while mirror.rebuild_pending(0) > 0 {
        mirror.rebuild_step(0, 64).unwrap();
    }
    let rebuilt = w.sls.stat_gauges();
    assert_eq!(gauge(&rebuilt, "raid.rebuild.pending_blocks"), 0);
    assert!(gauge(&rebuilt, "raid.rebuild.copied_blocks") > 0);
    assert!(gauge(&rebuilt, "raid.rebuild.completed") >= 1);
    assert_eq!(gauge(&rebuilt, "device.health.m0"), HealthState::Healthy.code());
}
