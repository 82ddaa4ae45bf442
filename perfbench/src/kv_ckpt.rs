//! `kv_ckpt`: memcached under the mutilate ETC mix with a checkpoint
//! every 10 ms of virtual time (the paper's Figures 4–5 setup).
//!
//! The client is a closed loop of the paper's 576 connections on the
//! virtual clock: each connection sends its next request one network
//! round trip after the previous reply. External synchrony is off, as in
//! the paper's evaluation (§8). Every SET stores seeded non-zero bytes
//! that the benchmark also records in its model map, and every GET is
//! checked against that map.

use crate::harness::{dev_snap, fill_nonzero, store_snap, timed, Rec};
use aurora_apps::memcached::Memcached;
use aurora_core::world::World;
use aurora_core::{AuroraApi, GroupId, SlsOptions};
use aurora_sim::units::MS;
use aurora_vm::CollapseMode;
use aurora_workloads::mutilate::{McOp, Mutilate, MutilateConfig};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::time::Instant;

/// Value arena, pages (256 MiB).
pub const ARENA_PAGES: u64 = 64 * 1024;
/// Server worker threads.
pub const THREADS: u32 = 12;
/// Checkpoint period, virtual ns.
pub const PERIOD_NS: u64 = 10 * MS;
/// One-way client↔server latency, virtual ns (10 GbE + network stack).
pub const NET_ONE_WAY_NS: u64 = 40_000;
/// Operations that warm the key space before the measurement.
pub const PRELOAD_OPS: u64 = 20_000;

/// Checkpoints per trial for a run of `seconds`: enough that the stop
/// time's p90 has ten samples beyond it.
pub fn checkpoints(seconds: u64) -> u64 {
    (seconds * 4).max(105)
}

struct Kv {
    w: World,
    mc: Memcached,
    gid: GroupId,
    gen: Mutilate,
    /// Key → (stamp, length) of the value the server must return.
    model: HashMap<Vec<u8>, (u64, usize)>,
    seed: u64,
    stamp: u64,
    wraps: u64,
}

impl Kv {
    fn set(&mut self, rec: &mut Rec, key: Vec<u8>, len: usize) {
        self.stamp += 1;
        let stamp = self.seed ^ (self.stamp << 20);
        let mut value = vec![0u8; len];
        fill_nonzero(stamp, &mut value);
        let r = rec.tr.span("apps.set", || {
            self.mc.set(&mut self.w.sls.kernel, &key, &value)
        });
        rec.tally.check(r.is_ok(), || format!("SET failed: {r:?}"));
        if self.mc.wraps != self.wraps {
            // The arena wrapped and the server dropped every older key.
            self.wraps = self.mc.wraps;
            self.model.clear();
        }
        self.model.insert(key, (stamp, len));
        rec.add("writes", 1.0);
        rec.add("user_bytes", len as f64);
    }

    fn get(&mut self, rec: &mut Rec, key: Vec<u8>) {
        let got = rec
            .tr
            .span("apps.get", || self.mc.get(&mut self.w.sls.kernel, &key));
        let ok = match (&got, self.model.get(&key)) {
            (Ok(None), None) => true,
            (Ok(Some(v)), Some(&(stamp, len))) => {
                let mut want = vec![0u8; len];
                fill_nonzero(stamp, &mut want);
                *v == want
            }
            _ => false,
        };
        rec.tally.check(ok, || {
            format!(
                "GET {:?} returned a value the model does not hold",
                String::from_utf8_lossy(&key)
            )
        });
    }
}

fn setup(seed: u64, rec: &mut Rec) -> Kv {
    let mut w = World::with_store_bytes(2 << 30);
    let mc = Memcached::launch(&mut w.sls.kernel, ARENA_PAGES, THREADS).expect("launch memcached");
    let gen = Mutilate::new(MutilateConfig {
        seed,
        ..MutilateConfig::default()
    });
    let gid = w
        .sls
        .attach(
            mc.pid,
            SlsOptions {
                period_ns: PERIOD_NS,
                external_synchrony: false,
                collapse_mode: CollapseMode::Reversed,
            },
        )
        .expect("attach memcached");
    let mut kv = Kv {
        w,
        mc,
        gid,
        gen,
        model: HashMap::new(),
        seed,
        stamp: 0,
        wraps: 0,
    };
    // Warm the key space: GETs in the preload become SETs so that the
    // measured GETs mostly hit.
    for _ in 0..PRELOAD_OPS {
        let (key, len) = match kv.gen.next_op() {
            McOp::Set { key, value_len } => (key, value_len),
            McOp::Get { key } => (key, 32),
        };
        kv.set(rec, key, len);
    }
    // The attach checkpoint is full and happens before the measurement.
    let st = kv.w.sls.sls_checkpoint(kv.gid).expect("attach checkpoint");
    rec.check_stats(&st);
    kv.w.sls.sls_barrier(kv.gid).expect("barrier");
    kv
}

/// Sets up `kv_ckpt` for `seed` and returns the host seconds it took.
pub fn setup_only(seed: u64) -> f64 {
    let mut rec = Rec::new(false);
    let (kv, ns) = timed(|| setup(seed, &mut rec));
    drop(kv);
    ns / 1e9
}

/// One trial: set up, then serve the closed loop for `ckpts` checkpoint
/// periods.
pub fn trial(seed: u64, ckpts: u64, traced: bool) -> Rec {
    let mut rec = Rec::new(traced);
    let mut setup_rec = Rec::new(false);
    let (mut kv, setup_ns) = timed(|| setup(seed, &mut setup_rec));
    rec.tally.merge(setup_rec.tally);
    rec.add("setup_host_s", setup_ns / 1e9);

    let clock = kv.w.clock.clone();
    let t0 = clock.now();
    let deadline = t0 + ckpts * PERIOD_NS + PERIOD_NS / 2;
    let mut next_ckpt = t0 + PERIOD_NS;
    let mut queue: BinaryHeap<Reverse<(u64, usize)>> = (0..MutilateConfig::default().connections())
        .map(|c| Reverse((t0, c)))
        .collect();
    let vm0 = kv.w.sls.kernel.vm.stats;
    let dev0 = dev_snap(&kv.w.sls);
    let store0 = store_snap(&kv.w.sls);
    let mut ops = 0u64;
    let mut period = 0u64;
    let host0 = Instant::now();
    let mut round_start = host0;
    let mut span = rec.tr.begin("kv.period");

    while let Some(Reverse((send_time, conn))) = queue.pop() {
        if send_time >= deadline {
            break;
        }
        if clock.now() >= next_ckpt {
            rec.tr.end(span);
            let called = clock.now();
            let before = (dev_snap(&kv.w.sls), store_snap(&kv.w.sls));
            let (r, ns) = timed(|| {
                rec.tr
                    .span("core.sls_checkpoint", || kv.w.sls.sls_checkpoint(kv.gid))
            });
            let after = (dev_snap(&kv.w.sls), store_snap(&kv.w.sls));
            match r {
                Ok(st) => {
                    // External synchrony is off: an epoch's outputs are
                    // "released" once it is durable.
                    rec.checkpoint(&st, called, st.durable_at);
                    rec.push("ckpt_host_ns", ns);
                    rec.push(
                        "ckpt_dev_bytes",
                        (after.0.bytes_written - before.0.bytes_written) as f64,
                    );
                    rec.push("queue_depth", after.0.queue_depth as f64);
                    rec.push(
                        "redo_appended",
                        (after.1.redo_appended - before.1.redo_appended) as f64,
                    );
                }
                Err(e) => rec.tally.fail(format!("checkpoint failed: {e:?}")),
            }
            let now = Instant::now();
            rec.push("round_host_ns", (now - round_start).as_nanos() as f64);
            round_start = now;
            let t = clock.now();
            next_ckpt = next_ckpt.max(t - t % PERIOD_NS) + PERIOD_NS;
            period += 1;
            rec.tr.set_op(period);
            span = rec.tr.begin("kv.period");
        }
        clock.advance_to(send_time + NET_ONE_WAY_NS); // an idle server waits for work
        match kv.gen.next_op() {
            McOp::Get { key } => kv.get(&mut rec, key),
            McOp::Set { key, value_len } => kv.set(&mut rec, key, value_len),
        }
        ops += 1;
        let done = clock.now();
        rec.push("req_lat_ns", (done + NET_ONE_WAY_NS - send_time) as f64);
        // Closed loop: the client sends again on receipt.
        queue.push(Reverse((done + 2 * NET_ONE_WAY_NS, conn)));
    }
    rec.tr.end(span);

    rec.add("body_host_s", host0.elapsed().as_secs_f64());
    rec.add("body_virt_ns", (clock.now() - t0) as f64);
    rec.add("ops", ops as f64);
    let vm = kv.w.sls.kernel.vm.stats - vm0;
    rec.add("vm.cow_breaks", vm.cow_breaks as f64);
    rec.add("vm.faults", vm.faults as f64);
    rec.add("vm.pte_downgrades", vm.pte_downgrades as f64);
    let dev1 = dev_snap(&kv.w.sls);
    let store1 = store_snap(&kv.w.sls);
    rec.add(
        "dev_bytes",
        (dev1.bytes_written - dev0.bytes_written) as f64,
    );
    rec.add("cache_hits", (store1.cache_hits - store0.cache_hits) as f64);
    rec.add(
        "cache_misses",
        (store1.cache_misses - store0.cache_misses) as f64,
    );
    rec
}
