//! `image_restore`: a 128 MiB image under skewed sub-page writes,
//! checkpointed every epoch together with a small second group, and
//! periodically crashed and restored — alternately full and lazy.
//!
//! The restore runs after `crash_and_reboot`, so the store's page cache
//! starts cold and the image is larger than anything it holds. Every
//! restore is checked byte for byte against the benchmark's shadow
//! model: every page ever written, plus a seeded sample of the rest.

use crate::harness::{dev_snap, rng, store_snap, timed, Image, Rec, StoreSnap, BASE_STAMP, PAGE};
use aurora_core::world::World;
use aurora_core::{AuroraApi, CheckpointStats, RestoreMode, SlsOptions};
use aurora_sim::dist::FacebookEtc;
use aurora_sim::{DetRng, Rng};
use aurora_vm::VmStats;
use std::time::Instant;

/// Pages in the main image (128 MiB).
pub const IMAGE_PAGES: u64 = 32 * 1024;
/// The hot set that takes [`HOT_PCT`] % of the writes.
pub const HOT_PAGES: u64 = 1024;
/// Share of writes that land in the hot set, percent.
pub const HOT_PCT: u64 = 80;
/// Sub-page writes into the image per epoch: seeded, uniform in
/// `WRITES_PER_EPOCH.0..=WRITES_PER_EPOCH.1`. The mean, 154, is what
/// `kv_ckpt` measures: memcached takes 152–155 SETs per 10 ms checkpoint
/// period (seeds 1–3). Each write's length is drawn from the same ETC
/// value-size distribution as those SETs (mean 344 B), capped below a
/// page; `kv_ckpt` measures 339–348 B per SET.
pub const WRITES_PER_EPOCH: (u64, u64) = (104, 204);
/// Pages of the small second group checkpointed alongside. The size is
/// a choice, not a measurement: small beside the image.
pub const SIDE_PAGES: u64 = 64;
/// Epochs between crash + restore cycles. A choice, not a measured crash
/// rate: it gives a 40 s run more than 20 restores of each mode.
pub const CRASH_EVERY: u64 = 10;
/// Pages faulted in after a lazy restore, to time a fault-in per page.
pub const FAULT_SAMPLE: u64 = 512;
/// Never-written pages checked after each restore.
pub const COLD_SAMPLE: u64 = 256;

/// Epochs per trial for a run of `seconds`: at least 100 checkpoints,
/// so the stop time's p90 has ten samples beyond it.
pub fn epochs(seconds: u64) -> u64 {
    (seconds * 11).max(110)
}

struct State {
    w: World,
    image: Image,
    side: Image,
    rng: DetRng,
    /// Write lengths: the ETC value sizes `kv_ckpt`'s SETs use.
    sizes: FacebookEtc,
    stamp: u64,
}

fn setup(seed: u64, rec: &mut Rec) -> State {
    let mut w = World::with_store_bytes(1 << 30);
    let mut image = Image::map(&mut w.sls.kernel, "image", IMAGE_PAGES, seed);
    let mut side = Image::map(&mut w.sls.kernel, "side", SIDE_PAGES, !seed);
    image.gid = w
        .sls
        .attach(image.pid, SlsOptions::default())
        .expect("attach image");
    side.gid = w
        .sls
        .attach(side.pid, SlsOptions::default())
        .expect("attach side");
    let stats = w
        .sls
        .checkpoint_all(&[image.gid, side.gid])
        .expect("first checkpoint");
    for st in &stats {
        rec.check_stats(st);
    }
    w.sls.sls_barrier(image.gid).expect("barrier");
    w.sls.sls_barrier(side.gid).expect("barrier");
    State {
        w,
        image,
        side,
        rng: rng(seed, 1),
        sizes: FacebookEtc::default(),
        stamp: seed << 24,
    }
}

/// Sets up `image_restore` for `seed` and returns the host seconds it
/// took.
pub fn setup_only(seed: u64) -> f64 {
    let mut rec = Rec::new(false);
    let (s, ns) = timed(|| setup(seed, &mut rec));
    drop(s);
    ns / 1e9
}

/// Counters that restart with every reboot; summed per segment.
fn add_segment(rec: &mut Rec, vm: VmStats, store0: StoreSnap, store1: StoreSnap) {
    rec.add("vm.cow_breaks", vm.cow_breaks as f64);
    rec.add("vm.faults", vm.faults as f64);
    rec.add("vm.pte_downgrades", vm.pte_downgrades as f64);
    rec.add("cache_hits", (store1.cache_hits - store0.cache_hits) as f64);
    rec.add(
        "cache_misses",
        (store1.cache_misses - store0.cache_misses) as f64,
    );
}

impl State {
    fn epoch_writes(&mut self, rec: &mut Rec) {
        let hot_base = self.image.salt % (IMAGE_PAGES - HOT_PAGES);
        let (lo, hi) = WRITES_PER_EPOCH;
        let writes = lo + self.rng.gen_range(0..hi - lo + 1);
        for _ in 0..writes {
            let page = if self.rng.gen_bool(HOT_PCT as f64 / 100.0) {
                hot_base + self.rng.gen_range(0..HOT_PAGES)
            } else {
                self.rng.gen_range(0..IMAGE_PAGES)
            };
            let len = self.sizes.value_bytes(&mut self.rng).min(PAGE - 1);
            let off = self.rng.gen_range(0..(PAGE - len + 1) as u64) as usize;
            self.stamp += 1;
            self.image
                .write(&mut self.w.sls.kernel, rec, page, off, len, self.stamp);
        }
        let page = self.rng.gen_range(0..SIDE_PAGES);
        self.stamp += 1;
        self.side
            .write(&mut self.w.sls.kernel, rec, page, 0, 64, self.stamp);
        rec.add("ops", writes as f64);
    }

    /// `checkpoint_all` over both groups, then a barrier on each.
    /// Returns the stats of both groups.
    fn checkpoint(&mut self, rec: &mut Rec) -> Option<Vec<CheckpointStats>> {
        let (gids, clock) = ([self.image.gid, self.side.gid], self.w.clock.clone());
        let called = clock.now();
        let dev0 = dev_snap(&self.w.sls);
        let store0 = store_snap(&self.w.sls);
        let host0 = Instant::now();
        let r = rec
            .tr
            .span("core.checkpoint_all", || self.w.sls.checkpoint_all(&gids));
        let after_ckpt = dev_snap(&self.w.sls);
        let (barriers, barrier_ns) = timed(|| {
            rec.tr.span("core.sls_barrier", || {
                self.w
                    .sls
                    .sls_barrier(gids[0])
                    .and_then(|()| self.w.sls.sls_barrier(gids[1]))
            })
        });
        let host_ns = host0.elapsed().as_nanos() as f64;
        let stats = match (r, barriers) {
            (Ok(s), Ok(())) if s.len() == 2 => s,
            (r, b) => {
                rec.tally
                    .fail(format!("checkpoint_all/barrier failed: {r:?} {b:?}"));
                return None;
            }
        };
        rec.checkpoint(&stats[0], called, stats[0].durable_at);
        rec.check_stats(&stats[1]);
        rec.push("ckpt_host_ns", host_ns);
        rec.push("barrier_host_ns", barrier_ns);
        let dev1 = dev_snap(&self.w.sls);
        let store1 = store_snap(&self.w.sls);
        rec.push(
            "ckpt_dev_bytes",
            (dev1.bytes_written - dev0.bytes_written) as f64,
        );
        rec.push("queue_depth", after_ckpt.queue_depth as f64);
        rec.push(
            "redo_appended",
            (store1.redo_appended - store0.redo_appended) as f64,
        );
        Some(stats)
    }

    /// Crashes the machine and restores both groups at `epoch`, then
    /// checks the image against the model. Returns the host and virtual
    /// time spent in the oracle (not part of the measured body).
    fn crash_and_restore(&mut self, rec: &mut Rec, epoch: u64, mode: RestoreMode) -> (f64, u64) {
        let r = rec
            .tr
            .span("core.crash_and_reboot", || self.w.sls.crash_and_reboot());
        rec.tally
            .check(r.is_ok(), || format!("crash_and_reboot failed: {r:?}"));
        // No store guard may be held here: manifests_at takes the store
        // lock itself, so calling it under `store().lock()` deadlocks.
        let manifests = match self.w.sls.manifests_at(epoch) {
            Ok(m) => m,
            Err(e) => {
                rec.tally
                    .fail(format!("manifests_at({epoch}) failed: {e:?}"));
                return (0.0, 0);
            }
        };
        let mut host_ns = 0.0;
        let mut virt_ns = 0;
        let mut pages_read = 0;
        let mut restored = 0;
        for m in manifests {
            let (r, ns) = timed(|| {
                rec.tr.span("core.restore_image", || {
                    self.w.sls.restore_image(m, epoch, mode)
                })
            });
            host_ns += ns;
            let rep = match r {
                Ok(rep) => rep,
                Err(e) => {
                    rec.tally
                        .fail(format!("restore_image at {epoch} failed: {e:?}"));
                    continue;
                }
            };
            virt_ns += rep.elapsed_ns;
            pages_read += rep.pages_read;
            let name = rep
                .pids
                .first()
                .and_then(|&p| self.w.sls.kernel.proc(p).ok())
                .map(|p| p.name.clone());
            // The restored processes keep their addresses; they carry on
            // as the new groups.
            let target = match name.as_deref() {
                Some("image") => &mut self.image,
                Some("side") => &mut self.side,
                other => {
                    rec.tally
                        .fail(format!("restore produced an unknown process {other:?}"));
                    continue;
                }
            };
            target.pid = rep.pids[0];
            target.gid = rep.group;
            restored += 1;
        }
        rec.tally.check(restored == 2, || {
            format!("restored {restored} of 2 groups at epoch {epoch}")
        });
        match mode {
            RestoreMode::Full => {
                rec.push("restore_full_host_ns", host_ns);
                rec.push("restore_virt_ns", virt_ns as f64);
                rec.push("pages_read", pages_read as f64);
            }
            RestoreMode::Lazy => {
                rec.push("restore_lazy_host_ns", host_ns);
                // A seeded fault-in sample: the first touch of each page
                // pulls it from the store.
                let mut buf = [0u8; BASE_STAMP];
                let (pid, addr) = (self.image.pid, self.image.addr);
                let mut sample = rng(self.stamp, 2);
                let (_, ns) = timed(|| {
                    for _ in 0..FAULT_SAMPLE {
                        let page = sample.gen_range(0..IMAGE_PAGES);
                        let r = rec.tr.span("posix.mem_read", || {
                            self.w
                                .sls
                                .kernel
                                .mem_read(pid, addr + page * PAGE as u64, &mut buf)
                        });
                        rec.tally.check(r.is_ok(), || {
                            format!("fault-in of page {page} failed: {r:?}")
                        });
                    }
                });
                rec.push("fault_in_host_ns_per_page", ns / FAULT_SAMPLE as f64);
            }
        }
        // The reboot reset the store's counters: these cover the restore.
        let s = store_snap(&self.w.sls);
        rec.push("materializations", s.materializations as f64);
        rec.push("chain_len_p95", s.chain_len_p95 as f64);
        rec.add("cache_hits", s.cache_hits as f64);
        rec.add("cache_misses", s.cache_misses as f64);

        // The oracle: every written page, and a seeded sample of the rest.
        let (host0, virt0) = (Instant::now(), self.w.clock.now());
        let mut sample = rng(self.stamp, 3);
        let written: Vec<u64> = self.image.written.keys().copied().collect();
        for page in written {
            self.image
                .verify(&mut self.w.sls.kernel, rec, page, "restored image");
        }
        for _ in 0..COLD_SAMPLE {
            let page = sample.gen_range(0..IMAGE_PAGES);
            self.image
                .verify(&mut self.w.sls.kernel, rec, page, "restored image");
        }
        for page in 0..SIDE_PAGES {
            self.side
                .verify(&mut self.w.sls.kernel, rec, page, "restored side group");
        }
        (host0.elapsed().as_secs_f64(), self.w.clock.now() - virt0)
    }
}

/// One trial: set up, then run `epochs` epochs with a crash + restore
/// every [`CRASH_EVERY`].
pub fn trial(seed: u64, epochs: u64, traced: bool) -> Rec {
    let mut rec = Rec::new(traced);
    let mut setup_rec = Rec::new(false);
    let (mut s, setup_ns) = timed(|| setup(seed, &mut setup_rec));
    rec.tally.merge(setup_rec.tally);
    rec.add("setup_host_s", setup_ns / 1e9);

    let t0 = s.w.clock.now();
    let host0 = Instant::now();
    let (mut oracle_host_s, mut oracle_virt_ns) = (0.0, 0u64);
    let mut vm0 = s.w.sls.kernel.vm.stats;
    let mut store0 = store_snap(&s.w.sls);
    let mut restores = 0u64;
    for e in 1..=epochs {
        rec.tr.set_op(e);
        let round = Instant::now();
        let span = rec.tr.begin("image.epoch");
        s.epoch_writes(&mut rec);
        let stats = s.checkpoint(&mut rec);
        rec.tr.end(span);
        rec.push("round_host_ns", round.elapsed().as_nanos() as f64);
        let Some(stats) = stats else { continue };
        if e % CRASH_EVERY == 0 {
            add_segment(
                &mut rec,
                s.w.sls.kernel.vm.stats - vm0,
                store0,
                store_snap(&s.w.sls),
            );
            // Restore the epoch the checkpoint reported. After the
            // reboot the store's `current_epoch` is not it: using that
            // fails with `NoSuchEpoch`.
            let epoch = stats.iter().map(|st| st.epoch).max().expect("two groups");
            let mode = if restores.is_multiple_of(2) {
                RestoreMode::Full
            } else {
                RestoreMode::Lazy
            };
            restores += 1;
            let (h, v) = s.crash_and_restore(&mut rec, epoch, mode);
            oracle_host_s += h;
            oracle_virt_ns += v;
            vm0 = s.w.sls.kernel.vm.stats;
            store0 = store_snap(&s.w.sls);
        }
    }
    add_segment(
        &mut rec,
        s.w.sls.kernel.vm.stats - vm0,
        store0,
        store_snap(&s.w.sls),
    );
    rec.add("body_host_s", host0.elapsed().as_secs_f64() - oracle_host_s);
    rec.add(
        "body_virt_ns",
        (s.w.clock.now() - t0 - oracle_virt_ns) as f64,
    );
    rec
}
