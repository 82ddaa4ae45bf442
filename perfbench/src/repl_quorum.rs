//! `repl_quorum`: a 3-node cluster, quorum 2, external synchrony on.
//!
//! Each round the leader's application makes sub-page writes across a
//! 4096-page image and sends one message to a client outside its group;
//! the round then checkpoints and replicates, steps the fabric at 1 µs of
//! virtual time until the quorum watermark covers the epoch (the
//! release), and drains the rest. The message must stay withheld until
//! that release and arrive right after it. At the end a seeded page
//! sample must read identically on the leader and both followers.

use crate::harness::{dev_snap, rng, store_snap, timed, Image, Rec, PAGE};
use aurora_cluster::{Cluster, ClusterConfig};
use aurora_core::SlsOptions;
use aurora_objstore::ObjectKind;
use aurora_posix::{Fd, Pid};
use aurora_sim::dist::FacebookEtc;
use aurora_sim::{DetRng, Rng};
use aurora_trace::HopKind;
use std::time::Instant;

/// Pages in the leader application's image. Do not shrink: at this
/// size the per-image cost of delta encoding shows.
pub const IMAGE_PAGES: u64 = 4096;
/// Sub-page writes per round. Their lengths are drawn from the ETC
/// value-size distribution of `kv_ckpt`'s SETs, capped below a page.
pub const WRITES_PER_ROUND: u64 = 256;
/// Rounds between coordinated prunes.
pub const PRUNE_EVERY: u64 = 4;
/// Epochs every node keeps when pruning.
pub const PRUNE_KEEP: usize = 2;
/// Virtual step while waiting for the quorum release, ns.
pub const STEP_NS: u64 = 1_000;
/// Give up waiting for a release after this much virtual time, ns.
pub const RELEASE_TIMEOUT_NS: u64 = 1_000_000_000;
/// Pages compared across the three nodes at the end of a trial.
pub const FINAL_SAMPLE: u64 = 256;

/// Rounds per trial for a run of `seconds`.
pub fn rounds(seconds: u64) -> u64 {
    (seconds * 3 / 5).max(8)
}

struct State {
    c: Cluster,
    app: Image,
    client: Pid,
    app_fd: Fd,
    client_fd: Fd,
    rng: DetRng,
    /// Write lengths: the ETC value sizes `kv_ckpt`'s SETs use.
    sizes: FacebookEtc,
    stamp: u64,
    /// Host seconds spent in the traced trial's extra calls, which are
    /// not part of the measured body.
    extras_host_s: f64,
}

fn setup(seed: u64, provenance: bool, rec: &mut Rec) -> State {
    let mut c = Cluster::new(ClusterConfig::default());
    if provenance {
        c.enable_provenance(8);
    }
    let k = &mut c.leader().kernel;
    let mut app = Image::map(k, "app", IMAGE_PAGES, seed);
    let client = k.spawn("client");
    // A socket pair whose far end belongs to a process outside the
    // group, so the app's sends are withheld by external synchrony.
    let (app_fd, far) = k.socketpair(app.pid).expect("socketpair");
    let fid = k.resolve(app.pid, far).expect("far end");
    k.proc_mut(app.pid)
        .expect("app")
        .fdtable
        .remove(far)
        .expect("move far end");
    let client_fd = k.proc_mut(client).expect("client").fdtable.install(fid);
    app.gid = c
        .attach_on_leader(
            app.pid,
            SlsOptions {
                external_synchrony: true,
                ..SlsOptions::default()
            },
        )
        .expect("attach app");
    let st = c
        .checkpoint_and_replicate(app.gid)
        .expect("first replication");
    rec.check_stats(&st);
    c.drain().expect("drain");
    rec.tally
        .check(c.quorum_watermark(app.gid.0) >= st.epoch, || {
            "first epoch never reached quorum".into()
        });
    State {
        c,
        app,
        client,
        app_fd,
        client_fd,
        rng: rng(seed, 1),
        sizes: FacebookEtc::default(),
        stamp: seed << 24,
        extras_host_s: 0.0,
    }
}

/// Sets up `repl_quorum` for `seed` and returns the host seconds it took.
pub fn setup_only(seed: u64) -> f64 {
    let mut rec = Rec::new(false);
    let (s, ns) = timed(|| setup(seed, false, &mut rec));
    drop(s);
    ns / 1e9
}

impl State {
    /// One replication round; returns the epoch it committed.
    fn round(&mut self, rec: &mut Rec, r: u64, prev_epoch: u64) -> Option<u64> {
        let gid = self.app.gid;
        for _ in 0..WRITES_PER_ROUND {
            let page = self.rng.gen_range(0..IMAGE_PAGES);
            let len = self.sizes.value_bytes(&mut self.rng).min(PAGE - 1);
            let off = self.rng.gen_range(0..(PAGE - len + 1) as u64) as usize;
            self.stamp += 1;
            self.app.write(
                &mut self.c.nodes[0].sls.kernel,
                rec,
                page,
                off,
                len,
                self.stamp,
            );
        }
        rec.add("ops", WRITES_PER_ROUND as f64);
        let msg = format!("round {r}").into_bytes();
        let k = &mut self.c.nodes[0].sls.kernel;
        let sent = rec
            .tr
            .span("posix.send", || k.send(self.app.pid, self.app_fd, &msg));
        rec.tally
            .check(sent.is_ok(), || format!("send failed: {sent:?}"));

        let called = self.c.clock.now();
        let dev0 = dev_snap(&self.c.nodes[0].sls);
        let redo0 = store_snap(&self.c.nodes[0].sls).redo_appended;
        let wire0 = self.c.fabric.stats().sent_bytes;
        let (st, ns) = timed(|| {
            rec.tr.span("cluster.checkpoint_and_replicate", || {
                self.c.checkpoint_and_replicate(gid)
            })
        });
        let dev1 = dev_snap(&self.c.nodes[0].sls);
        let st = match st {
            Ok(st) => st,
            Err(e) => {
                rec.tally
                    .fail(format!("checkpoint_and_replicate failed: {e:?}"));
                return None;
            }
        };
        rec.push("ckpt_host_ns", ns);
        rec.push(
            "ckpt_dev_bytes",
            (dev1.bytes_written - dev0.bytes_written) as f64,
        );
        rec.push("queue_depth", dev1.queue_depth as f64);
        rec.push(
            "redo_appended",
            (store_snap(&self.c.nodes[0].sls).redo_appended - redo0) as f64,
        );
        let k = &mut self.c.nodes[0].sls.kernel;
        let early = k.recvmsg(self.client, self.client_fd);
        rec.tally.check(early.is_err(), || {
            format!("epoch {} output released before quorum", st.epoch)
        });

        // Step the fabric until the quorum watermark covers the epoch.
        let host0 = Instant::now();
        let span = rec.tr.begin("cluster.await_quorum");
        let mut t = called;
        while self.c.quorum_watermark(gid.0) < st.epoch && t < called + RELEASE_TIMEOUT_NS {
            t = self.c.clock.now() + STEP_NS;
            let r = rec.tr.span("cluster.run_until", || self.c.run_until(t));
            if let Err(e) = r {
                rec.tally.fail(format!("run_until failed: {e:?}"));
                break;
            }
        }
        rec.tr.end(span);
        let released_at = self.c.clock.now();
        let reached = self.c.quorum_watermark(gid.0) >= st.epoch;
        rec.tally.check(reached, || {
            format!("epoch {} never reached quorum release", st.epoch)
        });
        let k = &mut self.c.nodes[0].sls.kernel;
        let got = k.recvmsg(self.client, self.client_fd).map(|(m, _)| m);
        rec.tally.check(got.as_ref().ok() == Some(&msg), || {
            format!("epoch {}: client got {got:?} after release", st.epoch)
        });
        rec.checkpoint(&st, called, released_at);
        let drained = rec.tr.span("cluster.drain", || self.c.drain());
        rec.tally
            .check(drained.is_ok(), || format!("drain failed: {drained:?}"));
        rec.push("drain_host_ns", host0.elapsed().as_nanos() as f64);
        rec.push(
            "wire_bytes",
            (self.c.fabric.stats().sent_bytes - wire0) as f64,
        );

        if rec.tr.is_on() {
            let ((), ns) =
                timed(|| self.traced_extras(rec, st.epoch, prev_epoch, released_at - called));
            self.extras_host_s += ns / 1e9;
        }
        if r.is_multiple_of(PRUNE_EVERY) {
            let p = rec.tr.span("cluster.coordinated_prune", || {
                self.c.coordinated_prune(gid, PRUNE_KEEP)
            });
            rec.tally
                .check(p.is_ok(), || format!("prune failed: {p:?}"));
        }
        Some(st.epoch)
    }

    /// Traced run only: time one more `send_delta_stats` over the same
    /// epoch pair (its host cost is hidden inside
    /// `checkpoint_and_replicate`), and check that the epoch's
    /// provenance critical path telescopes to the measured release
    /// latency within one virtual µs.
    fn traced_extras(&mut self, rec: &mut Rec, epoch: u64, prev: u64, release_ns: u64) {
        let (d, ns) = timed(|| {
            rec.tr.span("core.send_delta_stats", || {
                self.c.nodes[0].sls.send_delta_stats(prev, epoch)
            })
        });
        match d {
            Ok((_, d)) => {
                rec.push("send_delta_host_ns", ns);
                rec.push("delta_pages", d.pages as f64);
                rec.push("delta_bytes", d.bytes as f64);
            }
            Err(e) => rec
                .tally
                .fail(format!("send_delta_stats({prev}, {epoch}) failed: {e:?}")),
        }
        let path = self
            .c
            .last_critical_path()
            .filter(|(_, e, _)| *e == epoch)
            .map(|(_, _, p)| p.clone());
        let Some(cp) = path else {
            rec.tally
                .fail(format!("no critical path for epoch {epoch}"));
            return;
        };
        let hop_sum: u64 = cp.hops.iter().map(|h| h.dur_ns).sum();
        rec.tally.check(hop_sum == cp.total_ns && cp.total_ns.abs_diff(release_ns) <= STEP_NS, || {
            format!(
                "epoch {epoch}: critical path hops sum {hop_sum}, total {}, measured release {release_ns}",
                cp.total_ns
            )
        });
        rec.push("cp_stage_ns", cp.attributed_ns(HopKind::Stage) as f64);
        rec.push("cp_link_ns", cp.attributed_ns(HopKind::Link) as f64);
        rec.push("cp_member_ns", cp.attributed_ns(HopKind::Member) as f64);
        rec.push("cp_local_ns", cp.attributed_ns(HopKind::Local) as f64);
    }

    /// The end-of-trial oracle: a seeded page sample of the leader's
    /// live memory matches the model, and a seeded sample of the pages
    /// stored at the last epoch reads identically on every node.
    fn final_check(&mut self, rec: &mut Rec, last: u64, seed: u64) {
        let mut sample = rng(seed, 4);
        for _ in 0..FINAL_SAMPLE {
            let page = sample.gen_range(0..IMAGE_PAGES);
            self.app
                .verify(&mut self.c.nodes[0].sls.kernel, rec, page, "leader memory");
        }
        let gid = self.app.gid.0;
        let leader = self.c.nodes[0].sls.store().clone();
        let objects = leader.lock().objects_at(last).unwrap_or_default();
        let mut pages = Vec::new();
        for oid in objects {
            if leader.lock().kind(oid).ok() == Some(ObjectKind::Memory) {
                let at = leader.lock().pages_at(oid, last).unwrap_or_default();
                pages.extend(at.into_iter().map(|pi| (oid, pi)));
            }
        }
        rec.tally.check(!pages.is_empty(), || {
            format!("no memory pages stored at epoch {last}")
        });
        for _ in 0..FINAL_SAMPLE.min(pages.len() as u64) {
            let (oid, pi) = pages[sample.gen_range(0..pages.len() as u64) as usize];
            let want = leader.lock().read_page(oid, pi, last).map(|p| *p.bytes());
            for f in 1..self.c.nodes.len() {
                let local = self.c.nodes[f].local_epoch_of(gid, last);
                let store = self.c.nodes[f].sls.store().clone();
                let got = local.map(|e| store.lock().read_page(oid, pi, e).map(|p| *p.bytes()));
                let ok = matches!((&want, &got), (Ok(a), Some(Ok(b))) if a == b);
                rec.tally.check(ok, || {
                    format!("node {f}: {oid:?} page {pi} differs from the leader at epoch {last}")
                });
            }
        }
    }
}

/// One trial: set up, then run `rounds` replication rounds. Provenance
/// (and the extra timing call) only in a traced trial.
pub fn trial(seed: u64, rounds: u64, traced: bool) -> Rec {
    let mut rec = Rec::new(traced);
    let mut setup_rec = Rec::new(false);
    let (mut s, setup_ns) = timed(|| setup(seed, traced, &mut setup_rec));
    rec.tally.merge(setup_rec.tally);
    rec.add("setup_host_s", setup_ns / 1e9);

    let t0 = s.c.clock.now();
    let stats0 = s.c.stats;
    let vm0 = s.c.nodes[0].sls.kernel.vm.stats;
    let store0 = store_snap(&s.c.nodes[0].sls);
    let mut last = s.c.quorum_watermark(s.app.gid.0);
    let host0 = Instant::now();
    for r in 1..=rounds {
        rec.tr.set_op(r);
        let round = Instant::now();
        let span = rec.tr.begin("repl.round");
        let epoch = s.round(&mut rec, r, last);
        rec.tr.end(span);
        rec.push("round_host_ns", round.elapsed().as_nanos() as f64);
        if let Some(e) = epoch {
            last = e;
        }
    }
    // The traced trial's extra send_delta_stats and critical-path check
    // are not the tracer's overhead: keep them out of the body.
    rec.add(
        "body_host_s",
        host0.elapsed().as_secs_f64() - s.extras_host_s,
    );
    rec.add("body_virt_ns", (s.c.clock.now() - t0) as f64);
    rec.add(
        "deltas_sent",
        (s.c.stats.deltas_sent - stats0.deltas_sent) as f64,
    );
    rec.add(
        "acks_received",
        (s.c.stats.acks_received - stats0.acks_received) as f64,
    );
    let vm = s.c.nodes[0].sls.kernel.vm.stats - vm0;
    rec.add("vm.cow_breaks", vm.cow_breaks as f64);
    rec.add("vm.faults", vm.faults as f64);
    rec.add("vm.pte_downgrades", vm.pte_downgrades as f64);
    let store1 = store_snap(&s.c.nodes[0].sls);
    rec.add("cache_hits", (store1.cache_hits - store0.cache_hits) as f64);
    rec.add(
        "cache_misses",
        (store1.cache_misses - store0.cache_misses) as f64,
    );
    s.final_check(&mut rec, last, seed);
    rec
}
