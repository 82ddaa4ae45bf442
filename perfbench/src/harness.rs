//! What every workload shares: the seeded input generator, the per-trial
//! recorder of raw samples and sums, and the checkpoint bookkeeping
//! (stage samples plus the telescoping checks).
//!
//! Naming rule for recorded series and sums: a name that contains
//! `host` is measured on the host clock and varies run to run; every
//! other name is a virtual-clock time or a count and must repeat exactly
//! for a given seed — that is what the determinism check compares.

use crate::metrics::Data;
use crate::spans::Tracer;
use crate::stats::Tally;
use aurora_core::{CheckpointStats, GroupId, Sls};
use aurora_posix::{Kernel, Pid};
use aurora_sim::{DetRng, Rng as _};
use aurora_vm::Prot;
use std::collections::BTreeMap;
use std::time::Instant;

/// The input generator for `seed` and `stream` (independent input
/// streams of one seed). Inputs depend only on `--seed`, never on the
/// system under test.
pub fn rng(seed: u64, stream: u64) -> DetRng {
    DetRng::seed_from_u64(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
}

/// Fills `buf` with bytes derived from `stamp`, none of them zero, so a
/// page or value that was never written (all zeros) can never pass for
/// one that was.
pub fn fill_nonzero(stamp: u64, buf: &mut [u8]) {
    let mut r = rng(stamp, 0x5eed);
    for chunk in buf.chunks_mut(8) {
        let w = r.next_u64().to_le_bytes();
        for (b, x) in chunk.iter_mut().zip(w) {
            *b = x | 1;
        }
    }
}

/// Page size of the simulated machine.
pub const PAGE: usize = 4096;
/// Bytes stamped at the start of every page when an [`Image`] is mapped.
pub const BASE_STAMP: usize = 64;

/// A process with one anonymous mapping, and the benchmark's model of
/// the bytes that mapping must hold.
pub struct Image {
    /// The process (changes when a restore recreates it).
    pub pid: Pid,
    /// Its consistency group (changes when a restore recreates it).
    pub gid: GroupId,
    /// Base address of the mapping (a restore keeps it).
    pub addr: u64,
    /// Salt of the setup stamps.
    pub salt: u64,
    /// Every page written since setup, as the system must hold it.
    pub written: BTreeMap<u64, Box<[u8; PAGE]>>,
}

impl Image {
    /// Spawns `name`, maps `pages` pages and stamps the start of each
    /// with seeded non-zero bytes derived from `salt`.
    pub fn map(k: &mut Kernel, name: &str, pages: u64, salt: u64) -> Self {
        let pid = k.spawn(name);
        let addr = k.mmap_anon(pid, pages, Prot::RW).expect("map image");
        let img = Self {
            pid,
            gid: GroupId(0),
            addr,
            salt,
            written: BTreeMap::new(),
        };
        for p in 0..pages {
            k.mem_write(pid, addr + p * PAGE as u64, &img.base(p)[..BASE_STAMP])
                .expect("stamp page");
        }
        img
    }

    /// A page's content right after [`Image::map`].
    fn base(&self, page: u64) -> Box<[u8; PAGE]> {
        let mut p = Box::new([0u8; PAGE]);
        fill_nonzero(self.salt ^ page, &mut p[..BASE_STAMP]);
        p
    }

    /// The bytes `page` must hold now.
    pub fn expected(&self, page: u64) -> Box<[u8; PAGE]> {
        self.written
            .get(&page)
            .cloned()
            .unwrap_or_else(|| self.base(page))
    }

    /// Writes `len` bytes derived from `stamp` at `off` of `page`, in
    /// the system and in the model.
    pub fn write(
        &mut self,
        k: &mut Kernel,
        rec: &mut Rec,
        page: u64,
        off: usize,
        len: usize,
        stamp: u64,
    ) {
        let mut data = vec![0u8; len];
        fill_nonzero(stamp, &mut data);
        let addr = self.addr + page * PAGE as u64 + off as u64;
        let r = rec
            .tr
            .span("posix.mem_write", || k.mem_write(self.pid, addr, &data));
        rec.tally
            .check(r.is_ok(), || format!("write to page {page} failed: {r:?}"));
        let base = self.base(page);
        let model = self.written.entry(page).or_insert(base);
        model[off..off + len].copy_from_slice(&data);
        rec.add("writes", 1.0);
        rec.add("user_bytes", len as f64);
    }

    /// Reads `page` back from the system and checks it against the model.
    pub fn verify(&self, k: &mut Kernel, rec: &mut Rec, page: u64, what: &str) {
        let mut buf = vec![0u8; PAGE];
        let r = k.mem_read(self.pid, self.addr + page * PAGE as u64, &mut buf);
        let ok = r.is_ok() && buf[..] == self.expected(page)[..];
        rec.tally.check(ok, || {
            format!("{what}: page {page} differs from the model ({r:?})")
        });
    }
}

/// One trial's raw measurements.
pub struct Rec {
    /// Host-clock spans (recording only in a traced trial).
    pub tr: Tracer,
    /// Raw samples and sums.
    pub data: Data,
    /// Oracle outcomes.
    pub tally: Tally,
}

impl Rec {
    /// An empty recorder; `traced` turns span recording on.
    pub fn new(traced: bool) -> Self {
        Self {
            tr: Tracer::new(traced),
            data: Data::default(),
            tally: Tally::default(),
        }
    }

    /// Appends one raw sample.
    pub fn push(&mut self, name: &'static str, v: f64) {
        self.data.series.entry(name).or_default().push(v);
    }

    /// Adds to a summed scalar.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.data.sums.entry(name).or_default() += v;
    }

    /// Records one committed checkpoint of the measured group: its stop
    /// time and stage split, the frames it shared, and its release
    /// latency (`released_at - called_at`, virtual ns). Also runs the
    /// telescoping checks: the six stop stages sum exactly to
    /// `stop_time_ns`, and all nine to `stage_total_ns`.
    pub fn checkpoint(&mut self, st: &CheckpointStats, called_at: u64, released_at: u64) {
        self.check_stats(st);
        self.push("stop_ns", st.stop_time_ns as f64);
        self.push("quiesce_ns", st.quiesce_ns as f64);
        self.push("collapse_ns", st.collapse_ns as f64);
        self.push("aio_ns", st.aio_ns as f64);
        self.push("os_state_ns", st.os_state_ns as f64);
        self.push("shadow_ns", st.shadow_ns as f64);
        self.push("resume_ns", st.resume_ns as f64);
        self.push("flush_ns", st.flush_ns as f64);
        self.push("commit_ns", st.commit_ns as f64);
        self.push("shared_frames", st.shared_frames as f64);
        self.push("release_ns", released_at.saturating_sub(called_at) as f64);
        self.add("ckpts", 1.0);
    }

    /// The oracle every checkpoint passes: committed, and its stage
    /// timings telescope.
    pub fn check_stats(&mut self, st: &CheckpointStats) {
        let stop: u64 = st.stages()[..6].iter().map(|(_, ns)| ns).sum();
        let all: u64 = st.stages().iter().map(|(_, ns)| ns).sum();
        self.tally.check(st.committed(), || {
            format!("epoch {} aborted: {:?}", st.epoch, st.failure)
        });
        self.tally.check(
            stop == st.stop_time_ns && all == st.stage_total_ns(),
            || {
                format!(
                "epoch {}: stop stages sum {stop} != stop_time_ns {}, or nine stages {all} != {}",
                st.epoch,
                st.stop_time_ns,
                st.stage_total_ns()
            )
            },
        );
    }
}

/// Runs `f`, returning its result and its host duration in ns.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_nanos() as f64)
}

/// Device-level counters of one machine's store.
#[derive(Clone, Copy, Debug, Default)]
pub struct DevSnap {
    /// Bytes written to the device stack since format.
    pub bytes_written: u64,
    /// Writes queued and not yet durable.
    pub queue_depth: u64,
}

/// Reads the store's device counters. The store guard lives only for
/// this expression: holding a `store().lock()` guard while calling back
/// into `Sls` (e.g. `manifests_at`, which takes the same lock)
/// deadlocks.
pub fn dev_snap(sls: &Sls) -> DevSnap {
    let store = sls.store().lock();
    let dev = store.device().lock();
    DevSnap {
        bytes_written: dev.bytes_written(),
        queue_depth: dev.queue_stats().depth,
    }
}

/// Store-level counters used by the per-layer metrics.
#[derive(Clone, Copy, Debug, Default)]
pub struct StoreSnap {
    /// Page-cache hits.
    pub cache_hits: u64,
    /// Page-cache misses.
    pub cache_misses: u64,
    /// Redo records appended.
    pub redo_appended: u64,
    /// Redo-chain materializations.
    pub materializations: u64,
    /// p95 of materialized chain length (exact per length up to 31).
    pub chain_len_p95: u64,
}

/// Reads the store gauges (same locking caveat as [`dev_snap`]).
pub fn store_snap(sls: &Sls) -> StoreSnap {
    let g = sls.store().lock().gauges();
    StoreSnap {
        cache_hits: g.cache_hits,
        cache_misses: g.cache_misses,
        redo_appended: g.redo_appended,
        materializations: g.redo_materializations,
        chain_len_p95: g.redo_chain_len_p95,
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filled_bytes_are_never_zero() {
        let mut buf = [0u8; 61];
        fill_nonzero(3, &mut buf);
        assert!(buf.iter().all(|&b| b != 0));
        let mut again = [0u8; 61];
        fill_nonzero(3, &mut again);
        assert_eq!(buf, again);
    }

    #[test]
    fn checkpoint_oracle_flags_broken_telescoping() {
        let mut rec = Rec::new(false);
        let good = CheckpointStats {
            stop_time_ns: 6,
            quiesce_ns: 1,
            collapse_ns: 1,
            aio_ns: 1,
            os_state_ns: 1,
            shadow_ns: 1,
            resume_ns: 1,
            flush_ns: 5,
            ..Default::default()
        };
        rec.checkpoint(&good, 100, 111);
        assert_eq!((rec.tally.attempted, rec.tally.failed), (2, 0));
        assert_eq!(rec.data.series["release_ns"], vec![11.0]);
        let bad = CheckpointStats {
            stop_time_ns: 7,
            ..good
        };
        rec.check_stats(&bad);
        assert_eq!((rec.tally.attempted, rec.tally.failed), (4, 1));
    }
}
