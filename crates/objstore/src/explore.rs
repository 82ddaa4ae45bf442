//! Crash-schedule exploration.
//!
//! The store's headline guarantee is that after an arbitrary crash,
//! [`ObjectStore::open`] recovers the last durable checkpoint and
//! nothing newer — per consistency group once checkpoints are sharded.
//! This module turns that sentence into an exhaustive test: run a
//! workload once fault-free to learn its write trace, then replay it
//! once per write boundary with a power-cut injected there, reopen the
//! store, and check four invariants for every group on every schedule:
//!
//! 1. **Prefix**: the group's recovered epochs are a contiguous range of
//!    its commit order (a prefix of it unless the workload drops old
//!    checkpoints), and every epoch the group explicitly waited for
//!    (barriered) before the cut was recovered — durability can't be
//!    lost.
//! 2. **No unsealed state**: every recovered epoch's contents (objects,
//!    pages, metadata) are bit-exact against the golden model, and every
//!    committed epoch that was not recovered is unreadable — nothing from
//!    a torn commit leaks through.
//! 3. **Journal idempotence**: scanning the group's journal twice yields
//!    the same records, and they are exactly the appends that completed
//!    synchronously before the cut (a prefix of the appends under a
//!    sub-block tear).
//! 4. **Reopen no-op**: opening the recovered device a second time
//!    yields the identical store: epochs, every group's epochs, and the
//!    objects and pages of the last epoch.
//!
//! The same [`Explorer`] drives a one-group workload (with optional
//! history reclamation) and a two-group workload whose drafts stay open
//! concurrently, so a crash lands while both groups have epochs in
//! flight. Determinism makes this exhaustive instead of probabilistic:
//! the same workload always issues the same write sequence, so "crash
//! at write N" names one exact machine state.

use crate::{ObjectKind, ObjectStore, Oid, PAGE};
use aurora_sim::cost::Charge;
use aurora_sim::rng::{DetRng, Rng};
use aurora_sim::{Clock, CostModel};
use aurora_storage::faulty::{FaultHandle, FaultPlan};
use aurora_storage::{faulty_testbed_array, SharedDevice};
use aurora_trace::{InvariantChecker, Trace};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::Range;

/// One step of a crash-exploration workload; `g` is a workload-local
/// group index.
#[derive(Clone, Debug)]
enum Op {
    /// Write one page (filled with `fill`) of group `g`'s object `obj`;
    /// objects are created on first use.
    Write { g: usize, obj: usize, pindex: u64, fill: u8 },
    /// Replace the metadata of group `g`'s object `obj`.
    SetMeta { g: usize, obj: usize, tag: u8 },
    /// Commit group `g`'s draft; `wait` additionally barriers on its
    /// durability (external synchrony).
    Commit { g: usize, wait: bool },
    /// Synchronously append a record to group `g`'s journal.
    JournalAppend { g: usize, fill: u8, len: usize },
    /// Drop the store's oldest checkpoint (no-op when fewer than two
    /// exist). Reclamation is store-wide, so it names no group.
    DropOldest,
}

/// The one-group workload. `with_drops` mixes in history reclamation,
/// exercising the drop/crash interleaving.
fn one_group_ops(seed: u64, ops: usize, with_drops: bool) -> Vec<Op> {
    let mut rng = DetRng::seed_from_u64(seed);
    (0..ops)
        .map(|_| match rng.gen_range(0..10) {
            0..=4 => Op::Write {
                g: 0,
                obj: rng.gen_range(0..4) as usize,
                pindex: rng.gen_range(0..8),
                fill: rng.next_u64() as u8,
            },
            5 => Op::SetMeta { g: 0, obj: rng.gen_range(0..4) as usize, tag: rng.next_u64() as u8 },
            6 | 7 => Op::Commit { g: 0, wait: rng.gen_bool(0.5) },
            8 => Op::JournalAppend {
                g: 0,
                fill: rng.next_u64() as u8,
                len: 40 + rng.gen_range(0..6000) as usize,
            },
            _ if with_drops => Op::DropOldest,
            _ => Op::Commit { g: 0, wait: true },
        })
        .collect()
}

/// The two-group workload. Writes dominate and alternate between
/// groups, so both drafts are routinely open at once; commits hit one
/// group at a time.
fn two_group_ops(seed: u64, ops: usize) -> Vec<Op> {
    let mut rng = DetRng::seed_from_u64(seed);
    (0..ops)
        .map(|_| {
            let g = rng.gen_range(0..2) as usize;
            match rng.gen_range(0..8) {
                0..=4 => Op::Write {
                    g,
                    obj: rng.gen_range(0..2) as usize,
                    pindex: rng.gen_range(0..8),
                    fill: rng.next_u64() as u8,
                },
                5 | 6 => Op::Commit { g, wait: rng.gen_bool(0.5) },
                _ => Op::JournalAppend {
                    g,
                    fill: rng.next_u64() as u8,
                    len: 40 + rng.gen_range(0..3000) as usize,
                },
            }
        })
        .collect()
}

/// Snapshot of one group's committed state at one epoch.
#[derive(Clone, Debug, Default)]
struct EpochModel {
    /// `(obj, pindex) -> fill` for every page written before the commit.
    pages: HashMap<(usize, u64), u8>,
    /// `obj -> tag` for every metadata version set before the commit.
    metas: HashMap<usize, u8>,
    /// Workload objects that existed at the commit.
    objects: BTreeSet<usize>,
}

/// What one replay produced for one workload group.
struct GroupRun {
    /// Lazily created objects, by workload-local index.
    oids: BTreeMap<usize, Oid>,
    journal: Oid,
    /// Committed epochs in commit order (including later-dropped ones).
    epochs: Vec<u64>,
    /// Modelled contents at each committed epoch.
    models: HashMap<u64, EpochModel>,
    /// Contents staged since the last commit.
    live: EpochModel,
    /// Highest epoch barriered before the cut fired (0: none).
    waited: u64,
    /// Journal records appended, in order.
    jrecords: Vec<Vec<u8>>,
    /// How many of `jrecords` completed before the cut fired.
    jrecords_before_cut: usize,
}

/// Everything one replay of the workload produced.
struct Replay {
    store: ObjectStore,
    dev: SharedDevice,
    handle: FaultHandle,
    groups: Vec<GroupRun>,
    /// Highest number of concurrently open drafts observed.
    max_open_drafts: u64,
    /// Online invariant checker armed over the whole replay (epoch
    /// monotonicity across the crash, extsync ordering, frame writes).
    checker: InvariantChecker,
}

/// Summary of one exploration sweep.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScheduleReport {
    /// Distinct crash points the sweep covered.
    pub schedules: u64,
    /// Schedules in which the cut actually fired.
    pub cuts_fired: u64,
    /// Schedules that recovered at least one workload epoch of some
    /// group.
    pub recovered_nonempty: u64,
}

/// The crash-schedule explorer: one workload, every crash point.
pub struct Explorer {
    ops: Vec<Op>,
    /// The store-level group each workload group stages under.
    groups: &'static [u64],
}

impl Explorer {
    /// An explorer for a seeded one-group workload, staged under the
    /// store's default group 0.
    pub fn from_seed(seed: u64, ops: usize, with_drops: bool) -> Self {
        Self { ops: one_group_ops(seed, ops, with_drops), groups: &[0] }
    }

    /// An explorer for a seeded two-group workload, staged under store
    /// groups 1 and 2 (group 0 is left for ungrouped callers, mirroring
    /// the SLS).
    pub fn two_groups_from_seed(seed: u64, ops: usize) -> Self {
        Self { ops: two_group_ops(seed, ops), groups: &[1, 2] }
    }

    /// Runs `ops` over a faulty testbed armed with `plan`. The store is
    /// formatted, and each group's journal created and committed behind
    /// a barrier, fault-free first, so write sequence numbers in `plan`
    /// count workload writes only.
    fn replay(&self, ops: &[Op], plan: FaultPlan) -> Replay {
        let clock = Clock::new();
        let (dev, handle) = faulty_testbed_array(&clock, 1 << 26, FaultPlan::none());
        let trace = {
            let c = clock.clone();
            Trace::recording(move || c.now())
        };
        let checker = InvariantChecker::arm(&trace);
        let mut charge = Charge::new(clock, CostModel::default());
        charge.set_trace(trace);
        let mut store = ObjectStore::format(dev.clone(), charge, 2048).expect("format");
        let mut groups: Vec<GroupRun> = self
            .groups
            .iter()
            .map(|&sg| {
                store.stage_for(sg);
                let journal = store.alloc_oid();
                store.create_journal(journal, 64).expect("create journal");
                let c = store.commit_for(sg).expect("setup commit");
                store.barrier(c);
                // The setup commit opens the group's history; models
                // start from it.
                GroupRun {
                    oids: BTreeMap::new(),
                    journal,
                    epochs: vec![c.epoch],
                    models: HashMap::from([(c.epoch, EpochModel::default())]),
                    live: EpochModel::default(),
                    waited: 0,
                    jrecords: Vec::new(),
                    jrecords_before_cut: 0,
                }
            })
            .collect();
        handle.set_plan(plan);

        let mut max_open_drafts = 0u64;
        for op in ops {
            match *op {
                Op::Write { g, obj, pindex, fill } => {
                    store.stage_for(self.groups[g]);
                    let oid = object(&mut store, &mut groups[g], obj);
                    let p = store.arena().alloc([fill; PAGE]);
                    store.write_pages(oid, &[(pindex, p)]).expect("write");
                    groups[g].live.pages.insert((obj, pindex), fill);
                }
                Op::SetMeta { g, obj, tag } => {
                    store.stage_for(self.groups[g]);
                    let oid = object(&mut store, &mut groups[g], obj);
                    store.set_meta_batch(&[(oid, vec![tag; 32])]).expect("set_meta_batch");
                    groups[g].live.metas.insert(obj, tag);
                }
                Op::Commit { g, wait } => {
                    let info = store.commit_for(self.groups[g]).expect("commit");
                    let run = &mut groups[g];
                    if wait {
                        store.barrier(info);
                        if !handle.cut_fired() {
                            run.waited = info.epoch;
                        }
                    }
                    run.epochs.push(info.epoch);
                    run.models.insert(info.epoch, run.live.clone());
                }
                Op::JournalAppend { g, fill, len } => {
                    store.stage_for(self.groups[g]);
                    let run = &mut groups[g];
                    store.journal_append(run.journal, &vec![fill; len]).expect("append");
                    run.jrecords.push(vec![fill; len]);
                    if !handle.cut_fired() {
                        run.jrecords_before_cut = run.jrecords.len();
                    }
                }
                Op::DropOldest => {
                    if store.epochs().len() >= 2 {
                        store.drop_oldest_checkpoint().expect("drop");
                    }
                }
            }
            max_open_drafts = max_open_drafts.max(store.open_drafts());
        }
        store.stage_for(0);

        Replay { store, dev, handle, groups, max_open_drafts, checker }
    }

    /// Runs the workload fault-free (the golden run) and returns its
    /// write sequence numbers past the setup: the crash points. A
    /// workload of two or more groups must really have had two drafts
    /// open at once, or its schedules would not crash with several
    /// epochs in flight.
    fn golden(&self) -> Range<u64> {
        let setup = self.replay(&[], FaultPlan::none());
        let full = self.replay(&self.ops, FaultPlan::none());
        assert!(
            self.groups.len() < 2 || full.max_open_drafts >= 2,
            "workload never had two drafts concurrently open (max {})",
            full.max_open_drafts
        );
        setup.handle.writes_seen()..full.handle.writes_seen()
    }

    /// Replays the workload once per crash point of the golden run,
    /// checking the four recovery invariants for every
    /// group after each crash. `tear_seed` additionally tears the cut
    /// write at a seeded sub-block offset on every schedule.
    ///
    /// Panics (test-style) with the offending crash point on violation.
    pub fn explore(&self, tear_seed: Option<u64>) -> ScheduleReport {
        let mut report = ScheduleReport::default();
        let mut tear_rng = tear_seed.map(DetRng::seed_from_u64);
        for cut in self.golden() {
            let plan = match &mut tear_rng {
                Some(rng) => {
                    // Odd offsets make the tear land mid-byte-run, never
                    // on a block boundary.
                    let bytes = (rng.gen_range(1..PAGE as u64) | 1) as usize;
                    FaultPlan::torn_cut_at(cut, bytes)
                }
                None => FaultPlan::cut_at(cut),
            };
            let run = self.replay(&self.ops, plan);
            if run.handle.cut_fired() {
                report.cuts_fired += 1;
            }
            if self.check_recovery(run, cut, tear_seed.is_some()) {
                report.recovered_nonempty += 1;
            }
            report.schedules += 1;
        }
        report
    }

    /// Crashes the replayed store, reopens it, and asserts the four
    /// recovery invariants for each group. Returns whether any group
    /// recovered a workload epoch (beyond its setup commit). `torn`
    /// relaxes the journal check: a sub-block tear may damage
    /// acknowledged records that share the torn block, so only the
    /// prefix property holds.
    fn check_recovery(&self, run: Replay, cut: u64, torn: bool) -> bool {
        let Replay { store, dev, handle: _handle, groups, max_open_drafts: _, checker } = run;
        let charge = store.charge().clone();
        let mut rec = store
            .crash_and_recover()
            .unwrap_or_else(|e| panic!("crash point {cut}: recovery failed: {e}"));
        // Every recovered page version must still match its write-time
        // checksum — a crash (even a torn one) may lose writes but must
        // never surface silently corrupted data.
        rec.scrub().unwrap_or_else(|e| panic!("crash point {cut}: scrub failed: {e}"));
        let drops = self.ops.iter().any(|op| matches!(op, Op::DropOldest));

        let mut any = false;
        for (run, &sg) in groups.iter().zip(self.groups) {
            // Invariant 1: the group's recovered epochs are a contiguous
            // range of its commit order — a prefix unless reclamation
            // dropped the head, since chained commit records cannot
            // recover epoch N without N-1 — and nothing the group
            // barriered before the cut is lost.
            let recovered = rec.epochs_for(sg);
            let start = recovered.first().map_or(0, |first| {
                run.epochs.iter().position(|e| e == first).unwrap_or_else(|| {
                    panic!("crash point {cut}: group {sg} unknown epoch {first}")
                })
            });
            assert_eq!(
                run.epochs.get(start..start + recovered.len()),
                Some(&recovered[..]),
                "crash point {cut}: group {sg} epochs not contiguous in commit order"
            );
            assert!(
                drops || start == 0,
                "crash point {cut}: group {sg} epochs not a prefix of its commit order"
            );
            let last = recovered.last().copied().unwrap_or(0);
            assert!(
                last >= run.waited,
                "crash point {cut}: group {sg} barriered epoch {} lost (have {last})",
                run.waited
            );
            any |= recovered.len() > 1;

            // Invariant 2: recovered contents are bit-exact against the
            // group's model; its unrecovered epochs are invisible.
            for &epoch in &recovered {
                let model = &run.models[&epoch];
                let present = rec.objects_at(epoch).expect("epoch just listed");
                for (&obj, oid) in &run.oids {
                    assert_eq!(
                        present.contains(oid),
                        model.objects.contains(&obj),
                        "crash point {cut}: group {sg} epoch {epoch} obj {obj} visibility"
                    );
                }
                for (&(obj, pindex), &fill) in &model.pages {
                    let page = rec.read_page(run.oids[&obj], pindex, epoch).unwrap_or_else(|e| {
                        panic!("crash point {cut}: group {sg} epoch {epoch} read: {e}")
                    });
                    assert!(
                        page.iter().all(|&b| b == fill),
                        "crash point {cut}: group {sg} epoch {epoch} obj {obj} page {pindex} corrupt"
                    );
                }
                for (&obj, &tag) in &model.metas {
                    let meta = rec.meta_at(run.oids[&obj], epoch).unwrap_or_else(|e| {
                        panic!("crash point {cut}: group {sg} epoch {epoch} meta: {e}")
                    });
                    assert_eq!(
                        meta, &[tag; 32],
                        "crash point {cut}: group {sg} epoch {epoch} meta mismatch"
                    );
                }
            }
            for &epoch in run.epochs.iter().filter(|e| !recovered.contains(e)) {
                assert!(
                    rec.objects_at(epoch).is_err(),
                    "crash point {cut}: group {sg} unrecovered epoch {epoch} still visible"
                );
            }

            // Invariant 3: the group's journal replays idempotently and
            // exposes exactly its synchronously completed appends.
            if !recovered.is_empty() {
                let first = rec.journal_records(run.journal).expect("journal scan");
                let second = rec.journal_records(run.journal).expect("journal rescan");
                assert_eq!(first, second, "crash point {cut}: group {sg} journal replay");
                if torn {
                    assert!(
                        run.jrecords.starts_with(&first),
                        "crash point {cut}: group {sg} journal not a prefix of the appends"
                    );
                } else {
                    assert_eq!(
                        first,
                        run.jrecords[..run.jrecords_before_cut],
                        "crash point {cut}: group {sg} journal vs completed appends"
                    );
                }
            }
        }

        // Invariant 4: a second open is a no-op, group attribution
        // included.
        let again = ObjectStore::open(dev, charge)
            .unwrap_or_else(|e| panic!("crash point {cut}: second open failed: {e}"));
        assert_eq!(again.epochs(), rec.epochs(), "crash point {cut}: second open changed epochs");
        for &sg in self.groups {
            assert_eq!(
                again.epochs_for(sg),
                rec.epochs_for(sg),
                "crash point {cut}: second open changed group {sg}'s epochs"
            );
        }
        if let Some(&last) = rec.epochs().last() {
            let objects = rec.objects_at(last).expect("epoch exists");
            assert_eq!(
                again.objects_at(last).expect("epoch exists"),
                objects,
                "crash point {cut}: second open changed the object set"
            );
            for oid in groups.iter().flat_map(|run| run.oids.values()) {
                if objects.contains(oid) {
                    assert_eq!(
                        again.pages_at(*oid, last).expect("object listed"),
                        rec.pages_at(*oid, last).expect("object listed"),
                        "crash point {cut}: second open changed {oid:?}'s pages"
                    );
                }
            }
        }

        // The online invariant checker watched the whole replay plus the
        // recovery above (the charge's trace survives the crash): epoch
        // commits stayed monotone, recovery replayed epochs in order, and
        // no frame write mutated a shared frame in place.
        assert!(checker.checked() > 0, "crash point {cut}: invariant checker saw no events");
        checker.assert_clean();
        any
    }
}

/// Group `run`'s object `obj`, created on first use.
fn object(store: &mut ObjectStore, run: &mut GroupRun, obj: usize) -> Oid {
    let oid = *run.oids.entry(obj).or_insert_with(|| {
        let o = store.alloc_oid();
        store.create_object(o, ObjectKind::Memory).expect("create");
        o
    });
    run.live.objects.insert(obj);
    oid
}
