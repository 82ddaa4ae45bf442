//! RAID-1 mirroring with health-aware failover and online resilver.
//!
//! [`Raid1`] keeps a full copy of the logical block space on every
//! member. Writes go to all members that are not [`Failed`]
//! (`HealthState::Failed`); a member that misses a write — because it is
//! failed, dead, or errored — has the missed blocks recorded in its
//! *dirty set* so a later rebuild can resilver exactly what it lost.
//! Reads prefer the healthiest member whose copy of the range is not
//! stale and fall back across mirrors on error; a fatal read error on
//! one mirror triggers read-repair: the block is rewritten in place from
//! the healthy copy (modelling the device's internal bad-block remap)
//! and counted in the `raid.*` gauges.
//!
//! The [`MirrorHandle`] controls the array from outside the
//! [`BlockDevice`] box: administrative fail/revive, incremental
//! [`rebuild_step`](MirrorHandle::rebuild_step) resilvering under
//! virtual time, a verifying [`scrub`](MirrorHandle::scrub), and the
//! aggregated [`HealthReport`] the checkpoint scheduler throttles on.
//!
//! [`Failed`]: HealthState::Failed

use crate::device::{BlockDevice, Completion, DeviceError, QueueStats, Result, SharedDevice};
use crate::health::{DeviceHealth, HealthReport, HealthState};
use aurora_sim::sync::Mutex;
use aurora_sim::Clock;
use aurora_trace::Trace;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Shared mutable state between [`Raid1`] and its [`MirrorHandle`].
struct MirrorState {
    health: Vec<DeviceHealth>,
    /// Per member: blocks whose on-medium copy is stale (missed or
    /// failed writes) and must be resilvered before the member's copy
    /// can be trusted again.
    dirty: Vec<BTreeSet<u64>>,
    /// Every logical block ever written through the array — the bound
    /// for scrub and mirror-identity checks.
    written: BTreeSet<u64>,
    read_fallbacks: u64,
    bad_blocks_remapped: u64,
    rebuild_copied: u64,
    rebuilds_completed: u64,
    trace: Trace,
}

impl MirrorState {
    fn report(&self) -> HealthReport {
        HealthReport {
            member_states: self.health.iter().map(|h| h.state()).collect(),
            read_fallbacks: self.read_fallbacks,
            bad_blocks_remapped: self.bad_blocks_remapped,
            rebuild_pending_blocks: self.dirty.iter().map(|d| d.len() as u64).sum(),
            rebuild_copied_blocks: self.rebuild_copied,
            rebuilds_completed: self.rebuilds_completed,
        }
    }

    /// Marks a member rebuilt if its dirty set drained, emitting the
    /// completion instant. Returns whether it completed.
    fn finish_rebuild_if_clean(&mut self, member: usize) -> bool {
        if !self.dirty[member].is_empty() || self.health[member].state() == HealthState::Healthy {
            return false;
        }
        if self.health[member].state() == HealthState::Failed {
            return false;
        }
        self.health[member].mark_rebuilt();
        self.rebuilds_completed += 1;
        if self.trace.is_enabled() {
            self.trace.instant("storage", "raid.rebuild.complete", &[("member", member as u64)]);
        }
        true
    }
}

/// What a verifying scrub pass found and fixed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Blocks read and compared across mirrors.
    pub checked_blocks: u64,
    /// Blocks rewritten from a healthy copy (stale, unreadable, or
    /// mismatched).
    pub repaired_blocks: u64,
    /// Blocks whose contents disagreed between readable mirrors (silent
    /// divergence — the serious kind).
    pub mismatched_blocks: u64,
}

/// A RAID-1 (mirroring) array over homogeneous members with per-member
/// [`DeviceHealth`] tracking. See the module docs.
pub struct Raid1 {
    members: Vec<SharedDevice>,
    state: Arc<Mutex<MirrorState>>,
    block_size: usize,
    capacity_blocks: u64,
    clock: Clock,
}

impl Raid1 {
    /// Creates a mirror set over `members` (each gets a copy of the
    /// whole logical space). Returns the array plus the external
    /// control handle.
    ///
    /// Returns [`DeviceError::BadConfig`] for fewer than two members or
    /// heterogeneous geometry.
    pub fn new(members: Vec<Box<dyn BlockDevice + Send>>) -> Result<(Self, MirrorHandle)> {
        if members.len() < 2 {
            return Err(DeviceError::BadConfig { reason: "raid1 needs at least two mirrors" });
        }
        let block_size = members[0].block_size();
        let capacity_blocks = members[0].capacity_blocks();
        let clock = members[0].clock().clone();
        for m in &members {
            if m.block_size() != block_size {
                return Err(DeviceError::BadConfig { reason: "heterogeneous block sizes" });
            }
            if m.capacity_blocks() != capacity_blocks {
                return Err(DeviceError::BadConfig { reason: "heterogeneous capacities" });
            }
        }
        let n = members.len();
        let state = Arc::new(Mutex::new(MirrorState {
            health: (0..n).map(|i| DeviceHealth::new(i as u64)).collect(),
            dirty: vec![BTreeSet::new(); n],
            written: BTreeSet::new(),
            read_fallbacks: 0,
            bad_blocks_remapped: 0,
            rebuild_copied: 0,
            rebuilds_completed: 0,
            trace: Trace::disabled(),
        }));
        let members: Vec<SharedDevice> = members.into_iter().map(share_boxed).collect();
        let handle = MirrorHandle {
            members: members.clone(),
            state: state.clone(),
            clock: clock.clone(),
        };
        Ok((Self { members, state, block_size, capacity_blocks, clock }, handle))
    }

    fn check_range(&self, lba: u64, nblocks: u64) -> Result<()> {
        if lba + nblocks > self.capacity_blocks {
            return Err(DeviceError::OutOfRange { lba, nblocks, capacity: self.capacity_blocks });
        }
        Ok(())
    }

    fn check_aligned(&self, data: &[u8]) -> Result<u64> {
        if data.is_empty() || !data.len().is_multiple_of(self.block_size) {
            return Err(DeviceError::Misaligned { len: data.len(), block_size: self.block_size });
        }
        Ok((data.len() / self.block_size) as u64)
    }

    /// Member indices to try for a read of `[lba, lba+n)`: members that
    /// are not `Failed` and whose copy of the range is not stale,
    /// healthiest first (ties broken by index for determinism).
    fn read_candidates(st: &MirrorState, lba: u64, nblocks: u64) -> Vec<usize> {
        let mut cands: Vec<usize> = (0..st.health.len())
            .filter(|&i| st.health[i].state() != HealthState::Failed)
            .filter(|&i| st.dirty[i].range(lba..lba + nblocks).next().is_none())
            .collect();
        cands.sort_by_key(|&i| (st.health[i].state().code(), i));
        cands
    }
}

fn share_boxed(dev: Box<dyn BlockDevice + Send>) -> SharedDevice {
    Arc::new(Mutex::new(BoxedDevice(dev)))
}

/// Adapter so a `Box<dyn BlockDevice + Send>` fits in a
/// [`SharedDevice`] without re-boxing the trait object.
struct BoxedDevice(Box<dyn BlockDevice + Send>);

impl BlockDevice for BoxedDevice {
    fn block_size(&self) -> usize {
        self.0.block_size()
    }
    fn capacity_blocks(&self) -> u64 {
        self.0.capacity_blocks()
    }
    fn clock(&self) -> &Clock {
        self.0.clock()
    }
    fn read(&mut self, lba: u64, nblocks: u64) -> Result<Vec<u8>> {
        self.0.read(lba, nblocks)
    }
    fn read_from(&mut self, lba: u64, nblocks: u64, issue_at: u64) -> Result<(Vec<u8>, u64)> {
        self.0.read_from(lba, nblocks, issue_at)
    }
    fn write(&mut self, lba: u64, data: &[u8]) -> Result<Completion> {
        self.0.write(lba, data)
    }
    fn write_after(&mut self, lba: u64, data: &[u8], after: Completion) -> Result<Completion> {
        self.0.write_after(lba, data, after)
    }
    fn flush(&mut self) -> Completion {
        self.0.flush()
    }
    fn crash(&mut self) {
        self.0.crash();
    }
    fn bytes_written(&self) -> u64 {
        self.0.bytes_written()
    }
    fn geometry(&self) -> (u64, u64) {
        self.0.geometry()
    }
    fn set_trace(&mut self, trace: Trace) {
        self.0.set_trace(trace);
    }
    fn queue_stats(&self) -> QueueStats {
        self.0.queue_stats()
    }
    fn health_report(&self) -> HealthReport {
        self.0.health_report()
    }
}

impl BlockDevice for Raid1 {
    fn block_size(&self) -> usize {
        self.block_size
    }

    fn capacity_blocks(&self) -> u64 {
        self.capacity_blocks
    }

    fn clock(&self) -> &Clock {
        &self.clock
    }

    fn read(&mut self, lba: u64, nblocks: u64) -> Result<Vec<u8>> {
        let now = self.clock.now();
        let (data, done) = self.read_from(lba, nblocks, now)?;
        self.clock.advance_to(done);
        Ok(data)
    }

    fn read_from(&mut self, lba: u64, nblocks: u64, issue_at: u64) -> Result<(Vec<u8>, u64)> {
        self.check_range(lba, nblocks)?;
        let mut st = self.state.lock();
        let cands = Self::read_candidates(&st, lba, nblocks);
        if cands.is_empty() {
            return Err(DeviceError::NoHealthyMirror { lba });
        }
        // Members that returned a fatal error, for read-repair once a
        // good copy is found.
        let mut fatal_failures: Vec<usize> = Vec::new();
        let mut last_err = DeviceError::NoHealthyMirror { lba };
        for (rank, &i) in cands.iter().enumerate() {
            match self.members[i].lock().read_from(lba, nblocks, issue_at) {
                Ok((data, done)) => {
                    st.health[i].record_ok();
                    if rank > 0 {
                        st.read_fallbacks += 1;
                        if st.trace.is_enabled() {
                            st.trace.instant(
                                "storage",
                                "raid.read_fallback",
                                &[("lba", lba), ("member", i as u64)],
                            );
                        }
                    }
                    // Read-repair: rewrite the block range in place on
                    // every mirror whose medium failed it — the device
                    // remaps the bad sectors on write, and the mirror's
                    // copy is fresh again.
                    for &bad in &fatal_failures {
                        if st.health[bad].state() == HealthState::Failed {
                            for b in lba..lba + nblocks {
                                st.dirty[bad].insert(b);
                            }
                            continue;
                        }
                        match self.members[bad].lock().write(lba, &data) {
                            Ok(_) => {
                                st.bad_blocks_remapped += nblocks;
                                if st.trace.is_enabled() {
                                    st.trace.instant(
                                        "storage",
                                        "raid.remap",
                                        &[("lba", lba), ("member", bad as u64), ("blocks", nblocks)],
                                    );
                                }
                            }
                            Err(_) => {
                                for b in lba..lba + nblocks {
                                    st.dirty[bad].insert(b);
                                }
                            }
                        }
                    }
                    return Ok((data, done));
                }
                Err(e) => {
                    let transient = e.is_transient();
                    st.health[i].record_error(transient);
                    if !transient {
                        fatal_failures.push(i);
                    }
                    last_err = e;
                }
            }
        }
        // Every candidate failed. Transient-only failure windows stay
        // transient (the caller's retry may land on a recovered queue);
        // fatal failures on every mirror mean redundancy is exhausted.
        if last_err.is_transient() {
            Err(last_err)
        } else {
            Err(DeviceError::NoHealthyMirror { lba })
        }
    }

    fn write(&mut self, lba: u64, data: &[u8]) -> Result<Completion> {
        self.mirrored_write(lba, data, None)
    }

    fn write_after(&mut self, lba: u64, data: &[u8], after: Completion) -> Result<Completion> {
        self.mirrored_write(lba, data, Some(after))
    }

    fn flush(&mut self) -> Completion {
        let failed: Vec<bool> = {
            let st = self.state.lock();
            st.health.iter().map(|h| h.state() == HealthState::Failed).collect()
        };
        let mut completion = Completion::immediate(self.clock.now());
        for (i, m) in self.members.iter().enumerate() {
            if failed[i] {
                continue;
            }
            completion = completion.join(m.lock().flush());
        }
        self.clock.advance_to(completion.done_at);
        completion
    }

    fn crash(&mut self) {
        for m in &self.members {
            m.lock().crash();
        }
    }

    fn bytes_written(&self) -> u64 {
        self.members.iter().map(|m| m.lock().bytes_written()).sum()
    }

    fn geometry(&self) -> (u64, u64) {
        self.members[0].lock().geometry()
    }

    fn set_trace(&mut self, trace: Trace) {
        {
            let mut st = self.state.lock();
            st.trace = trace.clone();
            for h in &mut st.health {
                h.set_trace(trace.clone());
            }
        }
        for m in &self.members {
            m.lock().set_trace(trace.clone());
        }
    }

    fn queue_stats(&self) -> QueueStats {
        let failed: Vec<bool> = {
            let st = self.state.lock();
            st.health.iter().map(|h| h.state() == HealthState::Failed).collect()
        };
        self.members
            .iter()
            .enumerate()
            .filter(|(i, _)| !failed[*i])
            .fold(QueueStats::default(), |acc, (_, m)| acc.merge(m.lock().queue_stats()))
    }

    fn health_report(&self) -> HealthReport {
        self.state.lock().report()
    }
}

impl Raid1 {
    /// The common write path: every non-failed member gets the write;
    /// members that miss it (failed, or erroring now) accumulate the
    /// blocks in their dirty set for a later resilver. The write
    /// succeeds as long as one mirror carries it — that is the point of
    /// mirroring — and its durability is the join of the successful
    /// copies.
    fn mirrored_write(&mut self, lba: u64, data: &[u8], after: Option<Completion>) -> Result<Completion> {
        let nblocks = self.check_aligned(data)?;
        self.check_range(lba, nblocks)?;
        let mut st = self.state.lock();
        let mut completion: Option<Completion> = None;
        let mut last_err: Option<DeviceError> = None;
        for i in 0..self.members.len() {
            if st.health[i].state() == HealthState::Failed {
                for b in lba..lba + nblocks {
                    st.dirty[i].insert(b);
                }
                continue;
            }
            let mut dev = self.members[i].lock();
            let res = match after {
                Some(a) => dev.write_after(lba, data, a),
                None => dev.write(lba, data),
            };
            let depth = dev.queue_stats().depth;
            drop(dev);
            match res {
                Ok(c) => {
                    st.health[i].record_ok();
                    st.health[i].observe_queue(depth);
                    // A fresh write supersedes any staleness of these
                    // blocks on this member.
                    for b in lba..lba + nblocks {
                        st.dirty[i].remove(&b);
                    }
                    completion = Some(completion.map_or(c, |have| have.join(c)));
                }
                Err(e) => {
                    st.health[i].record_error(e.is_transient());
                    for b in lba..lba + nblocks {
                        st.dirty[i].insert(b);
                    }
                    last_err = Some(e);
                }
            }
        }
        match completion {
            Some(c) => {
                for b in lba..lba + nblocks {
                    st.written.insert(b);
                }
                Ok(c)
            }
            None => {
                // No mirror carried the write. Preserve transience so
                // the checkpoint pipeline's bounded retry still applies
                // to a correlated-but-transient storm.
                let e = last_err.unwrap_or(DeviceError::NoHealthyMirror { lba });
                if e.is_transient() {
                    Err(e)
                } else {
                    Err(DeviceError::NoHealthyMirror { lba })
                }
            }
        }
    }
}

/// External control of a [`Raid1`] after it is boxed behind the
/// [`BlockDevice`] trait: administrative fail/revive, incremental
/// rebuild, verifying scrub, and health inspection. Cloneable; all
/// clones share the array's state.
#[derive(Clone)]
pub struct MirrorHandle {
    members: Vec<SharedDevice>,
    state: Arc<Mutex<MirrorState>>,
    clock: Clock,
}

/// Picks the member to copy `lba` from: a live member with a clean copy
/// when one exists, else the best available live copy — degraded
/// redundancy, not data loss, since a revived member's conservative
/// full-resilver dirty set can overlap a survivor's storm-era dirty
/// blocks. The caller marks the chosen copy canonical for the block.
fn pick_source(st: &MirrorState, exclude: usize, lba: u64, n: usize) -> Option<usize> {
    let live = |j: usize| j != exclude && st.health[j].state() != HealthState::Failed;
    (0..n)
        .find(|&j| live(j) && !st.dirty[j].contains(&lba))
        .or_else(|| (0..n).filter(|&j| live(j)).min_by_key(|&j| (st.health[j].state().code(), j)))
}

impl MirrorHandle {
    /// The aggregated health report (same as the device's
    /// [`BlockDevice::health_report`]).
    pub fn health_report(&self) -> HealthReport {
        self.state.lock().report()
    }

    /// Number of mirrors.
    pub fn members(&self) -> usize {
        self.members.len()
    }

    /// Administratively fails a member (pulled drive / dead channel).
    /// Subsequent writes skip it and accumulate in its dirty set.
    pub fn fail_mirror(&self, member: usize) {
        self.state.lock().health[member].force_fail();
    }

    /// Marks a failed member present again — `Degraded` (stale) until a
    /// rebuild drains its dirty set. If the member sits behind a fault
    /// injector, clear its faults first.
    ///
    /// A revived drive is untrusted: every block ever written through
    /// the array is scheduled for resilver, not just the writes the
    /// array knew it missed — writes lost *in flight* when the member
    /// died never made it into the dirty set, and only a full resilver
    /// (or a verifying [`scrub`](MirrorHandle::scrub)) catches them.
    pub fn revive_mirror(&self, member: usize) {
        let mut st = self.state.lock();
        st.health[member].revive();
        let written: Vec<u64> = st.written.iter().copied().collect();
        st.dirty[member].extend(written);
    }

    /// Blocks still awaiting resilver on `member`.
    pub fn rebuild_pending(&self, member: usize) -> u64 {
        self.state.lock().dirty[member].len() as u64
    }

    /// Copies up to `max_blocks` stale blocks onto `member` from the
    /// healthiest clean mirror, advancing the virtual clock by the
    /// copy's read latency — an incremental background resilver step a
    /// driver interleaves with live traffic. Completing the last block
    /// returns the member to `Healthy`. Returns blocks copied.
    pub fn rebuild_step(&self, member: usize, max_blocks: u64) -> Result<u64> {
        let mut copied = 0u64;
        while copied < max_blocks {
            let (lba, source) = {
                let st = self.state.lock();
                let Some(&lba) = st.dirty[member].iter().next() else { break };
                let Some(source) = pick_source(&st, member, lba, self.members.len()) else {
                    return Err(DeviceError::NoHealthyMirror { lba });
                };
                (lba, source)
            };
            let (data, done) = self.members[source].lock().read_from(lba, 1, self.clock.now())?;
            self.clock.advance_to(done);
            self.members[member].lock().write(lba, &data)?;
            let mut st = self.state.lock();
            st.dirty[member].remove(&lba);
            // The copy we resilvered from is canonical for this block now.
            st.dirty[source].remove(&lba);
            st.rebuild_copied += 1;
            copied += 1;
        }
        let mut st = self.state.lock();
        st.finish_rebuild_if_clean(member);
        Ok(copied)
    }

    /// A full verifying scrub: every block ever written is read from
    /// every non-failed mirror and compared; stale, unreadable, or
    /// divergent copies are repaired from a clean reference. Members
    /// whose dirty set drains (and any `Suspect`/`Degraded` member that
    /// verified clean) return to `Healthy`.
    pub fn scrub(&self) -> Result<ScrubReport> {
        let written: Vec<u64> = self.state.lock().written.iter().copied().collect();
        let n = self.members.len();
        let mut report = ScrubReport::default();
        for lba in written {
            let (reference, skip): (usize, Vec<bool>) = {
                let st = self.state.lock();
                let skip: Vec<bool> =
                    (0..n).map(|i| st.health[i].state() == HealthState::Failed).collect();
                let Some(reference) = pick_source(&st, n, lba, n) else {
                    return Err(DeviceError::NoHealthyMirror { lba });
                };
                (reference, skip)
            };
            let (ref_data, done) =
                self.members[reference].lock().read_from(lba, 1, self.clock.now())?;
            self.clock.advance_to(done);
            // The reference copy is canonical for this block now (it may
            // have been a best-available fallback carrying a dirty mark).
            self.state.lock().dirty[reference].remove(&lba);
            report.checked_blocks += 1;
            for (i, &skipped) in skip.iter().enumerate() {
                if i == reference || skipped {
                    continue;
                }
                let stale = self.state.lock().dirty[i].contains(&lba);
                let needs_repair = if stale {
                    true
                } else {
                    match self.members[i].lock().read_from(lba, 1, self.clock.now()) {
                        Ok((data, done)) => {
                            self.clock.advance_to(done);
                            if data != ref_data {
                                report.mismatched_blocks += 1;
                                true
                            } else {
                                false
                            }
                        }
                        Err(_) => true,
                    }
                };
                if needs_repair {
                    self.members[i].lock().write(lba, &ref_data)?;
                    let mut st = self.state.lock();
                    st.dirty[i].remove(&lba);
                    st.bad_blocks_remapped += 1;
                    report.repaired_blocks += 1;
                }
            }
        }
        // Everything written has been verified or repaired on every
        // non-failed member: the survivors are trustworthy again.
        let mut st = self.state.lock();
        for i in 0..n {
            st.finish_rebuild_if_clean(i);
        }
        Ok(report)
    }

    /// Reads every written block from every non-failed mirror and
    /// compares, repairing nothing: the byte-identity check the
    /// degraded-mode acceptance test asserts after a rebuild.
    pub fn mirrors_identical(&self) -> Result<bool> {
        let written: Vec<u64> = self.state.lock().written.iter().copied().collect();
        let n = self.members.len();
        let skip: Vec<bool> = {
            let st = self.state.lock();
            (0..n).map(|i| st.health[i].state() == HealthState::Failed).collect()
        };
        for lba in written {
            let mut reference: Option<Vec<u8>> = None;
            for (i, &skipped) in skip.iter().enumerate() {
                if skipped {
                    continue;
                }
                let (data, done) = self.members[i].lock().read_from(lba, 1, self.clock.now())?;
                self.clock.advance_to(done);
                match &reference {
                    None => reference = Some(data),
                    Some(r) if *r != data => return Ok(false),
                    Some(_) => {}
                }
            }
        }
        Ok(true)
    }

    /// Waits out all queued writes on every non-failed member (test
    /// helper mirroring [`BlockDevice::flush`]).
    pub fn flush_members(&self) {
        let skip: Vec<bool> = {
            let st = self.state.lock();
            st.health.iter().map(|h| h.state() == HealthState::Failed).collect()
        };
        for (i, m) in self.members.iter().enumerate() {
            if !skip[i] {
                m.lock().flush();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faulty::{FaultPlan, FaultyDevice};
    use crate::nvme::{NvmeDevice, NvmeParams, BLOCK_SIZE};

    fn plain_member(clock: &Clock) -> Box<dyn BlockDevice + Send> {
        Box::new(NvmeDevice::new(clock.clone(), NvmeParams::optane_900p(), 1 << 24))
    }

    fn mirror() -> (Raid1, MirrorHandle) {
        let clock = Clock::new();
        Raid1::new(vec![plain_member(&clock), plain_member(&clock)]).unwrap()
    }

    fn faulty_mirror() -> (Raid1, MirrorHandle, Vec<crate::faulty::FaultHandle>) {
        let clock = Clock::new();
        let mut members: Vec<Box<dyn BlockDevice + Send>> = Vec::new();
        let mut handles = Vec::new();
        for _ in 0..2 {
            let (f, h) = FaultyDevice::new(plain_member(&clock), FaultPlan::none());
            members.push(Box::new(f));
            handles.push(h);
        }
        let (r, mh) = Raid1::new(members).unwrap();
        (r, mh, handles)
    }

    #[test]
    fn constructor_rejects_bad_configs() {
        let clock = Clock::new();
        let err = Raid1::new(vec![plain_member(&clock)])
            .err()
            .expect("one mirror is not a mirror");
        assert!(matches!(err, DeviceError::BadConfig { .. }));

        let a = plain_member(&clock);
        let b: Box<dyn BlockDevice + Send> =
            Box::new(NvmeDevice::new(clock.clone(), NvmeParams::optane_900p(), 1 << 25));
        let err = Raid1::new(vec![a, b])
            .err()
            .expect("mixed capacities must fail");
        assert!(matches!(err, DeviceError::BadConfig { .. }));
    }

    #[test]
    fn mirrored_roundtrip_and_identity() {
        let (mut r, h) = mirror();
        let data: Vec<u8> = (0..8 * BLOCK_SIZE).map(|i| (i % 249) as u8).collect();
        r.write(3, &data).unwrap();
        r.flush();
        assert_eq!(r.read(3, 8).unwrap(), data);
        assert!(h.mirrors_identical().unwrap());
        assert_eq!(h.health_report().degraded_members(), 0);
    }

    #[test]
    fn write_survives_one_dead_mirror_and_rebuild_resilvers() {
        let (mut r, h, fh) = faulty_mirror();
        r.write(0, &vec![1u8; BLOCK_SIZE]).unwrap();
        r.flush();

        // Mirror 0 dies: writes keep succeeding on the survivor.
        fh[0].kill();
        for i in 1..5u64 {
            r.write(i, &vec![i as u8; BLOCK_SIZE]).unwrap();
        }
        r.flush();
        let report = r.health_report();
        assert_eq!(report.member_states[0], HealthState::Failed);
        assert!(report.rebuild_pending_blocks >= 4, "missed writes accumulate");
        assert_eq!(r.read(3, 1).unwrap(), vec![3u8; BLOCK_SIZE], "survivor serves reads");

        // Replace the mirror and resilver it incrementally.
        fh[0].revive();
        h.revive_mirror(0);
        assert_eq!(h.health_report().member_states[0], HealthState::Degraded);
        while h.rebuild_pending(0) > 0 {
            assert!(h.rebuild_step(0, 2).unwrap() > 0);
        }
        h.flush_members();
        assert_eq!(h.health_report().member_states[0], HealthState::Healthy);
        assert!(h.mirrors_identical().unwrap(), "resilver restored byte identity");
        assert!(h.health_report().rebuilds_completed >= 1);
    }

    #[test]
    fn read_falls_back_and_remaps_bad_blocks() {
        let (mut r, _h, fh) = faulty_mirror();
        r.write(7, &vec![9u8; BLOCK_SIZE]).unwrap();
        r.flush();

        // Mirror 0 grows a bad block at lba 7: the read falls back to
        // mirror 1 and repairs mirror 0 in place.
        fh[0].set_plan(FaultPlan { bad_read_blocks: [7].into(), ..FaultPlan::none() });
        assert_eq!(r.read(7, 1).unwrap(), vec![9u8; BLOCK_SIZE]);
        let report = r.health_report();
        assert_eq!(report.read_fallbacks, 1);
        assert!(report.bad_blocks_remapped >= 1);
        // The repair write healed the bad block: mirror 0 serves again.
        assert_eq!(r.read(7, 1).unwrap(), vec![9u8; BLOCK_SIZE]);
        assert_eq!(r.health_report().read_fallbacks, 1, "no second fallback");
    }

    #[test]
    fn stale_member_is_never_read() {
        let (mut r, h, fh) = faulty_mirror();
        r.write(0, &vec![1u8; BLOCK_SIZE]).unwrap();
        r.flush();
        fh[0].kill();
        r.write(0, &vec![2u8; BLOCK_SIZE]).unwrap();
        r.flush();
        fh[0].revive();
        h.revive_mirror(0);
        // Mirror 0 is back but stale at lba 0: reads must come from 1.
        assert_eq!(r.read(0, 1).unwrap(), vec![2u8; BLOCK_SIZE]);
    }

    #[test]
    fn all_mirrors_failed_is_a_structured_error() {
        let (mut r, _h, fh) = faulty_mirror();
        r.write(0, &vec![1u8; BLOCK_SIZE]).unwrap();
        r.flush();
        fh[0].kill();
        fh[1].kill();
        // Two fatal write errors push both members to Failed.
        for _ in 0..2 {
            let _ = r.write(1, &vec![1u8; BLOCK_SIZE]);
        }
        let err = r.write(2, &vec![1u8; BLOCK_SIZE]).unwrap_err();
        assert!(matches!(err, DeviceError::NoHealthyMirror { .. }), "{err}");
        assert!(!err.is_transient());
        let err = r.read(0, 1).unwrap_err();
        assert!(matches!(err, DeviceError::NoHealthyMirror { .. }), "{err}");
    }

    #[test]
    fn scrub_detects_and_repairs_divergence() {
        let (mut r, h, _fh) = faulty_mirror();
        r.write(4, &vec![6u8; BLOCK_SIZE]).unwrap();
        r.flush();
        // Corrupt mirror 1 behind the array's back.
        h.members[1].lock().write(4, &vec![0xEEu8; BLOCK_SIZE]).unwrap();
        h.flush_members();
        assert!(!h.mirrors_identical().unwrap());
        let rep = h.scrub().unwrap();
        assert_eq!(rep.mismatched_blocks, 1);
        assert_eq!(rep.repaired_blocks, 1);
        h.flush_members();
        assert!(h.mirrors_identical().unwrap());
        let rep2 = h.scrub().unwrap();
        assert_eq!(rep2.repaired_blocks, 0, "second scrub finds nothing");
    }

    #[test]
    fn health_report_flows_through_the_trait() {
        let (r, h) = mirror();
        let boxed: Box<dyn BlockDevice + Send> = Box::new(r);
        assert_eq!(boxed.health_report(), h.health_report());
        assert_eq!(boxed.health_report().member_states.len(), 2);
    }
}
