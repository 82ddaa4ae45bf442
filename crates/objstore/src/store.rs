//! The store proper: objects, versioned pages, commits, and recovery.

use crate::journal::Journal;
use aurora_frames::{FrameArena, PageRef};
use aurora_storage::device::{Completion, DeviceError, SharedDevice};
use aurora_sim::codec::{CodecError, Decoder, Encoder};
use aurora_sim::cost::Charge;
use aurora_trace::Histogram;
use std::collections::{BTreeSet, HashMap};
use std::fmt;

/// Page size: equal to the device block size.
pub const PAGE: usize = 4096;

/// A 64-bit on-disk object identifier (§5.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Oid(pub u64);

/// What an on-disk object represents. Memory objects and files are
/// deliberately represented identically (§7); the kind tags exist for the
/// restore code and debugging tools.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ObjectKind {
    /// A serialized POSIX object (process, fd, socket, …); subtype is the
    /// serializer's record tag.
    Posix(u16),
    /// A VM/memory object (pages).
    Memory,
    /// A file-system object.
    File,
    /// A non-COW journal.
    Journal,
}

impl ObjectKind {
    /// Raw on-disk kind tag (public for checkpoint streaming).
    pub fn to_raw(self) -> u16 {
        self.encode()
    }

    /// Decodes a raw kind tag.
    pub fn from_raw(v: u16) -> Result<Self> {
        Self::decode(v)
    }

    fn encode(self) -> u16 {
        match self {
            ObjectKind::Posix(t) => 0x1000 | t,
            ObjectKind::Memory => 1,
            ObjectKind::File => 2,
            ObjectKind::Journal => 3,
        }
    }

    fn decode(v: u16) -> Result<Self> {
        Ok(match v {
            1 => ObjectKind::Memory,
            2 => ObjectKind::File,
            3 => ObjectKind::Journal,
            t if t & 0x1000 != 0 => ObjectKind::Posix(t & 0xFFF),
            _ => return Err(StoreError::Corrupt("object kind")),
        })
    }
}

/// Store errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// Unknown object.
    NoSuchObject(Oid),
    /// Unknown checkpoint epoch.
    NoSuchEpoch(u64),
    /// The page has no version at or before the requested epoch.
    NoSuchPage(Oid, u64),
    /// The object is not (or is) a journal.
    WrongKind(Oid),
    /// The device is full.
    Full,
    /// The journal region is full.
    JournalFull(Oid),
    /// On-disk corruption detected.
    Corrupt(&'static str),
    /// Codec failure while decoding metadata.
    Codec(CodecError),
    /// Device-layer failure, with the store operation it interrupted.
    Device {
        /// The store operation that touched the device.
        op: &'static str,
        /// Object involved, if the operation had one.
        oid: Option<Oid>,
        /// The epoch in progress (or being read) when the device failed.
        epoch: u64,
        /// Consistency group whose draft the operation was staged under
        /// (0 for reads, recovery, and ungrouped callers). Multi-group
        /// abort paths use this to report which group's epoch rolled back.
        group: u64,
        /// The underlying device error.
        source: DeviceError,
    },
}

impl StoreError {
    /// True when retrying the failed operation may succeed — the
    /// type-driven retry policy used by the checkpoint pipeline.
    pub fn is_transient(&self) -> bool {
        matches!(self, StoreError::Device { source, .. } if source.is_transient())
    }

    /// Builds the closure `map_err` wants for a device-touching op.
    fn dev(
        op: &'static str,
        oid: Option<Oid>,
        epoch: u64,
        group: u64,
    ) -> impl FnOnce(DeviceError) -> Self {
        move |source| StoreError::Device { op, oid, epoch, group, source }
    }

    /// Like [`dev`](Self::dev) for journal ops, which are epoch-less
    /// (journals update in place, outside checkpoint history).
    pub(crate) fn dev_err(op: &'static str, oid: Oid) -> impl FnOnce(DeviceError) -> Self {
        move |source| StoreError::Device { op, oid: Some(oid), epoch: 0, group: 0, source }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::NoSuchObject(o) => write!(f, "no such object {o:?}"),
            StoreError::NoSuchEpoch(e) => write!(f, "no such checkpoint epoch {e}"),
            StoreError::NoSuchPage(o, p) => write!(f, "no page {p} in {o:?}"),
            StoreError::WrongKind(o) => write!(f, "wrong object kind for {o:?}"),
            StoreError::Full => write!(f, "store is full"),
            StoreError::JournalFull(o) => write!(f, "journal {o:?} is full"),
            StoreError::Corrupt(w) => write!(f, "corruption: {w}"),
            StoreError::Codec(e) => write!(f, "metadata decode: {e}"),
            StoreError::Device { op, oid, epoch, group, source } => {
                let g =
                    if *group > 0 { format!(", group {group}") } else { String::new() };
                match oid {
                    Some(o) => {
                        write!(f, "device failure during {op} ({o:?}, epoch {epoch}{g}): {source}")
                    }
                    None => write!(f, "device failure during {op} (epoch {epoch}{g}): {source}"),
                }
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<CodecError> for StoreError {
    fn from(e: CodecError) -> Self {
        StoreError::Codec(e)
    }
}

/// Result alias.
pub type Result<T> = std::result::Result<T, StoreError>;

/// One object's in-memory index.
#[derive(Clone, Debug, Default)]
struct ObjMeta {
    kind_raw: u16,
    size: u64,
    /// Per-page version chain, ascending by epoch and (within a page) by
    /// LSN — a page's writes are serialized by its group's pipeline, so
    /// the two orders agree.
    versions: HashMap<u64, Vec<PageVersion>>,
    /// Serialized object metadata per epoch, ascending.
    meta: Vec<(u64, Vec<u8>)>,
    created_epoch: u64,
    deleted_epoch: Option<u64>,
    /// Journal state (kind == Journal only).
    journal: Option<Journal>,
}

/// Pending changes for one group's in-flight (uncommitted) epoch.
#[derive(Clone, Debug, Default)]
struct DirtyState {
    objects: BTreeSet<u64>,
    max_completion: u64,
}

/// What a commit produced.
///
/// Dropping this silently discards `durable_at`, and with it the only
/// way to wait for the checkpoint (`barrier`) — exactly the external-
/// synchrony bug the paper warns about — hence `#[must_use]`.
#[must_use = "dropping CommitInfo loses durable_at; call barrier() or record it"]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CommitInfo {
    /// The committed epoch number.
    pub epoch: u64,
    /// Virtual time at which the checkpoint is durable.
    pub durable_at: u64,
    /// Metadata bytes appended.
    pub meta_bytes: u64,
}

const MAGIC: u64 = 0x4155_524f_5241_5354; // "AURORAST"
const SUPERBLOCK_VERSION: u16 = 1;
/// Commit-record format. Replay reads this version only: every store is
/// formatted by this code, so no medium holds an older record.
const RECORD_VERSION: u16 = 5;

/// Provenance tags for staged (uncommitted) state. A draft entry carries
/// `PROV_BASE | group` in its epoch slot until the group's commit retags
/// it with the real epoch number, assigned at commit time. The high bit
/// keeps every provenance tag above any committable epoch, so all
/// committed-view readers (`e <= epoch` searches) skip staged state for
/// free.
const PROV_BASE: u64 = 1 << 63;

fn prov_tag(group: u64) -> u64 {
    debug_assert!(group < PROV_BASE, "group id overflows the provenance tag space");
    PROV_BASE | group
}

/// Page-cache key space for materialized redo pages. Packed redo blocks
/// hold many records, so a materialized page cannot be cached under its
/// block number; it is cached under `MAT_KEY | lsn` instead. The high
/// bit keeps the two key spaces disjoint (no device has 2^62 blocks).
const MAT_KEY: u64 = 1 << 62;

/// One page version in the in-memory index. Since record v5 every
/// version is a redo record: `lsn` orders it in the volume log,
/// `prev_lsn` chains it to the version it amends, and `csum` covers the
/// fully *materialized* page (validated after chain replay, not against
/// raw record bytes).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct PageVersion {
    /// Commit epoch, or a provenance tag while staged.
    epoch: u64,
    /// Log sequence number, assigned at write (not commit) time.
    lsn: u64,
    /// Full-image versions: the data block. Delta records: the first
    /// device block of the packed record.
    block: u64,
    /// Byte offset of the record header within `block` (packed records
    /// only; 0 for raw full-image blocks).
    byte_off: u32,
    /// Encoded record length in bytes (packed records; `PAGE` for raw).
    rec_len: u32,
    /// The previous version's LSN (0 = none). Materialization walks this
    /// chain back to a full-image record.
    prev_lsn: u64,
    /// Full-image record — a chain-walk terminator.
    full: bool,
    /// Packed redo record (parse at `block`+`byte_off`) vs a raw page
    /// block holding exactly the page bytes.
    redo: bool,
    /// FNV-1a of the materialized page.
    csum: u64,
}

impl PageVersion {
    /// Device blocks the encoded record spans.
    fn covering_blocks(&self) -> impl Iterator<Item = u64> {
        let n = ((self.byte_off as u64 + self.rec_len as u64).div_ceil(PAGE as u64)).max(1);
        self.block..self.block + n
    }
}

/// One page write handed to [`ObjectStore::append_redo`]. `page` is the
/// fully materialized new content (cached and checksummed); `delta`
/// carries the sub-page payload actually logged, or `None` for a
/// full-image record.
#[derive(Clone, Debug)]
pub struct RedoWrite {
    /// Page index within the object.
    pub pindex: u64,
    /// The materialized new page.
    pub page: PageRef,
    /// `(byte offset, payload)` of the changed span; `None` logs a full
    /// image. Deltas require a prior version to chain on — the store
    /// promotes chain-less deltas to full images.
    pub delta: Option<(u32, Vec<u8>)>,
    /// FNV-1a of the base content the delta was diffed against (ignored
    /// for full images). The store demotes the record to a full image
    /// when this doesn't match the version it would chain on: a stale
    /// diff base must never enter a chain, or replay would materialize
    /// the wrong page.
    pub base_csum: u64,
}

/// A decoded redo record, as handed to replication streams: enough to
/// replay the page change on another node.
#[derive(Clone, Debug)]
pub struct RedoRecordOut {
    /// Log sequence number on the source node.
    pub lsn: u64,
    /// Full-image record (payload is the whole page).
    pub full: bool,
    /// Byte offset of `payload` within the page.
    pub offset: u32,
    /// The changed bytes.
    pub payload: Vec<u8>,
    /// FNV-1a of the page after applying this record.
    pub page_csum: u64,
}

/// FNV-1a 64-bit (the workspace [`ContentHasher`]), used to validate
/// metadata records at recovery and, since record v3, every data page.
///
/// [`ContentHasher`]: aurora_sim::hash::ContentHasher
pub(crate) use aurora_sim::hash::fnv1a;

/// The Aurora object store.
pub struct ObjectStore {
    dev: SharedDevice,
    charge: Charge,
    objects: HashMap<u64, ObjMeta>,
    /// Committed epochs, ascending.
    epochs: Vec<u64>,
    /// Which consistency group committed each epoch.
    epoch_groups: HashMap<u64, u64>,
    /// The next epoch number to commit. Epoch numbers are assigned at
    /// commit time, so commit order == log order even with many drafts
    /// concurrently open.
    cur_epoch: u64,
    /// The staging cursor: which group's draft subsequent mutations land
    /// in. The simulation is serial, so each pipeline phase-step sets the
    /// cursor on entry; ungrouped callers stay on draft 0.
    staging: u64,
    /// One open draft per group with staged (uncommitted) changes.
    drafts: HashMap<u64, DirtyState>,
    /// Per-group durable floor: `durable_at` of the group's last commit.
    last_durable: HashMap<u64, u64>,
    /// Next free data block (bump) and the free list.
    next_block: u64,
    free_blocks: Vec<u64>,
    /// Blocks freed by history reclamation, awaiting the next commit.
    /// They become reusable only once the commit that persists the new
    /// floor is durable — reusing earlier would let a crash recover a
    /// pre-drop history whose blocks we overwrote.
    staged_free: Vec<u64>,
    /// Reclaimed blocks fenced behind a commit: `(durable_at, blocks)`.
    pending_free: Vec<(u64, Vec<u64>)>,
    /// Lowest retained epoch, persisted in every commit record.
    floor: u64,
    /// Metadata log: fixed region [meta_start, data_start).
    meta_start: u64,
    meta_head: u64,
    data_start: u64,
    capacity: u64,
    next_oid: u64,
    /// The frame arena pages flow through (shared with the VM by the
    /// orchestrator so a page keeps one identity end to end).
    arena: FrameArena,
    /// Committed-page cache: device block → the frame that holds (or was
    /// written with) that block's bytes. A hit hands back a shared ref —
    /// no device read, and the checksum recorded at write time is already
    /// known good for the frame. Invalidated per block when the allocator
    /// hands the block out again; a crash/reopen starts cold.
    page_cache: HashMap<u64, PageRef>,
    /// Page-cache hit/miss counters since creation (observability only).
    cache_hits: u64,
    cache_misses: u64,
    /// Replication acks from remote nodes: group → node → epoch of the
    /// node's newest applied commit record. Volatile — a reboot starts
    /// with no view of its peers, and the cluster layer re-learns them
    /// from the next acks.
    remote_acks: HashMap<u64, HashMap<u64, u64>>,
    /// Next log sequence number. LSNs are assigned at write time (one
    /// per page version, across all groups) and recovered from the
    /// newest commit record's consistency-point LSN.
    next_lsn: u64,
    /// Per-block reference counts for packed redo blocks: records share
    /// blocks, so a block frees only when its last record is released.
    redo_refs: HashMap<u64, u32>,
    /// Device completions of appended records, in LSN order — the VCL
    /// scan consumes a durable prefix of this.
    completions: Vec<(u64, u64)>,
    /// Highest LSN below which every record's device write has
    /// completed (Volume Complete LSN). Monotone.
    vcl: u64,
    /// Consistency-point LSNs of committed epochs awaiting a durable
    /// commit record: `(cpl, durable_at)`, in commit order.
    pending_cpls: Vec<(u64, u64)>,
    /// Highest committed consistency-point LSN whose commit record is
    /// durable and whose log prefix is complete (Volume Durable LSN).
    /// Invariant: `vdl <= vcl`.
    vdl: u64,
    /// Consistency-point LSN per committed epoch (the highest LSN any of
    /// its page records carries; epochs without page writes inherit the
    /// previous point).
    epoch_cpls: HashMap<u64, u64>,
    /// Redo observability counters since open.
    redo_appended: u64,
    redo_materializations: u64,
    redo_bytes_saved: u64,
    /// Materialization chain lengths.
    chain_hist: Histogram,
}

/// A point-in-time observability snapshot of the store, for the metrics
/// sampler and `sls stat`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreGauges {
    /// Blocks with a cached resident frame.
    pub cache_pages: u64,
    /// Page-cache hits since the store was created/opened.
    pub cache_hits: u64,
    /// Page-cache misses (device reads) since creation.
    pub cache_misses: u64,
    /// Committed epochs retained (history depth).
    pub epochs: u64,
    /// The in-progress epoch number.
    pub current_epoch: u64,
    /// Lowest retained epoch (history floor).
    pub floor: u64,
    /// Live (not deleted) objects.
    pub objects: u64,
    /// Concurrently open drafts (groups with staged, uncommitted state).
    pub open_drafts: u64,
    /// Redo records appended (delta + full) since open.
    pub redo_appended: u64,
    /// Pages materialized by chain replay since open.
    pub redo_materializations: u64,
    /// Device bytes saved by packing sub-page records vs full pages.
    pub redo_bytes_saved: u64,
    /// p95 of the materialization chain length (0 until one happens).
    pub redo_chain_len_p95: u64,
    /// Volume Complete LSN: every record at or below it is on the device.
    pub redo_vcl: u64,
    /// Volume Durable LSN: highest committed consistency point whose
    /// commit record is durable. Never exceeds `redo_vcl`.
    pub redo_vdl: u64,
}

impl ObjectStore {
    /// Formats a device and creates an empty store. `meta_blocks` sizes
    /// the metadata log region.
    pub fn format(dev: SharedDevice, charge: Charge, meta_blocks: u64) -> Result<Self> {
        let capacity = dev.lock().capacity_blocks();
        assert!(meta_blocks + 1 < capacity, "device too small for metadata region");
        let mut store = Self {
            dev,
            charge,
            objects: HashMap::new(),
            epochs: Vec::new(),
            epoch_groups: HashMap::new(),
            cur_epoch: 1,
            staging: 0,
            drafts: HashMap::new(),
            last_durable: HashMap::new(),
            next_block: 1 + meta_blocks,
            free_blocks: Vec::new(),
            staged_free: Vec::new(),
            pending_free: Vec::new(),
            floor: 0,
            meta_start: 1,
            meta_head: 1,
            data_start: 1 + meta_blocks,
            capacity,
            next_oid: 1,
            arena: FrameArena::new(),
            page_cache: HashMap::new(),
            cache_hits: 0,
            cache_misses: 0,
            remote_acks: HashMap::new(),
            next_lsn: 1,
            redo_refs: HashMap::new(),
            completions: Vec::new(),
            vcl: 0,
            pending_cpls: Vec::new(),
            vdl: 0,
            epoch_cpls: HashMap::new(),
            redo_appended: 0,
            redo_materializations: 0,
            redo_bytes_saved: 0,
            chain_hist: Histogram::default(),
        };
        store.write_superblock()?;
        Ok(store)
    }

    fn write_superblock(&mut self) -> Result<()> {
        let mut e = Encoder::new();
        e.record(0x5350, SUPERBLOCK_VERSION, |e| {
            e.u64(MAGIC);
            e.u64(self.meta_start);
            e.u64(self.data_start);
        });
        let mut block = e.finish_vec();
        block.resize(PAGE, 0);
        let mut dev = self.dev.lock();
        let c = dev.write(0, &block).map_err(StoreError::dev("superblock", None, 0, 0))?;
        dev.flush();
        let _ = c;
        Ok(())
    }

    /// Reopens a store from a device, recovering to the last complete
    /// checkpoint (§7: "Aurora prevents resuming incomplete checkpoints
    /// by finding the last complete checkpoint after a crash").
    pub fn open(dev: SharedDevice, charge: Charge) -> Result<Self> {
        let (meta_start, data_start, capacity) = {
            let mut d = dev.lock();
            let capacity = d.capacity_blocks();
            let sb = d.read(0, 1).map_err(StoreError::dev("open-superblock", None, 0, 0))?;
            let mut dec = Decoder::new(&sb);
            let (_v, mut body) = dec.record(0x5350, SUPERBLOCK_VERSION)?;
            if body.u64()? != MAGIC {
                return Err(StoreError::Corrupt("superblock magic"));
            }
            (body.u64()?, body.u64()?, capacity)
        };
        let mut store = Self {
            dev,
            charge,
            objects: HashMap::new(),
            epochs: Vec::new(),
            epoch_groups: HashMap::new(),
            cur_epoch: 1,
            staging: 0,
            drafts: HashMap::new(),
            last_durable: HashMap::new(),
            next_block: data_start,
            free_blocks: Vec::new(),
            staged_free: Vec::new(),
            pending_free: Vec::new(),
            floor: 0,
            meta_start,
            meta_head: meta_start,
            data_start,
            capacity,
            next_oid: 1,
            arena: FrameArena::new(),
            page_cache: HashMap::new(),
            cache_hits: 0,
            cache_misses: 0,
            remote_acks: HashMap::new(),
            next_lsn: 1,
            redo_refs: HashMap::new(),
            completions: Vec::new(),
            vcl: 0,
            pending_cpls: Vec::new(),
            vdl: 0,
            epoch_cpls: HashMap::new(),
            redo_appended: 0,
            redo_materializations: 0,
            redo_bytes_saved: 0,
            chain_hist: Histogram::default(),
        };
        store.replay()?;
        Ok(store)
    }

    /// Replays the metadata log. Within one group, records become
    /// durable in commit order (each commit is chained after the group's
    /// previous record), so a group's epochs always recover as a prefix.
    /// Across groups, records may land out of log order: a crash can
    /// lose group A's record while group B's later one is durable. The
    /// replay therefore skips over holes — it scans forward for the next
    /// valid record instead of stopping at the first invalid one — and
    /// recovery exposes, per group, that group's durable prefix.
    fn replay(&mut self) -> Result<()> {
        // Announce the rewind before any replayed epoch: the invariant
        // checker resets its monotonicity watermark on this event, since
        // recovery legitimately revisits epoch numbers a crash destroyed.
        let trace = self.charge.trace();
        if trace.is_enabled() {
            trace.instant("objstore", "recovery.begin", &[]);
        }
        let mut head = self.meta_start;
        while head < self.data_start {
            match self.replay_record_at(head)? {
                Some(next) => head = next,
                None => match self.scan_for_record(head + 1)? {
                    Some(h) => head = h,
                    None => break,
                },
            }
        }
        // Re-apply history reclamation: epochs the pre-crash store dropped
        // stay dropped once the drop's floor made it into a durable commit
        // record. (Before that commit their blocks were never reused, so
        // resurrecting them is safe.)
        if self.floor > 0 {
            let floor = self.floor;
            self.epochs.retain(|&e| e >= floor);
            self.epoch_groups.retain(|&e, _| e >= floor);
            self.prune_below_floor(floor);
        }
        // Conservative allocator recovery: everything at or above the
        // highest referenced block is free. Packed-record reference
        // counts rebuild from the surviving index in the same pass.
        let mut high = self.data_start;
        self.redo_refs.clear();
        for o in self.objects.values() {
            for vs in o.versions.values() {
                for v in vs {
                    for b in v.covering_blocks() {
                        high = high.max(b + 1);
                        if v.redo {
                            *self.redo_refs.entry(b).or_insert(0) += 1;
                        }
                    }
                }
            }
            if let Some(j) = &o.journal {
                high = high.max(j.blocks.last().map(|b| b + 1).unwrap_or(high));
            }
        }
        self.next_block = high;
        // Everything that survived recovery is durable by construction:
        // both watermarks restart at the recovered log's tip.
        let tip = self.next_lsn - 1;
        self.vcl = tip;
        self.vdl = tip;
        self.note_watermarks();
        Ok(())
    }

    /// Tries to replay one commit record at block `head`. Returns the
    /// next head on success, `None` when the block does not hold a valid
    /// record — a commit that raced the crash, or the log's clean end.
    fn replay_record_at(&mut self, head: u64) -> Result<Option<u64>> {
        let header = {
            let mut d = self.dev.lock();
            d.read(head, 1).map_err(StoreError::dev("replay-header", None, 0, 0))?
        };
        let mut dec = Decoder::new(&header);
        let Ok((RECORD_VERSION, mut body)) = dec.record(0x434b, RECORD_VERSION) else {
            return Ok(None);
        };
        if body.u64().ok() != Some(MAGIC) {
            return Ok(None);
        }
        let Ok(epoch) = body.u64() else { return Ok(None) };
        let Ok(group) = body.u64() else { return Ok(None) };
        // The epoch's consistency-point LSN, so watermarks and
        // point-in-time restore survive recovery.
        let Ok(cpl) = body.u64() else { return Ok(None) };
        let Ok(floor) = body.u64() else { return Ok(None) };
        let Ok(nblocks) = body.u64() else { return Ok(None) };
        let Ok(len) = body.u64() else { return Ok(None) };
        let len = len as usize;
        let Ok(checksum) = body.u64() else { return Ok(None) };
        // Epochs ascend with log position; anything else is garbage.
        if epoch < self.cur_epoch || nblocks == 0 || head + 1 + nblocks > self.data_start {
            return Ok(None);
        }
        let payload = {
            let mut d = self.dev.lock();
            d.read(head + 1, nblocks).map_err(StoreError::dev("replay-payload", None, epoch, group))?
        };
        if len > payload.len() || fnv1a(&payload[..len]) != checksum {
            return Ok(None); // incomplete commit: data raced the crash
        }
        self.apply_record(epoch, &payload[..len])?;
        let trace = self.charge.trace();
        if trace.is_enabled() {
            trace.instant(
                "objstore",
                "recovery.replay",
                &[("epoch", epoch), ("group", group), ("bytes", len as u64)],
            );
        }
        self.epochs.push(epoch);
        self.epoch_groups.insert(epoch, group);
        self.next_lsn = self.next_lsn.max(cpl + 1);
        self.epoch_cpls.insert(epoch, cpl);
        self.floor = self.floor.max(floor);
        self.cur_epoch = epoch + 1;
        self.meta_head = head + 1 + nblocks;
        Ok(Some(self.meta_head))
    }

    /// Scans forward from `from` for the next block that parses as a
    /// commit-record header: hole skipping, so one group's lost record
    /// cannot hide another group's durable later ones. Reads the log in
    /// chunks and stops at the first fully-zero one — past the last
    /// record the region is unwritten, so a clean end of log costs a
    /// single extra read.
    fn scan_for_record(&mut self, from: u64) -> Result<Option<u64>> {
        const CHUNK: u64 = 64;
        let mut at = from;
        while at < self.data_start {
            let n = CHUNK.min(self.data_start - at);
            let buf = {
                let mut d = self.dev.lock();
                d.read(at, n).map_err(StoreError::dev("replay-scan", None, 0, 0))?
            };
            if buf.iter().all(|&b| b == 0) {
                return Ok(None);
            }
            for i in 0..n {
                let block = &buf[i as usize * PAGE..(i as usize + 1) * PAGE];
                let mut dec = Decoder::new(block);
                let Ok((RECORD_VERSION, mut body)) = dec.record(0x434b, RECORD_VERSION) else {
                    continue;
                };
                if body.u64().ok() == Some(MAGIC)
                    && body.u64().ok().is_some_and(|e| e >= self.cur_epoch)
                {
                    return Ok(Some(at + i));
                }
            }
            at += n;
        }
        Ok(None)
    }

    fn apply_record(&mut self, epoch: u64, payload: &[u8]) -> Result<()> {
        let mut d = Decoder::new(payload);
        let count = d.u32()?;
        for _ in 0..count {
            let oid = d.u64()?;
            let after = oid.checked_add(1).ok_or(StoreError::Corrupt("commit record oid"))?;
            self.next_oid = self.next_oid.max(after);
            let kind_raw = d.u16()?;
            let size = d.u64()?;
            let deleted = d.bool()?;
            let has_meta = d.bool()?;
            let meta = if has_meta { Some(d.bytes()?.to_vec()) } else { None };
            let npages = d.u32()?;
            let obj = self.objects.entry(oid).or_insert_with(|| ObjMeta {
                kind_raw,
                created_epoch: epoch,
                ..ObjMeta::default()
            });
            obj.kind_raw = kind_raw;
            obj.size = size;
            if deleted {
                obj.deleted_epoch = Some(epoch);
            }
            if let Some(m) = meta {
                obj.meta.push((epoch, m));
            }
            for _ in 0..npages {
                let pindex = d.u64()?;
                let lsn = d.u64()?;
                let prev_lsn = d.u64()?;
                let block = d.u64()?;
                let byte_off = d.u32()?;
                let rec_len = d.u32()?;
                let flags = d.u8()?;
                let csum = d.u64()?;
                let entry = PageVersion {
                    epoch,
                    lsn,
                    block,
                    byte_off,
                    rec_len,
                    prev_lsn,
                    full: flags & 1 != 0,
                    redo: flags & 2 != 0,
                    csum,
                };
                obj.versions.entry(pindex).or_default().push(entry);
            }
            let has_journal = d.bool()?;
            if has_journal {
                let nblocks = d.u32()?;
                // Each block is 8 bytes: never preallocate past the payload.
                let mut blocks = Vec::with_capacity((nblocks as usize).min(d.remaining() / 8));
                for _ in 0..nblocks {
                    blocks.push(d.u64()?);
                }
                if obj.journal.is_none() {
                    obj.journal = Some(Journal::adopt(blocks));
                }
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Allocation and identity
    // ------------------------------------------------------------------

    /// Allocates a fresh OID.
    pub fn alloc_oid(&mut self) -> Oid {
        let o = Oid(self.next_oid);
        self.next_oid += 1;
        o
    }

    // ------------------------------------------------------------------
    // Group staging
    // ------------------------------------------------------------------

    /// Points the staging cursor at `group`: subsequent mutations land in
    /// that group's draft. Each group's draft is an independently open
    /// epoch — sealed by [`commit_for`](Self::commit_for), discarded by
    /// [`abort_epoch_for`](Self::abort_epoch_for). Ungrouped callers
    /// (file system, journals, migration) stay on draft 0.
    pub fn stage_for(&mut self, group: u64) {
        self.staging = group;
    }

    /// The group the staging cursor points at.
    pub fn staging(&self) -> u64 {
        self.staging
    }

    /// Number of concurrently open drafts (groups with staged state).
    pub fn open_drafts(&self) -> u64 {
        self.drafts.len() as u64
    }

    /// Drafts whose staged data writes are still in flight at `now` —
    /// the scheduler's device-backpressure signal.
    pub fn inflight_drafts(&self, now: u64) -> u64 {
        self.drafts.values().filter(|d| d.max_completion > now).count() as u64
    }

    /// Earliest virtual time at which an in-flight draft's device writes
    /// complete (`None` when no draft has writes outstanding past `now`).
    /// Schedulers use this to jump the clock to the next queue-drain
    /// event instead of spinning.
    pub fn next_draft_completion(&self, now: u64) -> Option<u64> {
        self.drafts.values().map(|d| d.max_completion).filter(|&t| t > now).min()
    }

    /// Committed epochs belonging to `group`, ascending.
    pub fn epochs_for(&self, group: u64) -> Vec<u64> {
        self.epochs
            .iter()
            .copied()
            .filter(|e| self.epoch_groups.get(e).copied().unwrap_or(0) == group)
            .collect()
    }

    /// The group that committed `epoch` (0 for pre-sharding records).
    pub fn group_of_epoch(&self, epoch: u64) -> u64 {
        self.epoch_groups.get(&epoch).copied().unwrap_or(0)
    }

    /// Per-group durable floor: virtual time at which the group's last
    /// commit became durable (0 if the group has never committed since
    /// the store opened).
    pub fn durable_floor(&self, group: u64) -> u64 {
        self.last_durable.get(&group).copied().unwrap_or(0)
    }

    // ------------------------------------------------------------------
    // Replication acks (cluster)
    // ------------------------------------------------------------------

    /// Records that `node` has applied and made durable the replicated
    /// commit record for `epoch` of `group`. Acks only move forward — a
    /// late ack for an older epoch never regresses a node's recorded
    /// epoch.
    pub fn note_remote_ack(&mut self, group: u64, node: u64, epoch: u64) {
        let entry = self.remote_acks.entry(group).or_default().entry(node).or_insert(0);
        *entry = (*entry).max(epoch);
    }

    /// The newest epoch of `group` acked by at least `quorum` nodes
    /// (counting every node that has ever acked, the leader included if
    /// it acks itself). 0 until a quorum exists — callers treat that as
    /// "nothing released yet".
    pub fn quorum_acked_epoch(&self, group: u64, quorum: usize) -> u64 {
        let Some(acks) = self.remote_acks.get(&group) else { return 0 };
        if acks.len() < quorum.max(1) {
            return 0;
        }
        let mut epochs: Vec<u64> = acks.values().copied().collect();
        epochs.sort_unstable_by(|a, b| b.cmp(a));
        epochs[quorum.max(1) - 1]
    }

    /// The draft the staging cursor points at, created on first use.
    fn draft_mut(&mut self) -> &mut DirtyState {
        self.drafts.entry(self.staging).or_default()
    }

    pub(crate) fn free_block(&mut self, lba: u64) {
        self.free_blocks.push(lba);
    }

    pub(crate) fn alloc_block(&mut self) -> Result<u64> {
        self.reclaim_matured();
        if let Some(b) = self.free_blocks.pop() {
            // The block is about to hold different bytes; any cached frame
            // for its old content must not be served again.
            self.page_cache.remove(&b);
            return Ok(b);
        }
        if self.next_block >= self.capacity {
            return Err(StoreError::Full);
        }
        let b = self.next_block;
        self.next_block += 1;
        Ok(b)
    }

    /// Allocates `n` physically contiguous blocks for a packed redo
    /// extent. Bump-only: packed records share blocks, so recycled
    /// singles from the free list are useless here.
    fn alloc_extent(&mut self, n: u64) -> Result<u64> {
        self.reclaim_matured();
        if self.next_block + n > self.capacity {
            return Err(StoreError::Full);
        }
        let b = self.next_block;
        self.next_block += n;
        Ok(b)
    }

    /// Releases one page version's storage: a raw full-image block frees
    /// directly; a packed record decrements its blocks' reference counts
    /// (freeing each block when its last record goes) and drops the
    /// materialized frame from the cache. Freed blocks go to `freed`, not
    /// straight to the free list — callers decide whether reclamation
    /// must be fenced behind a durable floor commit.
    fn release_version_into(
        v: &PageVersion,
        redo_refs: &mut HashMap<u64, u32>,
        page_cache: &mut HashMap<u64, PageRef>,
        freed: &mut Vec<u64>,
    ) {
        if !v.redo {
            freed.push(v.block);
            return;
        }
        page_cache.remove(&(MAT_KEY | v.lsn));
        for b in v.covering_blocks() {
            if let Some(r) = redo_refs.get_mut(&b) {
                *r -= 1;
                if *r == 0 {
                    redo_refs.remove(&b);
                    freed.push(b);
                }
            }
        }
    }

    /// Advances the VCL over the completion list's durable prefix and
    /// the VDL over durable commit points, then emits the `redo.watermark`
    /// instant the online invariant checker observes (VDL ≤ VCL).
    fn note_watermarks(&mut self) {
        let now = self.charge.clock().now();
        // VCL: every record below it has completed on the device. The
        // completion list is in LSN order, so this consumes a prefix.
        let mut i = 0;
        while i < self.completions.len() && self.completions[i].1 <= now {
            self.vcl = self.vcl.max(self.completions[i].0);
            i += 1;
        }
        self.completions.drain(..i);
        // VDL: the newest committed consistency point whose commit record
        // is durable and whose log prefix is complete. Commit records
        // chain per group, so points become durable in commit order.
        let vcl = self.vcl;
        let mut j = 0;
        while j < self.pending_cpls.len() && self.pending_cpls[j].1 <= now {
            let cpl = self.pending_cpls[j].0;
            if cpl <= vcl {
                self.vdl = self.vdl.max(cpl);
            }
            j += 1;
        }
        self.pending_cpls.drain(..j);
        let trace = self.charge.trace();
        if trace.is_enabled() {
            trace.instant("objstore", "redo.watermark", &[("vcl", self.vcl), ("vdl", self.vdl)]);
        }
    }

    /// Moves reclaimed blocks whose fencing commit has become durable
    /// onto the free list.
    fn reclaim_matured(&mut self) {
        let now = self.charge.clock().now();
        let mut i = 0;
        while i < self.pending_free.len() {
            if self.pending_free[i].0 <= now {
                let (_, blocks) = self.pending_free.swap_remove(i);
                self.free_blocks.extend(blocks);
            } else {
                i += 1;
            }
        }
    }

    /// The device handle (for integration points like the pager).
    pub fn device(&self) -> &SharedDevice {
        &self.dev
    }

    /// The device stack's aggregated health report: per-member states
    /// and failover/rebuild counters for a mirrored array, the default
    /// (healthy, no members) otherwise. Health transitions themselves
    /// surface as structured [`StoreError::Device`] values — notably
    /// `NoHealthyMirror` when redundancy is exhausted — so callers can
    /// distinguish "mirror limping" (this report) from "data at risk"
    /// (the error).
    pub fn device_health(&self) -> aurora_storage::HealthReport {
        self.dev.lock().health_report()
    }

    /// The cost accountant.
    pub fn charge(&self) -> &Charge {
        &self.charge
    }

    /// Installs a trace recorder on the store, its frame arena (COW
    /// write instrumentation), and its device stack.
    pub fn set_trace(&mut self, trace: aurora_trace::Trace) {
        self.charge.set_trace(trace.clone());
        self.arena.set_trace(trace.clone());
        self.dev.lock().set_trace(trace);
    }

    /// Adopts a frame arena (the orchestrator passes the VM's so both
    /// layers attribute frames to one gauge block). Existing cache
    /// entries keep their old attribution; callers wire the arena before
    /// any page traffic.
    pub fn set_arena(&mut self, arena: FrameArena) {
        self.arena = arena;
    }

    /// The store's frame arena.
    pub fn arena(&self) -> &FrameArena {
        &self.arena
    }

    /// Drops every cached page frame. Reads fall back to the device
    /// (tests that measure device behavior, and memory-pressure paths).
    pub fn drop_page_cache(&mut self) {
        self.page_cache.clear();
    }

    /// Number of blocks with a cached frame.
    pub fn cached_pages(&self) -> usize {
        self.page_cache.len()
    }

    // ------------------------------------------------------------------
    // Object mutation (current epoch)
    // ------------------------------------------------------------------

    /// Creates an object with a caller-chosen OID, staged in the current
    /// group's draft.
    pub fn create_object(&mut self, oid: Oid, kind: ObjectKind) -> Result<()> {
        self.next_oid = self.next_oid.max(oid.0 + 1);
        let prov = prov_tag(self.staging);
        self.objects.entry(oid.0).or_insert_with(|| ObjMeta {
            kind_raw: kind.encode(),
            created_epoch: prov,
            ..ObjMeta::default()
        });
        self.draft_mut().objects.insert(oid.0);
        Ok(())
    }

    /// Marks an object deleted as of the current group's in-flight epoch;
    /// earlier checkpoints still expose it.
    pub fn delete_object(&mut self, oid: Oid) -> Result<()> {
        let prov = prov_tag(self.staging);
        let o = self.objects.get_mut(&oid.0).ok_or(StoreError::NoSuchObject(oid))?;
        o.deleted_epoch = Some(prov);
        self.draft_mut().objects.insert(oid.0);
        Ok(())
    }

    /// Writes a batch of pages to one object as a single charged bulk
    /// I/O; a single page is a batch of one. Each frame is shared into
    /// the page cache (no copy); its bytes go to a fresh COW block
    /// asynchronously; durability is established by [`commit`].
    ///
    /// Physically-contiguous destination blocks (which the bump
    /// allocator produces whenever the free list is empty) are issued as
    /// single device writes, and the serialization cost is charged once
    /// for the whole batch instead of once per page. Rewriting a page
    /// within the same in-flight epoch replaces (and frees) the
    /// superseded, never-committed version.
    ///
    /// [`commit`]: ObjectStore::commit
    pub fn write_pages(&mut self, oid: Oid, pages: &[(u64, PageRef)]) -> Result<()> {
        if pages.is_empty() {
            return Ok(());
        }
        if !self.objects.contains_key(&oid.0) {
            return Err(StoreError::NoSuchObject(oid));
        }
        // Place every page first so physically-adjacent blocks coalesce.
        let mut placed: Vec<(u64, u64)> = Vec::with_capacity(pages.len()); // (block, pindex)
        for (pindex, _) in pages {
            placed.push((self.alloc_block()?, *pindex));
        }
        let prior_max = self.drafts.get(&self.staging).map(|d| d.max_completion).unwrap_or(0);
        let (write_res, max_done) = {
            let mut dev = self.dev.lock();
            let mut max_done = prior_max;
            let mut i = 0;
            let mut res = Ok(());
            while i < placed.len() {
                let start = i;
                while i + 1 < placed.len() && placed[i + 1].0 == placed[i].0 + 1 {
                    i += 1;
                }
                let mut buf = Vec::with_capacity((i - start + 1) * PAGE);
                for (_, data) in &pages[start..=i] {
                    buf.extend_from_slice(data.bytes());
                }
                match dev.write(placed[start].0, &buf) {
                    Ok(completion) => max_done = max_done.max(completion.done_at),
                    Err(e) => {
                        res = Err(e);
                        break;
                    }
                }
                i += 1;
            }
            (res, max_done)
        };
        self.draft_mut().max_completion = max_done;
        if let Err(e) = write_res {
            // None of the batch is indexed yet; return every placed block.
            // (Blocks written before the failure hold unreferenced data —
            // harmless to recycle, they were never committed.)
            self.free_blocks.extend(placed.iter().map(|&(b, _)| b));
            return Err(StoreError::dev("write-pages", Some(oid), self.cur_epoch, self.staging)(e));
        }
        self.charge.encode((pages.len() * PAGE) as u64);
        let prov = prov_tag(self.staging);
        let mut freed = Vec::new();
        for (&(block, pindex), (_, data)) in placed.iter().zip(pages) {
            let csum = fnv1a(data.bytes());
            let lsn = self.next_lsn;
            self.next_lsn += 1;
            self.completions.push((lsn, max_done));
            let o = self.objects.get_mut(&oid.0).expect("checked above");
            o.size = o.size.max((pindex + 1) * PAGE as u64);
            let vs = o.versions.entry(pindex).or_default();
            let prev_lsn = vs.last().map(|v| v.lsn).unwrap_or(0);
            let entry = PageVersion {
                epoch: prov,
                lsn,
                block,
                byte_off: 0,
                rec_len: PAGE as u32,
                prev_lsn,
                full: true,
                redo: false,
                csum,
            };
            if let Some(old) = vs.last().copied().filter(|v| v.epoch == prov) {
                let slot = vs.last_mut().expect("just matched");
                *slot = PageVersion { prev_lsn: old.prev_lsn, ..entry };
                Self::release_version_into(
                    &old,
                    &mut self.redo_refs,
                    &mut self.page_cache,
                    &mut freed,
                );
            } else {
                vs.push(entry);
            }
        }
        for (&(block, _), (_, data)) in placed.iter().zip(pages) {
            self.page_cache.insert(block, data.clone());
        }
        for b in freed {
            self.page_cache.remove(&b);
            self.free_blocks.push(b);
        }
        self.draft_mut().objects.insert(oid.0);
        Ok(())
    }

    /// Appends redo records for a batch of dirty pages — the delta
    /// checkpoint write path ("the log is the database"). Sub-page delta
    /// records are packed many to a block and written as one contiguous
    /// extent; full-image writes (and deltas with no prior version to
    /// chain on) take the raw-block path of [`write_pages`]. Each record
    /// gets an LSN, chains on the page's previous version via
    /// `prev_lsn`, and carries the checksum of the *materialized* page,
    /// so reads validate after chain replay exactly as they would a full
    /// image.
    ///
    /// [`write_pages`]: ObjectStore::write_pages
    pub fn append_redo(&mut self, oid: Oid, writes: &[RedoWrite]) -> Result<()> {
        self.append_redo_pinned(oid, writes, u64::MAX, 0)
    }

    /// [`append_redo`](Self::append_redo) for an object living on a
    /// restored branch: deltas chain on the newest *branch-visible*
    /// version (epoch ≤ `floor` or ≥ `resume`) — the version the caller
    /// diffed against — never on a version from the abandoned future the
    /// branch rewound away from.
    pub fn append_redo_pinned(
        &mut self,
        oid: Oid,
        writes: &[RedoWrite],
        floor: u64,
        resume: u64,
    ) -> Result<()> {
        if writes.is_empty() {
            return Ok(());
        }
        if !self.objects.contains_key(&oid.0) {
            return Err(StoreError::NoSuchObject(oid));
        }
        let visible = move |v: &PageVersion| v.epoch <= floor || v.epoch >= resume;
        // Deltas need a version to chain on; everything else goes to the
        // raw full-image path (a packed 4 KiB payload would span two
        // blocks — strictly worse than one raw block).
        let mut fulls: Vec<(u64, PageRef)> = Vec::new();
        let mut deltas: Vec<&RedoWrite> = Vec::new();
        for w in writes {
            // Chain only when the newest branch-visible version is
            // byte-identical to the caller's diff base (checksum match):
            // replay applies the payload on top of that version.
            let chained = self
                .objects
                .get(&oid.0)
                .and_then(|o| o.versions.get(&w.pindex))
                .and_then(|vs| vs.iter().rev().find(|v| visible(v)))
                .is_some_and(|v| v.csum == w.base_csum);
            match &w.delta {
                Some(_) if chained => deltas.push(w),
                _ => fulls.push((w.pindex, w.page.clone())),
            }
        }
        if !fulls.is_empty() {
            self.write_pages(oid, &fulls)?;
        }
        if deltas.is_empty() {
            return Ok(());
        }
        // Encode every record into one buffer; records pack end to end
        // and may straddle block boundaries within the extent.
        let mut buf = Vec::new();
        let mut entries: Vec<(u64, PageVersion)> = Vec::with_capacity(deltas.len());
        let mut lsns: Vec<u64> = Vec::with_capacity(deltas.len());
        for w in &deltas {
            let (offset, payload) = w.delta.as_ref().expect("partitioned above");
            let lsn = self.next_lsn;
            self.next_lsn += 1;
            lsns.push(lsn);
            let o = self.objects.get(&oid.0).expect("checked above");
            let prev_lsn = o
                .versions
                .get(&w.pindex)
                .and_then(|vs| vs.iter().rev().find(|v| visible(v)))
                .map(|v| v.lsn)
                .unwrap_or(0);
            let page_csum = fnv1a(w.page.bytes());
            let mut e = Encoder::new();
            e.u64(lsn);
            e.u64(w.pindex);
            e.u64(prev_lsn);
            e.bool(false); // not a full image
            e.u32(*offset);
            e.bytes(payload);
            e.u64(page_csum);
            let body = e.finish_vec();
            let rec_csum = fnv1a(&body);
            let off = buf.len();
            buf.extend_from_slice(&body);
            buf.extend_from_slice(&rec_csum.to_le_bytes());
            let rec_len = (buf.len() - off) as u32;
            entries.push((
                w.pindex,
                PageVersion {
                    epoch: prov_tag(self.staging),
                    lsn,
                    // Extent-relative until placement; the extent start is
                    // added once the allocation succeeds.
                    block: (off / PAGE) as u64,
                    byte_off: (off % PAGE) as u32,
                    rec_len,
                    prev_lsn,
                    full: false,
                    redo: true,
                    csum: page_csum,
                },
            ));
            // Stage the entry now so a later delta to the same page in
            // this batch chains on this record.
            let o = self.objects.get_mut(&oid.0).expect("checked above");
            o.size = o.size.max((w.pindex + 1) * PAGE as u64);
            o.versions.entry(w.pindex).or_default().push(entries.last().expect("pushed").1);
        }
        let nblocks = (buf.len() as u64).div_ceil(PAGE as u64);
        let extent = match self.alloc_extent(nblocks) {
            Ok(b) => b,
            Err(e) => {
                self.unstage_entries(oid, &lsns);
                return Err(e);
            }
        };
        let mut padded = buf.clone();
        padded.resize(nblocks as usize * PAGE, 0);
        let res = self.dev.lock().write(extent, &padded);
        let completion = match res {
            Ok(c) => c,
            Err(e) => {
                // The extent was bump-allocated and never indexed; the
                // blocks simply leak back at the next reclamation scan.
                self.unstage_entries(oid, &lsns);
                self.free_blocks.extend(extent..extent + nblocks);
                return Err(StoreError::dev("append-redo", Some(oid), self.cur_epoch, self.staging)(
                    e,
                ));
            }
        };
        self.charge.encode(buf.len() as u64);
        // Fix up placement now that the extent start is known, count
        // block references, and cache each materialized page under its
        // record's LSN.
        for ((pindex, entry), w) in entries.iter_mut().zip(&deltas) {
            entry.block += extent;
            let o = self.objects.get_mut(&oid.0).expect("checked above");
            let vs = o.versions.get_mut(pindex).expect("staged above");
            let slot = vs.iter_mut().rev().find(|v| v.lsn == entry.lsn).expect("staged");
            slot.block = entry.block;
            for b in entry.covering_blocks() {
                *self.redo_refs.entry(b).or_insert(0) += 1;
            }
            self.page_cache.insert(MAT_KEY | entry.lsn, w.page.clone());
        }
        for (_, entry) in &entries {
            self.completions.push((entry.lsn, completion.done_at));
        }
        let draft = self.draft_mut();
        draft.max_completion = draft.max_completion.max(completion.done_at);
        draft.objects.insert(oid.0);
        self.redo_appended += deltas.len() as u64;
        let saved = ((deltas.len() * PAGE) as u64).saturating_sub(nblocks * PAGE as u64);
        self.redo_bytes_saved += saved;
        let trace = self.charge.trace();
        if trace.is_enabled() {
            trace.instant(
                "objstore",
                "redo.append",
                &[
                    ("oid", oid.0),
                    ("records", deltas.len() as u64),
                    ("bytes", buf.len() as u64),
                    ("saved", saved),
                ],
            );
        }
        Ok(())
    }

    /// Removes just-staged (never device-visible) entries after a failed
    /// append, restoring the index exactly.
    fn unstage_entries(&mut self, oid: Oid, lsns: &[u64]) {
        if let Some(o) = self.objects.get_mut(&oid.0) {
            for vs in o.versions.values_mut() {
                vs.retain(|v| !lsns.contains(&v.lsn));
            }
            o.versions.retain(|_, vs| !vs.is_empty());
        }
    }

    /// Replaces the serialized metadata of many objects (or one) for the
    /// current epoch, charging the serialization cost once for the whole
    /// batch.
    ///
    /// A second write in the same epoch replaces the first. Identical
    /// metadata is deduplicated: re-serializing an unchanged object
    /// creates no new version, keeping commit records and incremental
    /// streams proportional to what actually changed. On error, entries
    /// preceding the failing one have already been applied.
    pub fn set_meta_batch(&mut self, items: &[(Oid, Vec<u8>)]) -> Result<()> {
        if items.is_empty() {
            return Ok(());
        }
        let total: u64 = items.iter().map(|(_, m)| m.len() as u64).sum();
        self.charge.encode(total);
        let prov = prov_tag(self.staging);
        for (oid, meta) in items {
            let o = self.objects.get_mut(&oid.0).ok_or(StoreError::NoSuchObject(*oid))?;
            if let Some((_, m)) = o.meta.iter_mut().rev().find(|(e, _)| *e == prov) {
                *m = meta.clone();
            } else if o
                .meta
                .iter()
                .rev()
                .find(|(e, _)| *e < PROV_BASE)
                .is_some_and(|(_, m)| m.as_slice() == meta.as_slice())
            {
                continue;
            } else {
                o.meta.push((prov, meta.clone()));
            }
            self.draft_mut().objects.insert(oid.0);
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Commit
    // ------------------------------------------------------------------

    /// Commits the staging group's draft (see
    /// [`commit_for`](Self::commit_for)).
    pub fn commit(&mut self) -> Result<CommitInfo> {
        self.commit_for(self.staging)
    }

    /// Commits `group`'s in-flight epoch: appends the metadata record
    /// (ordered after that draft's data writes — and only that draft's,
    /// so one group's commit never serializes behind another's flush) and
    /// retags the draft's staged state with the epoch number, assigned
    /// here so commit order equals log order across groups.
    ///
    /// Does not advance the caller's clock — checkpoint flushing is
    /// concurrent with execution (§6); `durable_at` reports when the
    /// checkpoint is safe.
    pub fn commit_for(&mut self, group: u64) -> Result<CommitInfo> {
        let epoch = self.cur_epoch;
        let prov = prov_tag(group);
        let draft = self.drafts.get(&group).cloned().unwrap_or_default();
        // Serialize the draft's dirty set, picking out the entries staged
        // under this group's provenance tag.
        let mut body = Encoder::new();
        body.u32(draft.objects.len() as u32);
        for &oid in &draft.objects {
            let o = self.objects.get(&oid).expect("draft object exists");
            body.u64(oid);
            body.u16(o.kind_raw);
            body.u64(o.size);
            body.bool(o.deleted_epoch == Some(prov));
            match o.meta.iter().rev().find(|(e, _)| *e == prov) {
                Some((_, m)) => {
                    body.bool(true);
                    body.bytes(m);
                }
                None => body.bool(false),
            }
            // Every staged record commits — a page may carry several
            // (chained) records in one epoch, and losing an interior
            // record would orphan the deltas above it.
            let mut pages: Vec<(u64, PageVersion)> = o
                .versions
                .iter()
                .flat_map(|(&pi, vs)| {
                    vs.iter().filter(|v| v.epoch == prov).map(move |&v| (pi, v))
                })
                .collect();
            pages.sort_unstable_by_key(|&(pi, v)| (pi, v.lsn));
            body.u32(pages.len() as u32);
            for (pi, v) in pages {
                body.u64(pi);
                body.u64(v.lsn);
                body.u64(v.prev_lsn);
                body.u64(v.block);
                body.u32(v.byte_off);
                body.u32(v.rec_len);
                body.u8(v.full as u8 | (v.redo as u8) << 1);
                body.u64(v.csum);
            }
            match &o.journal {
                Some(j) if o.created_epoch == prov => {
                    body.bool(true);
                    body.u32(j.blocks.len() as u32);
                    for &b in &j.blocks {
                        body.u64(b);
                    }
                }
                _ => body.bool(false),
            }
        }
        let payload = body.finish_vec();
        let checksum = fnv1a(&payload);
        let nblocks = (payload.len().max(1) as u64).div_ceil(PAGE as u64);
        if self.meta_head + 1 + nblocks > self.data_start {
            return Err(StoreError::Full);
        }
        // The epoch's consistency-point LSN: the highest LSN it commits,
        // carrying the previous point forward when the epoch wrote no
        // pages. Persisted in the header so watermarks and point-in-time
        // restore survive recovery.
        let staged_max_lsn = draft
            .objects
            .iter()
            .filter_map(|oid| self.objects.get(oid))
            .flat_map(|o| o.versions.values())
            .flat_map(|vs| vs.iter())
            .filter(|v| v.epoch == prov)
            .map(|v| v.lsn)
            .max();
        let cpl = staged_max_lsn
            .unwrap_or_else(|| self.epoch_cpls.values().copied().max().unwrap_or(0));

        let mut header = Encoder::new();
        header.record(0x434b, RECORD_VERSION, |e| {
            e.u64(MAGIC);
            e.u64(epoch);
            e.u64(group);
            e.u64(cpl);
            e.u64(self.floor);
            e.u64(nblocks);
            e.u64(payload.len() as u64);
            e.u64(checksum);
        });
        let mut header_block = header.finish_vec();
        header_block.resize(PAGE, 0);
        let mut padded = payload.clone();
        padded.resize(nblocks as usize * PAGE, 0);

        self.charge.encode(payload.len() as u64);
        // The barrier covers this draft's data writes plus the group's
        // previous commit record: a group's records become durable in
        // commit order, so recovery always sees a prefix of each group's
        // epochs. Other groups' in-flight epochs do not gate this group's
        // durability horizon — their records may land out of log order,
        // which the hole-tolerant replay handles.
        let chain = self.last_durable.get(&group).copied().unwrap_or(0);
        let barrier = Completion { done_at: draft.max_completion.max(chain) };
        let durable = {
            let mut dev = self.dev.lock();
            // Payload first, then the header — the header is the commit
            // point. Both are ordered after the epoch's data writes.
            // Nothing below advances meta_head or epoch state until both
            // writes are accepted, so a failed commit can simply be
            // retried: it rewrites the same log region.
            let c1 = dev
                .write_after(self.meta_head + 1, &padded, barrier)
                .map_err(StoreError::dev("commit-payload", None, epoch, group))?;

            dev.write_after(self.meta_head, &header_block, c1)
                .map_err(StoreError::dev("commit-header", None, epoch, group))?
        };
        let trace = self.charge.trace();
        if trace.is_enabled() {
            trace.instant(
                "objstore",
                "epoch.commit",
                &[
                    ("epoch", epoch),
                    ("group", group),
                    ("durable_at", durable.done_at),
                    ("objects", draft.objects.len() as u64),
                    ("meta_bytes", (1 + nblocks) * PAGE as u64),
                ],
            );
            trace.instant("objstore", "epoch.open", &[("epoch", epoch + 1)]);
        }
        self.meta_head += 1 + nblocks;
        self.epochs.push(epoch);
        self.epoch_groups.insert(epoch, group);
        self.last_durable.insert(group, durable.done_at);
        self.cur_epoch = epoch + 1;
        // Retag the draft's staged state with the real epoch number. The
        // new epoch sorts above every committed entry and below every
        // provenance tag, so a stable sort restores ascending order
        // without disturbing other groups' staged entries.
        for &oid in &draft.objects {
            let o = self.objects.get_mut(&oid).expect("draft object exists");
            if o.created_epoch == prov {
                o.created_epoch = epoch;
            }
            if o.deleted_epoch == Some(prov) {
                o.deleted_epoch = Some(epoch);
            }
            for vs in o.versions.values_mut() {
                let mut hit = false;
                for v in vs.iter_mut() {
                    if v.epoch == prov {
                        v.epoch = epoch;
                        hit = true;
                    }
                }
                if hit {
                    vs.sort_by_key(|v| (v.epoch, v.lsn));
                }
            }
            let mut hit = false;
            for m in o.meta.iter_mut() {
                if m.0 == prov {
                    m.0 = epoch;
                    hit = true;
                }
            }
            if hit {
                o.meta.sort_by_key(|&(e, _)| e);
            }
        }
        self.drafts.remove(&group);
        if !self.staged_free.is_empty() {
            // Blocks reclaimed by drop_oldest become reusable only once
            // this commit record (which carries the new floor) is durable.
            let staged = std::mem::take(&mut self.staged_free);
            self.pending_free.push((durable.done_at, staged));
        }
        self.epoch_cpls.insert(epoch, cpl);
        self.pending_cpls.push((cpl, durable.done_at));
        self.note_watermarks();
        Ok(CommitInfo {
            epoch,
            durable_at: durable.done_at,
            meta_bytes: (1 + nblocks) * PAGE as u64,
        })
    }

    /// Waits until `info`'s checkpoint is durable (the `sls_barrier`
    /// primitive): advances the clock to the commit's completion.
    pub fn barrier(&self, info: CommitInfo) {
        self.charge.clock().advance_to(info.durable_at);
    }

    // ------------------------------------------------------------------
    // Reads
    // ------------------------------------------------------------------

    /// Latest committed epoch, if any.
    pub fn last_epoch(&self) -> Option<u64> {
        self.epochs.last().copied()
    }

    /// All committed epochs, ascending.
    pub fn epochs(&self) -> &[u64] {
        &self.epochs
    }

    fn check_epoch(&self, epoch: u64) -> Result<()> {
        if self.epochs.binary_search(&epoch).is_ok() {
            Ok(())
        } else {
            Err(StoreError::NoSuchEpoch(epoch))
        }
    }

    /// Objects live at `epoch` (created, not yet deleted).
    pub fn objects_at(&self, epoch: u64) -> Result<Vec<Oid>> {
        self.check_epoch(epoch)?;
        let mut v: Vec<Oid> = self
            .objects
            .iter()
            .filter(|(_, o)| {
                o.created_epoch <= epoch && o.deleted_epoch.map(|d| d > epoch).unwrap_or(true)
            })
            .map(|(&id, _)| Oid(id))
            .collect();
        v.sort();
        Ok(v)
    }

    /// An object's kind.
    pub fn kind(&self, oid: Oid) -> Result<ObjectKind> {
        let o = self.objects.get(&oid.0).ok_or(StoreError::NoSuchObject(oid))?;
        ObjectKind::decode(o.kind_raw)
    }

    /// An object's size in bytes (latest committed view).
    pub fn size(&self, oid: Oid) -> Result<u64> {
        Ok(self.objects.get(&oid.0).ok_or(StoreError::NoSuchObject(oid))?.size)
    }

    /// The object's metadata as of `epoch`.
    pub fn meta_at(&self, oid: Oid, epoch: u64) -> Result<&[u8]> {
        self.check_epoch(epoch)?;
        let o = self.objects.get(&oid.0).ok_or(StoreError::NoSuchObject(oid))?;
        o.meta
            .iter()
            .rev()
            .find(|(e, _)| *e <= epoch)
            .map(|(_, m)| m.as_slice())
            .ok_or(StoreError::NoSuchPage(oid, 0))
    }

    /// Page indices present at `epoch`.
    pub fn pages_at(&self, oid: Oid, epoch: u64) -> Result<Vec<u64>> {
        self.check_epoch(epoch)?;
        let o = self.objects.get(&oid.0).ok_or(StoreError::NoSuchObject(oid))?;
        let mut v: Vec<u64> = o
            .versions
            .iter()
            .filter(|(_, vs)| vs.iter().any(|v| v.epoch <= epoch))
            .map(|(&pi, _)| pi)
            .collect();
        v.sort();
        Ok(v)
    }

    /// The commit epoch of the newest version of a page at or before
    /// `epoch` (incremental-stream change detection).
    pub fn page_version_epoch(&self, oid: Oid, pindex: u64, epoch: u64) -> Result<u64> {
        let o = self.objects.get(&oid.0).ok_or(StoreError::NoSuchObject(oid))?;
        let vs = o.versions.get(&pindex).ok_or(StoreError::NoSuchPage(oid, pindex))?;
        vs.iter()
            .rev()
            .find(|v| v.epoch <= epoch)
            .map(|v| v.epoch)
            .ok_or(StoreError::NoSuchPage(oid, pindex))
    }

    /// The commit epoch of the newest metadata version at or before
    /// `epoch`.
    pub fn meta_version_epoch(&self, oid: Oid, epoch: u64) -> Result<u64> {
        let o = self.objects.get(&oid.0).ok_or(StoreError::NoSuchObject(oid))?;
        o.meta
            .iter()
            .rev()
            .find(|(e, _)| *e <= epoch)
            .map(|&(e, _)| e)
            .ok_or(StoreError::NoSuchPage(oid, 0))
    }

    /// Verifies a page read back from the device against its recorded
    /// write-time checksum. A mismatch is silent medium corruption —
    /// fatal, never retried (the block itself is wrong, not the bus).
    fn verify_page(
        &self,
        op: &'static str,
        oid: Oid,
        epoch: u64,
        block: u64,
        expect: u64,
        data: &[u8],
    ) -> Result<()> {
        if fnv1a(data) == expect {
            return Ok(());
        }
        let trace = self.charge.trace();
        if trace.is_enabled() {
            trace.instant(
                "objstore",
                "checksum.mismatch",
                &[("oid", oid.0), ("epoch", epoch), ("block", block)],
            );
        }
        Err(StoreError::Device {
            op,
            oid: Some(oid),
            epoch,
            group: 0,
            source: DeviceError::Io { lba: block, transient: false },
        })
    }

    /// Reads one page as of `epoch`. A page-cache hit returns a shared
    /// ref to the resident frame (no device read, no re-checksum); a miss
    /// reads the device — materializing delta versions by chain replay —
    /// verifies, and leaves the frame cached.
    pub fn read_page(&mut self, oid: Oid, pindex: u64, epoch: u64) -> Result<PageRef> {
        self.check_epoch(epoch)?;
        let o = self.objects.get(&oid.0).ok_or(StoreError::NoSuchObject(oid))?;
        let vs = o.versions.get(&pindex).ok_or(StoreError::NoSuchPage(oid, pindex))?;
        let v = *vs
            .iter()
            .rev()
            .find(|v| v.epoch <= epoch)
            .ok_or(StoreError::NoSuchPage(oid, pindex))?;
        self.read_version(oid, pindex, epoch, v)
    }

    /// Serves one located version: cache hit, raw block read, or chain
    /// materialization.
    fn read_version(&mut self, oid: Oid, pindex: u64, epoch: u64, v: PageVersion) -> Result<PageRef> {
        let key = if v.redo { MAT_KEY | v.lsn } else { v.block };
        if let Some(p) = self.page_cache.get(&key) {
            self.cache_hits += 1;
            return Ok(p.clone());
        }
        self.cache_misses += 1;
        if v.redo {
            return self.materialize(oid, pindex, epoch, v, true);
        }
        let data = {
            let mut dev = self.dev.lock();
            dev.read(v.block, 1).map_err(StoreError::dev("read-page", Some(oid), epoch, 0))?
        };
        self.verify_page("verify-page", oid, epoch, v.block, v.csum, &data)?;
        let page = self.arena.alloc(data.as_slice().try_into().expect("one block"));
        self.page_cache.insert(v.block, page.clone());
        Ok(page)
    }

    /// Materializes a delta version by walking its `prev_lsn` chain back
    /// to a full-image record and replaying the records onto the base
    /// frame. The result is verified against the version's materialized-
    /// page checksum and (when `cache` is set) left in the page cache
    /// under the record's LSN.
    fn materialize(
        &mut self,
        oid: Oid,
        pindex: u64,
        epoch: u64,
        v: PageVersion,
        cache: bool,
    ) -> Result<PageRef> {
        // Collect the chain newest→oldest by LSN lookup; versions within
        // a page are LSN-ascending, so this is a binary search each hop.
        let mut chain: Vec<PageVersion> = vec![v];
        {
            let o = self.objects.get(&oid.0).ok_or(StoreError::NoSuchObject(oid))?;
            let vs = o.versions.get(&pindex).ok_or(StoreError::NoSuchPage(oid, pindex))?;
            let mut cur = v;
            while !cur.full {
                let prev = vs
                    .binary_search_by_key(&cur.prev_lsn, |e| e.lsn)
                    .ok()
                    .map(|i| vs[i])
                    .filter(|_| cur.prev_lsn != 0);
                let Some(prev) = prev else {
                    let trace = self.charge.trace();
                    if trace.is_enabled() {
                        trace.instant(
                            "objstore",
                            "redo.materialize",
                            &[
                                ("oid", oid.0),
                                ("chain_len", chain.len() as u64),
                                ("full_base", 0),
                            ],
                        );
                    }
                    return Err(StoreError::Corrupt("redo chain has no full-image base"));
                };
                chain.push(prev);
                cur = prev;
            }
        }
        // Base: a raw full-image block or a packed full record.
        let base = *chain.last().expect("nonempty");
        let mut buf: [u8; PAGE] = if base.redo {
            let rec = self.decode_record(oid, epoch, base)?;
            let mut b = [0u8; PAGE];
            let off = rec.offset as usize;
            b[off..off + rec.payload.len()].copy_from_slice(&rec.payload);
            b
        } else {
            let data = {
                let mut dev = self.dev.lock();
                dev.read(base.block, 1)
                    .map_err(StoreError::dev("materialize-base", Some(oid), epoch, 0))?
            };
            data.as_slice().try_into().expect("one block")
        };
        // Replay deltas oldest→newest on top of the base.
        for link in chain.iter().rev().skip(1) {
            let rec = self.decode_record(oid, epoch, *link)?;
            let off = rec.offset as usize;
            buf[off..off + rec.payload.len()].copy_from_slice(&rec.payload);
        }
        // The checksum covers the materialized page, validated after
        // replay — a torn record or stale base surfaces here.
        self.verify_page("verify-materialized", oid, epoch, v.block, v.csum, &buf)?;
        self.redo_materializations += 1;
        self.chain_hist.record(chain.len() as u64);
        let trace = self.charge.trace();
        if trace.is_enabled() {
            trace.instant(
                "objstore",
                "redo.materialize",
                &[("oid", oid.0), ("chain_len", chain.len() as u64), ("full_base", 1)],
            );
        }
        let page = self.arena.alloc(buf);
        if cache {
            self.page_cache.insert(MAT_KEY | v.lsn, page.clone());
        }
        Ok(page)
    }

    /// Reads and decodes one packed redo record, validating its record
    /// checksum and identity fields.
    fn decode_record(&mut self, oid: Oid, epoch: u64, v: PageVersion) -> Result<RedoRecordOut> {
        debug_assert!(v.redo);
        let nb = ((v.byte_off as u64 + v.rec_len as u64).div_ceil(PAGE as u64)).max(1);
        let raw = {
            let mut dev = self.dev.lock();
            dev.read(v.block, nb).map_err(StoreError::dev("read-record", Some(oid), epoch, 0))?
        };
        let start = v.byte_off as usize;
        let end = start + v.rec_len as usize;
        if end > raw.len() || v.rec_len < 8 {
            return Err(StoreError::Corrupt("redo record out of bounds"));
        }
        let rec = &raw[start..end];
        let (body, csum_bytes) = rec.split_at(rec.len() - 8);
        let rec_csum = u64::from_le_bytes(csum_bytes.try_into().expect("8 bytes"));
        if fnv1a(body) != rec_csum {
            // Emits the checksum.mismatch instant and returns the fatal
            // device error (the record bytes themselves are wrong).
            self.verify_page("verify-record", oid, epoch, v.block, rec_csum, body)?;
            return Err(StoreError::Corrupt("redo record checksum"));
        }
        let mut d = Decoder::new(body);
        let lsn = d.u64()?;
        let pindex = d.u64()?;
        let _prev = d.u64()?;
        let full = d.bool()?;
        let offset = d.u32()?;
        let payload = d.bytes()?.to_vec();
        let page_csum = d.u64()?;
        if lsn != v.lsn || offset as usize + payload.len() > PAGE {
            return Err(StoreError::Corrupt("redo record identity mismatch"));
        }
        let _ = pindex;
        Ok(RedoRecordOut { lsn, full, offset, payload, page_csum })
    }

    /// Bulk-reads many pages as of `epoch`, coalescing physically
    /// contiguous blocks into single device commands — the restore path's
    /// sequential-read optimization (checkpoint flushes allocate blocks
    /// in order, so whole objects read back as a few large extents).
    pub fn read_pages_bulk(
        &mut self,
        oid: Oid,
        epoch: u64,
        pindices: &[u64],
    ) -> Result<Vec<(u64, PageRef)>> {
        self.check_epoch(epoch)?;
        let o = self.objects.get(&oid.0).ok_or(StoreError::NoSuchObject(oid))?;
        let mut located: Vec<(u64, PageVersion)> = Vec::with_capacity(pindices.len());
        for &pi in pindices {
            let vs = o.versions.get(&pi).ok_or(StoreError::NoSuchPage(oid, pi))?;
            let v = *vs
                .iter()
                .rev()
                .find(|v| v.epoch <= epoch)
                .ok_or(StoreError::NoSuchPage(oid, pi))?;
            located.push((pi, v));
        }
        located.sort_by_key(|&(_, v)| v.block);
        let mut out = Vec::with_capacity(located.len());
        // Cached frames are served as shared refs without touching the
        // device; delta versions materialize individually; only raw
        // full-image misses form the coalesced read plan.
        let mut misses: Vec<(u64, u64, u64)> = Vec::with_capacity(located.len());
        let mut redo_misses: Vec<(u64, PageVersion)> = Vec::new();
        for &(pi, v) in &located {
            let key = if v.redo { MAT_KEY | v.lsn } else { v.block };
            match self.page_cache.get(&key) {
                Some(p) => {
                    self.cache_hits += 1;
                    out.push((pi, p.clone()));
                }
                None if v.redo => {
                    self.cache_misses += 1;
                    redo_misses.push((pi, v));
                }
                None => {
                    self.cache_misses += 1;
                    misses.push((pi, v.block, v.csum));
                }
            }
        }
        for (pi, v) in redo_misses {
            let page = self.materialize(oid, pi, epoch, v, true)?;
            out.push((pi, page));
        }
        // A restore issues its whole read plan at once (deep NVMe
        // queues); it completes when the slowest extent does.
        let issue_at = self.charge.clock().now();
        let mut done = issue_at;
        let mut i = 0;
        while i < misses.len() {
            let mut j = i + 1;
            while j < misses.len() && misses[j].1 == misses[j - 1].1 + 1 {
                j += 1;
            }
            let run = &misses[i..j];
            let (data, d) = self
                .dev
                .lock()
                .read_from(run[0].1, run.len() as u64, issue_at)
                .map_err(StoreError::dev("read-pages-bulk", Some(oid), epoch, 0))?;
            done = done.max(d);
            for (k, &(pi, block, csum)) in run.iter().enumerate() {
                let bytes = &data[k * PAGE..(k + 1) * PAGE];
                self.verify_page("verify-page", oid, epoch, block, csum, bytes)?;
                let page = self.arena.alloc(bytes.try_into().expect("exact page"));
                self.page_cache.insert(block, page.clone());
                out.push((pi, page));
            }
            i = j;
        }
        self.charge.clock().advance_to(done);
        Ok(out)
    }

    /// Reads the newest committed version of a page *visible on a
    /// branch*: versions with epoch ≤ `floor` (history up to the restore
    /// point) or ≥ `resume` (epochs this branch created after its
    /// restore). A live, never-restored object uses
    /// `floor = u64::MAX, resume = 0` (everything visible).
    ///
    /// This is what makes time travel sound: an instance restored at an
    /// old epoch must not fault in pages written by the abandoned future
    /// it rewound away from.
    pub fn read_page_pinned(
        &mut self,
        oid: Oid,
        pindex: u64,
        floor: u64,
        resume: u64,
    ) -> Result<PageRef> {
        let last = self.last_epoch().ok_or(StoreError::NoSuchEpoch(0))?;
        let o = self.objects.get(&oid.0).ok_or(StoreError::NoSuchObject(oid))?;
        let vs = o.versions.get(&pindex).ok_or(StoreError::NoSuchPage(oid, pindex))?;
        let v = *vs
            .iter()
            .rev()
            .find(|v| v.epoch <= last && (v.epoch <= floor || v.epoch >= resume))
            .ok_or(StoreError::NoSuchPage(oid, pindex))?;
        self.read_version(oid, pindex, last, v)
    }

    /// The next (in-progress) epoch number — the epoch a restore's
    /// branch resumes from.
    pub fn current_epoch(&self) -> u64 {
        self.cur_epoch
    }

    // ------------------------------------------------------------------
    // Point-in-time (LSN) access
    // ------------------------------------------------------------------

    /// Consistency-point LSN recorded in `epoch`'s commit header.
    pub fn epoch_cpl(&self, epoch: u64) -> Option<u64> {
        self.epoch_cpls.get(&epoch).copied()
    }

    /// The base epoch for a point-in-time restore at `lsn`: the newest
    /// committed epoch whose prefix — it plus every epoch committed
    /// before it — contains only records with LSN ≤ `lsn`. Restoring
    /// this epoch's image and overlaying later records at or below the
    /// target yields exactly the state as of `lsn`. Uses a running-max
    /// walk over per-epoch CPLs so interleaved cross-group commits stay
    /// prefix-closed. `None` when `lsn` predates the history floor.
    pub fn epoch_for_lsn(&self, lsn: u64) -> Option<u64> {
        let mut base = None;
        let mut running = 0u64;
        for &e in &self.epochs {
            running = running.max(self.epoch_cpls.get(&e).copied().unwrap_or(0));
            if running <= lsn {
                base = Some(e);
            } else {
                break;
            }
        }
        base
    }

    /// Pages of live objects carrying a committed version in an epoch
    /// newer than `epoch` — the overlay set a point-in-time restore must
    /// re-read at its target LSN. Deterministically ordered.
    pub fn modified_since(&self, epoch: u64) -> Vec<(Oid, u64)> {
        let mut out = Vec::new();
        for (&oid, o) in &self.objects {
            if o.deleted_epoch.is_some() {
                continue;
            }
            for (&pi, vs) in &o.versions {
                if vs.iter().any(|v| v.epoch < PROV_BASE && v.epoch > epoch) {
                    out.push((Oid(oid), pi));
                }
            }
        }
        out.sort_unstable_by_key(|&(o, p)| (o.0, p));
        out
    }

    /// The page's content as of `lsn`: its newest committed record at or
    /// below the target, materialized. `Ok(None)` when the page had no
    /// committed record yet at that point in time.
    pub fn read_page_at_lsn(&mut self, oid: Oid, pindex: u64, lsn: u64) -> Result<Option<PageRef>> {
        let v = {
            let o = self.objects.get(&oid.0).ok_or(StoreError::NoSuchObject(oid))?;
            o.versions
                .get(&pindex)
                .and_then(|vs| vs.iter().rev().find(|v| v.epoch < PROV_BASE && v.lsn <= lsn))
                .copied()
        };
        match v {
            None => Ok(None),
            Some(v) => self.read_version(oid, pindex, v.epoch, v).map(Some),
        }
    }

    /// Decodes the committed records a page accumulated in epochs
    /// `(from, to]`, oldest→newest, trimmed to start at the newest
    /// full-image record in range (everything older in range is
    /// superseded by it). The cluster layer streams these as the epoch
    /// delta instead of full page images: a follower in sync through
    /// `from` can replay them onto its own copy of the page.
    pub fn page_records_in(
        &mut self,
        oid: Oid,
        pindex: u64,
        from: u64,
        to: u64,
    ) -> Result<Vec<RedoRecordOut>> {
        let vs: Vec<PageVersion> = {
            let o = self.objects.get(&oid.0).ok_or(StoreError::NoSuchObject(oid))?;
            o.versions
                .get(&pindex)
                .map(|vs| {
                    vs.iter()
                        .copied()
                        .filter(|v| v.epoch < PROV_BASE && v.epoch > from && v.epoch <= to)
                        .collect()
                })
                .unwrap_or_default()
        };
        let start = vs.iter().rposition(|v| v.full).unwrap_or(0);
        let mut out = Vec::with_capacity(vs.len() - start);
        for v in &vs[start..] {
            let rec = if v.redo {
                self.decode_record(oid, v.epoch, *v)?
            } else {
                let p = self.read_version(oid, pindex, v.epoch, *v)?;
                RedoRecordOut {
                    lsn: v.lsn,
                    full: true,
                    offset: 0,
                    payload: p.bytes().to_vec(),
                    page_csum: v.csum,
                }
            };
            out.push(rec);
        }
        Ok(out)
    }

    /// An observability snapshot for the metrics sampler. Pure read —
    /// never touches the device or the clock.
    pub fn gauges(&self) -> StoreGauges {
        StoreGauges {
            cache_pages: self.page_cache.len() as u64,
            cache_hits: self.cache_hits,
            cache_misses: self.cache_misses,
            epochs: self.epochs.len() as u64,
            current_epoch: self.cur_epoch,
            floor: self.floor,
            objects: self.objects.values().filter(|o| o.deleted_epoch.is_none()).count() as u64,
            open_drafts: self.drafts.len() as u64,
            redo_appended: self.redo_appended,
            redo_materializations: self.redo_materializations,
            redo_bytes_saved: self.redo_bytes_saved,
            redo_chain_len_p95: self.chain_hist.percentile(95.0),
            redo_vcl: self.vcl,
            redo_vdl: self.vdl,
        }
    }

    /// Verifies the data checksum of every committed page version in the
    /// store, returning the number of pages scanned. Journal blocks are
    /// excluded: journals update in place (non-COW), so they carry no
    /// per-block write-time checksum.
    ///
    /// Crash-schedule recovery runs this after every reopen, turning
    /// silent corruption anywhere in history into a hard
    /// [`StoreError::Device`] instead of a latent wrong read.
    pub fn scrub(&mut self) -> Result<u64> {
        let mut plan: Vec<(u64, u64, u64, u64)> = Vec::new(); // (oid, epoch, block, csum)
        let mut redo_plan: Vec<(u64, u64, PageVersion)> = Vec::new(); // (oid, pindex, v)
        for (&oid, o) in &self.objects {
            for (&pi, vs) in &o.versions {
                for v in vs {
                    if v.redo {
                        redo_plan.push((oid, pi, *v));
                    } else {
                        plan.push((oid, v.epoch, v.block, v.csum));
                    }
                }
            }
        }
        // Scan in block order: one sequential pass over the data region.
        plan.sort_by_key(|&(_, _, b, _)| b);
        for (oid, epoch, block, csum) in &plan {
            let data = {
                let mut dev = self.dev.lock();
                dev.read(*block, 1).map_err(StoreError::dev("scrub", Some(Oid(*oid)), *epoch, 0))?
            };
            self.verify_page("scrub", Oid(*oid), *epoch, *block, *csum, &data)?;
        }
        // Redo versions re-materialize from the device (cache bypassed):
        // record checksums and the materialized-page checksum both verify,
        // so a torn record anywhere in a chain surfaces here.
        redo_plan.sort_by_key(|&(_, _, v)| (v.block, v.byte_off));
        let count = plan.len() + redo_plan.len();
        for (oid, pi, v) in redo_plan {
            let epoch = if v.epoch < PROV_BASE { v.epoch } else { self.cur_epoch };
            self.materialize(Oid(oid), pi, epoch, v, false)?;
        }
        let trace = self.charge.trace();
        if trace.is_enabled() {
            trace.instant("objstore", "scrub.done", &[("pages", count as u64)]);
        }
        Ok(count as u64)
    }

    // ------------------------------------------------------------------
    // History reclamation
    // ------------------------------------------------------------------

    /// Drops the oldest committed checkpoint, reclaiming every block
    /// version that was superseded by the next retained checkpoint. No
    /// garbage collector: the walk is bounded by the dropped epoch's own
    /// deltas' successors.
    ///
    /// The reclaimed blocks are *staged*, not immediately reusable: they
    /// join the free list only once a later commit — which persists the
    /// new floor — is durable. Until then a crash simply resurrects the
    /// dropped epoch, intact.
    pub fn drop_oldest_checkpoint(&mut self) -> Result<u64> {
        if self.epochs.len() < 2 {
            return Err(StoreError::NoSuchEpoch(0));
        }
        let dropped = self.epochs.remove(0);
        self.epoch_groups.remove(&dropped);
        let floor = self.epochs[0];
        self.floor = floor;
        let freed = self.prune_below_floor(floor);
        self.staged_free.extend(freed);
        Ok(dropped)
    }

    /// Removes history below `floor`: dead objects, superseded page
    /// versions, superseded metadata. Returns the device blocks this
    /// releases, sorted so that their reuse order (and so later block
    /// placement) depends only on the history, not on hash-map
    /// iteration. Shared by [`drop_oldest_checkpoint`] and recovery.
    ///
    /// [`drop_oldest_checkpoint`]: ObjectStore::drop_oldest_checkpoint
    fn prune_below_floor(&mut self, floor: u64) -> Vec<u64> {
        let mut freed = Vec::new();
        let dead: Vec<u64> = self
            .objects
            .iter()
            .filter(|(_, o)| o.deleted_epoch.map(|d| d <= floor).unwrap_or(false))
            .map(|(&id, _)| id)
            .collect();
        for oid in dead {
            let o = self.objects.remove(&oid).expect("listed");
            for (_, vs) in o.versions {
                for v in vs {
                    Self::release_version_into(
                        &v,
                        &mut self.redo_refs,
                        &mut self.page_cache,
                        &mut freed,
                    );
                }
            }
            if let Some(j) = o.journal {
                freed.extend(j.blocks);
            }
        }
        for o in self.objects.values_mut() {
            for vs in o.versions.values_mut() {
                // Keep the newest version ≤ floor plus every record some
                // retained delta's chain still walks through — freeing an
                // interior chain link would orphan the deltas above it.
                let Some(mut k) = vs.iter().rposition(|v| v.epoch <= floor) else { continue };
                let mut need: BTreeSet<u64> = BTreeSet::new();
                for idx in k..vs.len() {
                    let mut cur = vs[idx];
                    while !cur.full && cur.prev_lsn != 0 {
                        let Ok(i) = vs.binary_search_by_key(&cur.prev_lsn, |e| e.lsn) else {
                            break;
                        };
                        if !need.insert(vs[i].lsn) {
                            break;
                        }
                        cur = vs[i];
                    }
                }
                let mut i = 0;
                while i < k {
                    if need.contains(&vs[i].lsn) {
                        i += 1;
                    } else {
                        let v = vs.remove(i);
                        k -= 1;
                        Self::release_version_into(
                            &v,
                            &mut self.redo_refs,
                            &mut self.page_cache,
                            &mut freed,
                        );
                    }
                }
            }
            // Trim metadata versions: keep the newest ≤ floor and all > floor.
            while o.meta.len() >= 2 && o.meta[1].0 <= floor {
                o.meta.remove(0);
            }
        }
        freed.sort_unstable();
        freed
    }

    /// Aborts the staging group's in-flight epoch (see
    /// [`abort_epoch_for`](Self::abort_epoch_for)).
    pub fn abort_epoch(&mut self) {
        self.abort_epoch_for(self.staging);
    }

    /// Aborts `group`'s in-flight epoch: every mutation staged in its
    /// draft (page versions, metadata, creations, deletions, fresh
    /// journals) is discarded and its blocks returned to the free list.
    /// Other groups' drafts are untouched, and no epoch number is
    /// consumed — numbers are only assigned at commit.
    ///
    /// This is the checkpoint pipeline's rollback: a checkpoint that
    /// failed after retries must leave the store exactly as the last
    /// commit left it, so the group's next checkpoint starts clean.
    pub fn abort_epoch_for(&mut self, group: u64) {
        let prov = prov_tag(group);
        let trace = self.charge.trace();
        if trace.is_enabled() {
            trace.instant("objstore", "epoch.abort", &[("epoch", self.cur_epoch), ("group", group)]);
        }
        let Some(dirty) = self.drafts.remove(&group) else { return };
        let mut freed = Vec::new();
        for oid in dirty.objects {
            let created_now = match self.objects.get_mut(&oid) {
                None => continue,
                Some(o) if o.created_epoch == prov => true,
                Some(o) => {
                    for vs in o.versions.values_mut() {
                        vs.retain(|v| {
                            if v.epoch == prov {
                                Self::release_version_into(
                                    v,
                                    &mut self.redo_refs,
                                    &mut self.page_cache,
                                    &mut freed,
                                );
                                false
                            } else {
                                true
                            }
                        });
                    }
                    o.versions.retain(|_, vs| !vs.is_empty());
                    o.meta.retain(|(e, _)| *e != prov);
                    if o.deleted_epoch == Some(prov) {
                        o.deleted_epoch = None;
                    }
                    false
                }
            };
            if created_now {
                // The object never existed in any committed epoch.
                let o = self.objects.remove(&oid).expect("present");
                for (_, vs) in o.versions {
                    for v in vs {
                        Self::release_version_into(
                            &v,
                            &mut self.redo_refs,
                            &mut self.page_cache,
                            &mut freed,
                        );
                    }
                }
                if let Some(j) = o.journal {
                    freed.extend(j.blocks);
                }
            }
        }
        self.free_blocks.extend(freed);
    }

    /// Journal accessor for `journal.rs`.
    pub(crate) fn obj_journal_mut(&mut self, oid: Oid) -> Result<&mut Journal> {
        let o = self.objects.get_mut(&oid.0).ok_or(StoreError::NoSuchObject(oid))?;
        o.journal.as_mut().ok_or(StoreError::WrongKind(oid))
    }

    /// Journal accessor.
    pub(crate) fn obj_journal(&self, oid: Oid) -> Result<&Journal> {
        let o = self.objects.get(&oid.0).ok_or(StoreError::NoSuchObject(oid))?;
        o.journal.as_ref().ok_or(StoreError::WrongKind(oid))
    }

    /// Installs a journal on a freshly created object (see
    /// [`crate::journal`]).
    pub(crate) fn install_journal(&mut self, oid: Oid, journal: Journal) -> Result<()> {
        let o = self.objects.get_mut(&oid.0).ok_or(StoreError::NoSuchObject(oid))?;
        o.journal = Some(journal);
        self.draft_mut().objects.insert(oid.0);
        Ok(())
    }

    /// Simulates a machine crash: in-flight device writes are lost, every
    /// cached frame is dropped (RAM does not survive), and the store is
    /// reopened from disk. The arena identity survives so gauges stay
    /// continuous across the reboot.
    pub fn crash_and_recover(self) -> Result<Self> {
        let dev = self.dev.clone();
        let charge = self.charge.clone();
        let arena = self.arena.clone();
        dev.lock().crash();
        drop(self);
        let mut store = Self::open(dev, charge)?;
        store.arena = arena;
        Ok(store)
    }

    /// In-place variant of [`crash_and_recover`](Self::crash_and_recover)
    /// for stores behind shared handles.
    pub fn crash_and_reopen_in_place(&mut self) -> Result<()> {
        self.dev.lock().crash();
        let mut recovered = Self::open(self.dev.clone(), self.charge.clone())?;
        recovered.arena = self.arena.clone();
        *self = recovered;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aurora_sim::{Clock, CostModel};
    use aurora_storage::testbed_array;

    fn fresh() -> ObjectStore {
        let clock = Clock::new();
        let dev = testbed_array(&clock, 1 << 28);
        let charge = Charge::new(clock, CostModel::default());
        ObjectStore::format(dev, charge, 4096).unwrap()
    }

    fn page(fill: u8) -> PageRef {
        PageRef::detached([fill; PAGE])
    }

    #[test]
    fn write_commit_read_roundtrip() {
        let mut s = fresh();
        let oid = s.alloc_oid();
        s.create_object(oid, ObjectKind::Memory).unwrap();
        s.write_pages(oid, &[(0, page(7))]).unwrap();
        s.set_meta_batch(&[(oid, b"meta-v1".to_vec())]).unwrap();
        let c = s.commit().unwrap();
        assert_eq!(c.epoch, 1);
        assert_eq!(s.read_page(oid, 0, 1).unwrap(), page(7));
        assert_eq!(s.meta_at(oid, 1).unwrap(), b"meta-v1");
    }

    #[test]
    fn history_preserves_old_versions() {
        let mut s = fresh();
        let oid = s.alloc_oid();
        s.create_object(oid, ObjectKind::Memory).unwrap();
        s.write_pages(oid, &[(0, page(1))]).unwrap();
        let _ = s.commit().unwrap();
        s.write_pages(oid, &[(0, page(2))]).unwrap();
        let _ = s.commit().unwrap();
        assert_eq!(s.read_page(oid, 0, 1).unwrap(), page(1));
        assert_eq!(s.read_page(oid, 0, 2).unwrap(), page(2));
    }

    #[test]
    fn unchanged_pages_visible_in_later_epochs() {
        let mut s = fresh();
        let oid = s.alloc_oid();
        s.create_object(oid, ObjectKind::Memory).unwrap();
        s.write_pages(oid, &[(3, page(9))]).unwrap();
        let _ = s.commit().unwrap();
        s.write_pages(oid, &[(4, page(8))]).unwrap();
        let _ = s.commit().unwrap();
        assert_eq!(s.read_page(oid, 3, 2).unwrap(), page(9), "COW shares old block");
        assert_eq!(s.pages_at(oid, 2).unwrap(), vec![3, 4]);
        assert_eq!(s.pages_at(oid, 1).unwrap(), vec![3]);
    }

    #[test]
    fn recovery_finds_last_complete_checkpoint() {
        let mut s = fresh();
        let oid = s.alloc_oid();
        s.create_object(oid, ObjectKind::Memory).unwrap();
        s.write_pages(oid, &[(0, page(1))]).unwrap();
        let c1 = s.commit().unwrap();
        s.barrier(c1); // checkpoint 1 durable
        s.write_pages(oid, &[(0, page(2))]).unwrap();
        let _c2 = s.commit().unwrap();
        // Crash *before* checkpoint 2 is durable.
        let mut s = s.crash_and_recover().unwrap();
        assert_eq!(s.last_epoch(), Some(1));
        assert_eq!(s.read_page(oid, 0, 1).unwrap(), page(1));
    }

    #[test]
    fn recovery_keeps_durable_checkpoints() {
        let mut s = fresh();
        let oid = s.alloc_oid();
        s.create_object(oid, ObjectKind::Memory).unwrap();
        for i in 1..=3u8 {
            s.write_pages(oid, &[(0, page(i))]).unwrap();
            let c = s.commit().unwrap();
            s.barrier(c);
        }
        let mut s = s.crash_and_recover().unwrap();
        assert_eq!(s.last_epoch(), Some(3));
        for i in 1..=3u8 {
            assert_eq!(s.read_page(oid, 0, i as u64).unwrap(), page(i));
        }
    }

    #[test]
    fn deleted_objects_visible_only_in_history() {
        let mut s = fresh();
        let oid = s.alloc_oid();
        s.create_object(oid, ObjectKind::File).unwrap();
        s.write_pages(oid, &[(0, page(5))]).unwrap();
        let _ = s.commit().unwrap();
        s.delete_object(oid).unwrap();
        let _ = s.commit().unwrap();
        assert!(s.objects_at(1).unwrap().contains(&oid));
        assert!(!s.objects_at(2).unwrap().contains(&oid));
        // History still readable.
        assert_eq!(s.read_page(oid, 0, 1).unwrap(), page(5));
    }

    #[test]
    fn drop_oldest_frees_superseded_blocks() {
        let mut s = fresh();
        let oid = s.alloc_oid();
        s.create_object(oid, ObjectKind::Memory).unwrap();
        s.write_pages(oid, &[(0, page(1))]).unwrap();
        let _ = s.commit().unwrap();
        s.write_pages(oid, &[(0, page(2))]).unwrap();
        let _ = s.commit().unwrap();
        s.drop_oldest_checkpoint().unwrap();
        // The superseded block is staged, not yet reusable: a crash right
        // now must still be able to resurrect epoch 1 intact.
        assert_eq!(s.staged_free.len(), 1, "one superseded block staged");
        assert_eq!(s.epochs(), &[2]);
        assert!(s.read_page(oid, 0, 1).is_err());
        assert_eq!(s.read_page(oid, 0, 2).unwrap(), page(2));
        // The next durable commit publishes the floor and releases it.
        s.write_pages(oid, &[(0, page(3))]).unwrap();
        let c = s.commit().unwrap();
        s.barrier(c);
        s.reclaim_matured();
        assert!(s.staged_free.is_empty());
        assert!(!s.free_blocks.is_empty(), "block reusable after floor commit is durable");
    }

    #[test]
    fn identical_histories_free_identical_block_lists() {
        let run = || {
            let mut s = fresh();
            let oids: Vec<Oid> = (0..32).map(|_| s.alloc_oid()).collect();
            for &oid in &oids {
                s.create_object(oid, ObjectKind::Memory).unwrap();
            }
            for i in 1..=3u8 {
                for (n, &oid) in oids.iter().enumerate() {
                    if i == 3 && n % 4 == 0 {
                        s.delete_object(oid).unwrap();
                        continue;
                    }
                    for pi in 0..8 {
                        s.write_pages(oid, &[(pi, page(i))]).unwrap();
                    }
                }
                let c = s.commit().unwrap();
                s.barrier(c);
            }
            s.drop_oldest_checkpoint().unwrap();
            s.drop_oldest_checkpoint().unwrap();
            std::mem::take(&mut s.staged_free)
        };
        let a = run();
        assert!(a.len() >= 32 * 8, "superseded and dead versions were freed: {}", a.len());
        assert_eq!(a, run(), "reclamation order depends only on the history");
    }

    #[test]
    fn dropped_epochs_stay_dropped_after_durable_floor_commit() {
        let mut s = fresh();
        let oid = s.alloc_oid();
        s.create_object(oid, ObjectKind::Memory).unwrap();
        for i in 1..=3u8 {
            s.write_pages(oid, &[(0, page(i))]).unwrap();
            let c = s.commit().unwrap();
            s.barrier(c);
        }
        s.drop_oldest_checkpoint().unwrap();
        s.write_pages(oid, &[(0, page(4))]).unwrap();
        let c = s.commit().unwrap();
        s.barrier(c); // floor=2 is now durable
        let mut s = s.crash_and_recover().unwrap();
        assert_eq!(s.epochs(), &[2, 3, 4], "epoch 1 must not resurrect");
        assert!(s.read_page(oid, 0, 1).is_err());
        assert_eq!(s.read_page(oid, 0, 2).unwrap(), page(2));
        assert_eq!(s.read_page(oid, 0, 4).unwrap(), page(4));
    }

    #[test]
    fn drop_then_crash_before_floor_commit_resurrects_epoch_intact() {
        let mut s = fresh();
        let oid = s.alloc_oid();
        s.create_object(oid, ObjectKind::Memory).unwrap();
        for i in 1..=2u8 {
            s.write_pages(oid, &[(0, page(i))]).unwrap();
            let c = s.commit().unwrap();
            s.barrier(c);
        }
        s.drop_oldest_checkpoint().unwrap();
        // Crash before any commit persists the new floor: the dropped
        // epoch comes back, and because its blocks were only staged (never
        // reused) the data is bit-exact.
        let mut s = s.crash_and_recover().unwrap();
        assert_eq!(s.epochs(), &[1, 2]);
        assert_eq!(s.read_page(oid, 0, 1).unwrap(), page(1));
        assert_eq!(s.read_page(oid, 0, 2).unwrap(), page(2));
    }

    #[test]
    fn abort_epoch_discards_uncommitted_state() {
        let mut s = fresh();
        let keep = s.alloc_oid();
        s.create_object(keep, ObjectKind::Memory).unwrap();
        s.write_pages(keep, &[(0, page(1))]).unwrap();
        s.set_meta_batch(&[(keep, b"v1".to_vec())]).unwrap();
        let c = s.commit().unwrap();
        s.barrier(c);
        // Epoch 2 in progress: overwrite, new meta, a new object, a delete.
        s.write_pages(keep, &[(0, page(2))]).unwrap();
        s.set_meta_batch(&[(keep, b"v2".to_vec())]).unwrap();
        let fresh_obj = s.alloc_oid();
        s.create_object(fresh_obj, ObjectKind::Memory).unwrap();
        s.write_pages(fresh_obj, &[(0, page(9))]).unwrap();
        s.abort_epoch();
        // The live world is exactly epoch 1 again.
        assert_eq!(s.read_page(keep, 0, 1).unwrap(), page(1));
        assert_eq!(s.meta_at(keep, 1).unwrap(), b"v1");
        assert!(!s.objects.contains_key(&fresh_obj.0), "uncommitted object gone");
        // And the next commit works and reuses the epoch number.
        s.write_pages(keep, &[(0, page(3))]).unwrap();
        let c = s.commit().unwrap();
        assert_eq!(c.epoch, 2);
        s.barrier(c);
        assert_eq!(s.read_page(keep, 0, 2).unwrap(), page(3));
        assert_eq!(s.meta_at(keep, 2).unwrap(), b"v1", "meta carried forward, not v2");
    }

    #[test]
    fn rewrite_within_epoch_recycles_block() {
        let mut s = fresh();
        let oid = s.alloc_oid();
        s.create_object(oid, ObjectKind::Memory).unwrap();
        s.write_pages(oid, &[(0, page(1))]).unwrap();
        let nb = s.next_block;
        s.write_pages(oid, &[(0, page(2))]).unwrap();
        assert_eq!(s.free_blocks.len(), 1, "superseded uncommitted block freed");
        assert!(s.next_block <= nb + 1);
        let _ = s.commit().unwrap();
        assert_eq!(s.read_page(oid, 0, 1).unwrap(), page(2));
    }

    #[test]
    fn commit_is_ordered_after_data() {
        let mut s = fresh();
        let oid = s.alloc_oid();
        s.create_object(oid, ObjectKind::Memory).unwrap();
        for i in 0..64u64 {
            s.write_pages(oid, &[(i, page(i as u8))]).unwrap();
        }
        let c = s.commit().unwrap();
        // durable_at must not precede the slowest data write; since the
        // record is written after the barrier it is strictly later.
        assert!(c.durable_at > 0);
        s.barrier(c);
        assert!(s.charge().clock().now() >= c.durable_at);
    }

    #[test]
    fn reads_charge_the_clock() {
        let mut s = fresh();
        let oid = s.alloc_oid();
        s.create_object(oid, ObjectKind::Memory).unwrap();
        s.write_pages(oid, &[(0, page(1))]).unwrap();
        let c = s.commit().unwrap();
        s.barrier(c);
        s.drop_page_cache(); // force the device path
        let t0 = s.charge().clock().now();
        s.read_page(oid, 0, 1).unwrap();
        assert!(s.charge().clock().now() > t0, "device read takes time");
    }

    #[test]
    fn cached_reads_share_the_written_frame_and_skip_the_device() {
        let mut s = fresh();
        let oid = s.alloc_oid();
        s.create_object(oid, ObjectKind::Memory).unwrap();
        let written = page(7);
        s.write_pages(oid, &[(0, written.clone())]).unwrap();
        let c = s.commit().unwrap();
        s.barrier(c);
        let t0 = s.charge().clock().now();
        let got = s.read_page(oid, 0, 1).unwrap();
        assert!(PageRef::ptr_eq(&got, &written), "read aliases the written frame");
        assert_eq!(s.charge().clock().now(), t0, "cache hit costs no device time");
        // A cold cache repopulates from the device and then aliases.
        s.drop_page_cache();
        let a = s.read_page(oid, 0, 1).unwrap();
        let b = s.read_page(oid, 0, 1).unwrap();
        assert!(PageRef::ptr_eq(&a, &b), "miss then hit share one frame");
        assert_eq!(a, written);
    }

    #[test]
    fn block_reuse_invalidates_cached_frame() {
        let mut s = fresh();
        let oid = s.alloc_oid();
        s.create_object(oid, ObjectKind::Memory).unwrap();
        s.write_pages(oid, &[(0, page(1))]).unwrap();
        let c = s.commit().unwrap();
        s.barrier(c);
        s.write_pages(oid, &[(0, page(2))]).unwrap();
        let c = s.commit().unwrap();
        s.barrier(c);
        // Drop epoch 1; its superseded block eventually re-enters the
        // allocator. A later write reusing it must not leave epoch-1 bytes
        // servable from the cache.
        s.drop_oldest_checkpoint().unwrap();
        s.write_pages(oid, &[(1, page(3))]).unwrap();
        let c = s.commit().unwrap();
        s.barrier(c);
        for _ in 0..4 {
            s.write_pages(oid, &[(2, page(4))]).unwrap();
            let c = s.commit().unwrap();
            s.barrier(c);
        }
        assert_eq!(s.read_page(oid, 0, s.last_epoch().unwrap()).unwrap(), page(2));
        assert_eq!(s.read_page(oid, 2, s.last_epoch().unwrap()).unwrap(), page(4));
    }

    #[test]
    fn concurrent_drafts_commit_independently() {
        let mut s = fresh();
        s.stage_for(1);
        let a = s.alloc_oid();
        s.create_object(a, ObjectKind::Memory).unwrap();
        s.write_pages(a, &[(0, page(1))]).unwrap();
        s.stage_for(2);
        let b = s.alloc_oid();
        s.create_object(b, ObjectKind::Memory).unwrap();
        s.write_pages(b, &[(0, page(2))]).unwrap();
        assert_eq!(s.open_drafts(), 2, "two epochs concurrently in flight");
        // Group 2 commits first; group 1's draft stays open and invisible.
        let c2 = s.commit_for(2).unwrap();
        assert_eq!(c2.epoch, 1, "epoch numbers assigned in commit order");
        assert_eq!(s.open_drafts(), 1);
        assert_eq!(s.read_page(b, 0, 1).unwrap(), page(2));
        assert!(s.read_page(a, 0, 1).is_err(), "group 1's staged page not visible");
        assert!(!s.objects_at(1).unwrap().contains(&a), "staged object not listed");
        let c1 = s.commit_for(1).unwrap();
        assert_eq!(c1.epoch, 2);
        assert_eq!(s.read_page(a, 0, 2).unwrap(), page(1));
        assert_eq!(s.epochs_for(2), vec![1]);
        assert_eq!(s.epochs_for(1), vec![2]);
        assert_eq!(s.group_of_epoch(1), 2);
        s.barrier(c1);
        s.barrier(c2);
    }

    #[test]
    fn abort_one_group_leaves_other_drafts_intact() {
        let mut s = fresh();
        s.stage_for(1);
        let a = s.alloc_oid();
        s.create_object(a, ObjectKind::Memory).unwrap();
        s.write_pages(a, &[(0, page(1))]).unwrap();
        s.stage_for(2);
        let b = s.alloc_oid();
        s.create_object(b, ObjectKind::Memory).unwrap();
        s.write_pages(b, &[(0, page(2))]).unwrap();
        s.abort_epoch_for(1);
        assert!(!s.objects.contains_key(&a.0), "aborted group's object gone");
        assert_eq!(s.open_drafts(), 1, "group 2's draft survives group 1's rollback");
        let c = s.commit_for(2).unwrap();
        assert_eq!(c.epoch, 1, "no epoch number consumed by the abort");
        assert_eq!(s.read_page(b, 0, 1).unwrap(), page(2));
        s.barrier(c);
    }

    #[test]
    fn commit_barrier_is_per_draft() {
        let mut s = fresh();
        // Group 1 has a flush outstanding far in the future.
        s.stage_for(1);
        s.draft_mut().max_completion = 1_000_000_000_000;
        s.stage_for(2);
        let b = s.alloc_oid();
        s.create_object(b, ObjectKind::Memory).unwrap();
        s.write_pages(b, &[(0, page(2))]).unwrap();
        assert_eq!(s.inflight_drafts(0), 2);
        let c2 = s.commit_for(2).unwrap();
        assert!(
            c2.durable_at < 1_000_000_000_000,
            "group 2's durability must not fence behind group 1's flush"
        );
        let c1 = s.commit_for(1).unwrap();
        assert!(c1.durable_at >= 1_000_000_000_000, "own writes still fence own commit");
        assert!(s.durable_floor(2) < s.durable_floor(1));
        s.barrier(c2);
    }

    #[test]
    fn group_attribution_survives_crash() {
        let mut s = fresh();
        s.stage_for(3);
        let a = s.alloc_oid();
        s.create_object(a, ObjectKind::Memory).unwrap();
        s.write_pages(a, &[(0, page(7))]).unwrap();
        let c = s.commit_for(3).unwrap();
        s.barrier(c);
        let s = s.crash_and_recover().unwrap();
        assert_eq!(s.group_of_epoch(1), 3, "v4 records persist the committing group");
        assert_eq!(s.epochs_for(3), vec![1]);
    }

    #[test]
    fn device_errors_carry_the_staging_group() {
        let mut s = fresh();
        s.stage_for(5);
        let missing = Oid(999);
        // Force the cheap path: write to a full store would need a fault
        // plan, so check the builder directly through a real op instead.
        assert_eq!(s.write_pages(missing, &[(0, page(1))]), Err(StoreError::NoSuchObject(missing)));
        let err = StoreError::dev("write-page", Some(missing), 7, 5)(
            aurora_storage::device::DeviceError::Io { lba: 3, transient: true },
        );
        assert!(matches!(err, StoreError::Device { group: 5, epoch: 7, .. }));
        assert!(err.to_string().contains("group 5"), "{err}");
    }

    #[test]
    fn crash_reopen_starts_with_a_cold_cache() {
        let mut s = fresh();
        let oid = s.alloc_oid();
        s.create_object(oid, ObjectKind::Memory).unwrap();
        s.write_pages(oid, &[(0, page(9))]).unwrap();
        let c = s.commit().unwrap();
        s.barrier(c);
        assert!(s.cached_pages() > 0);
        let mut s = s.crash_and_recover().unwrap();
        assert_eq!(s.cached_pages(), 0, "RAM does not survive a crash");
        assert_eq!(s.read_page(oid, 0, 1).unwrap(), page(9));
    }

    /// A commit-record payload holding one page-less object entry, with
    /// a journal of `journal_blocks` claimed blocks (none encoded).
    fn one_object_record(oid: u64, journal_blocks: Option<u32>) -> Vec<u8> {
        let mut e = Encoder::new();
        e.u32(1); // objects
        e.u64(oid);
        e.u16(0); // kind
        e.u64(0); // size
        e.bool(false); // deleted
        e.bool(false); // has meta
        e.u32(0); // pages
        e.bool(journal_blocks.is_some());
        if let Some(n) = journal_blocks {
            e.u32(n);
        }
        e.finish()
    }

    #[test]
    fn commit_record_with_max_oid_is_corrupt() {
        let mut s = fresh();
        let rec = one_object_record(u64::MAX, None);
        assert_eq!(s.apply_record(1, &rec), Err(StoreError::Corrupt("commit record oid")));
    }

    #[test]
    fn commit_record_journal_count_cannot_force_a_huge_allocation() {
        let mut s = fresh();
        let rec = one_object_record(7, Some(u32::MAX));
        assert!(matches!(s.apply_record(1, &rec), Err(StoreError::Codec(_))));
    }
}
