//! The per-object serializer registry (§5.2).
//!
//! Every [`KObj`] kind has exactly one [`Serializer`]: a trait object
//! bundling the hooks the checkpoint/restore machinery needs — discovery
//! (`collect`), OID assignment (`assign_oid`), record serialization
//! (`encode`), bulk-data flushing (`flush`), and rebuilding the kernel
//! object (`restore` / `post_restore`). The POSIX and VM subsystems
//! register their serializers into a [`SerializerRegistry`];
//! `checkpoint_now`, `restore_image`, `sls send`/`recv`, the coredump
//! exporter, and the CRIU baseline all dispatch through it instead of
//! hard-coding per-type loops.
//!
//! Adding a new POSIX object type means writing one `Serializer` impl
//! and registering it — no checkpoint or restore code changes.

use crate::checkpoint::Reach;
use crate::error::SlsError;
use crate::oidmap::{KObj, OidMap};
use crate::restore::RestoreMode;
use crate::{LineageBinding, Sls};
use aurora_objstore::{ObjectStore, Oid};
use aurora_posix::ids::PidNamespace;
use aurora_posix::{Kernel, Pid, VnodeId};
use std::collections::HashMap;

/// The kinds of kernel objects the single level store persists, in
/// serialization order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum KObjKind {
    /// Process.
    Proc,
    /// Thread.
    Thread,
    /// Open-file description.
    File,
    /// Vnode.
    Vnode,
    /// Pipe.
    Pipe,
    /// Socket.
    Socket,
    /// Kqueue.
    Kqueue,
    /// Pseudoterminal pair.
    Pty,
    /// POSIX shared memory object.
    ShmPosix,
    /// SysV shared memory segment.
    ShmSysv,
    /// Memory (VM) object, keyed by lineage.
    Mem,
}

impl KObjKind {
    /// Builds the [`OidMap`] key for a kernel id of this kind. For `Mem`
    /// the id must already be a *lineage* (see [`Serializer::key_of`]).
    pub fn key(self, id: u64) -> KObj {
        match self {
            KObjKind::Proc => KObj::Proc(id as u32),
            KObjKind::Thread => KObj::Thread(id as u32),
            KObjKind::File => KObj::File(id),
            KObjKind::Vnode => KObj::Vnode(id),
            KObjKind::Pipe => KObj::Pipe(id),
            KObjKind::Socket => KObj::Socket(id),
            KObjKind::Kqueue => KObj::Kqueue(id),
            KObjKind::Pty => KObj::Pty(id),
            KObjKind::ShmPosix => KObj::ShmPosix(id),
            KObjKind::ShmSysv => KObj::ShmSysv(id),
            KObjKind::Mem => KObj::Mem(id),
        }
    }
}

/// State handed to [`Serializer::assign_oid`].
pub struct AssignCtx<'a> {
    /// The kernel being checkpointed.
    pub kernel: &'a Kernel,
    /// The object store (for OID allocation).
    pub store: &'a mut ObjectStore,
    /// The group's kernel-object → OID mapping.
    pub oids: &'a mut OidMap,
    /// The pager's lineage → binding map.
    pub lineages: &'a mut HashMap<u64, LineageBinding>,
}

/// State handed to [`Serializer::flush`] during the pipeline's Flush
/// stage (after the application has resumed).
pub struct FlushCtx<'a> {
    /// The kernel (mutable: flushing marks pages clean).
    pub kernel: &'a mut Kernel,
    /// The object store.
    pub store: &'a mut ObjectStore,
    /// The group's OID mapping (read-only; assignment already happened).
    pub oids: &'a OidMap,
    /// The reachability scan this checkpoint serialized.
    pub reach: &'a Reach,
    /// Content fingerprints of flushed vnodes (flush only what changed).
    pub vnode_hash: &'a mut HashMap<VnodeId, u64>,
    /// Running count of pages flushed (updated by hooks).
    pub pages_flushed: u64,
    /// Running count of data bytes flushed (updated by hooks).
    pub bytes_flushed: u64,
    /// Every (object, page) a hook marked clean. The pipeline keeps this
    /// across retries so an aborted checkpoint can re-dirty the pages —
    /// their "durable" copies die with the rolled-back epoch.
    pub cleaned: Vec<(aurora_vm::ObjId, u64)>,
    /// Delta-checkpoint policy: `None` flushes full page images; `Some`
    /// emits sub-page redo records with the contained payload cap (the
    /// pipeline's `REDO_DELTA_MAX`, 2 KiB).
    pub redo_delta_max: Option<usize>,
    /// Lineage bindings at flush time: a restored branch's floor/resume
    /// pin its redo chains to branch-visible versions.
    pub lineages: HashMap<u64, crate::LineageBinding>,
    /// Redo records appended by this flush (delta path only).
    pub redo_records: u64,
}

/// Transient state while rebuilding one image: restored kernel ids per
/// (kind, OID), plus the cross-cutting restore bookkeeping.
#[derive(Default)]
pub struct Rebuild {
    ids: HashMap<KObjKind, HashMap<Oid, u64>>,
    /// Pages read from the store during the restore.
    pub pages_read: u64,
    /// The pid namespace under construction (local → global).
    pub(crate) pid_ns: PidNamespace,
    /// The kernel namespace id the restored processes live in.
    pub(crate) kernel_ns: u32,
    /// New global pids, manifest order (roots first).
    pub(crate) new_pids: Vec<Pid>,
}

impl Rebuild {
    /// The restored kernel id for `oid`, if it was restored.
    pub fn get(&self, kind: KObjKind, oid: Oid) -> Option<u64> {
        self.ids.get(&kind)?.get(&oid).copied()
    }

    /// Like [`get`](Rebuild::get), but a missing entry is a corrupt
    /// image.
    pub fn require(&self, kind: KObjKind, oid: Oid) -> Result<u64, SlsError> {
        self.get(kind, oid).ok_or(SlsError::BadImage("dangling object reference"))
    }

    /// Records that `oid` was restored as kernel id `id`.
    pub fn insert(&mut self, kind: KObjKind, oid: Oid, id: u64) {
        self.ids.entry(kind).or_default().insert(oid, id);
    }

    /// Every restored (kind, oid, kernel id) triple.
    pub fn entries(&self) -> Vec<(KObjKind, Oid, u64)> {
        let mut out: Vec<(KObjKind, Oid, u64)> = self
            .ids
            .iter()
            .flat_map(|(&k, m)| m.iter().map(move |(&o, &i)| (k, o, i)))
            .collect();
        out.sort();
        out
    }
}

/// One kind's serialization strategy. Registered by the POSIX and VM
/// subsystems (see [`crate::serializers`]); dispatched by the pipeline.
pub trait Serializer {
    /// The kind this serializer handles.
    fn kind(&self) -> KObjKind;

    /// Kernel ids of this kind found by the shared reachability walk, in
    /// serialization order.
    fn collect(&self, k: &Kernel, reach: &Reach) -> Result<Vec<u64>, SlsError>;

    /// The [`OidMap`] key for kernel id `id`. Most kinds key by the id
    /// itself; memory objects key by their lineage so a shadow chain
    /// reuses its object across checkpoints.
    fn key_of(&self, k: &Kernel, id: u64) -> Result<KObj, SlsError> {
        let _ = k;
        Ok(self.kind().key(id))
    }

    /// Ensures `id` has an OID, creating the store object on first
    /// sight. Overridden by kinds with assignment side effects (memory
    /// objects publish their lineage binding to the pager).
    fn assign_oid(&self, ctx: &mut AssignCtx<'_>, id: u64) -> Result<Oid, SlsError> {
        let key = self.key_of(ctx.kernel, id)?;
        Ok(ctx.oids.get_or_create(ctx.store, key)?)
    }

    /// Serializes object `id` into record bytes, charging the kernel
    /// the real serialization costs (Table 4).
    fn encode(&self, k: &Kernel, id: u64, oids: &OidMap) -> Result<Vec<u8>, SlsError>;

    /// Flushes this kind's bulk data (pages, file contents) during the
    /// concurrent Flush stage. Default: records only, nothing extra.
    fn flush(&self, ctx: &mut FlushCtx<'_>) -> Result<(), SlsError> {
        let _ = ctx;
        Ok(())
    }

    /// Rebuilds the object stored at `oid` into the kernel, recording
    /// the new kernel id in `rb`. Must be idempotent (return early when
    /// `rb` already has the oid) — restores recurse through references.
    fn restore(
        &self,
        sls: &mut Sls,
        reg: &SerializerRegistry,
        oid: Oid,
        epoch: u64,
        mode: RestoreMode,
        rb: &mut Rebuild,
    ) -> Result<(), SlsError>;

    /// Second restore pass, run after every discovered object exists —
    /// for cross-object links that need the full population (in-flight
    /// descriptors inside socket buffers).
    fn post_restore(
        &self,
        sls: &mut Sls,
        reg: &SerializerRegistry,
        oid: Oid,
        epoch: u64,
        mode: RestoreMode,
        rb: &mut Rebuild,
    ) -> Result<(), SlsError> {
        let _ = (sls, reg, oid, epoch, mode, rb);
        Ok(())
    }

    /// The OidMap rebind id for restored kernel id `id` (identity for
    /// most kinds; memory objects rebind by lineage).
    fn rebind_key(&self, sls: &Sls, id: u64) -> Result<u64, SlsError> {
        let _ = sls;
        Ok(id)
    }
}

/// The registry: one serializer per kind, in registration order (which
/// is the serialization order).
#[derive(Default)]
pub struct SerializerRegistry {
    order: Vec<Box<dyn Serializer + Send + Sync>>,
    by_kind: HashMap<KObjKind, usize>,
}

impl SerializerRegistry {
    /// Registers a serializer. Panics on a duplicate kind — that is a
    /// wiring bug, not a runtime condition.
    pub fn register(&mut self, s: Box<dyn Serializer + Send + Sync>) {
        let kind = s.kind();
        assert!(
            self.by_kind.insert(kind, self.order.len()).is_none(),
            "duplicate serializer for {kind:?}"
        );
        self.order.push(s);
    }

    /// The serializer for `kind`.
    pub fn get(&self, kind: KObjKind) -> Result<&dyn Serializer, SlsError> {
        self.by_kind
            .get(&kind)
            .map(|&i| &*self.order[i])
            .map(|s| s as &dyn Serializer)
            .ok_or(SlsError::BadImage("no serializer registered for kind"))
    }

    /// All serializers, registration (= serialization) order.
    pub fn iter(&self) -> impl Iterator<Item = &dyn Serializer> {
        self.order.iter().map(|b| &**b as &dyn Serializer)
    }

    /// Number of registered serializers.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Dispatches a restore of the object at `oid` by kind.
    pub fn restore_one(
        &self,
        kind: KObjKind,
        sls: &mut Sls,
        oid: Oid,
        epoch: u64,
        mode: RestoreMode,
        rb: &mut Rebuild,
    ) -> Result<(), SlsError> {
        self.get(kind)?.restore(sls, self, oid, epoch, mode, rb)
    }

    /// Runs every serializer's `post_restore` over all restored objects
    /// to a fixpoint (a post hook may restore further objects — e.g. a
    /// descriptor in flight inside a socket buffer — which then need
    /// their own post pass).
    pub fn post_restore_all(
        &self,
        sls: &mut Sls,
        epoch: u64,
        mode: RestoreMode,
        rb: &mut Rebuild,
    ) -> Result<(), SlsError> {
        let mut done: std::collections::HashSet<(KObjKind, Oid)> = Default::default();
        loop {
            let pending: Vec<(KObjKind, Oid)> = rb
                .entries()
                .into_iter()
                .map(|(k, o, _)| (k, o))
                .filter(|p| !done.contains(p))
                .collect();
            if pending.is_empty() {
                return Ok(());
            }
            for (kind, oid) in pending {
                done.insert((kind, oid));
                self.get(kind)?.post_restore(sls, self, oid, epoch, mode, rb)?;
            }
        }
    }
}

/// The registry every [`Sls`] instance starts with: the POSIX
/// subsystem's ten object kinds plus the VM subsystem's memory objects.
pub fn default_registry() -> SerializerRegistry {
    let mut r = SerializerRegistry::default();
    crate::serializers::posix::register(&mut r);
    crate::serializers::vm::register(&mut r);
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_registry_covers_every_kind_in_order() {
        let r = default_registry();
        let kinds: Vec<KObjKind> = r.iter().map(|s| s.kind()).collect();
        assert_eq!(
            kinds,
            vec![
                KObjKind::Proc,
                KObjKind::Thread,
                KObjKind::File,
                KObjKind::Vnode,
                KObjKind::Pipe,
                KObjKind::Socket,
                KObjKind::Kqueue,
                KObjKind::Pty,
                KObjKind::ShmPosix,
                KObjKind::ShmSysv,
                KObjKind::Mem,
            ]
        );
        for k in kinds {
            assert!(r.get(k).is_ok());
        }
    }

    #[test]
    #[should_panic(expected = "duplicate serializer")]
    fn duplicate_registration_panics() {
        let mut r = SerializerRegistry::default();
        crate::serializers::posix::register(&mut r);
        crate::serializers::posix::register(&mut r);
    }
}
