//! Per-object serializers and deserializers: the POSIX object model's
//! record formats (§5.2).
//!
//! Each kernel object type has a *record*: a versioned, self-contained
//! encoding of its user-visible and kernel state, referencing other
//! objects by OID. Sharing is never inferred — it is preserved by the
//! references themselves: two fd slots pointing to one description encode
//! the same file OID; a description and an independent `open` of the same
//! file reference the same vnode OID through different file OIDs.
//!
//! Serializers charge the virtual clock with the lock acquisitions,
//! cache-missing pointer chases, and per-element scans the real kernel
//! pays (Table 4's calibration); deserializers charge allocation-side
//! costs.

use crate::error::SlsError;
use crate::oidmap::{tag, KObj, OidMap};
use aurora_objstore::Oid;
use aurora_posix::file::{FileKind, OpenFlags, PipeEnd, PtySide};
use aurora_posix::kqueue::{Filter, Kevent};
use aurora_posix::process::Regs;
use aurora_posix::socket::{Domain, SockType, TcpState};
use aurora_posix::vfs::VnodeKind;
use aurora_posix::{Kernel, Pid, Tid};
use aurora_sim::codec::{CodecError, Decoder, Encoder};
use aurora_vm::{Inherit, ObjKind, Prot};


/// A process record.
#[derive(Clone, Debug, PartialEq)]
pub struct ProcRecord {
    /// Application-visible pid.
    pub local_pid: u32,
    /// Parent's *local* pid, if the parent is in the group.
    pub parent_local: Option<u32>,
    /// Process group (local).
    pub pgid: u32,
    /// Session (local).
    pub sid: u32,
    /// Command name.
    pub name: String,
    /// Thread records, in creation order.
    pub threads: Vec<Oid>,
    /// Descriptor table: (fd number, file OID).
    pub fds: Vec<(u32, Oid)>,
    /// VM map entries.
    pub entries: Vec<EntryRecord>,
    /// The process had ephemeral (non-persistent) children at checkpoint
    /// time; a restore posts SIGCHLD so it can recreate them (§3).
    pub had_ephemeral_children: bool,
    /// In-flight asynchronous reads, recorded so the restore can reissue
    /// them (§5.3): (file OID, offset, length).
    pub aio_reads: Vec<(Oid, u64, u64)>,
}

/// One VM map entry in a process record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EntryRecord {
    /// Start address.
    pub start: u64,
    /// End address.
    pub end: u64,
    /// Protection bits.
    pub prot: u8,
    /// Inheritance (0 share, 1 copy, 2 none).
    pub inherit: u8,
    /// Offset into the object, pages.
    pub offset_pages: u64,
    /// Memory object OID (top of the entry's chain).
    pub mem: Oid,
    /// Excluded from checkpoints.
    pub sls_exclude: bool,
}

/// A thread record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ThreadRecord {
    /// Application-visible tid.
    pub local_tid: u32,
    /// Signal mask.
    pub sigmask: u64,
    /// Pending signals.
    pub sigpending: u64,
    /// Scheduling priority.
    pub priority: i8,
    /// CPU state.
    pub regs: Regs,
}

/// An open-file description record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FileRecord {
    /// What the description points at.
    pub target: FileTarget,
    /// Seek offset.
    pub offset: u64,
    /// read/write/append/nonblock bits.
    pub flags: u8,
    /// External synchrony disabled (`sls_fdctl`).
    pub extsync_disabled: bool,
}

/// Targets of a file record, by OID.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileTarget {
    /// Regular file/directory.
    Vnode(Oid),
    /// One pipe end.
    Pipe(Oid, bool /* read end */),
    /// Socket.
    Socket(Oid),
    /// Kqueue.
    Kqueue(Oid),
    /// Pty side.
    Pty(Oid, bool /* master */),
    /// POSIX shm object.
    ShmPosix(Oid),
    /// Whitelisted device.
    Device(u64),
}

impl FileTarget {
    /// The (kind, OID) this target references in the store, if any
    /// (whitelisted devices are pass-throughs, not persisted objects).
    pub fn kobj(self) -> Option<(crate::registry::KObjKind, Oid)> {
        use crate::registry::KObjKind as K;
        Some(match self {
            FileTarget::Vnode(o) => (K::Vnode, o),
            FileTarget::Pipe(o, _) => (K::Pipe, o),
            FileTarget::Socket(o) => (K::Socket, o),
            FileTarget::Kqueue(o) => (K::Kqueue, o),
            FileTarget::Pty(o, _) => (K::Pty, o),
            FileTarget::ShmPosix(o) => (K::ShmPosix, o),
            FileTarget::Device(_) => return None,
        })
    }
}

/// A vnode record. Regular-file content is stored as the same store
/// object's pages; this record holds metadata and directory entries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VnodeRecord {
    /// Inode number (the checkpoint references inodes, not paths, §5.2).
    pub ino: u64,
    /// Directory?
    pub is_dir: bool,
    /// Directory link count.
    pub nlink: u32,
    /// Hidden link count: open references that keep anonymous files alive
    /// across crashes (§5.2).
    pub open_refs: u32,
    /// File size in bytes.
    pub size: u64,
    /// Directory entries (name, child ino).
    pub dirents: Vec<(String, u64)>,
}

/// A pipe record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PipeRecord {
    /// Capacity in bytes.
    pub capacity: u64,
    /// Reader end open.
    pub reader_open: bool,
    /// Writer end open.
    pub writer_open: bool,
    /// Buffered bytes.
    pub buffer: Vec<u8>,
}

/// A socket record (§5.3): address/port/options/buffers for UDP and UNIX;
/// the 5-tuple, sequence numbers, and buffers for established TCP. The
/// accept queue of listening sockets is deliberately omitted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SocketRecord {
    /// Domain (0 unix, 1 inet).
    pub domain: u8,
    /// Type (0 stream, 1 dgram).
    pub stype: u8,
    /// nodelay, reuseaddr, keepalive.
    pub opts: (bool, bool, bool),
    /// Bound UNIX path.
    pub unix_path: Option<String>,
    /// Local (ip, port).
    pub local: (u32, u16),
    /// Remote (ip, port).
    pub remote: (u32, u16),
    /// 0 closed, 1 listen, 2 established.
    pub tcp_state: u8,
    /// Send sequence.
    pub snd_seq: u32,
    /// Receive sequence.
    pub rcv_seq: u32,
    /// Peer socket OID (same-host pairs).
    pub peer: Option<Oid>,
    /// Receive buffer: (payload, control-message file OIDs).
    pub recv_buf: Vec<(Vec<u8>, Vec<Oid>)>,
    /// Send buffer (externally-synchronized messages in flight).
    pub send_buf: Vec<(Vec<u8>, Vec<Oid>)>,
}

/// A kqueue record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KqueueRecord {
    /// Registered events: (ident, filter, enabled, udata).
    pub events: Vec<(u64, u8, bool, u64)>,
}

/// A pseudoterminal record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PtyRecord {
    /// pts number.
    pub pts: u64,
    /// canonical, echo.
    pub term: (bool, bool),
    /// Baud rate.
    pub baud: u32,
    /// Master→slave bytes.
    pub input: Vec<u8>,
    /// Slave→master bytes.
    pub output: Vec<u8>,
    /// Foreground process group (local).
    pub fg_pgid: Option<u32>,
}

/// A POSIX shm record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShmPosixRecord {
    /// `shm_open` name.
    pub name: String,
    /// Size in pages.
    pub pages: u64,
    /// Backing memory object OID.
    pub mem: Oid,
}

/// A SysV shm record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShmSysvRecord {
    /// IPC key.
    pub key: i64,
    /// Size in pages.
    pub pages: u64,
    /// Backing memory object OID.
    pub mem: Oid,
    /// Attach count.
    pub nattch: u32,
}

/// A memory (VM) object record: the hierarchy is persisted, not a flat
/// view (§6, "Checkpointing the VM").
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MemRecord {
    /// Size in pages.
    pub size_pages: u64,
    /// 0 anonymous, 1 vnode-backed, 2 device.
    pub kind: u8,
    /// Backing vnode OID for kind 1.
    pub vnode: Option<Oid>,
    /// Shadow backer (memory object OID).
    pub backer: Option<Oid>,
}

/// The group manifest: everything a restore needs to find the rest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ManifestRecord {
    /// Checkpoint period.
    pub period_ns: u64,
    /// External synchrony enabled.
    pub extsync: bool,
    /// Member processes: (proc OID, local pid, is_root).
    pub procs: Vec<(Oid, u32, bool)>,
    /// Every file-system vnode object in the image (the namespace is part
    /// of the single level store, §5.2).
    pub fs_vnodes: Vec<Oid>,
}

fn prot_bits(p: Prot) -> u8 {
    p.0
}

fn inherit_bits(i: Inherit) -> u8 {
    match i {
        Inherit::Share => 0,
        Inherit::Copy => 1,
        Inherit::None => 2,
    }
}

fn flags_bits(f: OpenFlags) -> u8 {
    (f.read as u8) | (f.write as u8) << 1 | (f.append as u8) << 2 | (f.nonblock as u8) << 3
}

/// Decodes open flags.
pub fn flags_from(b: u8) -> OpenFlags {
    OpenFlags { read: b & 1 != 0, write: b & 2 != 0, append: b & 4 != 0, nonblock: b & 8 != 0 }
}

fn filter_bits(f: Filter) -> u8 {
    match f {
        Filter::Read => 0,
        Filter::Write => 1,
        Filter::Timer => 2,
        Filter::Proc => 3,
    }
}

fn filter_from(b: u8) -> Result<Filter, SlsError> {
    Ok(match b {
        0 => Filter::Read,
        1 => Filter::Write,
        2 => Filter::Timer,
        3 => Filter::Proc,
        _ => return Err(SlsError::BadImage("kevent filter")),
    })
}

fn put_msgs(e: &mut Encoder, msgs: &[(Vec<u8>, Vec<Oid>)]) {
    e.u32(msgs.len() as u32);
    for (data, fds) in msgs {
        e.bytes(data);
        e.u32(fds.len() as u32);
        for f in fds {
            e.u64(f.0);
        }
    }
}

/// Decoded socket-buffer messages: (payload, in-flight descriptor OIDs).
type Msgs = Vec<(Vec<u8>, Vec<Oid>)>;

/// An empty vector for `n` decoded elements. Every element takes at
/// least one byte of `d`, so the preallocation is bounded by the bytes
/// that remain: a corrupt count can't size an allocation.
fn prealloc<T>(n: u32, d: &Decoder<'_>) -> Vec<T> {
    Vec::with_capacity((n as usize).min(d.remaining()))
}

fn get_msgs(d: &mut Decoder<'_>) -> Result<Msgs, SlsError> {
    let n = d.u32()?;
    let mut out = prealloc(n, d);
    for _ in 0..n {
        let data = d.bytes()?.to_vec();
        let nf = d.u32()?;
        let mut fds = prealloc(nf, d);
        for _ in 0..nf {
            fds.push(Oid(d.u64()?));
        }
        out.push((data, fds));
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Encoders (kernel → record bytes), with Table 4 cost charging.
// ---------------------------------------------------------------------

/// Serializes a process. `oids` must already contain mappings for its
/// threads, files, and memory objects.
///
/// In-flight asynchronous *reads* are recorded for reissue at restore;
/// in-flight writes were already folded into the checkpoint by the
/// quiesce path (§5.3).
pub fn encode_proc(k: &Kernel, pid: Pid, oids: &OidMap) -> Result<Vec<u8>, SlsError> {
    let p = k.proc(pid)?;
    // Proc lock, fd table lock, map lock; pointer chases across the
    // proc/fdtable/vmspace structures.
    k.charge.locks(3);
    k.charge.misses(12 + p.threads.len() as u64 + p.fdtable.len() as u64);
    let parent_local = p.ppid.and_then(|pp| k.proc(pp).ok()).map(|pp| pp.local_pid.0);
    let had_ephemeral_children = p
        .children
        .iter()
        .any(|&c| k.proc(c).map(|cp| cp.ephemeral && !cp.dead).unwrap_or(false));
    let aio_reads: Vec<(u64, u64, u64)> = k
        .aio
        .in_flight()
        .filter(|op| op.pid == pid.0 && op.kind == aurora_posix::aio::AioKind::Read)
        .map(|op| (oids.get(KObj::File(op.file.0)).expect("aio file mapped").0, op.offset, op.len))
        .collect();
    let mut e = Encoder::new();
    e.record(tag::PROC, 2, |e| {
        e.bool(had_ephemeral_children);
        e.u32(p.local_pid.0);
        match parent_local {
            Some(x) => {
                e.bool(true);
                e.u32(x);
            }
            None => e.bool(false),
        }
        e.u32(p.pgid.0);
        e.u32(p.sid.0);
        e.str(&p.name);
        e.u32(p.threads.len() as u32);
        for t in &p.threads {
            e.u64(oids.get(KObj::Thread(t.0)).expect("thread mapped").0);
        }
        let fds: Vec<(u32, Oid)> = p
            .fdtable
            .iter()
            .map(|(fd, fid)| (fd.0, oids.get(KObj::File(fid.0)).expect("file mapped")))
            .collect();
        e.u32(fds.len() as u32);
        for (fd, oid) in fds {
            e.u32(fd);
            e.u64(oid.0);
        }
        let entries = k.vm.entries(p.space).expect("space exists");
        e.u32(entries.len() as u32);
        for en in entries {
            let lineage = k.vm.object(en.object).expect("entry object").lineage;
            e.u64(en.start);
            e.u64(en.end);
            e.u8(prot_bits(en.prot));
            e.u8(inherit_bits(en.inherit));
            e.u64(en.offset_pages);
            e.u64(oids.get(KObj::Mem(lineage.0)).expect("mem mapped").0);
            e.bool(en.sls_exclude);
        }
        // v2: in-flight asynchronous reads.
        e.u32(aio_reads.len() as u32);
        for (oid, off, len) in &aio_reads {
            e.u64(*oid);
            e.u64(*off);
            e.u64(*len);
        }
    });
    let out = e.finish_vec();
    k.charge.encode(out.len() as u64);
    Ok(out)
}

/// Decodes a process record.
pub fn decode_proc(bytes: &[u8]) -> Result<ProcRecord, SlsError> {
    let mut d = Decoder::new(bytes);
    let (v, mut b) = d.record(tag::PROC, 2)?;
    if v != 2 {
        return Err(CodecError::BadVersion { tag: tag::PROC, supported: 2, found: v }.into());
    }
    let had_ephemeral_children = b.bool()?;
    let local_pid = b.u32()?;
    let parent_local = if b.bool()? { Some(b.u32()?) } else { None };
    let pgid = b.u32()?;
    let sid = b.u32()?;
    let name = b.str()?.to_string();
    let nt = b.u32()?;
    let mut threads = prealloc(nt, &b);
    for _ in 0..nt {
        threads.push(Oid(b.u64()?));
    }
    let nf = b.u32()?;
    let mut fds = prealloc(nf, &b);
    for _ in 0..nf {
        fds.push((b.u32()?, Oid(b.u64()?)));
    }
    let ne = b.u32()?;
    let mut entries = prealloc(ne, &b);
    for _ in 0..ne {
        entries.push(EntryRecord {
            start: b.u64()?,
            end: b.u64()?,
            prot: b.u8()?,
            inherit: b.u8()?,
            offset_pages: b.u64()?,
            mem: Oid(b.u64()?),
            sls_exclude: b.bool()?,
        });
    }
    let na = b.u32()?;
    let mut aio_reads = prealloc(na, &b);
    for _ in 0..na {
        aio_reads.push((Oid(b.u64()?), b.u64()?, b.u64()?));
    }
    Ok(ProcRecord {
        local_pid,
        parent_local,
        pgid,
        sid,
        name,
        threads,
        fds,
        entries,
        had_ephemeral_children,
        aio_reads,
    })
}

/// Serializes a thread: registers off the kernel stack, FPU state flushed
/// by IPI (§5.1).
pub fn encode_thread(k: &Kernel, tid: Tid) -> Result<Vec<u8>, SlsError> {
    let t = k.threads.get(&tid).ok_or(SlsError::BadImage("no such thread"))?;
    k.charge.locks(1);
    k.charge.misses(6);
    let mut e = Encoder::new();
    e.record(tag::THREAD, 1, |e| {
        e.u32(t.local_tid.0);
        e.u64(t.sigmask);
        e.u64(t.sigpending);
        e.u8(t.priority as u8);
        e.u64(t.regs.pc);
        e.u64(t.regs.sp);
        for r in t.regs.gp {
            e.u64(r);
        }
        for r in t.regs.fpu {
            e.u64(r);
        }
    });
    let out = e.finish_vec();
    k.charge.encode(out.len() as u64);
    Ok(out)
}

/// Decodes a thread record.
pub fn decode_thread(bytes: &[u8]) -> Result<ThreadRecord, SlsError> {
    let mut d = Decoder::new(bytes);
    let (_v, mut b) = d.record(tag::THREAD, 1)?;
    let local_tid = b.u32()?;
    let sigmask = b.u64()?;
    let sigpending = b.u64()?;
    let priority = b.u8()? as i8;
    let mut regs = Regs { pc: b.u64()?, sp: b.u64()?, ..Regs::default() };
    for r in regs.gp.iter_mut() {
        *r = b.u64()?;
    }
    for r in regs.fpu.iter_mut() {
        *r = b.u64()?;
    }
    Ok(ThreadRecord { local_tid, sigmask, sigpending, priority, regs })
}

/// Serializes an open-file description.
pub fn encode_file(k: &Kernel, fid: u64, oids: &OidMap) -> Result<Vec<u8>, SlsError> {
    let f = k.file(aurora_posix::FileId(fid))?;
    k.charge.locks(1);
    k.charge.misses(5);
    let (kind_byte, target_oid, aux) = match f.kind {
        FileKind::Vnode(v) => (0u8, oids.get(KObj::Vnode(v.0)).expect("vnode mapped").0, 0u8),
        FileKind::Pipe { pipe, end } => (
            1,
            oids.get(KObj::Pipe(pipe)).expect("pipe mapped").0,
            (end == PipeEnd::Read) as u8,
        ),
        FileKind::Socket(s) => (2, oids.get(KObj::Socket(s)).expect("socket mapped").0, 0),
        FileKind::Kqueue(q) => (3, oids.get(KObj::Kqueue(q)).expect("kqueue mapped").0, 0),
        FileKind::Pty { pty, side } => (
            4,
            oids.get(KObj::Pty(pty)).expect("pty mapped").0,
            (side == PtySide::Master) as u8,
        ),
        FileKind::ShmPosix(s) => (5, oids.get(KObj::ShmPosix(s)).expect("shm mapped").0, 0),
        FileKind::Device(d) => (6, d, 0),
    };
    let mut e = Encoder::new();
    e.record(tag::FILE, 1, |e| {
        e.u8(kind_byte);
        e.u64(target_oid);
        e.u8(aux);
        e.u64(f.offset);
        e.u8(flags_bits(f.flags));
        e.bool(f.extsync_disabled);
    });
    let out = e.finish_vec();
    k.charge.encode(out.len() as u64);
    Ok(out)
}

/// Decodes a file record.
pub fn decode_file(bytes: &[u8]) -> Result<FileRecord, SlsError> {
    let mut d = Decoder::new(bytes);
    let (_v, mut b) = d.record(tag::FILE, 1)?;
    let kind = b.u8()?;
    let oid = Oid(b.u64()?);
    let aux = b.u8()?;
    let target = match kind {
        0 => FileTarget::Vnode(oid),
        1 => FileTarget::Pipe(oid, aux != 0),
        2 => FileTarget::Socket(oid),
        3 => FileTarget::Kqueue(oid),
        4 => FileTarget::Pty(oid, aux != 0),
        5 => FileTarget::ShmPosix(oid),
        6 => FileTarget::Device(oid.0),
        _ => return Err(SlsError::BadImage("file kind")),
    };
    Ok(FileRecord {
        target,
        offset: b.u64()?,
        flags: b.u8()?,
        extsync_disabled: b.bool()?,
    })
}

/// Serializes a vnode: checkpointing references the inode number instead
/// of the file path, skipping the name cache and `namei` (§5.2).
pub fn encode_vnode(k: &Kernel, ino: u64) -> Result<Vec<u8>, SlsError> {
    let v = k.vfs.vnode(aurora_posix::VnodeId(ino))?;
    k.charge.locks(1);
    k.charge.misses(8);
    let mut e = Encoder::new();
    e.record(tag::VNODE, 1, |e| {
        e.u64(ino);
        match &v.kind {
            VnodeKind::Regular { data } => {
                e.bool(false);
                e.u32(v.nlink);
                e.u32(v.open_refs);
                e.u64(data.len() as u64);
                e.u32(0);
            }
            VnodeKind::Directory { entries } => {
                e.bool(true);
                e.u32(v.nlink);
                e.u32(v.open_refs);
                e.u64(0);
                e.u32(entries.len() as u32);
                for (name, child) in entries {
                    e.str(name);
                    e.u64(child.0);
                }
            }
        }
    });
    let out = e.finish_vec();
    k.charge.encode(out.len() as u64);
    Ok(out)
}

/// Decodes a vnode record.
pub fn decode_vnode(bytes: &[u8]) -> Result<VnodeRecord, SlsError> {
    let mut d = Decoder::new(bytes);
    let (_v, mut b) = d.record(tag::VNODE, 1)?;
    let ino = b.u64()?;
    let is_dir = b.bool()?;
    let nlink = b.u32()?;
    let open_refs = b.u32()?;
    let size = b.u64()?;
    let nd = b.u32()?;
    let mut dirents = prealloc(nd, &b);
    for _ in 0..nd {
        dirents.push((b.str()?.to_string(), b.u64()?));
    }
    Ok(VnodeRecord { ino, is_dir, nlink, open_refs, size, dirents })
}

/// Serializes a pipe.
pub fn encode_pipe(k: &Kernel, pipe: u64) -> Result<Vec<u8>, SlsError> {
    let p = k.pipes.get(&pipe).ok_or(SlsError::BadImage("no such pipe"))?;
    k.charge.locks(2);
    k.charge.misses(14);
    let buf: Vec<u8> = p.buffer.iter().copied().collect();
    let mut e = Encoder::new();
    e.record(tag::PIPE, 1, |e| {
        e.u64(p.capacity as u64);
        e.bool(p.reader_open);
        e.bool(p.writer_open);
        e.bytes(&buf);
    });
    let out = e.finish_vec();
    k.charge.encode(out.len() as u64);
    Ok(out)
}

/// Decodes a pipe record.
pub fn decode_pipe(bytes: &[u8]) -> Result<PipeRecord, SlsError> {
    let mut d = Decoder::new(bytes);
    let (_v, mut b) = d.record(tag::PIPE, 1)?;
    Ok(PipeRecord {
        capacity: b.u64()?,
        reader_open: b.bool()?,
        writer_open: b.bool()?,
        buffer: b.bytes()?.to_vec(),
    })
}

/// Serializes a socket, parsing its buffers for in-flight control
/// messages (§5.3). The accept queue is omitted: clients retransmit.
pub fn encode_socket(k: &Kernel, sock: u64, oids: &OidMap) -> Result<Vec<u8>, SlsError> {
    let s = k.sockets.get(&sock).ok_or(SlsError::BadImage("no such socket"))?;
    k.charge.locks(2);
    k.charge.misses(15 + (s.recv_buf.len() + s.send_buf.len()) as u64);
    let conv = |msgs: &std::collections::VecDeque<aurora_posix::socket::Message>| {
        msgs.iter()
            .map(|m| {
                (
                    m.data.clone(),
                    m.fds
                        .iter()
                        .map(|f| oids.get(KObj::File(f.0)).expect("in-flight fd mapped"))
                        .collect::<Vec<Oid>>(),
                )
            })
            .collect::<Vec<_>>()
    };
    let recv = conv(&s.recv_buf);
    let send = conv(&s.send_buf);
    // A peer outside the group is not persisted: the connection restores
    // unlinked and the remote end re-establishes it (§5.3).
    let peer = s.peer.and_then(|p| oids.get(KObj::Socket(p)));
    let mut e = Encoder::new();
    e.record(tag::SOCKET, 1, |e| {
        e.u8(match s.domain {
            Domain::Unix => 0,
            Domain::Inet => 1,
        });
        e.u8(match s.stype {
            SockType::Stream => 0,
            SockType::Dgram => 1,
        });
        e.bool(s.opts.nodelay);
        e.bool(s.opts.reuseaddr);
        e.bool(s.opts.keepalive);
        match &s.unix_path {
            Some(p) => {
                e.bool(true);
                e.str(p);
            }
            None => e.bool(false),
        }
        e.u32(s.inet.0.ip);
        e.u16(s.inet.0.port);
        e.u32(s.inet.1.ip);
        e.u16(s.inet.1.port);
        e.u8(match s.tcp_state {
            TcpState::Closed => 0,
            TcpState::Listen => 1,
            TcpState::Established => 2,
        });
        e.u32(s.snd_seq);
        e.u32(s.rcv_seq);
        e.opt_u64(peer.map(|p| p.0));
        put_msgs(e, &recv);
        put_msgs(e, &send);
    });
    let out = e.finish_vec();
    k.charge.encode(out.len() as u64);
    Ok(out)
}

/// Decodes a socket record.
pub fn decode_socket(bytes: &[u8]) -> Result<SocketRecord, SlsError> {
    let mut d = Decoder::new(bytes);
    let (_v, mut b) = d.record(tag::SOCKET, 1)?;
    Ok(SocketRecord {
        domain: b.u8()?,
        stype: b.u8()?,
        opts: (b.bool()?, b.bool()?, b.bool()?),
        unix_path: if b.bool()? { Some(b.str()?.to_string()) } else { None },
        local: (b.u32()?, b.u16()?),
        remote: (b.u32()?, b.u16()?),
        tcp_state: b.u8()?,
        snd_seq: b.u32()?,
        rcv_seq: b.u32()?,
        peer: b.opt_u64()?.map(Oid),
        recv_buf: get_msgs(&mut b)?,
        send_buf: get_msgs(&mut b)?,
    })
}

/// Serializes a kqueue: every knote is scanned and locked (the slow
/// checkpoint row of Table 4).
pub fn encode_kqueue(k: &Kernel, kq: u64) -> Result<Vec<u8>, SlsError> {
    let q = k.kqueues.get(&kq).ok_or(SlsError::BadImage("no such kqueue"))?;
    k.charge.locks(1);
    k.charge.misses(8);
    k.charge.raw(q.events.len() as u64 * k.charge.model().kevent_ns);
    let mut e = Encoder::new();
    e.record(tag::KQUEUE, 1, |e| {
        e.u32(q.events.len() as u32);
        for ev in &q.events {
            e.u64(ev.ident);
            e.u8(filter_bits(ev.filter));
            e.bool(ev.enabled);
            e.u64(ev.udata);
        }
    });
    let out = e.finish_vec();
    k.charge.encode(out.len() as u64);
    Ok(out)
}

/// Decodes a kqueue record.
pub fn decode_kqueue(bytes: &[u8]) -> Result<KqueueRecord, SlsError> {
    let mut d = Decoder::new(bytes);
    let (_v, mut b) = d.record(tag::KQUEUE, 1)?;
    let n = b.u32()?;
    let mut events = prealloc(n, &b);
    for _ in 0..n {
        events.push((b.u64()?, b.u8()?, b.bool()?, b.u64()?));
    }
    Ok(KqueueRecord { events })
}

/// Rebuilds kevents from a record.
pub fn kevents_from(rec: &KqueueRecord) -> Result<Vec<Kevent>, SlsError> {
    rec.events
        .iter()
        .map(|&(ident, f, enabled, udata)| {
            Ok(Kevent { ident, filter: filter_from(f)?, enabled, udata })
        })
        .collect()
}

/// Serializes a pseudoterminal.
pub fn encode_pty(k: &Kernel, pty: u64) -> Result<Vec<u8>, SlsError> {
    let p = k.ptys.get(&pty).ok_or(SlsError::BadImage("no such pty"))?;
    k.charge.locks(2);
    k.charge.misses(28); // termios + queues + tty structure chases
    let input: Vec<u8> = p.input.iter().copied().collect();
    let output: Vec<u8> = p.output.iter().copied().collect();
    let mut e = Encoder::new();
    e.record(tag::PTY, 1, |e| {
        e.u64(p.id);
        e.bool(p.termios.canonical);
        e.bool(p.termios.echo);
        e.u32(p.termios.baud);
        e.bytes(&input);
        e.bytes(&output);
        match p.fg_pgid {
            Some(x) => {
                e.bool(true);
                e.u32(x);
            }
            None => e.bool(false),
        }
    });
    let out = e.finish_vec();
    k.charge.encode(out.len() as u64);
    Ok(out)
}

/// Decodes a pty record.
pub fn decode_pty(bytes: &[u8]) -> Result<PtyRecord, SlsError> {
    let mut d = Decoder::new(bytes);
    let (_v, mut b) = d.record(tag::PTY, 1)?;
    Ok(PtyRecord {
        pts: b.u64()?,
        term: (b.bool()?, b.bool()?),
        baud: b.u32()?,
        input: b.bytes()?.to_vec(),
        output: b.bytes()?.to_vec(),
        fg_pgid: if b.bool()? { Some(b.u32()?) } else { None },
    })
}

/// Serializes a POSIX shm object (includes the time spent shadowing its
/// backing object — charged by the checkpoint pipeline — plus the
/// descriptor bookkeeping here).
pub fn encode_shm_posix(k: &Kernel, id: u64, oids: &OidMap) -> Result<Vec<u8>, SlsError> {
    let s = k.shm.posix.get(&id).ok_or(SlsError::BadImage("no such posix shm"))?;
    k.charge.locks(2);
    k.charge.misses(12);
    let lineage = k.vm.object(s.object)?.lineage;
    let mut e = Encoder::new();
    e.record(tag::SHM_POSIX, 1, |e| {
        e.str(&s.name);
        e.u64(s.pages);
        e.u64(oids.get(KObj::Mem(lineage.0)).expect("shm mem mapped").0);
    });
    let out = e.finish_vec();
    k.charge.encode(out.len() as u64);
    Ok(out)
}

/// Decodes a POSIX shm record.
pub fn decode_shm_posix(bytes: &[u8]) -> Result<ShmPosixRecord, SlsError> {
    let mut d = Decoder::new(bytes);
    let (_v, mut b) = d.record(tag::SHM_POSIX, 1)?;
    Ok(ShmPosixRecord {
        name: b.str()?.to_string(),
        pages: b.u64()?,
        mem: Oid(b.u64()?),
    })
}

/// Serializes a SysV shm segment. The global namespace scan is what makes
/// this ~10 µs slower than POSIX shm (Table 4).
pub fn encode_shm_sysv(k: &Kernel, id: u64, oids: &OidMap) -> Result<Vec<u8>, SlsError> {
    let s = k.shm.sysv.get(&id).ok_or(SlsError::BadImage("no such sysv shm"))?;
    k.charge.locks(2);
    k.charge.misses(12);
    k.charge.raw(k.shm.sysv.len() as u64 * k.charge.model().sysv_scan_entry_ns);
    let lineage = k.vm.object(s.object)?.lineage;
    let mut e = Encoder::new();
    e.record(tag::SHM_SYSV, 1, |e| {
        e.i64(s.key);
        e.u64(s.pages);
        e.u64(oids.get(KObj::Mem(lineage.0)).expect("shm mem mapped").0);
        e.u32(s.nattch);
    });
    let out = e.finish_vec();
    k.charge.encode(out.len() as u64);
    Ok(out)
}

/// Decodes a SysV shm record.
pub fn decode_shm_sysv(bytes: &[u8]) -> Result<ShmSysvRecord, SlsError> {
    let mut d = Decoder::new(bytes);
    let (_v, mut b) = d.record(tag::SHM_SYSV, 1)?;
    Ok(ShmSysvRecord {
        key: b.i64()?,
        pages: b.u64()?,
        mem: Oid(b.u64()?),
        nattch: b.u32()?,
    })
}

/// Serializes a memory object's metadata (pages are flushed separately).
pub fn encode_mem(
    k: &Kernel,
    obj: aurora_vm::ObjId,
    oids: &OidMap,
) -> Result<Vec<u8>, SlsError> {
    let o = k.vm.object(obj)?;
    k.charge.locks(1);
    k.charge.misses(4);
    let (kind, vnode) = match o.kind {
        ObjKind::Anonymous => (0u8, None),
        ObjKind::Vnode { vnode } => (1, oids.get(KObj::Vnode(vnode))),
        ObjKind::Device { .. } => (2, None),
    };
    let backer = o
        .backer
        .map(|b| {
            let l = k.vm.object(b).expect("backer exists").lineage;
            oids.get(KObj::Mem(l.0)).expect("backer mapped")
        })
        .map(|o| o.0);
    let mut e = Encoder::new();
    e.record(tag::MEM, 1, |e| {
        e.u64(o.size_pages);
        e.u8(kind);
        e.opt_u64(vnode.map(|v| v.0));
        e.opt_u64(backer);
    });
    let out = e.finish_vec();
    k.charge.encode(out.len() as u64);
    Ok(out)
}

/// Decodes a memory object record.
pub fn decode_mem(bytes: &[u8]) -> Result<MemRecord, SlsError> {
    let mut d = Decoder::new(bytes);
    let (_v, mut b) = d.record(tag::MEM, 1)?;
    Ok(MemRecord {
        size_pages: b.u64()?,
        kind: b.u8()?,
        vnode: b.opt_u64()?.map(Oid),
        backer: b.opt_u64()?.map(Oid),
    })
}

/// Serializes the group manifest.
pub fn encode_manifest(m: &ManifestRecord) -> Vec<u8> {
    let mut e = Encoder::new();
    e.record(tag::MANIFEST, 1, |e| {
        e.u64(m.period_ns);
        e.bool(m.extsync);
        e.u32(m.procs.len() as u32);
        for (oid, local, root) in &m.procs {
            e.u64(oid.0);
            e.u32(*local);
            e.bool(*root);
        }
        e.u32(m.fs_vnodes.len() as u32);
        for v in &m.fs_vnodes {
            e.u64(v.0);
        }
    });
    e.finish_vec()
}

/// Decodes the group manifest.
pub fn decode_manifest(bytes: &[u8]) -> Result<ManifestRecord, SlsError> {
    let mut d = Decoder::new(bytes);
    let (_v, mut b) = d.record(tag::MANIFEST, 1)?;
    let period_ns = b.u64()?;
    let extsync = b.bool()?;
    let n = b.u32()?;
    let mut procs = prealloc(n, &b);
    for _ in 0..n {
        procs.push((Oid(b.u64()?), b.u32()?, b.bool()?));
    }
    let nv = b.u32()?;
    let mut fs_vnodes = prealloc(nv, &b);
    for _ in 0..nv {
        fs_vnodes.push(Oid(b.u64()?));
    }
    Ok(ManifestRecord { period_ns, extsync, procs, fs_vnodes })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_roundtrip() {
        let m = ManifestRecord {
            period_ns: 10_000_000,
            extsync: true,
            procs: vec![(Oid(5), 100, true), (Oid(9), 101, false)],
            fs_vnodes: vec![Oid(11)],
        };
        assert_eq!(decode_manifest(&encode_manifest(&m)).unwrap(), m);
    }

    /// A PROC record with empty thread, fd and map lists whose count at
    /// position `lie` (0 threads, 1 fds, 2 entries, 3 aio reads) claims
    /// `u32::MAX` elements instead.
    fn proc_record(version: u16, lie: Option<usize>) -> Vec<u8> {
        let mut e = Encoder::new();
        e.record(tag::PROC, version, |e| {
            e.bool(false);
            e.u32(7);
            e.bool(false);
            e.u32(7);
            e.u32(7);
            e.str("x");
            for list in 0..4 {
                e.u32(if lie == Some(list) { u32::MAX } else { 0 });
            }
        });
        e.finish_vec()
    }

    #[test]
    fn corrupt_proc_counts_are_errors_not_allocations() {
        assert_eq!(decode_proc(&proc_record(2, None)).unwrap().local_pid, 7);
        for lie in 0..4 {
            let err = decode_proc(&proc_record(2, Some(lie))).unwrap_err();
            assert!(matches!(err, SlsError::Codec(CodecError::Truncated { .. })), "{lie}: {err}");
        }
    }

    #[test]
    fn proc_versions_other_than_2_are_rejected() {
        for v in [0, 1, 3] {
            let err = decode_proc(&proc_record(v, None)).unwrap_err();
            assert!(
                matches!(err, SlsError::Codec(CodecError::BadVersion { found, .. }) if found == v),
                "v{v}: {err}"
            );
        }
    }

    #[test]
    fn corrupt_manifest_counts_are_errors_not_allocations() {
        for lie in 0..2 {
            let mut e = Encoder::new();
            e.record(tag::MANIFEST, 1, |e| {
                e.u64(10_000_000);
                e.bool(true);
                e.u32(if lie == 0 { u32::MAX } else { 0 });
                e.u32(if lie == 1 { u32::MAX } else { 0 });
            });
            let err = decode_manifest(&e.finish_vec()).unwrap_err();
            assert!(matches!(err, SlsError::Codec(CodecError::Truncated { .. })), "{lie}: {err}");
        }
    }

    #[test]
    fn flags_roundtrip() {
        for bits in 0..16u8 {
            assert_eq!(flags_bits(flags_from(bits)), bits);
        }
    }

    #[test]
    fn kqueue_record_roundtrip() {
        let rec = KqueueRecord { events: vec![(1, 0, true, 7), (2, 2, false, 9)] };
        let mut e = Encoder::new();
        e.record(tag::KQUEUE, 1, |e| {
            e.u32(rec.events.len() as u32);
            for ev in &rec.events {
                e.u64(ev.0);
                e.u8(ev.1);
                e.bool(ev.2);
                e.u64(ev.3);
            }
        });
        assert_eq!(decode_kqueue(&e.finish_vec()).unwrap(), rec);
        assert_eq!(kevents_from(&rec).unwrap().len(), 2);
    }
}
