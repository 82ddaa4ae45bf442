//! Stream-mutation suite for `sls send` / `sls recv`: a send/recv stream
//! crosses a trust boundary, so every corrupted copy of one must either
//! be rejected with a structured `SlsError` — leaving no open draft
//! behind — or import an image byte-identical to the source. No mutant
//! may panic or abort the receiver.
//!
//! Mutants, over one full stream and one delta stream: every single-bit
//! flip in the header and the first object body, seeded flips elsewhere,
//! truncation at every record boundary, random overwrites, and edits of
//! every length field, each both with the stale trailing checksum and
//! with a re-sealed one (so the parser's own bounds checks, not just the
//! checksum, are exercised).

use aurora_core::world::World;
use aurora_core::{SlsError, SlsOptions};
use aurora_objstore::{ObjectKind, ObjectStore, Oid};
use aurora_sim::codec::CodecError;
use aurora_sim::{fnv1a, Decoder, DetRng, Encoder, Rng};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One object as the store exposes it at an epoch: kind, metadata, and
/// every page's bytes.
type Image = Vec<(Oid, ObjectKind, Option<Vec<u8>>, Vec<(u64, Vec<u8>)>)>;

fn image(store: &mut ObjectStore, epoch: u64) -> Image {
    let mut out = Vec::new();
    for oid in store.objects_at(epoch).unwrap() {
        let mut pages = Vec::new();
        for pi in store.pages_at(oid, epoch).unwrap() {
            pages.push((pi, store.read_page(oid, pi, epoch).unwrap().bytes().to_vec()));
        }
        let meta = store.meta_at(oid, epoch).ok().map(<[u8]>::to_vec);
        out.push((oid, store.kind(oid).unwrap(), meta, pages));
    }
    out
}

/// A counter app with a patterned region, checkpointed twice: the full
/// stream of the first checkpoint and the delta to the second. The
/// region's delta only reproduces its page on top of the patterned base.
struct Source {
    full: Vec<u8>,
    delta: Vec<u8>,
    full_image: Image,
    delta_image: Image,
}

fn source() -> Source {
    let mut w = World::with_store_bytes(1 << 28);
    let pid = w.spawn_counter_app();
    let region = w.dirty_region(pid, 4).unwrap();
    w.sls.kernel.mem_write(pid, region, &[0xa5; 4 * 4096]).unwrap();
    let gid = w.sls.attach(pid, SlsOptions::default()).unwrap();
    let cp1 = w.sls.checkpoint_now(gid).unwrap();
    for _ in 0..3 {
        w.bump_counter(pid).unwrap();
    }
    w.sls.kernel.mem_write(pid, region + 100, b"delta").unwrap();
    let cp2 = w.sls.checkpoint_now(gid).unwrap();
    let full = w.sls.send_delta(0, cp1.epoch).unwrap();
    let delta = w.sls.send_delta(cp1.epoch, cp2.epoch).unwrap();
    let mut store = w.sls.store().lock();
    Source {
        full,
        delta,
        full_image: image(&mut store, cp1.epoch),
        delta_image: image(&mut store, cp2.epoch),
    }
}

/// Where a stream's framing lives.
struct Layout {
    /// End of the first object body: the exhaustive bit-flip range.
    first_body_end: usize,
    /// Cut points for truncation: header, object and redo-record starts.
    boundaries: Vec<usize>,
    /// Offsets of every u32 length or count field.
    lengths: Vec<(&'static str, usize)>,
}

fn layout(stream: &[u8]) -> Layout {
    let signed = &stream[..stream.len() - 8];
    let at = |d: &Decoder| signed.len() - d.remaining();
    let mut d = Decoder::new(signed);
    let (_, mut hdr) = d.record(0x5354, u16::MAX).unwrap();
    hdr.u64().unwrap();
    let count = hdr.u32().unwrap();
    let mut l = Layout {
        first_body_end: 0,
        boundaries: vec![0, at(&d)],
        lengths: vec![("record len", 4), ("object count", 16)],
    };
    for _ in 0..count {
        l.lengths.push(("body len", at(&d)));
        let len = d.u32().unwrap() as usize;
        let start = at(&d);
        let mut b = Decoder::new(d.raw(len).unwrap());
        let off = |b: &Decoder| start + len - b.remaining();
        b.u64().unwrap();
        b.u16().unwrap();
        l.lengths.push(("meta len", off(&b)));
        b.bytes().unwrap();
        l.lengths.push(("npages", off(&b)));
        for _ in 0..b.u32().unwrap() {
            b.u64().unwrap();
            l.lengths.push(("nrecs", off(&b)));
            for _ in 0..b.u32().unwrap() {
                l.boundaries.push(off(&b));
                b.bool().unwrap();
                b.u32().unwrap();
                l.lengths.push(("payload len", off(&b)));
                b.bytes().unwrap();
                b.u64().unwrap();
            }
        }
        l.boundaries.push(at(&d));
        if l.first_body_end == 0 {
            l.first_body_end = at(&d);
        }
    }
    l
}

/// Recomputes the trailing whole-stream checksum.
fn reseal(stream: &mut [u8]) {
    let n = stream.len() - 8;
    let csum = fnv1a(&stream[..n]);
    stream[n..].copy_from_slice(&csum.to_le_bytes());
}

#[derive(Debug, Default)]
struct Tally {
    mutants: u64,
    rejected: u64,
    identical: u64,
    differing: Vec<String>,
    panicked: Vec<String>,
    left_draft: Vec<String>,
    /// Re-sealed mutants turned away by the checksum: the parser's
    /// bounds were never reached.
    resealed_hit_checksum: Vec<String>,
}

/// Feeds mutants to a receiver, rebuilding it whenever one imports (or
/// panics) so every mutant sees the same receiver state.
struct Harness<'a> {
    /// Stream the receiver imports first (the delta's base), if any.
    base: Option<&'a [u8]>,
    expect: &'a Image,
    rx: Option<World>,
    tally: Tally,
}

impl Harness<'_> {
    fn run(&mut self, what: String, stream: &[u8], resealed: bool) {
        let rx = self.rx.get_or_insert_with(|| {
            let mut w = World::with_store_bytes(1 << 28);
            if let Some(base) = self.base {
                w.sls.recv_stream(base).unwrap();
            }
            w
        });
        let last = rx.sls.store().lock().last_epoch();
        self.tally.mutants += 1;
        match catch_unwind(AssertUnwindSafe(|| rx.sls.recv_stream(stream))) {
            Err(_) => {
                self.tally.panicked.push(what);
                self.rx = None;
            }
            Ok(Err(e)) => {
                self.tally.rejected += 1;
                let store = rx.sls.store().lock();
                if store.open_drafts() != 0 || store.last_epoch() != last {
                    self.tally.left_draft.push(format!("{what}: {e:?}"));
                }
                if resealed && matches!(e, SlsError::BadImage("stream checksum")) {
                    self.tally.resealed_hit_checksum.push(what);
                }
            }
            Ok(Ok(_)) => {
                let mut store = rx.sls.store().lock();
                let last = store.last_epoch().unwrap();
                let got = image(&mut store, last);
                if &got == self.expect {
                    self.tally.identical += 1;
                } else {
                    self.tally.differing.push(what);
                }
                drop(store);
                self.rx = None;
            }
        }
    }
}

fn mutate(stream: &[u8], base: Option<&[u8]>, expect: &Image) -> Tally {
    let l = layout(stream);
    let mut h = Harness { base, expect, rx: None, tally: Tally::default() };
    // Control: the unmutated stream imports the source image.
    h.run("unmutated".into(), stream, false);
    assert_eq!(h.tally.identical, 1, "unmutated stream: {:?}", h.tally);
    h.tally = Tally::default();
    let mut rng = DetRng::seed_from_u64(0x5354_0003);
    let flip = |bit: usize| {
        let mut m = stream.to_vec();
        m[bit / 8] ^= 1 << (bit % 8);
        m
    };
    // Every single-bit flip in the header and the first object body.
    for bit in 0..l.first_body_end * 8 {
        h.run(format!("flip bit {bit}"), &flip(bit), false);
    }
    // Seeded flips elsewhere, the trailing checksum included.
    let rest = (l.first_body_end * 8) as u64..(stream.len() * 8) as u64;
    for _ in 0..512 {
        let bit = rng.gen_range(rest.clone()) as usize;
        h.run(format!("flip bit {bit}"), &flip(bit), false);
    }
    // Truncation at every record boundary, and inside the checksum.
    let n = stream.len();
    for &cut in l.boundaries.iter().chain(&[n - 8, n - 1]) {
        h.run(format!("truncate at {cut}"), &stream[..cut], false);
    }
    // Random overwrites.
    for _ in 0..256 {
        let at = rng.gen_range(0..n as u64) as usize;
        let len = (rng.gen_range(1..17) as usize).min(n - at);
        let mut m = stream.to_vec();
        for b in &mut m[at..at + len] {
            *b = rng.next_u64() as u8;
        }
        h.run(format!("overwrite {len} B at {at}"), &m, false);
    }
    // Length-field edits, with the stale and with a re-sealed checksum.
    for &(field, at) in &l.lengths {
        let v = u32::from_le_bytes(stream[at..at + 4].try_into().unwrap());
        for new in [v.wrapping_add(1), v.wrapping_sub(1), 0, u32::MAX, v.wrapping_add(4096)] {
            if new == v {
                continue;
            }
            let mut m = stream.to_vec();
            m[at..at + 4].copy_from_slice(&new.to_le_bytes());
            h.run(format!("{field} at {at}: {v} -> {new}"), &m, false);
            reseal(&mut m);
            h.run(format!("{field} at {at}: {v} -> {new}, re-sealed"), &m, true);
        }
    }
    h.tally
}

fn assert_clean(name: &str, t: &Tally) {
    eprintln!(
        "{name}: {} mutants, {} rejected, {} imported identical, {} imported differing, \
         {} panicked, {} left a draft",
        t.mutants,
        t.rejected,
        t.identical,
        t.differing.len(),
        t.panicked.len(),
        t.left_draft.len()
    );
    assert!(t.differing.is_empty(), "{name}: imported a differing image: {:?}", t.differing);
    assert!(t.panicked.is_empty(), "{name}: receiver panicked: {:?}", t.panicked);
    assert!(t.left_draft.is_empty(), "{name}: rejection left state: {:?}", t.left_draft);
    assert!(
        t.resealed_hit_checksum.is_empty(),
        "{name}: re-sealed mutants must pass the checksum: {:?}",
        t.resealed_hit_checksum
    );
    assert!(t.rejected > 1000, "{name}: the suite generated its mutants");
}

#[test]
fn full_stream_mutants_are_rejected_or_exact() {
    let src = source();
    assert_clean("full stream", &mutate(&src.full, None, &src.full_image));
}

#[test]
fn delta_stream_mutants_are_rejected_or_exact() {
    let src = source();
    assert_clean("delta stream", &mutate(&src.delta, Some(&src.full), &src.delta_image));
}

/// Receivers read the current stream version only: older and newer
/// ones are a structured version error, not a best-effort parse.
#[test]
fn other_stream_versions_are_rejected() {
    let src = source();
    let current = u16::from_le_bytes([src.full[2], src.full[3]]);
    for version in [1, current - 1, current + 1] {
        let mut m = src.full.clone();
        m[2..4].copy_from_slice(&version.to_le_bytes());
        reseal(&mut m);
        let mut dst = World::with_store_bytes(1 << 28);
        let err = dst.sls.recv_stream(&m).unwrap_err();
        assert!(
            matches!(err, SlsError::Codec(CodecError::BadVersion { found, .. }) if found == version),
            "version {version}: {err:?}"
        );
    }
}

/// A receiver that lacks a delta's base rejects it — and the rejection
/// stages nothing, so the next commit carries nothing of the stream.
#[test]
fn rejected_delta_stages_nothing() {
    let src = source();
    let mut dst = World::with_store_bytes(1 << 28);
    let store = dst.sls.store().clone();
    assert_eq!(store.lock().open_drafts(), 0);
    let err = dst.sls.recv_stream(&src.delta).unwrap_err();
    assert!(matches!(err, SlsError::BadImage("delta stream page checksum")), "{err:?}");
    assert_eq!(store.lock().open_drafts(), 0, "the rejected stream left a draft open");
    let mut s = store.lock();
    let info = s.commit_for(0).unwrap();
    s.barrier(info);
    assert!(s.objects_at(info.epoch).unwrap().is_empty(), "the next commit carried the stream");
}

/// A stream with the sender's own header and one crafted object body
/// `[oid, kind, empty meta, npages, ...rest]`, under a valid checksum.
fn crafted(oid: u64, npages: u32, rest: impl FnOnce(&mut Encoder)) -> Vec<u8> {
    let src = source();
    let mut d = Decoder::new(&src.full);
    let (version, mut hdr) = d.record(0x5354, u16::MAX).unwrap();
    let epoch = hdr.u64().unwrap();
    hdr.u32().unwrap();
    let mut body = Encoder::new();
    body.u64(oid);
    body.u16(ObjectKind::Memory.to_raw());
    body.bytes(&[]);
    body.u32(npages);
    rest(&mut body);
    let body = body.finish_vec();
    let mut e = Encoder::new();
    e.record(0x5354, version, |e| {
        e.u64(epoch);
        e.u32(1);
        e.raw(hdr.raw(hdr.remaining()).unwrap());
    });
    e.u32(body.len() as u32);
    e.raw(&body);
    e.u64(0);
    let mut stream = e.finish_vec();
    reseal(&mut stream);
    stream
}

fn assert_rejected(stream: &[u8]) {
    let mut dst = World::with_store_bytes(1 << 28);
    assert!(dst.sls.recv_stream(stream).is_err());
    assert_eq!(dst.sls.store().lock().open_drafts(), 0);
}

/// A stream whose page count claims `u32::MAX` pages must be rejected,
/// not size an allocation by it.
#[test]
fn crafted_page_count_is_rejected() {
    assert_rejected(&crafted(0x4242, u32::MAX, |b| b.u64(0)));
}

/// An oid the store could never allocate, or a page index whose byte
/// offset overflows, names nothing a sender can hold.
#[test]
fn crafted_oid_and_page_index_are_rejected() {
    assert_rejected(&crafted(u64::MAX, 0, |_| {}));
    let page = [0u8; 4096];
    assert_rejected(&crafted(0x4242, 1, |b| {
        b.u64(u64::MAX);
        b.u32(1);
        b.bool(true);
        b.u32(0);
        b.bytes(&page);
        b.u64(fnv1a(&page));
    }));
}
