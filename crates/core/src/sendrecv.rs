//! `sls send` / `sls recv` (Table 2): serialize a checkpoint to a byte
//! stream and import it on another machine — the building block for
//! migration and high availability (§10).

use crate::restore::{RestoreMode, RestoreReport};
use crate::{Sls, SlsError};
use aurora_objstore::{ObjectKind, ObjectStore, Oid, RedoWrite, PAGE};
use aurora_sim::codec::{CodecError, Decoder, Encoder};
use aurora_sim::fnv1a;

const STREAM_TAG: u16 = 0x5354;

/// Stream format version — the only one receivers read. A stream is a
/// header record (source epoch, object count, and the provenance context:
/// origin node id and virtual send time), then one length-prefixed body
/// per changed object (kind, metadata, and per-page redo records with
/// offset, payload and materialized-page checksum), then an FNV-1a
/// checksum of every byte before it. A full image is the delta from
/// epoch 0.
///
/// The trailing checksum covers what the per-record page checksums do
/// not (header, counts, oids, kinds, metadata, page indices) and is
/// verified before anything is staged. The page checksums stay: they
/// catch a receiver whose base has diverged from the sender's.
const STREAM_VERSION: u16 = 3;

/// What a delta stream carried — the replication/migration layers size
/// rounds and convergence checks on these.
#[derive(Clone, Copy, Debug, Default)]
pub struct DeltaStats {
    /// Source epoch the stream describes (the `to` side).
    pub epoch: u64,
    /// Objects with any change in the window.
    pub objects: u64,
    /// Pages carried.
    pub pages: u64,
    /// Encoded stream length, trailing checksum included.
    pub bytes: u64,
}

/// What applying a received stream produced.
#[derive(Clone, Debug)]
pub struct ApplyReport {
    /// Manifest objects seen in the stream (restore entry points).
    pub manifests: Vec<Oid>,
    /// The source-side epoch stamped in the stream header.
    pub src_epoch: u64,
    /// Origin node id from the header's provenance context.
    pub src_node: u64,
    /// Virtual time the origin encoded the stream.
    pub sent_at: u64,
    /// The local epoch the apply committed as.
    pub local_epoch: u64,
    /// Virtual time at which the local commit is durable — the floor a
    /// replication follower acks at.
    pub durable_at: u64,
    /// Pages written.
    pub pages: u64,
}

impl Sls {
    /// Imports a stream produced by [`send_delta`](Sls::send_delta)
    /// into this machine's store (same OIDs) and commits it. Returns the
    /// manifests found, ready for [`Sls::restore_image`].
    pub fn recv_stream(&mut self, stream: &[u8]) -> Result<Vec<Oid>, SlsError> {
        Ok(self.recv_apply(stream, 0)?.manifests)
    }

    /// Imports a full or delta stream, committing it under `group`'s
    /// draft so the commit record chains on that group's durable floor —
    /// a replication follower applying a leader's sealed epoch commits a
    /// record attributed to the same consistency group. Returns what was
    /// applied, including the local commit's `durable_at` (the follower's
    /// ack floor).
    ///
    /// The stream checksum is verified before anything is staged. A
    /// stream rejected later (a receiver whose base diverged, a failed
    /// commit) discards `group`'s draft, so nothing of it can ride along
    /// in a later commit.
    pub fn recv_apply(&mut self, stream: &[u8], group: u64) -> Result<ApplyReport, SlsError> {
        let signed_len =
            stream.len().checked_sub(8).ok_or(CodecError::Truncated { what: "stream checksum" })?;
        let (signed, csum) = stream.split_at(signed_len);
        let mut d = Decoder::new(signed);
        let (v, mut hdr) = d.record(STREAM_TAG, STREAM_VERSION)?;
        if v != STREAM_VERSION {
            let supported = STREAM_VERSION;
            return Err(CodecError::BadVersion { tag: STREAM_TAG, supported, found: v }.into());
        }
        if csum != fnv1a(signed).to_le_bytes() {
            return Err(SlsError::BadImage("stream checksum"));
        }
        let src_epoch = hdr.u64()?;
        let count = hdr.u32()?;
        let src_node = hdr.u64()?;
        let sent_at = hdr.u64()?;
        if !hdr.is_empty() {
            return Err(SlsError::BadImage("stream header length"));
        }
        let mut store = self.store.lock();
        let prev_staging = store.staging();
        store.stage_for(group);
        let applied = apply_objects(&mut store, &mut d, count)
            .and_then(|applied| Ok((applied, store.commit_for(group)?)));
        if applied.is_err() {
            store.abort_epoch_for(group);
        }
        store.stage_for(prev_staging);
        let ((manifests, pages), info) = applied?;
        store.barrier(info);
        drop(store);
        let trace = self.kernel.charge.trace();
        if trace.is_enabled() {
            trace.instant(
                "core",
                "sendrecv.recv",
                &[
                    ("epoch", info.epoch),
                    ("src_epoch", src_epoch),
                    ("src_node", src_node),
                    ("sent_at", sent_at),
                    ("group", group),
                    ("objects", count as u64),
                    ("bytes", stream.len() as u64),
                    ("durable_at", info.durable_at),
                ],
            );
        }
        Ok(ApplyReport {
            manifests,
            src_epoch,
            src_node,
            sent_at,
            local_epoch: info.epoch,
            durable_at: info.durable_at,
            pages,
        })
    }

    /// Serializes the changes between two epochs: the incremental
    /// stream `sls send` feeds a standby for live migration or high
    /// availability (Table 2, §10). Objects/pages unchanged since
    /// `from_epoch` are skipped; `from_epoch = 0` serializes the full
    /// image at `to_epoch` — every live object with its kind, metadata
    /// and pages.
    pub fn send_delta(&self, from_epoch: u64, to_epoch: u64) -> Result<Vec<u8>, SlsError> {
        Ok(self.send_delta_stats(from_epoch, to_epoch)?.0)
    }

    /// [`send_delta`](Sls::send_delta) plus what the stream carried —
    /// the replication and migration layers size rounds on the stats.
    pub fn send_delta_stats(
        &self,
        from_epoch: u64,
        to_epoch: u64,
    ) -> Result<(Vec<u8>, DeltaStats), SlsError> {
        let mut store = self.store.lock();
        let oids = store.objects_at(to_epoch)?;
        let before = store.objects_at(from_epoch).unwrap_or_default();
        let mut emitted = 0u32;
        let mut total_pages = 0u64;
        let mut bodies = Encoder::new();
        for oid in oids {
            let kind = store.kind(oid)?;
            // Pages that changed in (from, to]: absent at `from`, or
            // with a newer version since.
            let old = store.pages_at(oid, from_epoch).ok();
            let pages: Vec<u64> = store
                .pages_at(oid, to_epoch)?
                .into_iter()
                .filter(|&pi| match &old {
                    Some(old) if old.binary_search(&pi).is_ok() => {
                        store.page_version_epoch(oid, pi, to_epoch).unwrap_or(0) > from_epoch
                    }
                    _ => true,
                })
                .collect();
            let meta_changed = store.meta_version_epoch(oid, to_epoch).unwrap_or(0) > from_epoch;
            let created = before.binary_search(&oid).is_err();
            if pages.is_empty() && !meta_changed && !created {
                continue;
            }
            let meta =
                store.meta_at(oid, to_epoch).map(|m| m.to_vec()).unwrap_or_default();
            let mut body = Encoder::new();
            body.u64(oid.0);
            body.u16(kind.to_raw());
            body.bytes(&meta);
            body.u32(pages.len() as u32);
            total_pages += pages.len() as u64;
            for pi in pages {
                // The page's redo records in (from, to] — exactly the
                // delta the leader logged, replayed by the receiver onto
                // its own copy of the page.
                let recs = store.page_records_in(oid, pi, from_epoch, to_epoch)?;
                body.u64(pi);
                body.u32(recs.len() as u32);
                for r in &recs {
                    body.bool(r.full);
                    body.u32(r.offset);
                    body.bytes(&r.payload);
                    body.u64(r.page_csum);
                }
            }
            let bytes = body.finish_vec();
            bodies.u32(bytes.len() as u32);
            bodies.raw(&bytes);
            emitted += 1;
        }
        drop(store);
        // The header carries the emitted count and the provenance
        // context: who encoded this stream, and when.
        let origin = self.node_id;
        let sent_at = self.kernel.charge.clock().now();
        let mut out = Encoder::new();
        out.record(STREAM_TAG, STREAM_VERSION, |e| {
            e.u64(to_epoch);
            e.u32(emitted);
            e.u64(origin);
            e.u64(sent_at);
        });
        out.raw(&bodies.finish_vec());
        let mut stream = out.finish_vec();
        let csum = fnv1a(&stream);
        stream.extend_from_slice(&csum.to_le_bytes());
        let trace = self.kernel.charge.trace();
        if trace.is_enabled() {
            trace.instant(
                "core",
                "sendrecv.send",
                &[("from", from_epoch), ("epoch", to_epoch), ("bytes", stream.len() as u64)],
            );
        }
        let stats = DeltaStats {
            epoch: to_epoch,
            objects: emitted as u64,
            pages: total_pages,
            bytes: stream.len() as u64,
        };
        Ok((stream, stats))
    }

    /// Convenience: migrate the image at `epoch` into `target`, restoring
    /// it there (`sls send | sls recv` + restore).
    pub fn migrate_to(
        &self,
        target: &mut Sls,
        epoch: u64,
        mode: RestoreMode,
    ) -> Result<RestoreReport, SlsError> {
        let stream = self.send_delta(0, epoch)?;
        let manifests = target.recv_stream(&stream)?;
        let manifest = *manifests.first().ok_or(SlsError::BadImage("no manifest in stream"))?;
        let epoch = target
            .store
            .lock()
            .last_epoch()
            .ok_or(SlsError::BadImage("empty target store"))?;
        target.restore_image(manifest, epoch, mode)
    }
}

/// Decodes `count` object bodies from `d` into the staging draft, then
/// requires the stream to end. Returns the manifests seen and the pages
/// written.
fn apply_objects(
    store: &mut ObjectStore,
    d: &mut Decoder<'_>,
    count: u32,
) -> Result<(Vec<Oid>, u64), SlsError> {
    let mut manifests = Vec::new();
    let mut pages = 0u64;
    for _ in 0..count {
        let len = d.u32()? as usize;
        let mut body = Decoder::new(d.raw(len)?);
        let oid = Oid(body.u64()?);
        // The store allocates oids below u64::MAX (its next-oid counter
        // sits one above the largest).
        if oid.0 == u64::MAX {
            return Err(SlsError::BadImage("oid out of range"));
        }
        let kind = ObjectKind::from_raw(body.u16()?)?;
        let meta = body.bytes()?;
        store.create_object(oid, kind)?;
        if !meta.is_empty() {
            store.set_meta_batch(&[(oid, meta.to_vec())])?;
        }
        // Per-page redo records, replayed onto the local copy of the
        // page (a receiver in sync through the stream's `from` epoch
        // holds the same base the sender chained on), verifying the
        // materialized-page checksum at every record, then logged
        // locally as one combined redo write.
        let npages = body.u32()?;
        let mut batch = Vec::new();
        for _ in 0..npages {
            let pi = body.u64()?;
            if pi >= u64::MAX / PAGE as u64 {
                return Err(SlsError::BadImage("page index out of range"));
            }
            let nrecs = body.u32()?;
            let mut buf = [0u8; PAGE];
            let mut base_csum = 0u64;
            let mut span: Option<(usize, usize)> = None; // (off, end)
            let mut any_full = false;
            for r in 0..nrecs {
                let full = body.bool()?;
                let offset = body.u32()? as usize;
                let payload = body.bytes()?;
                let page_csum = body.u64()?;
                if full {
                    if payload.len() != PAGE {
                        return Err(SlsError::BadImage("short full record in stream"));
                    }
                    buf.copy_from_slice(payload);
                    any_full = true;
                } else {
                    if r == 0 {
                        // Deltas only: seed with the local copy.
                        let base =
                            store.last_epoch().and_then(|e| store.read_page(oid, pi, e).ok());
                        if let Some(p) = &base {
                            buf.copy_from_slice(p.bytes());
                        }
                        base_csum = fnv1a(&buf);
                    }
                    let end = offset + payload.len();
                    if end > PAGE {
                        return Err(SlsError::BadImage("record overruns page"));
                    }
                    buf[offset..end].copy_from_slice(payload);
                    span = Some(match span {
                        None => (offset, end),
                        Some((o, e)) => (o.min(offset), e.max(end)),
                    });
                }
                if fnv1a(&buf) != page_csum {
                    return Err(SlsError::BadImage("delta stream page checksum"));
                }
            }
            if nrecs == 0 {
                continue;
            }
            let page = store.arena().alloc(buf);
            // A page whose records include a full image is logged as a
            // full image locally too (nothing older to chain on).
            let delta = span.filter(|_| !any_full).map(|(o, e)| (o as u32, buf[o..e].to_vec()));
            batch.push(RedoWrite { pindex: pi, page, delta, base_csum });
        }
        if !body.is_empty() {
            return Err(SlsError::BadImage("object body length"));
        }
        pages += batch.len() as u64;
        if !batch.is_empty() {
            store.append_redo(oid, &batch)?;
        }
        if kind == ObjectKind::Posix(crate::oidmap::tag::MANIFEST) {
            manifests.push(oid);
        }
    }
    if !d.is_empty() {
        return Err(SlsError::BadImage("trailing bytes in stream"));
    }
    Ok((manifests, pages))
}
