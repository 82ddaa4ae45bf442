//! Epoch provenance: stitching per-node trace rings into one causal
//! event graph per `(epoch, group)`.
//!
//! Every hop of an epoch's life is already in *some* node's bounded
//! trace ring — the leader's pipeline stage spans (tagged with `group`
//! and `epoch`), the redo appends inside the flush window, the
//! `cluster.replicate` send, the follower's `cluster.delta_arrive` and
//! `sendrecv.recv` (which carries the origin node and virtual send time
//! from the stream header), the leader's `cluster.ack` receipt, the
//! first `cluster.quorum_watermark` covering the epoch, and finally
//! `extsync.release`. [`Cluster::epoch_graph`] collects those records
//! and links them into a [`CausalGraph`] whose critical path attributes
//! the seal→release latency to pipeline stages, fabric links, and
//! quorum members.
//!
//! With [`Cluster::enable_provenance`] the graphs are also snapshotted
//! into an always-on bounded [`FlightRecorder`] as the quorum watermark
//! passes each epoch, so a crash (`crash_and_reboot`) or an armed
//! invariant checker can dump the last K epochs' causality
//! deterministically.

use crate::{Cluster, LEADER};
use aurora_trace::{CausalGraph, CriticalPath, FlightRecorder, HopKind, Phase, Trace, TraceEvent};

/// The leader pipeline's stage names, as emitted by `finish_stages`.
const STAGES: [&str; 9] =
    ["quiesce", "collapse", "aio-drain", "serialize", "shadow", "resume", "flush", "seal", "commit"];

fn arg(ev: &TraceEvent, key: &str) -> Option<u64> {
    ev.args.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
}

impl Cluster {
    /// Turns on provenance collection: every node records into its own
    /// trace ring (sharing the cluster clock) and learns its node id
    /// (carried in the stream header), and a flight recorder
    /// of `flight_cap` epoch graphs is installed — on the cluster (fed
    /// as the quorum watermark advances) and on the leader SLS (dumped
    /// by `crash_and_reboot`). Returns a handle to the recorder.
    pub fn enable_provenance(&mut self, flight_cap: usize) -> FlightRecorder {
        for (i, node) in self.nodes.iter_mut().enumerate() {
            node.sls.set_node_id(i as u64);
            if !node.sls.kernel.charge.trace().is_enabled() {
                let clock = self.clock.clone();
                node.sls.install_trace(Trace::recording(move || clock.now()));
            }
        }
        let fr = FlightRecorder::new(flight_cap);
        self.nodes[LEADER].sls.install_flight_recorder(fr.clone());
        self.flight = Some(fr.clone());
        fr
    }

    /// The trace handle of node `i` (disabled unless tracing was turned
    /// on for it).
    pub fn node_trace(&self, i: usize) -> Trace {
        self.nodes[i].sls.kernel.charge.trace().clone()
    }

    /// The cluster's flight recorder, once provenance is enabled.
    pub fn flight_recorder(&self) -> Option<&FlightRecorder> {
        self.flight.as_ref()
    }

    /// The most recently extracted critical path: `(group, epoch,
    /// path)` — also exported as `cluster.epoch.critical_path.*`
    /// gauges.
    pub fn last_critical_path(&self) -> Option<&(u64, u64, CriticalPath)> {
        self.last_critical_path.as_ref()
    }

    /// Builds the causal event graph of `epoch` in `group` from the
    /// per-node trace rings. Returns `None` when the leader is not
    /// tracing or its ring holds no pipeline stages for the epoch
    /// (never taken, or already evicted). The graph is flagged
    /// `truncated` when any contributing ring has dropped records —
    /// hops may then be missing and the graph must not be presented as
    /// complete.
    pub fn epoch_graph(&self, group: u64, epoch: u64) -> Option<CausalGraph> {
        let leader_trace = self.nodes[LEADER].sls.kernel.charge.trace();
        if !leader_trace.is_enabled() || epoch == 0 {
            return None;
        }
        let lev = leader_trace.events();
        let mut g = CausalGraph::new(epoch, group);
        g.truncated =
            self.nodes.iter().any(|n| n.sls.kernel.charge.trace().dropped_records() > 0);

        // Leader pipeline stages of this (group, epoch), execution order.
        let mut stages: Vec<&TraceEvent> = lev
            .iter()
            .filter(|e| {
                e.ph == Phase::Complete
                    && e.cat == "pipeline"
                    && STAGES.contains(&e.name.as_ref())
                    && arg(e, "group") == Some(group)
                    && arg(e, "epoch") == Some(epoch)
            })
            .collect();
        if stages.is_empty() {
            return None;
        }
        stages.sort_by_key(|e| (e.ts, e.ts + e.dur));
        let mut prev: Option<usize> = None;
        for ev in &stages {
            if ev.name == "flush" {
                // Redo-record appends (VCL/VDL advance) ride the flush
                // window; fold them into one hop so the log work shows
                // up between `resume` and `flush` completion.
                let appends: Vec<&TraceEvent> = lev
                    .iter()
                    .filter(|a| {
                        a.name == "redo.append" && a.ts >= ev.ts && a.ts <= ev.ts + ev.dur
                    })
                    .collect();
                if let Some(last) = appends.last() {
                    let records: u64 =
                        appends.iter().map(|a| arg(a, "records").unwrap_or(0)).sum();
                    let bytes: u64 = appends.iter().map(|a| arg(a, "bytes").unwrap_or(0)).sum();
                    let idx = g.hop(
                        LEADER as u64,
                        "redo.append",
                        HopKind::Stage,
                        last.ts,
                        0,
                        prev.into_iter().collect(),
                        vec![("records".into(), records), ("bytes".into(), bytes)],
                    );
                    prev = Some(idx);
                }
            }
            let mut args: Vec<(String, u64)> = Vec::new();
            if ev.name == "commit" {
                // Attach the commit record's durability horizon from the
                // extsync seal of the same epoch.
                if let Some(seal) = lev.iter().find(|s| {
                    s.name == "extsync.seal"
                        && arg(s, "epoch") == Some(epoch)
                        && arg(s, "group") == Some(group)
                }) {
                    if let Some(d) = arg(seal, "durable_at") {
                        args.push(("durable_at".into(), d));
                    }
                    if let Some(s) = arg(seal, "sockets") {
                        args.push(("sockets".into(), s));
                    }
                }
            }
            let idx = g.hop(
                LEADER as u64,
                format!("stage.{}", ev.name),
                HopKind::Stage,
                ev.ts,
                ev.dur,
                prev.into_iter().collect(),
                args,
            );
            prev = Some(idx);
        }
        let commit_idx = prev.expect("stages is non-empty");
        let commit_done = g.events[commit_idx].ts + g.events[commit_idx].dur;

        // Per-follower replication chain: replicate → (link) arrive →
        // (member) recv/apply/floor → (link) ack back at the leader.
        let mut ack_idxs: Vec<usize> = Vec::new();
        for f in 1..self.nodes.len() {
            let Some(repl) = lev.iter().find(|e| {
                e.name == "cluster.replicate"
                    && arg(e, "group") == Some(group)
                    && arg(e, "to_node") == Some(f as u64)
                    && arg(e, "to_epoch") == Some(epoch)
            }) else {
                continue;
            };
            let r_idx = g.hop(
                LEADER as u64,
                "replicate",
                HopKind::Local,
                repl.ts,
                0,
                vec![commit_idx],
                vec![
                    ("to_node".into(), f as u64),
                    ("pages".into(), arg(repl, "pages").unwrap_or(0)),
                    ("bytes".into(), arg(repl, "bytes").unwrap_or(0)),
                ],
            );
            let fev = self.nodes[f].sls.kernel.charge.trace().events();
            let arrive_idx = fev
                .iter()
                .find(|e| {
                    e.name == "cluster.delta_arrive"
                        && arg(e, "group") == Some(group)
                        && arg(e, "to_epoch") == Some(epoch)
                        && e.ts >= repl.ts
                })
                .map(|a| {
                    g.hop(
                        f as u64,
                        "delta_arrive",
                        HopKind::Link,
                        a.ts,
                        0,
                        vec![r_idx],
                        vec![("bytes".into(), arg(a, "bytes").unwrap_or(0))],
                    )
                });
            let Some(recv) = fev.iter().find(|e| {
                e.name == "sendrecv.recv"
                    && arg(e, "group") == Some(group)
                    && arg(e, "src_epoch") == Some(epoch)
            }) else {
                continue;
            };
            let recv_idx = g.hop(
                f as u64,
                "recv_apply",
                HopKind::Member,
                recv.ts,
                0,
                vec![arrive_idx.unwrap_or(r_idx)],
                vec![
                    ("src_node".into(), arg(recv, "src_node").unwrap_or(0)),
                    ("sent_at".into(), arg(recv, "sent_at").unwrap_or(0)),
                    ("durable_at".into(), arg(recv, "durable_at").unwrap_or(0)),
                ],
            );
            if let Some(ack) = lev.iter().find(|e| {
                e.name == "cluster.ack"
                    && arg(e, "group") == Some(group)
                    && arg(e, "epoch") == Some(epoch)
                    && arg(e, "from_node") == Some(f as u64)
            }) {
                ack_idxs.push(g.hop(
                    LEADER as u64,
                    "ack",
                    HopKind::Link,
                    ack.ts,
                    0,
                    vec![recv_idx],
                    vec![
                        ("from_node".into(), f as u64),
                        ("durable_at".into(), arg(ack, "durable_at").unwrap_or(0)),
                    ],
                ));
            }
        }

        // The first quorum-watermark refresh at or after commit that
        // covers the epoch is the quorum point; only acks that had
        // landed by then can be its causes.
        let mut tail = commit_idx;
        if let Some(q) = lev.iter().find(|e| {
            e.name == "cluster.quorum_watermark"
                && arg(e, "group") == Some(group)
                && arg(e, "epoch").unwrap_or(0) >= epoch
                && e.ts >= commit_done
        }) {
            let mut deps = vec![commit_idx];
            deps.extend(ack_idxs.iter().copied().filter(|&i| g.events[i].ts <= q.ts));
            tail = g.hop(
                LEADER as u64,
                "quorum_watermark",
                HopKind::Local,
                q.ts,
                0,
                deps,
                vec![("watermark".into(), arg(q, "epoch").unwrap_or(0))],
            );
        }
        if let Some(rel) = lev.iter().find(|e| {
            e.name == "extsync.release"
                && arg(e, "epoch") == Some(epoch)
                && arg(e, "group") == Some(group)
        }) {
            let t = g.hop(
                LEADER as u64,
                "release",
                HopKind::Local,
                rel.ts,
                0,
                vec![tail],
                vec![
                    ("durable_at".into(), arg(rel, "durable_at").unwrap_or(0)),
                    ("sockets".into(), arg(rel, "sockets").unwrap_or(0)),
                ],
            );
            g.terminal = Some(t);
        }
        Some(g)
    }

    /// Snapshots the causal graph of every epoch newly covered by the
    /// quorum watermark into the flight recorder, and refreshes the
    /// `cluster.epoch.critical_path.*` gauge source. No-op until
    /// [`Cluster::enable_provenance`] runs.
    pub(crate) fn snapshot_provenance(&mut self, group: u64) {
        if self.flight.is_none() {
            return;
        }
        let watermark = self.quorum_watermark(group);
        let head = self.provenance_head.get(&group).copied().unwrap_or(0);
        if watermark <= head {
            return;
        }
        let epochs: Vec<u64> = {
            let store = self.nodes[LEADER].sls.store().lock();
            store.epochs_for(group).iter().copied().filter(|&e| e > head && e <= watermark).collect()
        };
        for e in epochs {
            if let Some(graph) = self.epoch_graph(group, e) {
                let cp = graph.critical_path();
                if !cp.hops.is_empty() {
                    self.last_critical_path = Some((group, e, cp));
                }
                if let Some(fr) = &self.flight {
                    fr.record(graph);
                }
            }
        }
        self.provenance_head.insert(group, watermark);
    }
}
