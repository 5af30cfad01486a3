//! Causal dependency-DAG capture.
//!
//! Under `Collector::install_with_dag`, the runtime's event loop reports
//! every causal ordering it enforces into a [`DagBuilder`]:
//!
//! - **stream program order** — an op's nodes depend on the previous
//!   op's nodes on the same stream;
//! - **event waits** — `hipStreamWaitEvent` adds edges from the nodes
//!   whose completion recorded the event to the woken stream's next op;
//! - **host barriers** — `synchronize_all` (how collectives serialize
//!   their rounds) adds edges from every stream's last nodes to each
//!   stream's first post-barrier op;
//! - **flow start → completion** — an op with fabric flows decomposes
//!   into an *issue* node (launch latency, `sync`) plus one node per
//!   flow (`transfer`, or `compute` for a kernel's memory traffic),
//!   spanning admission to completion.
//!
//! While the run goes on the builder keeps only edges, start times, the
//! typed [`OpLabel`] of each op node and the [`FlowId`] of each flow node.
//! The snapshot reads each flow node's end and route from the fabric's flow
//! log (an aborted or unfinished flow stays zero-length at its admission
//! instant) and names every node there: `launch {label}`, the op label, or
//! the route ([`SegmentMap::route_label`]), whose text the node shares with
//! the flow spans that carry it.
//!
//! The builder is observation-only: it never influences scheduling, so
//! runs are bitwise-identical with capture on or off (regression-tested
//! in `crates/hip/tests/critpath.rs`). The captured [`DepGraph`] rides
//! the telemetry snapshot to the collector, where
//! `ifsim_telemetry::critpath` turns it into critical-path reports.
//!
//! [`SegmentMap::route_label`]: ifsim_fabric::SegmentMap::route_label

use crate::op::OpLabel;
use crate::stream::StreamId;
use crate::telemetry::{owned, read_flow_log, Texts};
use ifsim_des::Time;
use ifsim_fabric::{FlowId, FlowNet};
use ifsim_telemetry::critpath::{DepGraph, NodeCategory};
use ifsim_telemetry::Text;
use std::collections::BTreeMap;

/// Category of an op's own node (no flows: the whole op is one interval).
fn op_category(label: &OpLabel) -> NodeCategory {
    match label.kind() {
        "kernel" => NodeCategory::Compute,
        "event_record" | "wait_event" => NodeCategory::Sync,
        _ => NodeCategory::Transfer,
    }
}

/// Category of a flow node, by the kind of op that owns the flow: a
/// kernel's memory traffic is compute-shaped, everything else is data
/// movement.
fn flow_category(label: &OpLabel) -> NodeCategory {
    if label.kind() == "kernel" {
        NodeCategory::Compute
    } else {
        NodeCategory::Transfer
    }
}

/// What a node stands for; named at [`DagBuilder::snapshot`].
#[derive(Clone, Debug)]
enum NodeKind {
    /// An op's issue window, up to its flows' admission.
    Launch(OpLabel),
    /// A flow-less op, as one interval.
    Op(OpLabel),
    /// One fabric flow; its end and route come from the flow log.
    Flow(FlowId),
}

/// One captured interval.
#[derive(Clone, Debug)]
struct Node {
    start_ns: f64,
    /// Unused for flow nodes.
    end_ns: f64,
    cat: NodeCategory,
    kind: NodeKind,
}

/// The nodes one op resolved to. An op's flow nodes are added back to
/// back, and a flow-less op is one node, so they are always a run of
/// consecutive ids.
#[derive(Clone, Copy, Debug)]
struct Nodes {
    first: u32,
    end: u32,
}

impl Nodes {
    fn ids(self) -> std::ops::Range<u32> {
        self.first..self.end
    }

    fn is_empty(self) -> bool {
        self.first == self.end
    }
}

/// Incremental builder for the per-run dependency graph. One per runtime,
/// fed by hooks in the event loop.
#[derive(Clone, Debug, Default)]
pub struct DagBuilder {
    nodes: Vec<Node>,
    edges: Vec<(u32, u32)>,
    /// Last completed node(s) per stream — program-order edge sources.
    frontier: BTreeMap<u64, Nodes>,
    /// Cross-stream edges (event waits) to attach to the next node
    /// started on a stream; drained in place, so each stream's list keeps
    /// its capacity.
    pending: BTreeMap<u64, Vec<u32>>,
    /// Nodes whose op completion recorded each event id.
    event_nodes: BTreeMap<u64, Nodes>,
    /// Flow nodes of the op currently running on each stream, tagged
    /// with the op's start time so a retried attempt never inherits a
    /// previous attempt's nodes.
    in_flight: BTreeMap<u64, (f64, Nodes)>,
    /// Every stream's frontier at the most recent host barrier.
    barrier: Vec<u32>,
    barrier_gen: u64,
    /// Which barrier generation each stream has already joined.
    stream_gen: BTreeMap<u64, u64>,
    /// A new node's predecessors, gathered here so no node allocates.
    preds: Vec<u32>,
}

impl DagBuilder {
    /// A fresh, empty builder.
    pub fn new() -> DagBuilder {
        DagBuilder::default()
    }

    fn add_node(&mut self, start: Time, end: Time, cat: NodeCategory, kind: NodeKind) -> u32 {
        self.nodes.push(Node {
            start_ns: start.as_ns(),
            end_ns: end.as_ns(),
            cat,
            kind,
        });
        (self.nodes.len() - 1) as u32
    }

    /// Collect and attach every inbound edge owed to a stream's new node:
    /// program order, satisfied event waits, and the latest host barrier
    /// (once per stream per barrier).
    fn attach_incoming(&mut self, sid: u64, node: u32) {
        let preds = &mut self.preds;
        preds.clear();
        if let Some(f) = self.frontier.get(&sid) {
            preds.extend(f.ids());
        }
        if let Some(p) = self.pending.get_mut(&sid) {
            preds.append(p);
        }
        let gen = self.stream_gen.entry(sid).or_insert(0);
        if *gen < self.barrier_gen {
            *gen = self.barrier_gen;
            preds.extend_from_slice(&self.barrier);
        }
        preds.sort_unstable();
        preds.dedup();
        self.edges.extend(preds.iter().map(|&s| (s, node)));
    }

    /// An op's flows were admitted: record the issue node (launch window,
    /// `sync`) and one node per flow, edges issue → flow.
    pub fn op_flows_admitted(
        &mut self,
        sid: StreamId,
        started: Time,
        admitted: Time,
        label: &OpLabel,
        fids: &[FlowId],
    ) {
        let cat = flow_category(label);
        let issue = self.add_node(
            started,
            admitted,
            NodeCategory::Sync,
            NodeKind::Launch(label.clone()),
        );
        self.attach_incoming(sid.0, issue);
        let first = issue + 1;
        for &fid in fids {
            let n = self.add_node(admitted, admitted, cat, NodeKind::Flow(fid));
            self.edges.push((issue, n));
        }
        let end = self.nodes.len() as u32;
        self.in_flight
            .insert(sid.0, (started.as_ns(), Nodes { first, end }));
    }

    /// An op finished. Flow-bearing ops resolve to their flow nodes
    /// (created in [`DagBuilder::op_flows_admitted`]); flow-less ops
    /// become a single interval here. Either way the nodes advance the
    /// stream's frontier, and `event` ties them to a recorded event id.
    pub fn op_finished(
        &mut self,
        sid: StreamId,
        started: Time,
        end: Time,
        label: &OpLabel,
        event: Option<u64>,
    ) {
        let nodes = match self.in_flight.remove(&sid.0) {
            // Only the same attempt's nodes count: a stale entry from an
            // aborted attempt (fault mid-flight, then retry) has a
            // different start time and is dropped.
            Some((s, nodes)) if s == started.as_ns() && !nodes.is_empty() => nodes,
            _ => {
                let n = self.add_node(
                    started,
                    end,
                    op_category(label),
                    NodeKind::Op(label.clone()),
                );
                self.attach_incoming(sid.0, n);
                Nodes {
                    first: n,
                    end: n + 1,
                }
            }
        };
        if let Some(ev) = event {
            self.event_nodes.insert(ev, nodes);
        }
        self.frontier.insert(sid.0, nodes);
    }

    /// A `hipStreamWaitEvent` was satisfied (immediately, or by waking a
    /// parked stream): the recording op's nodes become edges into the
    /// stream's next node.
    pub fn wait_satisfied(&mut self, sid: StreamId, ev: u64) {
        if let Some(nodes) = self.event_nodes.get(&ev) {
            let list = self.pending.entry(sid.0).or_default();
            list.extend(nodes.ids());
        }
    }

    /// A host-level full barrier (`synchronize_all`): every stream's next
    /// node depends on every stream's current frontier. This is how
    /// collective round boundaries enter the graph.
    pub fn host_barrier(&mut self) {
        // A frontier holds at least one node, so only no streams at all
        // leave nothing to join.
        if self.frontier.is_empty() {
            return;
        }
        self.barrier.clear();
        self.barrier
            .extend(self.frontier.values().flat_map(|f| f.ids()));
        self.barrier_gen += 1;
    }

    /// The finished graph for the telemetry snapshot: each flow node ends
    /// where `net`'s flow log completed it and is named by its route; op
    /// nodes are named by their labels. Consumes the builder, as a runtime
    /// contributes its snapshot once. (A captured runtime's snapshot builds
    /// the same graph from the flow table its timeline already read.)
    pub fn snapshot(self, net: &FlowNet) -> DepGraph {
        let mut texts = Texts::new(net.segmap());
        let rows = read_flow_log(net, &mut texts, |_, _, _| {});
        self.graph_with(|fid| {
            let row = rows[fid.0 as usize].as_ref().expect("a DAG flow is logged");
            (row.completed.map(Time::as_ns), row.route.clone())
        })
    }

    /// The graph, with each flow node's completion instant (`None`: it
    /// stays zero-length at its admission) and label from `flow`.
    pub(crate) fn graph_with(
        self,
        mut flow: impl FnMut(FlowId) -> (Option<f64>, Text),
    ) -> DepGraph {
        let mut graph = DepGraph {
            nodes: Vec::with_capacity(self.nodes.len()),
            edges: self.edges,
        };
        for n in self.nodes {
            let (end_ns, label) = match n.kind {
                NodeKind::Launch(op) => (n.end_ns, owned(format_args!("launch {op}"))),
                NodeKind::Op(op) => (n.end_ns, owned(format_args!("{op}"))),
                NodeKind::Flow(fid) => {
                    let (end, route) = flow(fid);
                    (end.unwrap_or(n.start_ns), route)
                }
            };
            graph.add_node(n.start_ns, end_ns, n.cat, label);
        }
        graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifsim_fabric::{FlowSpec, SegmentMap};
    use ifsim_telemetry::critpath;
    use ifsim_topology::{GcdId, NodeTopology};

    fn t(ns: f64) -> Time {
        Time::from_ns(ns)
    }

    fn net() -> FlowNet {
        let mut net = FlowNet::new(SegmentMap::new(&NodeTopology::frontier()));
        net.enable_capture();
        net
    }

    /// A flow over GCD0's HBM (route label `HBM GCD0`), admitted at `at`.
    fn hbm_flow(net: &mut FlowNet, at: Time) -> FlowId {
        let segs = vec![net.segmap().hbm_seg(GcdId(0))];
        net.add_flow(at, FlowSpec::new(segs, 1e6, 1.0))
    }

    #[test]
    fn program_order_chains_nodes_on_one_stream() {
        let mut d = DagBuilder::new();
        let sid = StreamId(0);
        let k = OpLabel::Kernel { name: "k" };
        d.op_finished(sid, t(0.0), t(10.0), &k, None);
        d.op_finished(sid, t(10.0), t(30.0), &k, None);
        let g = d.snapshot(&net());
        assert_eq!(g.nodes.len(), 2);
        assert_eq!(g.edges, vec![(0, 1)]);
        let p = critpath::analyze(&g);
        assert_eq!(p.makespan_ns, 30.0);
        let sum: f64 = p.steps.iter().map(|s| s.dur_ns()).sum();
        assert!((sum - 30.0).abs() < 1e-9);
    }

    #[test]
    fn flows_decompose_into_issue_plus_flow_nodes() {
        let mut d = DagBuilder::new();
        let sid = StreamId(0);
        let label = OpLabel::MemcpyPeer { bytes: 1 << 20 };
        let mut net = net();
        let fid = hbm_flow(&mut net, t(2.0));
        d.op_flows_admitted(sid, t(0.0), t(2.0), &label, &[fid]);
        let (end, done) = net.complete_next().expect("one flow");
        assert_eq!(done, fid);
        d.op_finished(sid, t(0.0), end, &label, None);
        // Next op sees the flow node (not the issue node) as frontier.
        let next = end + ifsim_des::Dur::from_ns(10.0);
        d.op_finished(sid, end, next, &OpLabel::Kernel { name: "k" }, None);
        let g = d.snapshot(&net);
        assert_eq!(g.nodes.len(), 3);
        assert_eq!(g.nodes[0].label, "launch memcpy_peer 1048576B");
        assert_eq!(g.nodes[1].label, "HBM GCD0");
        assert_eq!(g.nodes[1].start_ns, 2.0);
        assert_eq!(g.nodes[1].end_ns, end.as_ns(), "ends at its completion");
        assert_eq!(g.nodes[2].label, "kernel k");
        assert!(g.edges.contains(&(0, 1)), "issue -> flow");
        assert!(g.edges.contains(&(1, 2)), "flow -> next op");
        assert!(!g.edges.contains(&(0, 2)), "issue is not the frontier");
        // Causal order on every edge.
        for &(s, e) in &g.edges {
            assert!(g.nodes[s as usize].end_ns <= g.nodes[e as usize].start_ns + 1e-9);
        }
    }

    #[test]
    fn event_wait_bridges_streams() {
        let mut d = DagBuilder::new();
        let producer = StreamId(0);
        let consumer = StreamId(1);
        let k = OpLabel::Kernel { name: "produce" };
        d.op_finished(producer, t(0.0), t(40.0), &k, Some(3));
        d.wait_satisfied(consumer, 3);
        d.op_finished(
            consumer,
            t(40.0),
            t(90.0),
            &OpLabel::Kernel { name: "consume" },
            None,
        );
        let g = d.snapshot(&net());
        assert!(g.edges.contains(&(0, 1)), "record -> wait edge");
        let p = critpath::analyze(&g);
        // The path crosses both streams with no queue gap.
        assert_eq!(p.by_category()["queue"], 0.0);
        assert_eq!(p.makespan_ns, 90.0);
    }

    #[test]
    fn host_barrier_joins_all_streams_once_each() {
        let mut d = DagBuilder::new();
        let k = OpLabel::Kernel { name: "round" };
        d.op_finished(StreamId(0), t(0.0), t(10.0), &k, None);
        d.op_finished(StreamId(1), t(0.0), t(25.0), &k, None);
        d.host_barrier();
        d.op_finished(StreamId(0), t(25.0), t(40.0), &k, None);
        d.op_finished(StreamId(0), t(40.0), t(45.0), &k, None);
        let g = d.snapshot(&net());
        // First post-barrier op on stream 0 depends on both frontiers…
        assert!(g.edges.contains(&(0, 2)));
        assert!(g.edges.contains(&(1, 2)));
        // …but the second op only chains program order (barrier joined once).
        assert!(g.edges.contains(&(2, 3)));
        assert!(!g.edges.contains(&(1, 3)));
        // Critical path runs through the slower stream's round.
        let p = critpath::analyze(&g);
        assert!(p
            .steps
            .iter()
            .any(|s| s.start_ns == 0.0 && s.end_ns == 25.0));
    }

    #[test]
    fn waits_and_barriers_join_every_flow_node_of_an_op() {
        let mut d = DagBuilder::new();
        let label = OpLabel::MemcpyPeer { bytes: 1 << 20 };
        let mut net = net();
        let fids = [hbm_flow(&mut net, t(1.0)), hbm_flow(&mut net, t(1.0))];
        // Nodes 0 (issue), 1 and 2 (flows); the op records event 5.
        d.op_flows_admitted(StreamId(0), t(0.0), t(1.0), &label, &fids);
        d.op_finished(StreamId(0), t(0.0), t(9.0), &label, Some(5));
        let k = OpLabel::Kernel { name: "k" };
        d.wait_satisfied(StreamId(1), 5);
        d.op_finished(StreamId(1), t(9.0), t(12.0), &k, None); // node 3
        d.host_barrier();
        d.op_finished(StreamId(2), t(12.0), t(15.0), &k, None); // node 4
        let g = d.snapshot(&net);
        assert_eq!(g.nodes.len(), 5);
        assert_eq!(
            g.edges,
            vec![(0, 1), (0, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4)]
        );
    }

    #[test]
    fn stale_in_flight_from_aborted_attempt_is_ignored() {
        let mut d = DagBuilder::new();
        let sid = StreamId(0);
        let label = OpLabel::MemcpyPeer { bytes: 1024 };
        // Attempt 1 admits a flow that a fault aborts.
        let mut net = net();
        let fid = hbm_flow(&mut net, t(1.0));
        d.op_flows_admitted(sid, t(0.0), t(1.0), &label, &[fid]);
        net.advance_to(t(3.0));
        net.cancel(fid).expect("flow in flight");
        // Retry finishes as a different attempt (different start time).
        d.op_finished(sid, t(5.0), t(9.0), &label, None);
        let g = d.snapshot(&net);
        // issue + aborted flow + retry node.
        assert_eq!(g.nodes.len(), 3);
        assert_eq!(
            g.nodes[1].end_ns, g.nodes[1].start_ns,
            "aborted flow zero-length"
        );
        assert_eq!(g.nodes[1].start_ns, 1.0);
        assert_eq!(g.nodes[2].start_ns, 5.0);
        assert_eq!(g.nodes[2].label, "memcpy_peer 1024B");
    }
}
