//! Critical-path analysis over causal dependency graphs.
//!
//! A [`DepGraph`] is a compact per-run record of *what had to finish
//! before what*: nodes are timed intervals (an op's launch window, a
//! fabric flow, a sync marker) and edges are causal orderings (stream
//! program order, event record → wait, flow admission → completion,
//! host barriers between collective rounds). The capture side lives in
//! `ifsim-hip`; this module is the analysis side:
//!
//! - [`analyze`] reconstructs the **critical path** — the chain of
//!   intervals that explains the run's makespan end to end. Gaps with no
//!   explaining predecessor (host issue latency, queue wait) are charged
//!   to the `queue` category, so the path steps always partition
//!   `[0, makespan]` exactly: the total equals the makespan by
//!   construction, and per-category slack sums to the total.
//! - [`report`] aggregates one or more runs into a ranked "top-K binding
//!   intervals" table with per-category totals.
//! - [`render_critpath`] / [`critpath_json`] emit the markdown report and
//!   the `ifsim-critpath-v1` JSON document (`telemetry-lint --critpath`
//!   validates the latter).
//!
//! The what-if engine (`ifsim-analyze`) reuses [`CritPathReport`] as its
//! carrier: virtual-speedup sweep results slot into `whatif`.

use crate::event::Text;
use crate::metrics::MetricsRegistry;
use serde_json::{Map, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Schema tag of the JSON document produced by [`critpath_json`].
pub const CRITPATH_SCHEMA: &str = "ifsim-critpath-v1";

/// Label used for path steps with no explaining node (host issue gaps,
/// queue waits between an op's predecessor finishing and the op itself).
pub const QUEUE_GAP_LABEL: &str = "(queue/host gap)";

/// Coarse cost class of a DAG node, and therefore of critical-path time.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum NodeCategory {
    /// Kernel execution (including a kernel's memory-traffic flows).
    Compute,
    /// Fabric data movement (memcpy/SDMA/collective flows).
    Transfer,
    /// Synchronization and launch overhead (event markers, launch
    /// latency windows).
    Sync,
    /// Unexplained time: host issue gaps and queue waits.
    Queue,
}

impl NodeCategory {
    /// Every category, in report order.
    pub const ALL: [NodeCategory; 4] = [
        NodeCategory::Compute,
        NodeCategory::Transfer,
        NodeCategory::Sync,
        NodeCategory::Queue,
    ];

    /// Stable lowercase name used in reports and JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            NodeCategory::Compute => "compute",
            NodeCategory::Transfer => "transfer",
            NodeCategory::Sync => "sync",
            NodeCategory::Queue => "queue",
        }
    }

    /// Parse the name produced by [`NodeCategory::as_str`].
    pub fn parse(s: &str) -> Option<NodeCategory> {
        NodeCategory::ALL.into_iter().find(|c| c.as_str() == s)
    }
}

/// One timed interval in the dependency graph.
#[derive(Clone, Debug)]
pub struct DagNode {
    /// Interval start, ns.
    pub start_ns: f64,
    /// Interval end, ns (`>= start_ns`).
    pub end_ns: f64,
    /// Cost class.
    pub category: NodeCategory,
    /// Human label — op label, flow route, etc. Steps aggregate by it.
    /// A route is shared with the flow spans that carry it.
    pub label: Text,
}

/// A per-run causal dependency graph. Edges `(src, dst)` assert that
/// `src` causally precedes `dst` (and the capture layer guarantees
/// `src.end_ns <= dst.start_ns` up to float noise).
#[derive(Clone, Debug, Default)]
pub struct DepGraph {
    /// Timed intervals, in creation order.
    pub nodes: Vec<DagNode>,
    /// Causal orderings between node indices.
    pub edges: Vec<(u32, u32)>,
}

impl DepGraph {
    /// Append a node, returning its index.
    pub fn add_node(
        &mut self,
        start_ns: f64,
        end_ns: f64,
        category: NodeCategory,
        label: impl Into<Text>,
    ) -> u32 {
        let id = self.nodes.len() as u32;
        self.nodes.push(DagNode {
            start_ns,
            end_ns,
            category,
            label: label.into(),
        });
        id
    }

    /// Record that `src` causally precedes `dst`.
    pub fn add_edge(&mut self, src: u32, dst: u32) {
        debug_assert!((src as usize) < self.nodes.len());
        debug_assert!((dst as usize) < self.nodes.len());
        self.edges.push((src, dst));
    }

    /// Latest interval end — the run's makespan (0 for an empty graph).
    pub fn makespan_ns(&self) -> f64 {
        self.nodes.iter().fold(0.0, |m, n| m.max(n.end_ns))
    }

    /// Whether the graph holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// One interval on the reconstructed critical path.
#[derive(Clone, Debug)]
pub struct PathStep {
    /// Step start, ns.
    pub start_ns: f64,
    /// Step end, ns.
    pub end_ns: f64,
    /// Cost class charged for `[start_ns, end_ns]`.
    pub category: NodeCategory,
    /// Node label ([`QUEUE_GAP_LABEL`] for unexplained gaps).
    pub label: Text,
}

impl PathStep {
    /// The step's duration.
    pub fn dur_ns(&self) -> f64 {
        self.end_ns - self.start_ns
    }
}

/// The critical path of one run: steps in forward time order, forming an
/// exact partition of `[0, makespan]`.
#[derive(Clone, Debug, Default)]
pub struct PathAnalysis {
    /// The run's makespan (latest node end).
    pub makespan_ns: f64,
    /// Path steps, earliest first; durations sum to `makespan_ns`.
    pub steps: Vec<PathStep>,
}

impl PathAnalysis {
    /// Per-category time on the path. Every category is present (0 when
    /// unused), so the values always partition [`PathAnalysis::makespan_ns`].
    pub fn by_category(&self) -> BTreeMap<&'static str, f64> {
        let mut out: BTreeMap<&'static str, f64> = NodeCategory::ALL
            .iter()
            .map(|c| (c.as_str(), 0.0))
            .collect();
        for s in &self.steps {
            *out.get_mut(s.category.as_str()).expect("seeded above") += s.dur_ns();
        }
        out
    }
}

/// Reconstruct the critical path of `g`.
///
/// Walks backward from the latest-finishing node, at each hop following
/// the predecessor that finished last. Time between a node's start and
/// its best predecessor's end (or time 0) is charged to
/// [`NodeCategory::Queue`] as an explicit gap step, which is what makes
/// the step durations partition the makespan exactly.
pub fn analyze(g: &DepGraph) -> PathAnalysis {
    if g.nodes.is_empty() {
        return PathAnalysis::default();
    }
    let mut preds: Vec<Vec<u32>> = vec![Vec::new(); g.nodes.len()];
    for &(src, dst) in &g.edges {
        preds[dst as usize].push(src);
    }
    // Terminal: latest end; ties break to the later start, then the lower
    // index, so reconstruction is deterministic.
    let mut terminal = 0usize;
    for (i, n) in g.nodes.iter().enumerate() {
        let t = &g.nodes[terminal];
        if n.end_ns > t.end_ns || (n.end_ns == t.end_ns && n.start_ns > t.start_ns) {
            terminal = i;
        }
    }
    let makespan_ns = g.nodes[terminal].end_ns;
    let mut rev: Vec<PathStep> = Vec::new();
    // `cursor` is the earliest instant already explained; every push
    // extends the explained region downward, so the steps partition
    // [0, makespan] even if an edge violates causal order (clamped).
    let mut cursor = makespan_ns;
    let mut cur = terminal;
    loop {
        let node = &g.nodes[cur];
        let start = node.start_ns.clamp(0.0, cursor);
        if cursor > start {
            rev.push(PathStep {
                start_ns: start,
                end_ns: cursor,
                category: node.category,
                label: node.label.clone(),
            });
            cursor = start;
        }
        if cursor <= 0.0 {
            break;
        }
        // Best predecessor: latest end (clamped into the unexplained
        // region), ties to the lower index.
        let best = preds[cur].iter().copied().min_by(|&a, &b| {
            let (ea, eb) = (g.nodes[a as usize].end_ns, g.nodes[b as usize].end_ns);
            eb.partial_cmp(&ea)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        match best {
            None => {
                rev.push(PathStep {
                    start_ns: 0.0,
                    end_ns: cursor,
                    category: NodeCategory::Queue,
                    label: Text::Static(QUEUE_GAP_LABEL),
                });
                break;
            }
            Some(p) => {
                let pend = g.nodes[p as usize].end_ns.clamp(0.0, cursor);
                if pend < cursor {
                    rev.push(PathStep {
                        start_ns: pend,
                        end_ns: cursor,
                        category: NodeCategory::Queue,
                        label: Text::Static(QUEUE_GAP_LABEL),
                    });
                    cursor = pend;
                }
                cur = p as usize;
            }
        }
    }
    rev.reverse();
    PathAnalysis {
        makespan_ns,
        steps: rev,
    }
}

/// One row of the ranked binding-interval table.
#[derive(Clone, Debug)]
pub struct TopEntry {
    /// Aggregation label (op label, flow route, or the gap label).
    pub label: String,
    /// Cost class.
    pub category: NodeCategory,
    /// Total critical-path time under this label.
    pub ns: f64,
    /// Number of path steps aggregated.
    pub count: u64,
}

/// One virtual-speedup data point from the what-if engine.
#[derive(Clone, Debug)]
pub struct WhatIfEntry {
    /// Calibration field swept (a `Calibration::f64_field_names()` name).
    pub field: String,
    /// Multiplicative factor applied to the field.
    pub factor: f64,
    /// Re-run total makespan under the perturbed calibration.
    pub makespan_ns: f64,
    /// `makespan_ns - baseline` (negative = the change would help).
    pub delta_ns: f64,
    /// `baseline / makespan_ns`.
    pub speedup: f64,
}

/// Per-run summary kept in the aggregate report.
#[derive(Clone, Debug)]
pub struct RunSummary {
    /// The run's makespan.
    pub makespan_ns: f64,
    /// Number of steps on its critical path.
    pub steps: usize,
}

/// Aggregate critical-path report over one or more captured runs, plus
/// (optionally) a what-if sweep.
#[derive(Clone, Debug, Default)]
pub struct CritPathReport {
    /// Captured runs analyzed.
    pub runs: usize,
    /// Sum of per-run makespans — equals the sum of all step durations.
    pub total_ns: f64,
    /// Per-category path time, summed across runs (all categories present).
    pub by_category: BTreeMap<&'static str, f64>,
    /// Ranked binding intervals, largest first, truncated to top-K.
    pub top: Vec<TopEntry>,
    /// Per-run summaries, in capture order.
    pub per_run: Vec<RunSummary>,
    /// What-if sweep points (empty unless the engine ran).
    pub whatif: Vec<WhatIfEntry>,
}

/// Analyze every graph and fold the paths into one ranked report.
pub fn report(graphs: &[DepGraph], top_k: usize) -> CritPathReport {
    let mut by_category: BTreeMap<&'static str, f64> = NodeCategory::ALL
        .iter()
        .map(|c| (c.as_str(), 0.0))
        .collect();
    let mut agg: BTreeMap<(Text, &'static str), (f64, u64, NodeCategory)> = BTreeMap::new();
    let mut per_run = Vec::new();
    let mut total_ns = 0.0;
    for g in graphs {
        let path = analyze(g);
        total_ns += path.makespan_ns;
        for (cat, ns) in path.by_category() {
            *by_category.get_mut(cat).expect("seeded") += ns;
        }
        for s in &path.steps {
            let slot = agg
                .entry((s.label.clone(), s.category.as_str()))
                .or_insert((0.0, 0, s.category));
            slot.0 += s.dur_ns();
            slot.1 += 1;
        }
        per_run.push(RunSummary {
            makespan_ns: path.makespan_ns,
            steps: path.steps.len(),
        });
    }
    let mut top: Vec<TopEntry> = agg
        .into_iter()
        .map(|((label, _), (ns, count, category))| TopEntry {
            label: label.to_string(),
            category,
            ns,
            count,
        })
        .collect();
    top.sort_by(|a, b| {
        b.ns.partial_cmp(&a.ns)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.label.cmp(&b.label))
    });
    top.truncate(top_k);
    CritPathReport {
        runs: graphs.len(),
        total_ns,
        by_category,
        top,
        per_run,
        whatif: Vec::new(),
    }
}

/// Render the report as markdown (the `--critpath-out` sibling of
/// `render_attribution`).
pub fn render_critpath(r: &CritPathReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# Critical-path report");
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "{} run(s) captured; critical-path total {:.3} ms (equals the summed makespan).",
        r.runs,
        r.total_ns / 1e6
    );
    let _ = writeln!(out);
    let _ = writeln!(out, "## Where the time went");
    let _ = writeln!(out);
    let _ = writeln!(out, "| category | time (ms) | share |");
    let _ = writeln!(out, "|---|---:|---:|");
    for c in NodeCategory::ALL {
        let ns = r.by_category.get(c.as_str()).copied().unwrap_or(0.0);
        let share = if r.total_ns > 0.0 {
            100.0 * ns / r.total_ns
        } else {
            0.0
        };
        let _ = writeln!(out, "| {} | {:.3} | {share:.1} % |", c.as_str(), ns / 1e6);
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "## Top binding intervals");
    let _ = writeln!(out);
    let _ = writeln!(out, "| rank | label | category | time (ms) | steps |");
    let _ = writeln!(out, "|---:|---|---|---:|---:|");
    for (i, t) in r.top.iter().enumerate() {
        let _ = writeln!(
            out,
            "| {} | {} | {} | {:.3} | {} |",
            i + 1,
            t.label,
            t.category.as_str(),
            t.ns / 1e6,
            t.count
        );
    }
    if !r.whatif.is_empty() {
        let _ = writeln!(out);
        let _ = writeln!(out, "## What-if: virtual calibration speedups");
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "Each row re-runs the experiment with one calibration field scaled \
             by the factor; deltas are against the baseline makespan."
        );
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "| field | factor | makespan (ms) | delta (ms) | speedup |"
        );
        let _ = writeln!(out, "|---|---:|---:|---:|---:|");
        for w in &r.whatif {
            let _ = writeln!(
                out,
                "| {} | {:.2} | {:.3} | {:+.3} | {:.3}x |",
                w.field,
                w.factor,
                w.makespan_ns / 1e6,
                w.delta_ns / 1e6,
                w.speedup
            );
        }
    }
    out
}

/// The report as an `ifsim-critpath-v1` JSON document.
pub fn critpath_json(r: &CritPathReport) -> Value {
    let mut root = Map::new();
    root.insert("schema", Value::from(CRITPATH_SCHEMA));
    root.insert("runs", Value::from(r.runs));
    root.insert("total_ns", Value::from(r.total_ns));
    let mut cats = Map::new();
    for c in NodeCategory::ALL {
        cats.insert(
            c.as_str(),
            Value::from(r.by_category.get(c.as_str()).copied().unwrap_or(0.0)),
        );
    }
    root.insert("categories", Value::Object(cats));
    root.insert(
        "top",
        Value::Array(
            r.top
                .iter()
                .map(|t| {
                    let mut m = Map::new();
                    m.insert("label", Value::from(t.label.clone()));
                    m.insert("category", Value::from(t.category.as_str()));
                    m.insert("ns", Value::from(t.ns));
                    m.insert("count", Value::from(t.count));
                    m.insert(
                        "share",
                        Value::from(if r.total_ns > 0.0 {
                            t.ns / r.total_ns
                        } else {
                            0.0
                        }),
                    );
                    Value::Object(m)
                })
                .collect(),
        ),
    );
    root.insert(
        "per_run",
        Value::Array(
            r.per_run
                .iter()
                .map(|s| {
                    let mut m = Map::new();
                    m.insert("makespan_ns", Value::from(s.makespan_ns));
                    m.insert("steps", Value::from(s.steps));
                    Value::Object(m)
                })
                .collect(),
        ),
    );
    if !r.whatif.is_empty() {
        root.insert(
            "whatif",
            Value::Array(
                r.whatif
                    .iter()
                    .map(|w| {
                        let mut m = Map::new();
                        m.insert("field", Value::from(w.field.clone()));
                        m.insert("factor", Value::from(w.factor));
                        m.insert("makespan_ns", Value::from(w.makespan_ns));
                        m.insert("delta_ns", Value::from(w.delta_ns));
                        m.insert("speedup", Value::from(w.speedup));
                        Value::Object(m)
                    })
                    .collect(),
            ),
        );
    }
    Value::Object(root)
}

/// Cross-check the critical path against PR 4's bottleneck attribution:
/// for each fabric segment the attribution counters blame
/// (`fabric_attr_bound_ns{cause="link"}`), report how much bound time it
/// accrued and whether that segment appears in a top transfer interval's
/// route. Segments with heavy bound time but no critical-path presence
/// are contended links that the schedule hides — exactly the distinction
/// a causal profiler adds over "busiest link" reasoning.
pub fn attribution_crosscheck(
    metrics: &MetricsRegistry,
    r: &CritPathReport,
) -> Vec<(String, f64, bool)> {
    let mut out = Vec::new();
    for (key, value) in metrics.counters() {
        if key.name() != crate::attribution::ATTR_BOUND_NS {
            continue;
        }
        let labels = key.labels();
        if !labels.iter().any(|(k, v)| k == "cause" && v == "link") {
            continue;
        }
        let Some((_, seg)) = labels.iter().find(|(k, _)| k == "segment") else {
            continue;
        };
        let on_path = r
            .top
            .iter()
            .any(|t| t.category == NodeCategory::Transfer && t.label.contains(seg.as_str()));
        out.push((seg.clone(), value, on_path));
    }
    out.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.0.cmp(&b.0))
    });
    out
}

/// Render the cross-check table ([`attribution_crosscheck`]) as markdown;
/// empty string when attribution recorded nothing.
pub fn render_crosscheck(rows: &[(String, f64, bool)]) -> String {
    if rows.is_empty() {
        return String::new();
    }
    let mut out = String::new();
    let _ = writeln!(out, "## Cross-check vs. bottleneck attribution");
    let _ = writeln!(out);
    let _ = writeln!(out, "| segment | attr bound (ms) | on critical path |");
    let _ = writeln!(out, "|---|---:|---|");
    for (seg, ns, on_path) in rows {
        let _ = writeln!(
            out,
            "| {seg} | {:.3} | {} |",
            ns / 1e6,
            if *on_path { "yes" } else { "no" }
        );
    }
    out
}

/// Fold a sweep measurement into what-if entries (helper for the
/// `ifsim-analyze` engine and its tests).
pub fn whatif_entry(field: &str, factor: f64, makespan_ns: f64, baseline_ns: f64) -> WhatIfEntry {
    WhatIfEntry {
        field: field.to_string(),
        factor,
        makespan_ns,
        delta_ns: makespan_ns - baseline_ns,
        speedup: if makespan_ns > 0.0 {
            baseline_ns / makespan_ns
        } else {
            f64::INFINITY
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricKey;

    fn chain() -> DepGraph {
        // 0..10 sync, 10..60 transfer, 60..100 compute, with a 0-width
        // queue gap nowhere: contiguous chain.
        let mut g = DepGraph::default();
        let a = g.add_node(0.0, 10.0, NodeCategory::Sync, "launch");
        let b = g.add_node(10.0, 60.0, NodeCategory::Transfer, "GCD0->GCD1");
        let c = g.add_node(60.0, 100.0, NodeCategory::Compute, "kernel k");
        g.add_edge(a, b);
        g.add_edge(b, c);
        g
    }

    #[test]
    fn empty_graph_analyzes_to_nothing() {
        let p = analyze(&DepGraph::default());
        assert_eq!(p.makespan_ns, 0.0);
        assert!(p.steps.is_empty());
    }

    #[test]
    fn chain_path_partitions_makespan() {
        let p = analyze(&chain());
        assert_eq!(p.makespan_ns, 100.0);
        let sum: f64 = p.steps.iter().map(|s| s.dur_ns()).sum();
        assert!((sum - 100.0).abs() < 1e-9);
        let cats = p.by_category();
        assert_eq!(cats["sync"], 10.0);
        assert_eq!(cats["transfer"], 50.0);
        assert_eq!(cats["compute"], 40.0);
        assert_eq!(cats["queue"], 0.0);
        // Forward order, contiguous.
        for w in p.steps.windows(2) {
            assert_eq!(w[0].end_ns, w[1].start_ns);
        }
    }

    #[test]
    fn unexplained_time_becomes_queue_gaps() {
        let mut g = DepGraph::default();
        // Node starts at 5 with no predecessor; successor starts 10ns
        // after it ends.
        let a = g.add_node(5.0, 20.0, NodeCategory::Transfer, "t");
        let b = g.add_node(30.0, 50.0, NodeCategory::Compute, "k");
        g.add_edge(a, b);
        let p = analyze(&g);
        assert_eq!(p.makespan_ns, 50.0);
        let sum: f64 = p.steps.iter().map(|s| s.dur_ns()).sum();
        assert!((sum - 50.0).abs() < 1e-9);
        let cats = p.by_category();
        assert_eq!(cats["queue"], 5.0 + 10.0);
        assert_eq!(
            p.steps
                .iter()
                .filter(|s| s.label == QUEUE_GAP_LABEL)
                .count(),
            2
        );
    }

    #[test]
    fn path_follows_latest_predecessor() {
        let mut g = DepGraph::default();
        let fast = g.add_node(0.0, 10.0, NodeCategory::Transfer, "fast");
        let slow = g.add_node(0.0, 80.0, NodeCategory::Transfer, "slow");
        let join = g.add_node(80.0, 100.0, NodeCategory::Compute, "join");
        g.add_edge(fast, join);
        g.add_edge(slow, join);
        let p = analyze(&g);
        assert!(p.steps.iter().any(|s| s.label == "slow"));
        assert!(!p.steps.iter().any(|s| s.label == "fast"));
        let sum: f64 = p.steps.iter().map(|s| s.dur_ns()).sum();
        assert!((sum - 100.0).abs() < 1e-9);
    }

    #[test]
    fn report_aggregates_and_ranks() {
        let r = report(&[chain(), chain()], 2);
        assert_eq!(r.runs, 2);
        assert!((r.total_ns - 200.0).abs() < 1e-9);
        assert_eq!(r.per_run.len(), 2);
        // Categories sum to total.
        let cat_sum: f64 = r.by_category.values().sum();
        assert!((cat_sum - r.total_ns).abs() < 1e-9);
        // Top-2 of three labels: transfer (100) then compute (80).
        assert_eq!(r.top.len(), 2);
        assert_eq!(r.top[0].label, "GCD0->GCD1");
        assert_eq!(r.top[0].count, 2);
        assert_eq!(r.top[1].label, "kernel k");
    }

    #[test]
    fn json_document_is_schema_tagged_and_complete() {
        let mut r = report(&[chain()], 10);
        r.whatif
            .push(whatif_entry("eff_sdma_xgmi", 2.0, 80.0, 100.0));
        let v = critpath_json(&r);
        assert_eq!(v.get("schema").unwrap().as_str(), Some(CRITPATH_SCHEMA));
        assert_eq!(v.get("runs").unwrap().as_u64(), Some(1));
        let total_ns = v.get("total_ns").unwrap().as_f64().unwrap();
        let mut cat_sum = 0.0;
        for c in NodeCategory::ALL {
            cat_sum += v
                .get("categories")
                .unwrap()
                .get(c.as_str())
                .unwrap()
                .as_f64()
                .unwrap();
        }
        assert!((cat_sum - total_ns).abs() < 1e-9);
        let top = v.get("top").unwrap().as_array().unwrap();
        assert!(!top.is_empty());
        assert!(top[0].get("share").unwrap().as_f64().unwrap() <= 1.0);
        let w = &v.get("whatif").unwrap().as_array().unwrap()[0];
        assert_eq!(w.get("field").unwrap().as_str(), Some("eff_sdma_xgmi"));
        assert!((w.get("speedup").unwrap().as_f64().unwrap() - 1.25).abs() < 1e-9);
        assert!((w.get("delta_ns").unwrap().as_f64().unwrap() + 20.0).abs() < 1e-9);
    }

    #[test]
    fn markdown_render_names_all_sections() {
        let mut r = report(&[chain()], 5);
        r.whatif
            .push(whatif_entry("ddr_total_bw", 0.5, 150.0, 100.0));
        let text = render_critpath(&r);
        assert!(text.contains("# Critical-path report"));
        assert!(text.contains("## Where the time went"));
        assert!(text.contains("## Top binding intervals"));
        assert!(text.contains("## What-if"));
        assert!(text.contains("ddr_total_bw"));
    }

    #[test]
    fn crosscheck_matches_segments_against_top_transfers() {
        let mut m = MetricsRegistry::new();
        m.counter_add(
            MetricKey::new(crate::attribution::ATTR_BOUND_NS)
                .with("cause", "link")
                .with("segment", "GCD0->GCD1"),
            70.0,
        );
        m.counter_add(
            MetricKey::new(crate::attribution::ATTR_BOUND_NS)
                .with("cause", "link")
                .with("segment", "GCD4->GCD5"),
            10.0,
        );
        m.counter_add(
            MetricKey::new(crate::attribution::ATTR_BOUND_NS).with("cause", "engine-cap"),
            30.0,
        );
        let r = report(&[chain()], 5);
        let rows = attribution_crosscheck(&m, &r);
        assert_eq!(rows.len(), 2, "engine-cap row is not a segment");
        assert_eq!(rows[0].0, "GCD0->GCD1");
        assert!(rows[0].2, "top transfer names the segment");
        assert!(!rows[1].2);
        let text = render_crosscheck(&rows);
        assert!(text.contains("GCD0->GCD1"));
        assert!(render_crosscheck(&[]).is_empty());
    }
}
