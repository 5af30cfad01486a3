//! The thread-local collector stack.
//!
//! Experiments build simulator instances deep inside library code, so
//! telemetry cannot be threaded through as an argument. Instead a caller
//! installs a [`Collector`] for a scope; every simulator constructed while
//! one is active turns its own instrumentation on and, when it is dropped
//! (or explicitly flushed), contributes a [`SimTelemetry`] snapshot to
//! every collector on the stack. Collectors nest: an outer CLI-level
//! collector and an inner per-experiment one both receive the data.

use crate::critpath::DepGraph;
use crate::event::{EventSink, TimelineEvent};
use crate::metrics::{MetricKey, MetricsRegistry};
use serde_json::{Map, Value};
use std::cell::RefCell;
use std::rc::Rc;

/// One simulator's telemetry contribution: its events (pid still 0), its
/// thread-lane names, and its metrics.
#[derive(Clone, Debug, Default)]
pub struct SimTelemetry {
    /// Display name for the simulator's process lane group.
    pub process_name: String,
    /// Timeline events; `pid` is assigned by the receiving collector.
    pub events: Vec<TimelineEvent>,
    /// `(tid, name)` lane names within this simulator.
    pub threads: Vec<(u32, String)>,
    /// The simulator's metrics.
    pub metrics: MetricsRegistry,
    /// The causal dependency graph, when DAG capture was requested
    /// ([`Collector::install_with_dag`]).
    pub dag: Option<DepGraph>,
}

impl SimTelemetry {
    /// Whether the snapshot carries nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.metrics.is_empty() && self.dag.is_none()
    }
}

/// Telemetry merged across any number of simulators: each ingested
/// [`SimTelemetry`] becomes one process lane group (pid) in the timeline,
/// and all metrics fold into one registry.
#[derive(Clone, Debug, Default)]
pub struct CollectedTelemetry {
    sink: EventSink,
    processes: Vec<(u32, String)>,
    threads: Vec<((u32, u32), String)>,
    metrics: MetricsRegistry,
    dags: Vec<DepGraph>,
    next_pid: u32,
}

impl CollectedTelemetry {
    /// An empty collection.
    pub fn new() -> CollectedTelemetry {
        CollectedTelemetry::default()
    }

    /// Fold one simulator's snapshot in, assigning it the next pid.
    pub fn ingest(&mut self, mut sim: SimTelemetry) {
        if sim.is_empty() {
            return;
        }
        if let Some(dag) = sim.dag.take() {
            self.dags.push(dag);
        }
        let pid = self.next_pid;
        self.next_pid += 1;
        self.processes
            .push((pid, format!("{} #{pid}", sim.process_name)));
        for (tid, name) in sim.threads {
            self.threads.push(((pid, tid), name));
        }
        self.sink.extend(sim.events.into_iter().map(|mut ev| {
            ev.pid = pid;
            ev
        }));
        self.metrics.merge(&sim.metrics);
        self.metrics
            .counter_add(MetricKey::new("telemetry_sims_observed"), 1.0);
    }

    /// Fold a whole other collection in, offsetting its pids past ours.
    pub fn absorb(&mut self, other: CollectedTelemetry) {
        let base = self.next_pid;
        for (pid, name) in other.processes {
            self.processes.push((base + pid, name));
        }
        for ((pid, tid), name) in other.threads {
            self.threads.push(((base + pid, tid), name));
        }
        self.sink
            .extend(other.sink.into_sorted().into_iter().map(|mut ev| {
                ev.pid += base;
                ev
            }));
        self.metrics.merge(&other.metrics);
        self.dags.extend(other.dags);
        self.next_pid = base + other.next_pid;
    }

    /// The merged timeline in deterministic time order, borrowed.
    pub fn events(&self) -> Vec<&TimelineEvent> {
        self.sink.ordered()
    }

    /// `(pid, name)` process lane groups, in ingestion order.
    pub fn processes(&self) -> &[(u32, String)] {
        &self.processes
    }

    /// `((pid, tid), name)` thread lanes.
    pub fn threads(&self) -> &[((u32, u32), String)] {
        &self.threads
    }

    /// The merged metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Number of simulators ingested.
    pub fn sims(&self) -> u32 {
        self.next_pid
    }

    /// The causal dependency graphs captured by DAG-instrumented
    /// simulators, in ingestion order (one per captured run).
    pub fn dags(&self) -> &[DepGraph] {
        &self.dags
    }

    /// Whether nothing was collected.
    pub fn is_empty(&self) -> bool {
        self.sink.is_empty() && self.metrics.is_empty() && self.dags.is_empty()
    }

    /// The timeline as Chrome trace-event JSON text, ready to load in
    /// Perfetto or `chrome://tracing` ([`crate::chrome`]).
    pub fn chrome_trace_string(&self) -> String {
        crate::chrome::chrome_trace_string(self)
    }

    /// The metrics snapshot as JSON text.
    pub fn metrics_json_string(&self) -> String {
        serde_json::to_string_pretty(&self.metrics.to_json())
    }

    /// The metrics snapshot as a JSON value wrapped with an identifying
    /// `id` field (per-experiment artifacts).
    pub fn metrics_json_labeled(&self, id: &str) -> Value {
        let mut root = Map::new();
        root.insert("id", Value::from(id));
        root.insert("metrics", self.metrics.to_json());
        Value::Object(root)
    }
}

thread_local! {
    static STACK: RefCell<Vec<(Rc<RefCell<CollectedTelemetry>>, bool)>> =
        const { RefCell::new(Vec::new()) };
}

/// A scope on the collector stack. Install with [`Collector::install`],
/// harvest with [`Collector::take`]; dropping without taking discards the
/// collected data.
pub struct Collector {
    inner: Rc<RefCell<CollectedTelemetry>>,
}

impl Collector {
    /// Push a fresh collector onto this thread's stack.
    pub fn install() -> Collector {
        Collector::install_opts(false)
    }

    /// Push a fresh collector that additionally requests causal DAG
    /// capture: simulators constructed while it is active record their
    /// dependency graph ([`crate::critpath::DepGraph`]) alongside the
    /// usual telemetry. The capture is observation-only — schedules stay
    /// bitwise-identical — but costs memory proportional to op count, so
    /// it stays opt-in.
    pub fn install_with_dag() -> Collector {
        Collector::install_opts(true)
    }

    fn install_opts(want_dag: bool) -> Collector {
        let inner = Rc::new(RefCell::new(CollectedTelemetry::new()));
        STACK.with(|s| s.borrow_mut().push((Rc::clone(&inner), want_dag)));
        Collector { inner }
    }

    /// Remove this collector from the stack and return everything it
    /// gathered.
    pub fn take(self) -> CollectedTelemetry {
        self.detach();
        self.inner.take()
    }

    fn detach(&self) {
        STACK.with(|s| {
            s.borrow_mut().retain(|(c, _)| !Rc::ptr_eq(c, &self.inner));
        });
    }
}

impl Drop for Collector {
    fn drop(&mut self) {
        self.detach();
    }
}

/// Whether any collector is active on this thread — instrumented code uses
/// this to turn itself on.
pub fn active() -> bool {
    STACK.with(|s| !s.borrow().is_empty())
}

/// Whether any active collector on this thread asked for causal DAG
/// capture ([`Collector::install_with_dag`]).
pub fn dag_requested() -> bool {
    STACK.with(|s| s.borrow().iter().any(|(_, want_dag)| *want_dag))
}

/// Deliver one simulator snapshot to every active collector.
pub fn contribute(sim: SimTelemetry) {
    STACK.with(|s| {
        let stack = s.borrow();
        for (i, (c, _)) in stack.iter().enumerate() {
            if i + 1 == stack.len() {
                // Last receiver takes the snapshot by value.
                c.borrow_mut().ingest(sim);
                return;
            }
            c.borrow_mut().ingest(sim.clone());
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifsim_des::Time;

    fn sample_sim(name: &str) -> SimTelemetry {
        let mut metrics = MetricsRegistry::new();
        metrics.counter_add(MetricKey::new("ops"), 1.0);
        SimTelemetry {
            process_name: name.into(),
            events: vec![TimelineEvent::instant(Time::from_ns(1.0), "e", "test")],
            threads: vec![(0, "lane".into())],
            metrics,
            dag: None,
        }
    }

    #[test]
    fn collectors_nest_and_both_receive() {
        assert!(!active());
        let outer = Collector::install();
        {
            let inner = Collector::install();
            assert!(active());
            contribute(sample_sim("a"));
            let got = inner.take();
            assert_eq!(got.sims(), 1);
            assert_eq!(got.events().len(), 1);
        }
        contribute(sample_sim("b"));
        let got = outer.take();
        assert_eq!(got.sims(), 2, "outer saw both contributions");
        assert!(!active());
    }

    #[test]
    fn dropped_collector_leaves_the_stack() {
        {
            let _c = Collector::install();
            assert!(active());
        }
        assert!(!active());
        contribute(sample_sim("ignored")); // no collector: a no-op
    }

    #[test]
    fn ingest_assigns_distinct_pids() {
        let mut c = CollectedTelemetry::new();
        c.ingest(sample_sim("one"));
        c.ingest(sample_sim("two"));
        let evs = c.events();
        assert_eq!(evs.len(), 2);
        assert_ne!(evs[0].pid, evs[1].pid);
        assert_eq!(c.processes().len(), 2);
        assert_eq!(
            c.metrics()
                .counter(&MetricKey::new("telemetry_sims_observed")),
            2.0
        );
        // Empty snapshots are skipped entirely.
        c.ingest(SimTelemetry::default());
        assert_eq!(c.sims(), 2);
    }

    #[test]
    fn dag_request_flag_and_graph_forwarding() {
        use crate::critpath::NodeCategory;
        assert!(!dag_requested());
        let plain = Collector::install();
        assert!(active() && !dag_requested());
        let dagged = Collector::install_with_dag();
        assert!(dag_requested(), "any collector wanting a DAG is enough");
        let mut g = DepGraph::default();
        g.add_node(0.0, 5.0, NodeCategory::Compute, "k");
        let mut sim = sample_sim("dagged");
        sim.dag = Some(g);
        contribute(sim);
        let got = dagged.take();
        assert_eq!(got.dags().len(), 1);
        assert_eq!(got.dags()[0].nodes.len(), 1);
        assert!(!dag_requested(), "flag cleared once the dag scope ends");
        // The outer (plain) collector still received the graph data, and
        // absorb concatenates graphs — this is how `repro --jobs N` merges
        // the DAGs its workers captured.
        let outer = plain.take();
        assert_eq!(outer.dags().len(), 1);
        let mut sink = CollectedTelemetry::new();
        sink.absorb(got);
        sink.absorb(outer);
        assert_eq!(sink.dags().len(), 2);
        assert!(!sink.is_empty());
    }

    #[test]
    fn absorb_offsets_pids() {
        let mut a = CollectedTelemetry::new();
        a.ingest(sample_sim("a"));
        let mut b = CollectedTelemetry::new();
        b.ingest(sample_sim("b"));
        a.absorb(b);
        assert_eq!(a.sims(), 2);
        let pids: Vec<u32> = a.events().iter().map(|e| e.pid).collect();
        assert_eq!(pids, vec![0, 1]);
        assert_eq!(a.metrics().counter(&MetricKey::new("ops")), 2.0);
    }
}
