#![warn(missing_docs)]

//! # ifsim-telemetry — the observability substrate of the simulator
//!
//! The simulator's answer to `rocprof`/`omnitrace`: one crate that every
//! layer (fabric, hip, collectives, bench) reports into, producing
//!
//! - a **metrics registry** ([`MetricsRegistry`]) of counters, gauges, and
//!   log-bucketed [`Histogram`]s with p50/p95/p99 quantiles, keyed by metric
//!   name + label set;
//! - a **merged event timeline** ([`EventSink`]) of spans and instants from
//!   any number of sources, ordered deterministically by timestamp;
//! - a **Chrome trace-event JSON** exporter ([`chrome`]) whose output loads
//!   directly in Perfetto or `chrome://tracing`;
//! - a per-link **utilization heatmap** renderer ([`heatmap`]);
//! - a **bottleneck attribution report** ([`attribution`]) answering which
//!   links bound an experiment and for how long, plus a long-format CSV of
//!   the flight recorder's counter tracks;
//! - a thread-local **collector stack** ([`collector`]) so simulator
//!   instances created deep inside experiment code can contribute their
//!   telemetry without any configuration threading;
//! - a **Prometheus text exposition** renderer ([`prom`]) backing the
//!   serve daemon's `/metrics` endpoint, with trace-id exemplars;
//! - a bounded **snapshot time-series ring** ([`timeseries`]) backing the
//!   live dashboard's backfill-and-stream event feed.
//!
//! Metric names and label conventions are documented in
//! `docs/OBSERVABILITY.md` at the repository root.

pub mod attribution;
pub mod chrome;
pub mod collector;
pub mod critpath;
pub mod event;
pub mod heatmap;
pub mod hist;
pub mod metrics;
pub mod prom;
pub mod timeseries;

pub use attribution::{attribution_json, render_attribution, timeseries_csv};
pub use collector::{CollectedTelemetry, Collector, SimTelemetry};
pub use critpath::{critpath_json, render_critpath, CritPathReport, DepGraph};
pub use event::{EventKind, EventSink, Text, TimelineEvent};
pub use heatmap::{render_heatmap, UtilRow};
pub use hist::Histogram;
pub use metrics::{Exemplar, MetricKey, MetricsRegistry};
pub use prom::render_prometheus;
pub use timeseries::SnapshotRing;

// The vendored JSON shim, re-exported so downstream crates can parse the
// exported artifacts without declaring their own dependency.
pub use serde_json as json;
