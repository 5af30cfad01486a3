//! The `ifsim-scenario-v1` declarative format: typed model, strict parser
//! (unknown fields are errors, every error names its field path), canonical
//! serializer, and content digest.
//!
//! A scenario is self-describing JSON:
//!
//! ```json
//! {
//!   "schema": "ifsim-scenario-v1",
//!   "name": "moe-a2a-demo",
//!   "workload": {"type": "moe-alltoall", "ranks": 8,
//!                "bytes_per_pair": 1048576, "steps": 2},
//!   "sweep": [{"param": "bytes_per_pair", "values": [262144, 1048576]}],
//!   "config": {"seed": "51966", "reps": 2},
//!   "calib": {"eff_sdma_xgmi": 1.0},
//!   "faults": [{"at_us": 50.0, "kind": "link-down", "a": 0, "b": 1}]
//! }
//! ```
//!
//! Parsing normalizes any field order into one typed [`Scenario`]; the
//! canonical serializer ([`Scenario::to_json`]) always emits the same
//! shape, so [`Scenario::digest`] is stable across field reordering —
//! the property the serve cache keys rely on.

use crate::field::{Field, Obj, INTEGER_RANGE};
use crate::trace::{ReplayPlan, TraceOp, TraceRecord};
use crate::FieldError;
use ifsim_core::experiment::digest_kv;
use ifsim_fabric::{FaultKind, FaultParams};
use serde_json::{Map, Value};
use Bound::{Below, Count, Size};

/// The schema identifier this crate speaks.
pub const SCHEMA: &str = "ifsim-scenario-v1";

/// Base-configuration overrides (mirrors the serve wire overrides: the
/// scenario's values win over whatever base the driver supplies).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ConfigSection {
    /// Start from `BenchConfig::quick()` instead of the driver's base.
    pub quick: bool,
    /// Jitter seed (decimal string on the wire: full `u64` range).
    pub seed: Option<u64>,
    /// Measured repetitions.
    pub reps: Option<usize>,
    /// Warmup repetitions (discarded).
    pub warmup: Option<usize>,
}

/// One scheduled fabric fault.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultSpec {
    /// Virtual time the fault strikes, microseconds from simulation start.
    pub at_us: f64,
    /// What happens.
    pub kind: FaultKind,
}

/// One sweep axis: the named generator parameter takes each value in turn.
/// Multiple axes form a cartesian product.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepAxis {
    /// Generator parameter name (see [`GeneratorSpec::sweepable_params`]).
    pub param: String,
    /// Values the parameter takes (positive, finite; integer-valued for
    /// integer parameters).
    pub values: Vec<f64>,
}

/// A built-in trace generator plus its parameters.
#[derive(Clone, Debug, PartialEq)]
pub enum GeneratorSpec {
    /// Mixture-of-experts layer: gate kernel, all-to-all dispatch, expert
    /// kernel, all-to-all combine, per step.
    MoeAllToAll {
        /// Participating ranks (devices `0..ranks`).
        ranks: usize,
        /// Bytes each rank sends every other rank, per all-to-all.
        bytes_per_pair: u64,
        /// MoE layer steps to replay.
        steps: usize,
        /// Expert-kernel memory traffic per rank per step.
        compute_bytes: u64,
    },
    /// Parameter-server push/pull: workers push gradients to the server
    /// rank, an apply kernel runs, workers pull fresh parameters.
    ParamServer {
        /// Participating ranks (devices `0..ranks`).
        ranks: usize,
        /// The server's rank.
        server: usize,
        /// Bytes each worker pushes per step.
        push_bytes: u64,
        /// Bytes each worker pulls per step.
        pull_bytes: u64,
        /// Steps to replay.
        steps: usize,
        /// Server apply-kernel traffic per step.
        apply_bytes: u64,
    },
    /// 2-D halo exchange over a `grid.0 x grid.1` rank grid (row-major on
    /// devices, 4-neighborhood, non-periodic).
    Halo {
        /// Grid extents `(x, y)`; `x * y` ranks.
        grid: (usize, usize),
        /// Halo bytes per neighbor per iteration.
        halo_bytes: u64,
        /// Iterations to replay.
        iters: usize,
        /// Compute-kernel traffic per rank per iteration.
        compute_bytes: u64,
    },
    /// Data-parallel training-step replay: per step, batch ingest,
    /// forward+backward compute, a ring AllReduce of the gradients and the
    /// optimizer.
    TrainStep {
        /// Data-parallel ranks (devices `0..ranks`).
        ranks: usize,
        /// Model parameters (f32) per rank.
        params: usize,
        /// Batch bytes ingested per rank per step.
        batch_bytes: u64,
        /// Steps to replay.
        steps: usize,
        /// Forward+backward passes per step.
        compute_passes: usize,
    },
}

/// What a scenario runs.
#[derive(Clone, Debug, PartialEq)]
pub enum Workload {
    /// Delegate to a registry experiment (the scenario contributes
    /// configuration only — runs are byte-identical to the hand-coded id).
    Registry {
        /// Registry experiment id (`fig6b`, `ext-coll-sweep`, ...).
        id: String,
    },
    /// An explicit trace: records replayed through the HIP runtime.
    Trace {
        /// The records, any topologically-valid order.
        records: Vec<TraceRecord>,
    },
    /// A built-in generator expanded to a trace at run time.
    Generator(GeneratorSpec),
}

/// A parsed, validated-shape scenario.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// Scenario name (`[a-z0-9._-]+`); the compiled experiment id is
    /// `scenario:<name>`.
    pub name: String,
    /// Human title (defaults to the name).
    pub title: String,
    /// Free-form description.
    pub description: String,
    /// Topology profile; only `frontier` (one 8-GCD node) exists today.
    pub topology: String,
    /// Base-configuration overrides.
    pub config: ConfigSection,
    /// Multiplicative calibration factors, kept name-sorted.
    pub calib: Vec<(String, f64)>,
    /// Scheduled fabric faults, kept time-sorted (stable).
    pub faults: Vec<FaultSpec>,
    /// The workload.
    pub workload: Workload,
    /// Sweep axes (generator workloads only).
    pub sweep: Vec<SweepAxis>,
}

impl Scenario {
    /// Parse a scenario from JSON text. Errors carry the offending field
    /// path (`workload.records[3].depends_on`, `sweep[0].values`, ...).
    #[allow(clippy::should_implement_trait)] // inherent so callers need no import
    pub fn from_str(text: &str) -> Result<Scenario, FieldError> {
        let v = serde_json::from_str(text)
            .map_err(|e| FieldError::new("", format!("invalid JSON: {e}")))?;
        Scenario::from_json(&v)
    }

    /// Parse a scenario from a decoded JSON value (the serve daemon hands
    /// the inline `scenario` payload here).
    pub fn from_json(v: &Value) -> Result<Scenario, FieldError> {
        let obj = Field::new(v, "").object("scenario must be a JSON object")?;
        obj.only(&[
            "schema",
            "name",
            "title",
            "description",
            "topology",
            "config",
            "calib",
            "faults",
            "workload",
            "sweep",
        ])?;
        let schema = obj.req("schema")?.str()?;
        if schema != SCHEMA {
            return Err(FieldError::new(
                "schema",
                format!("unsupported schema '{schema}' (expected {SCHEMA})"),
            ));
        }
        let name = obj.req("name")?.str()?.to_string();
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || "._-".contains(c))
        {
            return Err(FieldError::new(
                "name",
                format!("'{name}' must be non-empty, lowercase [a-z0-9._-]"),
            ));
        }
        let text = |key| obj.opt(key, Field::str);
        let title = text("title")?.map_or_else(|| name.clone(), str::to_string);
        let description = text("description")?.unwrap_or_default().to_string();
        let topology = text("topology")?.unwrap_or("frontier").to_string();
        let config = obj.opt("config", parse_config)?.unwrap_or_default();
        let mut calib = obj.opt("calib", Field::calib_factors)?.unwrap_or_default();
        calib.sort_by(|a, b| a.0.cmp(&b.0));
        let mut faults = obj
            .opt("faults", |f| f.items("must be an array", parse_fault))?
            .unwrap_or_default();
        faults.sort_by(|a, b| a.at_us.total_cmp(&b.at_us));
        let workload = parse_workload(obj.req("workload")?)?;
        let sweep = obj
            .opt("sweep", |s| s.items("must be an array of axes", parse_axis))?
            .unwrap_or_default();
        let s = Scenario {
            name,
            title,
            description,
            topology,
            config,
            calib,
            faults,
            workload,
            sweep,
        };
        s.validate()?;
        Ok(s)
    }

    /// Canonical JSON form: fixed field order, defaults omitted, factors
    /// and values normalized. Two scenarios that parse equal serialize to
    /// identical values regardless of original field order.
    pub fn to_json(&self) -> Value {
        let mut m = Map::new();
        m.insert("schema", Value::from(SCHEMA));
        m.insert("name", Value::from(self.name.clone()));
        if self.title != self.name {
            m.insert("title", Value::from(self.title.clone()));
        }
        if !self.description.is_empty() {
            m.insert("description", Value::from(self.description.clone()));
        }
        if self.topology != "frontier" {
            m.insert("topology", Value::from(self.topology.clone()));
        }
        if self.config != ConfigSection::default() {
            let mut c = Map::new();
            if self.config.quick {
                c.insert("quick", Value::from(true));
            }
            if let Some(s) = self.config.seed {
                c.insert("seed", Value::from(s.to_string()));
            }
            if let Some(r) = self.config.reps {
                c.insert("reps", Value::from(r));
            }
            if let Some(w) = self.config.warmup {
                c.insert("warmup", Value::from(w));
            }
            m.insert("config", Value::Object(c));
        }
        if !self.calib.is_empty() {
            let mut c = Map::new();
            for (field, factor) in &self.calib {
                c.insert(field.clone(), Value::from(*factor));
            }
            m.insert("calib", Value::Object(c));
        }
        if !self.faults.is_empty() {
            m.insert(
                "faults",
                Value::Array(self.faults.iter().map(fault_to_json).collect()),
            );
        }
        m.insert("workload", workload_to_json(&self.workload));
        if !self.sweep.is_empty() {
            m.insert(
                "sweep",
                Value::Array(
                    self.sweep
                        .iter()
                        .map(|a| {
                            let mut axis = Map::new();
                            axis.insert("param", Value::from(a.param.clone()));
                            axis.insert(
                                "values",
                                Value::Array(a.values.iter().map(|v| Value::from(*v)).collect()),
                            );
                            Value::Object(axis)
                        })
                        .collect(),
                ),
            );
        }
        Value::Object(m)
    }

    /// Content digest over the canonical serialization — field-order
    /// independent by construction. Folded into the compiled experiment's
    /// `config_digest`, so result caches key on scenario *content*.
    pub fn digest(&self) -> String {
        digest_kv(&[(
            "scenario-canonical".to_string(),
            serde_json::to_string(&self.to_json()),
        )])
    }

    /// Semantic validation beyond field shapes. Parsing calls this; the
    /// lint front-end reports its field-annotated errors.
    pub fn validate(&self) -> Result<(), FieldError> {
        if self.topology != "frontier" {
            return Err(FieldError::new(
                "topology",
                format!(
                    "unknown profile '{}' (only 'frontier' exists)",
                    self.topology
                ),
            ));
        }
        if self.config.reps == Some(0) {
            return Err(FieldError::new("config.reps", "must be at least 1"));
        }
        // Calibration factors go through the one checked path that
        // `ifsim-drift --perturb` and serve overrides use, here against the
        // default calibration.
        let mut calib = ifsim_hip::Calibration::default();
        for (field, factor) in &self.calib {
            calib
                .scale_f64_field(field, *factor)
                .map_err(|e| FieldError::new(format!("calib.{field}"), e))?;
        }
        let topo = ifsim_topology::NodeTopology::frontier();
        let n_gcds = topo.gcds().count();
        for (i, f) in self.faults.iter().enumerate() {
            if !(f.at_us.is_finite() && f.at_us >= 0.0) {
                return Err(FieldError::new(
                    format!("faults[{i}].at_us"),
                    "must be finite and non-negative",
                ));
            }
            let p = f.kind.wire_params();
            for (k, v) in [("a", p.a), ("b", p.b), ("gcd", p.gcd)] {
                if let Some(v) = v {
                    if usize::from(v) >= n_gcds {
                        return Err(FieldError::new(
                            format!("faults[{i}].{k}"),
                            format!("GCD {v} out of range (frontier has {n_gcds})"),
                        ));
                    }
                }
            }
            // Link faults must name directly-linked endpoints, the same
            // rule `HipSim::set_fault_plan` enforces at run time.
            if let Some((a, b)) = f.kind.endpoints() {
                use ifsim_topology::PortId;
                if topo.link_between(PortId::Gcd(a), PortId::Gcd(b)).is_none() {
                    return Err(FieldError::new(
                        format!("faults[{i}]"),
                        format!("GCDs {} and {} are not directly linked", a.0, b.0),
                    ));
                }
            }
        }
        match &self.workload {
            Workload::Registry { id } => {
                if ifsim_core::registry::by_id(id).is_none() {
                    return Err(FieldError::new(
                        "workload.id",
                        format!("unknown registry experiment '{id}' (see `repro --list`)"),
                    ));
                }
                if !self.faults.is_empty() {
                    return Err(FieldError::new(
                        "faults",
                        "registry workloads define their own fault plans; \
                         faults apply to trace workloads only",
                    ));
                }
                if !self.sweep.is_empty() {
                    return Err(FieldError::new(
                        "sweep",
                        "registry workloads cannot be swept",
                    ));
                }
            }
            Workload::Trace { records } => {
                ReplayPlan::new(records, n_gcds as u8)?;
                if !self.sweep.is_empty() {
                    return Err(FieldError::new(
                        "sweep",
                        "explicit traces cannot be swept; use a generator workload",
                    ));
                }
            }
            Workload::Generator(g) => {
                g.validate()?;
                let mut seen = Vec::new();
                let mut points = 1usize;
                for (i, axis) in self.sweep.iter().enumerate() {
                    let path = format!("sweep[{i}]");
                    if seen.contains(&axis.param) {
                        return Err(FieldError::new(
                            format!("{path}.param"),
                            format!("duplicate axis '{}'", axis.param),
                        ));
                    }
                    seen.push(axis.param.clone());
                    if !g.sweepable_params().contains(&axis.param.as_str()) {
                        return Err(FieldError::new(
                            format!("{path}.param"),
                            format!(
                                "'{}' is not sweepable for this workload (axes: {})",
                                axis.param,
                                g.sweepable_params().join(", ")
                            ),
                        ));
                    }
                    if axis.values.is_empty() || axis.values.len() > 64 {
                        return Err(FieldError::new(
                            format!("{path}.values"),
                            "need between 1 and 64 values per axis",
                        ));
                    }
                    for (j, v) in axis.values.iter().enumerate() {
                        if !(v.is_finite() && *v > 0.0) {
                            return Err(FieldError::new(
                                format!("{path}.values[{j}]"),
                                "must be positive and finite",
                            ));
                        }
                    }
                    points = points.saturating_mul(axis.values.len());
                    // Every value must survive being set (integrality,
                    // range): probe a clone now so runs cannot fail later.
                    for (j, v) in axis.values.iter().enumerate() {
                        let mut probe = g.clone();
                        probe
                            .set_param(&axis.param, *v)
                            .map_err(|m| FieldError::new(format!("{path}.values[{j}]"), m))?;
                        probe.validate().map_err(|e| {
                            FieldError::new(format!("{path}.values[{j}]"), e.message)
                        })?;
                    }
                }
                if points > 256 {
                    return Err(FieldError::new(
                        "sweep",
                        format!("cartesian product too large ({points} > 256 points)"),
                    ));
                }
            }
        }
        Ok(())
    }
}

fn parse_config(f: Field) -> Result<ConfigSection, FieldError> {
    let obj = f.object("must be an object")?;
    obj.only(&["quick", "seed", "reps", "warmup"])?;
    Ok(ConfigSection {
        quick: obj.opt("quick", Field::bool)?.unwrap_or(false),
        seed: obj.opt("seed", Field::seed)?,
        reps: obj.opt("reps", Field::usize)?,
        warmup: obj.opt("warmup", Field::usize)?,
    })
}

fn parse_fault(f: Field) -> Result<FaultSpec, FieldError> {
    let obj = f.object("must be an object")?;
    obj.only(&[
        "at_us",
        "kind",
        "a",
        "b",
        "gcd",
        "lanes",
        "tax",
        "added_latency_us",
    ])?;
    let at_us = obj.req("at_us")?.f64()?;
    let kind_name = obj.req("kind")?.str()?;
    let gcd = |key| obj.opt(key, |g| g.u8("GCD"));
    let params = FaultParams {
        a: gcd("a")?,
        b: gcd("b")?,
        gcd: gcd("gcd")?,
        lanes: obj.opt("lanes", |l| l.u32("lane count"))?,
        tax: obj.opt("tax", Field::f64)?,
        added_latency_us: obj.opt("added_latency_us", Field::f64)?,
    };
    let kind = FaultKind::from_wire(kind_name, &params).map_err(|m| f.err(m))?;
    Ok(FaultSpec { at_us, kind })
}

fn fault_to_json(f: &FaultSpec) -> Value {
    let mut m = Map::new();
    m.insert("at_us", Value::from(f.at_us));
    m.insert("kind", Value::from(f.kind.wire_name()));
    let p = f.kind.wire_params();
    if let Some(a) = p.a {
        m.insert("a", Value::from(u64::from(a)));
    }
    if let Some(b) = p.b {
        m.insert("b", Value::from(u64::from(b)));
    }
    if let Some(g) = p.gcd {
        m.insert("gcd", Value::from(u64::from(g)));
    }
    if let Some(l) = p.lanes {
        m.insert("lanes", Value::from(l));
    }
    if let Some(t) = p.tax {
        m.insert("tax", Value::from(t));
    }
    if let Some(us) = p.added_latency_us {
        m.insert("added_latency_us", Value::from(us));
    }
    Value::Object(m)
}

fn parse_workload(f: Field) -> Result<Workload, FieldError> {
    let obj = f.object("must be an object")?;
    let ty = obj.req("type")?.str()?;
    match ty {
        "registry" => {
            obj.only(&["type", "id"])?;
            let id = obj.req("id")?.str()?.to_string();
            Ok(Workload::Registry { id })
        }
        "trace" => {
            obj.only(&["type", "records"])?;
            let records = obj
                .req("records")?
                .items("must be an array of records", parse_record)?;
            Ok(Workload::Trace { records })
        }
        other => match GENERATORS.iter().find(|g| g.name == other) {
            Some(g) => g.parse(&obj).map(Workload::Generator),
            None => {
                let names: Vec<&str> = GENERATORS.iter().map(|g| g.name).collect();
                Err(obj.err_at(
                    "type",
                    format!(
                        "unknown workload type '{other}' (expected registry|trace|{})",
                        names.join("|")
                    ),
                ))
            }
        },
    }
}

fn workload_to_json(w: &Workload) -> Value {
    let mut m = Map::new();
    match w {
        Workload::Registry { id } => {
            m.insert("type", Value::from("registry"));
            m.insert("id", Value::from(id.clone()));
        }
        Workload::Trace { records } => {
            m.insert("type", Value::from("trace"));
            m.insert(
                "records",
                Value::Array(records.iter().map(record_to_json).collect()),
            );
        }
        Workload::Generator(g) => {
            m.insert("type", Value::from(g.kind_name()));
            if let GeneratorSpec::Halo { grid, .. } = g {
                m.insert(
                    "grid",
                    Value::Array(vec![Value::from(grid.0), Value::from(grid.1)]),
                );
            }
            for (p, v) in g.table().params.iter().zip(g.values()) {
                m.insert(p.name, Value::from(v));
            }
        }
    }
    Value::Object(m)
}

fn parse_record(f: Field) -> Result<TraceRecord, FieldError> {
    let obj = f.object("must be an object")?;
    obj.only(&["id", "op", "src", "dst", "bytes", "depends_on"])?;
    let id = obj.req("id")?.str()?.to_string();
    let op_name = obj.req("op")?.str()?;
    let gcd = |key| match obj.get(key) {
        Some(g) => g.u8("GCD"),
        None => Err(obj.err_at(key, format!("is required for op '{op_name}'"))),
    };
    let bytes = obj.req("bytes")?.u64()?;
    let op = match op_name {
        "copy" => TraceOp::Copy {
            src: gcd("src")?,
            dst: gcd("dst")?,
            bytes,
        },
        "h2d" => TraceOp::H2D {
            dst: gcd("dst")?,
            bytes,
        },
        "d2h" => TraceOp::D2H {
            src: gcd("src")?,
            bytes,
        },
        "kernel" => TraceOp::Kernel {
            gcd: gcd("dst")?,
            bytes,
        },
        other => {
            return Err(obj.err_at(
                "op",
                format!("unknown op '{other}' (expected copy|h2d|d2h|kernel)"),
            ))
        }
    };
    let depends_on = obj
        .opt("depends_on", |d| {
            d.items("must be an array of record ids", |dep| {
                dep.str().map(str::to_string)
            })
        })?
        .unwrap_or_default();
    Ok(TraceRecord { id, op, depends_on })
}

fn record_to_json(r: &TraceRecord) -> Value {
    let mut m = Map::new();
    m.insert("id", Value::from(r.id.clone()));
    let (op, src, dst, bytes) = match r.op {
        TraceOp::Copy { src, dst, bytes } => ("copy", Some(src), Some(dst), bytes),
        TraceOp::H2D { dst, bytes } => ("h2d", None, Some(dst), bytes),
        TraceOp::D2H { src, bytes } => ("d2h", Some(src), None, bytes),
        TraceOp::Kernel { gcd, bytes } => ("kernel", None, Some(gcd), bytes),
    };
    m.insert("op", Value::from(op));
    if let Some(s) = src {
        m.insert("src", Value::from(u64::from(s)));
    }
    if let Some(d) = dst {
        m.insert("dst", Value::from(u64::from(d)));
    }
    m.insert("bytes", Value::from(bytes));
    if !r.depends_on.is_empty() {
        m.insert(
            "depends_on",
            Value::Array(
                r.depends_on
                    .iter()
                    .map(|d| Value::from(d.clone()))
                    .collect(),
            ),
        );
    }
    Value::Object(m)
}

fn parse_axis(f: Field) -> Result<SweepAxis, FieldError> {
    let obj = f.object("must be an object")?;
    obj.only(&["param", "values"])?;
    Ok(SweepAxis {
        param: obj.req("param")?.str()?.to_string(),
        values: obj
            .req("values")?
            .items("must be an array of numbers", Field::f64)?,
    })
}

/// What values a generator parameter takes on the frontier node (8 GCDs).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Bound {
    /// A byte count: at least 1.
    Size,
    /// A count in `[lo, hi]`.
    Count(u64, u64),
    /// A count below the value of row `k`, an earlier row whose bound
    /// keeps it at least 1 (param-server's `server` is one of its ranks).
    Below(usize),
}

/// One integer parameter of a generator: a row of its table.
#[derive(Clone, Copy, Debug)]
pub struct Param {
    /// The wire name.
    pub name: &'static str,
    /// The value a workload that omits it gets.
    pub default: u64,
    /// The values it may take.
    pub bound: Bound,
    /// Whether a sweep axis may set it.
    pub sweep: bool,
}

const fn row(name: &'static str, default: u64, bound: Bound, sweep: bool) -> Param {
    Param {
        name,
        default,
        bound,
        sweep,
    }
}

/// Most rows any generator has.
const MAX_PARAMS: usize = 6;

/// A generator's wire type and its parameters, in canonical key order.
/// Parsing, the canonical JSON, sweeps and the range checks all read it.
pub struct Generator {
    /// The wire type.
    pub name: &'static str,
    /// The default `[x, y]` rank grid of a generator that takes one
    /// (halo). The pair is read and checked by code, not as a row.
    pub grid: Option<(usize, usize)>,
    /// The integer parameters.
    pub params: &'static [Param],
    /// The spec whose rows take the values `v`, in row order.
    build: fn(&[u64; MAX_PARAMS], (usize, usize)) -> GeneratorSpec,
}

/// Every generator, by wire type.
pub static GENERATORS: [Generator; 4] = [
    Generator {
        name: "moe-alltoall",
        grid: None,
        params: &[
            row("ranks", 8, Count(2, 8), true),
            row("bytes_per_pair", 1 << 20, Size, true),
            row("steps", 1, Count(1, 64), true),
            row("compute_bytes", 8 << 20, Size, true),
        ],
        build: |v, _| GeneratorSpec::MoeAllToAll {
            ranks: v[0] as usize,
            bytes_per_pair: v[1],
            steps: v[2] as usize,
            compute_bytes: v[3],
        },
    },
    Generator {
        name: "param-server",
        grid: None,
        params: &[
            row("ranks", 8, Count(2, 8), true),
            row("server", 0, Below(0), false),
            row("push_bytes", 16 << 20, Size, true),
            row("pull_bytes", 16 << 20, Size, true),
            row("steps", 1, Count(1, 64), true),
            row("apply_bytes", 32 << 20, Size, true),
        ],
        build: |v, _| GeneratorSpec::ParamServer {
            ranks: v[0] as usize,
            server: v[1] as usize,
            push_bytes: v[2],
            pull_bytes: v[3],
            steps: v[4] as usize,
            apply_bytes: v[5],
        },
    },
    Generator {
        name: "halo",
        grid: Some((2, 4)),
        params: &[
            row("halo_bytes", 4 << 20, Size, true),
            row("iters", 2, Count(1, 64), true),
            row("compute_bytes", 16 << 20, Size, true),
        ],
        build: |v, grid| GeneratorSpec::Halo {
            grid,
            halo_bytes: v[0],
            iters: v[1] as usize,
            compute_bytes: v[2],
        },
    },
    Generator {
        name: "train-step",
        grid: None,
        params: &[
            row("ranks", 8, Count(2, 8), true),
            row("params", (64 << 20) / 4, Count(1, u64::MAX), true),
            row("batch_bytes", 32 << 20, Size, true),
            row("steps", 1, Count(1, 64), true),
            row("compute_passes", 2, Count(1, 64), true),
        ],
        build: |v, _| GeneratorSpec::TrainStep {
            ranks: v[0] as usize,
            params: v[1] as usize,
            batch_bytes: v[2],
            steps: v[3] as usize,
            compute_passes: v[4] as usize,
        },
    },
];

impl Generator {
    /// Read this generator's parameters from `obj`, a workload of its type.
    fn parse(&self, obj: &Obj) -> Result<GeneratorSpec, FieldError> {
        // The allowed keys, `type` first, on the stack: parsing allocates
        // nothing per parameter.
        let mut keys = ["type"; MAX_PARAMS + 2];
        let names = self.grid.map(|_| "grid").into_iter();
        let names = names.chain(self.params.iter().map(|p| p.name));
        let mut n = 1;
        for name in names {
            keys[n] = name;
            n += 1;
        }
        obj.only(&keys[..n])?;
        const PAIR: &str = "must be a [x, y] pair";
        let grid = match obj.get("grid") {
            None => self.grid.unwrap_or_default(),
            Some(g) => match g.items(PAIR, Field::usize)?[..] {
                [x, y] => (x, y),
                _ => return Err(g.err(PAIR)),
            },
        };
        let mut v = [0; MAX_PARAMS];
        for (v, p) in v.iter_mut().zip(self.params) {
            *v = obj.opt(p.name, Field::u64)?.unwrap_or(p.default);
        }
        Ok((self.build)(&v, grid))
    }
}

/// `v out of range [lo, hi]` at `workload.<name>`, unless it is inside.
fn in_range(name: &str, v: u64, lo: u64, hi: u64) -> Result<(), FieldError> {
    if v < lo || v > hi {
        Err(FieldError::new(
            format!("workload.{name}"),
            format!("{v} out of range [{lo}, {hi}]"),
        ))
    } else {
        Ok(())
    }
}

impl GeneratorSpec {
    /// This generator's table.
    fn table(&self) -> &'static Generator {
        &GENERATORS[match self {
            GeneratorSpec::MoeAllToAll { .. } => 0,
            GeneratorSpec::ParamServer { .. } => 1,
            GeneratorSpec::Halo { .. } => 2,
            GeneratorSpec::TrainStep { .. } => 3,
        }]
    }

    /// The wire name of this generator.
    pub fn kind_name(&self) -> &'static str {
        self.table().name
    }

    /// The table rows' values, in row order.
    fn values(&self) -> [u64; MAX_PARAMS] {
        let n = |x: usize| x as u64;
        match *self {
            GeneratorSpec::MoeAllToAll {
                ranks,
                bytes_per_pair,
                steps,
                compute_bytes,
            } => [n(ranks), bytes_per_pair, n(steps), compute_bytes, 0, 0],
            GeneratorSpec::ParamServer {
                ranks,
                server,
                push_bytes,
                pull_bytes,
                steps,
                apply_bytes,
            } => [
                n(ranks),
                n(server),
                push_bytes,
                pull_bytes,
                n(steps),
                apply_bytes,
            ],
            GeneratorSpec::Halo {
                halo_bytes,
                iters,
                compute_bytes,
                ..
            } => [halo_bytes, n(iters), compute_bytes, 0, 0, 0],
            GeneratorSpec::TrainStep {
                ranks,
                params,
                batch_bytes,
                steps,
                compute_passes,
            } => [
                n(ranks),
                n(params),
                batch_bytes,
                n(steps),
                n(compute_passes),
                0,
            ],
        }
    }

    /// The parameter names a sweep axis may target for this generator.
    pub fn sweepable_params(&self) -> Vec<&'static str> {
        let rows = self.table().params.iter();
        rows.filter(|p| p.sweep).map(|p| p.name).collect()
    }

    /// Set a sweepable parameter from a sweep value. Integer parameters
    /// demand integer-valued numbers.
    pub fn set_param(&mut self, name: &str, value: f64) -> Result<(), String> {
        let table = self.table();
        let Some(k) = table.params.iter().position(|p| p.sweep && p.name == name) else {
            return Err(format!("unknown parameter '{name}'"));
        };
        if value.fract() != 0.0 || value < 0.0 || value > serde_json::MAX_SAFE_INTEGER as f64 {
            return Err(format!("'{name}' {INTEGER_RANGE}, got {value}"));
        }
        let mut v = self.values();
        v[k] = value as u64;
        let grid = match *self {
            GeneratorSpec::Halo { grid, .. } => grid,
            _ => (0, 0),
        };
        *self = (table.build)(&v, grid);
        Ok(())
    }

    /// Parameter bounds for the frontier node (8 GCDs): the grid, each
    /// row's bound in row order, then the train-step kernel size.
    pub fn validate(&self) -> Result<(), FieldError> {
        if let GeneratorSpec::Halo { grid, .. } = *self {
            // Zero extents make a product of 0, so this covers them.
            in_range("grid", grid.0.saturating_mul(grid.1) as u64, 2, 8)?;
        }
        let values = self.values();
        for (p, &v) in self.table().params.iter().zip(&values) {
            let (lo, hi) = match p.bound {
                Size if v == 0 => {
                    return Err(FieldError::new(
                        format!("workload.{}", p.name),
                        "must be at least 1",
                    ))
                }
                Size => continue,
                Count(lo, hi) => (lo, hi),
                Below(k) => (0, values[k] - 1),
            };
            in_range(p.name, v, lo, hi)?;
        }
        if let GeneratorSpec::TrainStep {
            params,
            compute_passes,
            ..
        } = *self
        {
            // The compute kernel moves 20 bytes (5 f32 accesses) per
            // parameter per pass; every record's bytes must fit in u64.
            let fits = u64::try_from(params)
                .ok()
                .and_then(|p| p.checked_mul(20))
                .and_then(|b| b.checked_mul(compute_passes as u64))
                .is_some();
            if !fits {
                return Err(FieldError::new(
                    "workload.params",
                    format!(
                        "{params} parameters x {compute_passes} passes overflow \
                         the kernel byte count"
                    ),
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;

    fn with_lanes(lanes: &str) -> String {
        format!(
            r#"{{"schema": "ifsim-scenario-v1", "name": "x",
                "faults": [{{"at_us": 1.0, "kind": "lane-loss", "a": 0, "b": 1, "lanes": {lanes}}}],
                "workload": {{"type": "moe-alltoall"}}}}"#
        )
    }

    #[test]
    fn calib_factors_are_checked_against_the_calibration() {
        let with_calib = |calib: &str| {
            format!(
                r#"{{"schema": "ifsim-scenario-v1", "name": "x", "calib": {calib},
                    "workload": {{"type": "moe-alltoall"}}}}"#
            )
        };
        let ok = Scenario::from_str(&with_calib(r#"{"eff_sdma_xgmi": 1.2}"#)).unwrap();
        assert_eq!(ok.calib, vec![("eff_sdma_xgmi".to_string(), 1.2)]);
        for (calib, field, says) in [
            (
                r#"{"eff_sdma_xgmi": 2.0}"#,
                "calib.eff_sdma_xgmi",
                "outside (0, 1]",
            ),
            (
                r#"{"ddr_total_bw": 0}"#,
                "calib.ddr_total_bw",
                "not positive",
            ),
            (
                r#"{"ddr_total_bw": -1}"#,
                "calib.ddr_total_bw",
                "not positive",
            ),
            (
                r#"{"ddr_total_bw": "x"}"#,
                "calib.ddr_total_bw",
                "must be a number",
            ),
            (
                r#"{"no_such": 1.0}"#,
                "calib.no_such",
                "unknown calibration field",
            ),
        ] {
            let e = Scenario::from_str(&with_calib(calib)).unwrap_err();
            assert_eq!(e.field, field, "{calib}: {e}");
            assert!(e.message.contains(says), "{calib}: {e}");
        }
    }

    #[test]
    fn train_step_params_must_keep_kernel_bytes_in_u64() {
        // A parsed scenario cannot reach the overflow (its integers stop at
        // 2^53 - 1 and passes at 64), so build the spec directly.
        let with_params = |params: usize, compute_passes: usize| {
            GeneratorSpec::TrainStep {
                ranks: 8,
                params,
                batch_bytes: 1,
                steps: 1,
                compute_passes,
            }
            .validate()
        };
        // 20 * 2^59 bytes fit in u64; twice that, by passes or parameters,
        // would wrap the kernel byte count.
        with_params(1 << 59, 1).expect("20 bytes per parameter fit");
        for (params, passes) in [(1 << 59, 2), (1 << 60, 1), (1 << 62, 2)] {
            let e = with_params(params, passes).unwrap_err();
            assert_eq!(e.field, "workload.params", "{params} x {passes}: {e}");
            assert!(e.message.contains("overflow"), "{e}");
        }
    }

    #[test]
    fn integers_past_2_pow_53_are_field_errors_naming_the_limit() {
        // 922337203685477580 would otherwise round to ...632 unnoticed.
        let e = Scenario::from_str(
            r#"{"schema": "ifsim-scenario-v1", "name": "x",
                "workload": {"type": "train-step", "params": 922337203685477580}}"#,
        )
        .unwrap_err();
        assert_eq!(e.field, "workload.params", "{e}");
        assert!(e.message.contains("9007199254740991"), "{e}");
        // The limit itself still parses exactly.
        let ok = Scenario::from_str(
            r#"{"schema": "ifsim-scenario-v1", "name": "x",
                "workload": {"type": "halo", "compute_bytes": 9007199254740991}}"#,
        )
        .expect("2^53 - 1 is exact");
        let Workload::Generator(GeneratorSpec::Halo { compute_bytes, .. }) = ok.workload else {
            panic!("expected a halo generator")
        };
        assert_eq!(compute_bytes, serde_json::MAX_SAFE_INTEGER);
        // A sweep value past the limit names its slot and the limit too.
        let e = Scenario::from_str(
            r#"{"schema": "ifsim-scenario-v1", "name": "x",
                "workload": {"type": "halo"},
                "sweep": [{"param": "compute_bytes", "values": [4096, 9007199254740992]}]}"#,
        )
        .unwrap_err();
        assert_eq!(e.field, "sweep[0].values[1]", "{e}");
        assert!(e.message.contains("9007199254740991"), "{e}");
    }

    #[test]
    fn gcds_past_u8_say_out_of_range_in_records_and_faults() {
        let with_record = |record: &str| {
            format!(
                r#"{{"schema": "ifsim-scenario-v1", "name": "x",
                    "workload": {{"type": "trace", "records": [
                        {{"id": "a", "op": "kernel", "dst": 0, "bytes": 64}}, {record}]}}}}"#
            )
        };
        for (record, field, says) in [
            (
                r#"{"id": "b", "op": "copy", "src": 300, "dst": 1, "bytes": 64}"#,
                "workload.records[1].src",
                "GCD out of range",
            ),
            (
                r#"{"id": "b", "op": "h2d", "dst": 256, "bytes": 64}"#,
                "workload.records[1].dst",
                "GCD out of range",
            ),
            (
                r#"{"id": "b", "op": "copy", "dst": 1, "bytes": 64}"#,
                "workload.records[1].src",
                "is required for op 'copy'",
            ),
        ] {
            let e = Scenario::from_str(&with_record(record)).unwrap_err();
            assert_eq!(
                (e.field.as_str(), e.message.as_str()),
                (field, says),
                "{record}"
            );
        }
        let e = Scenario::from_str(
            r#"{"schema": "ifsim-scenario-v1", "name": "x",
                "faults": [{"at_us": 1.0, "kind": "link-down", "a": 300, "b": 1}],
                "workload": {"type": "moe-alltoall"}}"#,
        )
        .unwrap_err();
        assert_eq!(
            (e.field.as_str(), e.message.as_str()),
            ("faults[0].a", "GCD out of range")
        );
    }

    #[test]
    fn lane_count_beyond_u32_is_a_field_error() {
        // 2^32 + 1 must not wrap around to one lost lane.
        let e = Scenario::from_str(&with_lanes("4294967297")).unwrap_err();
        assert_eq!(e.field, "faults[0].lanes", "{e}");
        let ok = Scenario::from_str(&with_lanes("8")).expect("8 lanes parse");
        assert_eq!(ok.faults[0].kind.wire_params().lanes, Some(8));
    }
}
