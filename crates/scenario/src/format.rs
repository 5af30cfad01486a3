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

use crate::trace::{self, TraceOp, TraceRecord};
use crate::FieldError;
use ifsim_core::experiment::digest_kv;
use ifsim_fabric::{FaultKind, FaultParams};
use serde_json::{Map, Value};

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
    /// Data-parallel training-step replay following
    /// `ifsim_apps::train::step_pattern` (ingest, compute, ring AllReduce,
    /// optimizer).
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

fn err(field: impl Into<String>, message: impl Into<String>) -> FieldError {
    FieldError {
        field: field.into(),
        message: message.into(),
    }
}

/// Reject keys outside `allowed`, naming the offending path.
fn check_fields(obj: &Map, allowed: &[&str], path: &str) -> Result<(), FieldError> {
    for (k, _) in obj.iter() {
        if !allowed.contains(&k.as_str()) {
            let field = if path.is_empty() {
                k.clone()
            } else {
                format!("{path}.{k}")
            };
            return Err(err(
                field,
                format!("unknown field (allowed: {})", allowed.join(", ")),
            ));
        }
    }
    Ok(())
}

fn get_str(obj: &Map, key: &str, path: &str) -> Result<Option<String>, FieldError> {
    match obj.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_str()
            .map(|s| Some(s.to_string()))
            .ok_or_else(|| err(join(path, key), "must be a string")),
    }
}

fn get_u64(obj: &Map, key: &str, path: &str) -> Result<Option<u64>, FieldError> {
    match obj.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| err(join(path, key), "must be a non-negative integer")),
    }
}

fn get_f64(obj: &Map, key: &str, path: &str) -> Result<Option<f64>, FieldError> {
    match obj.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_f64()
            .filter(|f| f.is_finite())
            .map(Some)
            .ok_or_else(|| err(join(path, key), "must be a finite number")),
    }
}

fn join(path: &str, key: &str) -> String {
    if path.is_empty() {
        key.to_string()
    } else {
        format!("{path}.{key}")
    }
}

impl Scenario {
    /// Parse a scenario from JSON text. Errors carry the offending field
    /// path (`workload.records[3].depends_on`, `sweep[0].values`, ...).
    #[allow(clippy::should_implement_trait)] // inherent so callers need no import
    pub fn from_str(text: &str) -> Result<Scenario, FieldError> {
        let v = serde_json::from_str(text).map_err(|e| err("", format!("invalid JSON: {e}")))?;
        Scenario::from_json(&v)
    }

    /// Parse a scenario from a decoded JSON value (the serve daemon hands
    /// the inline `scenario` payload here).
    pub fn from_json(v: &Value) -> Result<Scenario, FieldError> {
        let obj = v
            .as_object()
            .ok_or_else(|| err("", "scenario must be a JSON object"))?;
        check_fields(
            obj,
            &[
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
            ],
            "",
        )?;
        let schema = get_str(obj, "schema", "")?.ok_or_else(|| err("schema", "is required"))?;
        if schema != SCHEMA {
            return Err(err(
                "schema",
                format!("unsupported schema '{schema}' (expected {SCHEMA})"),
            ));
        }
        let name = get_str(obj, "name", "")?.ok_or_else(|| err("name", "is required"))?;
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || "._-".contains(c))
        {
            return Err(err(
                "name",
                format!("'{name}' must be non-empty, lowercase [a-z0-9._-]"),
            ));
        }
        let title = get_str(obj, "title", "")?.unwrap_or_else(|| name.clone());
        let description = get_str(obj, "description", "")?.unwrap_or_default();
        let topology = get_str(obj, "topology", "")?.unwrap_or_else(|| "frontier".to_string());

        let config = match obj.get("config") {
            None => ConfigSection::default(),
            Some(c) => parse_config(c)?,
        };
        let mut calib: Vec<(String, f64)> = Vec::new();
        if let Some(c) = obj.get("calib") {
            let c = c
                .as_object()
                .ok_or_else(|| err("calib", "must be an object of field: factor"))?;
            for (field, factor) in c.iter() {
                let factor = factor
                    .as_f64()
                    .ok_or_else(|| err(format!("calib.{field}"), "factor must be a number"))?;
                calib.push((field.clone(), factor));
            }
            calib.sort_by(|a, b| a.0.cmp(&b.0));
        }
        let mut faults = Vec::new();
        if let Some(f) = obj.get("faults") {
            let arr = f
                .as_array()
                .ok_or_else(|| err("faults", "must be an array"))?;
            for (i, ev) in arr.iter().enumerate() {
                faults.push(parse_fault(ev, &format!("faults[{i}]"))?);
            }
            faults.sort_by(|a, b| a.at_us.total_cmp(&b.at_us));
        }
        let workload = parse_workload(
            obj.get("workload")
                .ok_or_else(|| err("workload", "is required"))?,
        )?;
        let mut sweep = Vec::new();
        if let Some(s) = obj.get("sweep") {
            let arr = s
                .as_array()
                .ok_or_else(|| err("sweep", "must be an array of axes"))?;
            for (i, axis) in arr.iter().enumerate() {
                sweep.push(parse_axis(axis, &format!("sweep[{i}]"))?);
            }
        }
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
            return Err(err(
                "topology",
                format!(
                    "unknown profile '{}' (only 'frontier' exists)",
                    self.topology
                ),
            ));
        }
        if self.config.reps == Some(0) {
            return Err(err("config.reps", "must be at least 1"));
        }
        // Calibration factors go through the one checked path that
        // `ifsim-drift --perturb` and serve overrides use, here against the
        // default calibration.
        let mut calib = ifsim_hip::Calibration::default();
        for (field, factor) in &self.calib {
            calib
                .scale_f64_field(field, *factor)
                .map_err(|e| err(format!("calib.{field}"), e))?;
        }
        let topo = ifsim_topology::NodeTopology::frontier();
        let n_gcds = topo.gcds().count();
        for (i, f) in self.faults.iter().enumerate() {
            if !(f.at_us.is_finite() && f.at_us >= 0.0) {
                return Err(err(
                    format!("faults[{i}].at_us"),
                    "must be finite and non-negative",
                ));
            }
            let p = f.kind.wire_params();
            for (k, v) in [("a", p.a), ("b", p.b), ("gcd", p.gcd)] {
                if let Some(v) = v {
                    if usize::from(v) >= n_gcds {
                        return Err(err(
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
                    return Err(err(
                        format!("faults[{i}]"),
                        format!("GCDs {} and {} are not directly linked", a.0, b.0),
                    ));
                }
            }
        }
        match &self.workload {
            Workload::Registry { id } => {
                if ifsim_core::registry::by_id(id).is_none() {
                    return Err(err(
                        "workload.id",
                        format!("unknown registry experiment '{id}' (see `repro --list`)"),
                    ));
                }
                if !self.faults.is_empty() {
                    return Err(err(
                        "faults",
                        "registry workloads define their own fault plans; \
                         faults apply to trace workloads only",
                    ));
                }
                if !self.sweep.is_empty() {
                    return Err(err("sweep", "registry workloads cannot be swept"));
                }
            }
            Workload::Trace { records } => {
                trace::validate(records, n_gcds as u8)?;
                if !self.sweep.is_empty() {
                    return Err(err(
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
                        return Err(err(
                            format!("{path}.param"),
                            format!("duplicate axis '{}'", axis.param),
                        ));
                    }
                    seen.push(axis.param.clone());
                    if !g.sweepable_params().contains(&axis.param.as_str()) {
                        return Err(err(
                            format!("{path}.param"),
                            format!(
                                "'{}' is not sweepable for this workload (axes: {})",
                                axis.param,
                                g.sweepable_params().join(", ")
                            ),
                        ));
                    }
                    if axis.values.is_empty() || axis.values.len() > 64 {
                        return Err(err(
                            format!("{path}.values"),
                            "need between 1 and 64 values per axis",
                        ));
                    }
                    for (j, v) in axis.values.iter().enumerate() {
                        if !(v.is_finite() && *v > 0.0) {
                            return Err(err(
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
                            .map_err(|m| err(format!("{path}.values[{j}]"), m))?;
                        probe
                            .validate()
                            .map_err(|e| err(format!("{path}.values[{j}]"), e.message))?;
                    }
                }
                if points > 256 {
                    return Err(err(
                        "sweep",
                        format!("cartesian product too large ({points} > 256 points)"),
                    ));
                }
            }
        }
        Ok(())
    }
}

fn parse_config(v: &Value) -> Result<ConfigSection, FieldError> {
    let obj = v
        .as_object()
        .ok_or_else(|| err("config", "must be an object"))?;
    check_fields(obj, &["quick", "seed", "reps", "warmup"], "config")?;
    let mut c = ConfigSection::default();
    if let Some(q) = obj.get("quick") {
        c.quick = q
            .as_bool()
            .ok_or_else(|| err("config.quick", "must be a boolean"))?;
    }
    if let Some(s) = obj.get("seed") {
        let text = s
            .as_str()
            .ok_or_else(|| err("config.seed", "must be a decimal string (full u64 range)"))?;
        c.seed = Some(
            text.parse()
                .map_err(|e| err("config.seed", format!("bad seed '{text}': {e}")))?,
        );
    }
    c.reps = get_u64(obj, "reps", "config")?.map(|r| r as usize);
    c.warmup = get_u64(obj, "warmup", "config")?.map(|w| w as usize);
    Ok(c)
}

fn parse_fault(v: &Value, path: &str) -> Result<FaultSpec, FieldError> {
    let obj = v
        .as_object()
        .ok_or_else(|| err(path, "must be an object"))?;
    check_fields(
        obj,
        &[
            "at_us",
            "kind",
            "a",
            "b",
            "gcd",
            "lanes",
            "tax",
            "added_latency_us",
        ],
        path,
    )?;
    let at_us =
        get_f64(obj, "at_us", path)?.ok_or_else(|| err(join(path, "at_us"), "is required"))?;
    let kind_name =
        get_str(obj, "kind", path)?.ok_or_else(|| err(join(path, "kind"), "is required"))?;
    let gcd_field = |key: &str| -> Result<Option<u8>, FieldError> {
        get_u64(obj, key, path)?
            .map(|v| u8::try_from(v).map_err(|_| err(join(path, key), "GCD out of range")))
            .transpose()
    };
    let params = FaultParams {
        a: gcd_field("a")?,
        b: gcd_field("b")?,
        gcd: gcd_field("gcd")?,
        lanes: get_u64(obj, "lanes", path)?
            .map(|v| {
                u32::try_from(v).map_err(|_| err(join(path, "lanes"), "lane count out of range"))
            })
            .transpose()?,
        tax: get_f64(obj, "tax", path)?,
        added_latency_us: get_f64(obj, "added_latency_us", path)?,
    };
    let kind = FaultKind::from_wire(&kind_name, &params).map_err(|m| err(path, m))?;
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

fn parse_workload(v: &Value) -> Result<Workload, FieldError> {
    let obj = v
        .as_object()
        .ok_or_else(|| err("workload", "must be an object"))?;
    let ty =
        get_str(obj, "type", "workload")?.ok_or_else(|| err("workload.type", "is required"))?;
    let path = "workload";
    // Integer param with a default, shared by the generator arms.
    let u = |key: &str, default: u64| -> Result<u64, FieldError> {
        Ok(get_u64(obj, key, path)?.unwrap_or(default))
    };
    match ty.as_str() {
        "registry" => {
            check_fields(obj, &["type", "id"], path)?;
            let id = get_str(obj, "id", path)?.ok_or_else(|| err("workload.id", "is required"))?;
            Ok(Workload::Registry { id })
        }
        "trace" => {
            check_fields(obj, &["type", "records"], path)?;
            let arr = obj
                .get("records")
                .and_then(Value::as_array)
                .ok_or_else(|| err("workload.records", "must be an array of records"))?;
            let mut records = Vec::with_capacity(arr.len());
            for (i, r) in arr.iter().enumerate() {
                records.push(parse_record(r, &format!("workload.records[{i}]"))?);
            }
            Ok(Workload::Trace { records })
        }
        "moe-alltoall" => {
            check_fields(
                obj,
                &["type", "ranks", "bytes_per_pair", "steps", "compute_bytes"],
                path,
            )?;
            Ok(Workload::Generator(GeneratorSpec::MoeAllToAll {
                ranks: u("ranks", 8)? as usize,
                bytes_per_pair: u("bytes_per_pair", 1 << 20)?,
                steps: u("steps", 1)? as usize,
                compute_bytes: u("compute_bytes", 8 << 20)?,
            }))
        }
        "param-server" => {
            check_fields(
                obj,
                &[
                    "type",
                    "ranks",
                    "server",
                    "push_bytes",
                    "pull_bytes",
                    "steps",
                    "apply_bytes",
                ],
                path,
            )?;
            Ok(Workload::Generator(GeneratorSpec::ParamServer {
                ranks: u("ranks", 8)? as usize,
                server: u("server", 0)? as usize,
                push_bytes: u("push_bytes", 16 << 20)?,
                pull_bytes: u("pull_bytes", 16 << 20)?,
                steps: u("steps", 1)? as usize,
                apply_bytes: u("apply_bytes", 32 << 20)?,
            }))
        }
        "halo" => {
            check_fields(
                obj,
                &["type", "grid", "halo_bytes", "iters", "compute_bytes"],
                path,
            )?;
            let grid = match obj.get("grid") {
                None => (2usize, 4usize),
                Some(g) => {
                    let arr = g
                        .as_array()
                        .filter(|a| a.len() == 2)
                        .ok_or_else(|| err("workload.grid", "must be a [x, y] pair"))?;
                    let dim = |i: usize| -> Result<usize, FieldError> {
                        arr[i]
                            .as_u64()
                            .map(|v| v as usize)
                            .ok_or_else(|| err("workload.grid", "extents must be integers"))
                    };
                    (dim(0)?, dim(1)?)
                }
            };
            Ok(Workload::Generator(GeneratorSpec::Halo {
                grid,
                halo_bytes: u("halo_bytes", 4 << 20)?,
                iters: u("iters", 2)? as usize,
                compute_bytes: u("compute_bytes", 16 << 20)?,
            }))
        }
        "train-step" => {
            check_fields(
                obj,
                &[
                    "type",
                    "ranks",
                    "params",
                    "batch_bytes",
                    "steps",
                    "compute_passes",
                ],
                path,
            )?;
            Ok(Workload::Generator(GeneratorSpec::TrainStep {
                ranks: u("ranks", 8)? as usize,
                params: u("params", (64 << 20) / 4)? as usize,
                batch_bytes: u("batch_bytes", 32 << 20)?,
                steps: u("steps", 1)? as usize,
                compute_passes: u("compute_passes", 2)? as usize,
            }))
        }
        other => Err(err(
            "workload.type",
            format!(
                "unknown workload type '{other}' (expected registry|trace|\
                 moe-alltoall|param-server|halo|train-step)"
            ),
        )),
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
        Workload::Generator(GeneratorSpec::MoeAllToAll {
            ranks,
            bytes_per_pair,
            steps,
            compute_bytes,
        }) => {
            m.insert("type", Value::from("moe-alltoall"));
            m.insert("ranks", Value::from(*ranks));
            m.insert("bytes_per_pair", Value::from(*bytes_per_pair));
            m.insert("steps", Value::from(*steps));
            m.insert("compute_bytes", Value::from(*compute_bytes));
        }
        Workload::Generator(GeneratorSpec::ParamServer {
            ranks,
            server,
            push_bytes,
            pull_bytes,
            steps,
            apply_bytes,
        }) => {
            m.insert("type", Value::from("param-server"));
            m.insert("ranks", Value::from(*ranks));
            m.insert("server", Value::from(*server));
            m.insert("push_bytes", Value::from(*push_bytes));
            m.insert("pull_bytes", Value::from(*pull_bytes));
            m.insert("steps", Value::from(*steps));
            m.insert("apply_bytes", Value::from(*apply_bytes));
        }
        Workload::Generator(GeneratorSpec::Halo {
            grid,
            halo_bytes,
            iters,
            compute_bytes,
        }) => {
            m.insert("type", Value::from("halo"));
            m.insert(
                "grid",
                Value::Array(vec![Value::from(grid.0), Value::from(grid.1)]),
            );
            m.insert("halo_bytes", Value::from(*halo_bytes));
            m.insert("iters", Value::from(*iters));
            m.insert("compute_bytes", Value::from(*compute_bytes));
        }
        Workload::Generator(GeneratorSpec::TrainStep {
            ranks,
            params,
            batch_bytes,
            steps,
            compute_passes,
        }) => {
            m.insert("type", Value::from("train-step"));
            m.insert("ranks", Value::from(*ranks));
            m.insert("params", Value::from(*params));
            m.insert("batch_bytes", Value::from(*batch_bytes));
            m.insert("steps", Value::from(*steps));
            m.insert("compute_passes", Value::from(*compute_passes));
        }
    }
    Value::Object(m)
}

fn parse_record(v: &Value, path: &str) -> Result<TraceRecord, FieldError> {
    let obj = v
        .as_object()
        .ok_or_else(|| err(path, "must be an object"))?;
    check_fields(
        obj,
        &["id", "op", "src", "dst", "bytes", "depends_on"],
        path,
    )?;
    let id = get_str(obj, "id", path)?.ok_or_else(|| err(join(path, "id"), "is required"))?;
    let op_name = get_str(obj, "op", path)?.ok_or_else(|| err(join(path, "op"), "is required"))?;
    let gcd = |key: &str| -> Result<u8, FieldError> {
        get_u64(obj, key, path)?
            .and_then(|v| u8::try_from(v).ok())
            .ok_or_else(|| err(join(path, key), format!("is required for op '{op_name}'")))
    };
    let bytes =
        get_u64(obj, "bytes", path)?.ok_or_else(|| err(join(path, "bytes"), "is required"))?;
    let op = match op_name.as_str() {
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
            return Err(err(
                join(path, "op"),
                format!("unknown op '{other}' (expected copy|h2d|d2h|kernel)"),
            ))
        }
    };
    let mut depends_on = Vec::new();
    if let Some(d) = obj.get("depends_on") {
        let arr = d
            .as_array()
            .ok_or_else(|| err(join(path, "depends_on"), "must be an array of record ids"))?;
        for dep in arr {
            depends_on.push(
                dep.as_str()
                    .ok_or_else(|| err(join(path, "depends_on"), "entries must be record ids"))?
                    .to_string(),
            );
        }
    }
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

fn parse_axis(v: &Value, path: &str) -> Result<SweepAxis, FieldError> {
    let obj = v
        .as_object()
        .ok_or_else(|| err(path, "must be an object"))?;
    check_fields(obj, &["param", "values"], path)?;
    let param =
        get_str(obj, "param", path)?.ok_or_else(|| err(join(path, "param"), "is required"))?;
    let arr = obj
        .get("values")
        .and_then(Value::as_array)
        .ok_or_else(|| err(join(path, "values"), "must be an array of numbers"))?;
    let mut values = Vec::with_capacity(arr.len());
    for (j, v) in arr.iter().enumerate() {
        values.push(
            v.as_f64()
                .ok_or_else(|| err(format!("{path}.values[{j}]"), "must be a number"))?,
        );
    }
    Ok(SweepAxis { param, values })
}

impl GeneratorSpec {
    /// The wire name of this generator.
    pub fn kind_name(&self) -> &'static str {
        match self {
            GeneratorSpec::MoeAllToAll { .. } => "moe-alltoall",
            GeneratorSpec::ParamServer { .. } => "param-server",
            GeneratorSpec::Halo { .. } => "halo",
            GeneratorSpec::TrainStep { .. } => "train-step",
        }
    }

    /// The parameter names a sweep axis may target for this generator.
    pub fn sweepable_params(&self) -> Vec<&'static str> {
        match self {
            GeneratorSpec::MoeAllToAll { .. } => {
                vec!["ranks", "bytes_per_pair", "steps", "compute_bytes"]
            }
            GeneratorSpec::ParamServer { .. } => {
                vec!["ranks", "push_bytes", "pull_bytes", "steps", "apply_bytes"]
            }
            GeneratorSpec::Halo { .. } => vec!["halo_bytes", "iters", "compute_bytes"],
            GeneratorSpec::TrainStep { .. } => {
                vec!["ranks", "params", "batch_bytes", "steps", "compute_passes"]
            }
        }
    }

    /// Set a named parameter from a sweep value. Integer parameters demand
    /// integer-valued numbers.
    pub fn set_param(&mut self, name: &str, value: f64) -> Result<(), String> {
        let as_u64 = || -> Result<u64, String> {
            if value.fract() != 0.0 || value < 0.0 || value > u64::MAX as f64 {
                return Err(format!("'{name}' needs an integer value, got {value}"));
            }
            Ok(value as u64)
        };
        let as_usize = || as_u64().map(|v| v as usize);
        match self {
            GeneratorSpec::MoeAllToAll {
                ranks,
                bytes_per_pair,
                steps,
                compute_bytes,
            } => match name {
                "ranks" => *ranks = as_usize()?,
                "bytes_per_pair" => *bytes_per_pair = as_u64()?,
                "steps" => *steps = as_usize()?,
                "compute_bytes" => *compute_bytes = as_u64()?,
                _ => return Err(format!("unknown parameter '{name}'")),
            },
            GeneratorSpec::ParamServer {
                ranks,
                push_bytes,
                pull_bytes,
                steps,
                apply_bytes,
                ..
            } => match name {
                "ranks" => *ranks = as_usize()?,
                "push_bytes" => *push_bytes = as_u64()?,
                "pull_bytes" => *pull_bytes = as_u64()?,
                "steps" => *steps = as_usize()?,
                "apply_bytes" => *apply_bytes = as_u64()?,
                _ => return Err(format!("unknown parameter '{name}'")),
            },
            GeneratorSpec::Halo {
                halo_bytes,
                iters,
                compute_bytes,
                ..
            } => match name {
                "halo_bytes" => *halo_bytes = as_u64()?,
                "iters" => *iters = as_usize()?,
                "compute_bytes" => *compute_bytes = as_u64()?,
                _ => return Err(format!("unknown parameter '{name}'")),
            },
            GeneratorSpec::TrainStep {
                ranks,
                params,
                batch_bytes,
                steps,
                compute_passes,
            } => match name {
                "ranks" => *ranks = as_usize()?,
                "params" => *params = as_usize()?,
                "batch_bytes" => *batch_bytes = as_u64()?,
                "steps" => *steps = as_usize()?,
                "compute_passes" => *compute_passes = as_usize()?,
                _ => return Err(format!("unknown parameter '{name}'")),
            },
        }
        Ok(())
    }

    /// Parameter bounds for the frontier node (8 GCDs).
    pub fn validate(&self) -> Result<(), FieldError> {
        let range = |field: &str, v: usize, lo: usize, hi: usize| -> Result<(), FieldError> {
            if v < lo || v > hi {
                Err(err(
                    format!("workload.{field}"),
                    format!("{v} out of range [{lo}, {hi}]"),
                ))
            } else {
                Ok(())
            }
        };
        let positive = |field: &str, v: u64| -> Result<(), FieldError> {
            if v == 0 {
                Err(err(format!("workload.{field}"), "must be at least 1"))
            } else {
                Ok(())
            }
        };
        match *self {
            GeneratorSpec::MoeAllToAll {
                ranks,
                bytes_per_pair,
                steps,
                compute_bytes,
            } => {
                range("ranks", ranks, 2, 8)?;
                positive("bytes_per_pair", bytes_per_pair)?;
                range("steps", steps, 1, 64)?;
                positive("compute_bytes", compute_bytes)?;
            }
            GeneratorSpec::ParamServer {
                ranks,
                server,
                push_bytes,
                pull_bytes,
                steps,
                apply_bytes,
            } => {
                range("ranks", ranks, 2, 8)?;
                range("server", server, 0, ranks - 1)?;
                positive("push_bytes", push_bytes)?;
                positive("pull_bytes", pull_bytes)?;
                range("steps", steps, 1, 64)?;
                positive("apply_bytes", apply_bytes)?;
            }
            GeneratorSpec::Halo {
                grid,
                halo_bytes,
                iters,
                compute_bytes,
            } => {
                range("grid", grid.0.saturating_mul(grid.1), 2, 8)?;
                if grid.0 == 0 || grid.1 == 0 {
                    return Err(err("workload.grid", "extents must be at least 1"));
                }
                positive("halo_bytes", halo_bytes)?;
                range("iters", iters, 1, 64)?;
                positive("compute_bytes", compute_bytes)?;
            }
            GeneratorSpec::TrainStep {
                ranks,
                params,
                batch_bytes,
                steps,
                compute_passes,
            } => {
                range("ranks", ranks, 2, 8)?;
                range("params", params, 1, usize::MAX)?;
                positive("batch_bytes", batch_bytes)?;
                range("steps", steps, 1, 64)?;
                range("compute_passes", compute_passes, 1, 64)?;
            }
        }
        Ok(())
    }
}

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
    fn lane_count_beyond_u32_is_a_field_error() {
        // 2^32 + 1 must not wrap around to one lost lane.
        let e = Scenario::from_str(&with_lanes("4294967297")).unwrap_err();
        assert_eq!(e.field, "faults[0].lanes", "{e}");
        let ok = Scenario::from_str(&with_lanes("8")).expect("8 lanes parse");
        assert_eq!(ok.faults[0].kind.wire_params().lanes, Some(8));
    }
}
