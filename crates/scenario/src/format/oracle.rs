//! The generator parameter code that the per-generator tables
//! ([`GENERATORS`](super::GENERATORS)) replaced, kept as a test oracle:
//! each generator's names, defaults, integer kinds and bounds spelled out
//! in five functions, one match arm per generator. [`from_json`] runs them
//! the way `Scenario::from_json` ran them. On any generator workload,
//! faulty ones included, both paths must return the same `Result` (the
//! same scenario, or the same first fault, field path and message) and the
//! same canonical JSON.

use super::{
    parse_axis, parse_record, record_to_json, Field, FieldError, GeneratorSpec, Scenario,
    SweepAxis, Workload, INTEGER_RANGE,
};
use serde_json::{Map, Value};

pub fn parse_workload(f: Field) -> Result<Workload, FieldError> {
    let obj = f.object("must be an object")?;
    let ty = obj.req("type")?.str()?;
    // Integer params with a default, shared by the generator arms.
    let u = |key, default| Ok(obj.opt(key, Field::u64)?.unwrap_or(default));
    let n = |key, default| Ok(obj.opt(key, Field::usize)?.unwrap_or(default));
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
        "moe-alltoall" => {
            obj.only(&["type", "ranks", "bytes_per_pair", "steps", "compute_bytes"])?;
            Ok(Workload::Generator(GeneratorSpec::MoeAllToAll {
                ranks: n("ranks", 8)?,
                bytes_per_pair: u("bytes_per_pair", 1 << 20)?,
                steps: n("steps", 1)?,
                compute_bytes: u("compute_bytes", 8 << 20)?,
            }))
        }
        "param-server" => {
            obj.only(&[
                "type",
                "ranks",
                "server",
                "push_bytes",
                "pull_bytes",
                "steps",
                "apply_bytes",
            ])?;
            Ok(Workload::Generator(GeneratorSpec::ParamServer {
                ranks: n("ranks", 8)?,
                server: n("server", 0)?,
                push_bytes: u("push_bytes", 16 << 20)?,
                pull_bytes: u("pull_bytes", 16 << 20)?,
                steps: n("steps", 1)?,
                apply_bytes: u("apply_bytes", 32 << 20)?,
            }))
        }
        "halo" => {
            obj.only(&["type", "grid", "halo_bytes", "iters", "compute_bytes"])?;
            const PAIR: &str = "must be a [x, y] pair";
            let grid = match obj.get("grid") {
                None => (2, 4),
                Some(g) => match g.items(PAIR, Field::usize)?[..] {
                    [x, y] => (x, y),
                    _ => return Err(g.err(PAIR)),
                },
            };
            Ok(Workload::Generator(GeneratorSpec::Halo {
                grid,
                halo_bytes: u("halo_bytes", 4 << 20)?,
                iters: n("iters", 2)?,
                compute_bytes: u("compute_bytes", 16 << 20)?,
            }))
        }
        "train-step" => {
            obj.only(&[
                "type",
                "ranks",
                "params",
                "batch_bytes",
                "steps",
                "compute_passes",
            ])?;
            Ok(Workload::Generator(GeneratorSpec::TrainStep {
                ranks: n("ranks", 8)?,
                params: n("params", (64 << 20) / 4)?,
                batch_bytes: u("batch_bytes", 32 << 20)?,
                steps: n("steps", 1)?,
                compute_passes: n("compute_passes", 2)?,
            }))
        }
        other => Err(obj.err_at(
            "type",
            format!(
                "unknown workload type '{other}' (expected registry|trace|\
                 moe-alltoall|param-server|halo|train-step)"
            ),
        )),
    }
}

pub fn workload_to_json(w: &Workload) -> Value {
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

/// The parameter names a sweep axis may target for this generator.
pub fn sweepable_params(g: &GeneratorSpec) -> Vec<&'static str> {
    match g {
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
pub fn set_param(g: &mut GeneratorSpec, name: &str, value: f64) -> Result<(), String> {
    let as_u64 = || -> Result<u64, String> {
        if value.fract() != 0.0 || value < 0.0 || value > serde_json::MAX_SAFE_INTEGER as f64 {
            return Err(format!("'{name}' {INTEGER_RANGE}, got {value}"));
        }
        Ok(value as u64)
    };
    let as_usize = || as_u64().map(|v| v as usize);
    match g {
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
pub fn validate(g: &GeneratorSpec) -> Result<(), FieldError> {
    let range = |field: &str, v: usize, lo: usize, hi: usize| -> Result<(), FieldError> {
        if v < lo || v > hi {
            Err(FieldError::new(
                format!("workload.{field}"),
                format!("{v} out of range [{lo}, {hi}]"),
            ))
        } else {
            Ok(())
        }
    };
    let positive = |field: &str, v: u64| -> Result<(), FieldError> {
        if v == 0 {
            Err(FieldError::new(
                format!("workload.{field}"),
                "must be at least 1",
            ))
        } else {
            Ok(())
        }
    };
    match *g {
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
                return Err(FieldError::new(
                    "workload.grid",
                    "extents must be at least 1",
                ));
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
    }
    Ok(())
}

/// Parse a document holding `schema`, `name`, `workload` and `sweep` as
/// `Scenario::from_json` did: the workload, the sweep, then the generator
/// checks of `Scenario::validate`.
pub fn from_json(v: &Value) -> Result<Scenario, FieldError> {
    let obj = Field::new(v, "").object("scenario must be a JSON object")?;
    let name = obj.req("name")?.str()?.to_string();
    let workload = parse_workload(obj.req("workload")?)?;
    let sweep = obj
        .opt("sweep", |s| s.items("must be an array of axes", parse_axis))?
        .unwrap_or_default();
    if let Workload::Generator(g) = &workload {
        check_sweep(g, &sweep)?;
    }
    Ok(Scenario {
        title: name.clone(),
        name,
        description: String::new(),
        topology: "frontier".to_string(),
        config: Default::default(),
        calib: Vec::new(),
        faults: Vec::new(),
        workload,
        sweep,
    })
}

/// The generator arm of `Scenario::validate`, on the oracle's functions.
fn check_sweep(g: &GeneratorSpec, sweep: &[SweepAxis]) -> Result<(), FieldError> {
    validate(g)?;
    let mut seen = Vec::new();
    let mut points = 1usize;
    for (i, axis) in sweep.iter().enumerate() {
        let path = format!("sweep[{i}]");
        if seen.contains(&axis.param) {
            return Err(FieldError::new(
                format!("{path}.param"),
                format!("duplicate axis '{}'", axis.param),
            ));
        }
        seen.push(axis.param.clone());
        if !sweepable_params(g).contains(&axis.param.as_str()) {
            return Err(FieldError::new(
                format!("{path}.param"),
                format!(
                    "'{}' is not sweepable for this workload (axes: {})",
                    axis.param,
                    sweepable_params(g).join(", ")
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
        for (j, v) in axis.values.iter().enumerate() {
            let mut probe = g.clone();
            set_param(&mut probe, &axis.param, *v)
                .map_err(|m| FieldError::new(format!("{path}.values[{j}]"), m))?;
            validate(&probe)
                .map_err(|e| FieldError::new(format!("{path}.values[{j}]"), e.message))?;
        }
    }
    if points > 256 {
        return Err(FieldError::new(
            "sweep",
            format!("cartesian product too large ({points} > 256 points)"),
        ));
    }
    Ok(())
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    /// Every generator type, and one no generator has.
    const TYPES: [&str; 5] = ["moe-alltoall", "param-server", "halo", "train-step", "moe"];
    /// Each type's own keys (the unknown type borrows one).
    const KEYS: [&[&str]; 5] = [
        &["ranks", "bytes_per_pair", "steps", "compute_bytes"],
        &[
            "ranks",
            "server",
            "push_bytes",
            "pull_bytes",
            "steps",
            "apply_bytes",
        ],
        &["grid", "halo_bytes", "iters", "compute_bytes"],
        &["ranks", "params", "batch_bytes", "steps", "compute_passes"],
        &["ranks"],
    ];
    /// Every parameter name any generator has, and two none has.
    const NAMES: [&str; 16] = [
        "ranks",
        "server",
        "bytes_per_pair",
        "steps",
        "compute_bytes",
        "push_bytes",
        "pull_bytes",
        "apply_bytes",
        "grid",
        "halo_bytes",
        "iters",
        "params",
        "batch_bytes",
        "compute_passes",
        "rank",
        "size",
    ];
    /// Numbers at and around every bound (0, 1, 2, ranks - 1, 8, 64, 2^53)
    /// and some that are no integer at all.
    const NUMBERS: [f64; 17] = [
        0.0,
        1.0,
        2.0,
        3.0,
        4.0,
        7.0,
        8.0,
        9.0,
        63.0,
        64.0,
        65.0,
        1048576.0,
        9007199254740991.0,
        9007199254740992.0,
        1.5,
        -1.0,
        1e20,
    ];

    /// A parameter value: one of [`NUMBERS`], or a string.
    fn number(k: usize) -> Value {
        NUMBERS.get(k).map_or(Value::from("8"), |&x| Value::from(x))
    }

    /// A halo grid: valid pairs, pairs off the bounds, and no pair at all.
    fn grid(k: usize) -> Value {
        let pair = |x: f64, y: f64| Value::Array(vec![Value::from(x), Value::from(y)]);
        match k {
            0 => pair(2.0, 4.0),
            1 => pair(1.0, 8.0),
            2 => pair(3.0, 3.0),
            3 => pair(0.0, 2.0),
            4 => pair(1.0, 1.0),
            5 => pair(1.5, 2.0),
            6 => pair(2.0, 9007199254740992.0),
            7 => Value::Array(vec![Value::from(2.0)]),
            8 => Value::Array(vec![Value::from(1.0); 3]),
            _ => Value::from("2x4"),
        }
    }

    /// Generator workload documents: each of a type's keys absent or set
    /// to a value at, inside or past a bound, a non-integer, a value past
    /// 2^53 or a string; at times a key of another generator or of none;
    /// and up to two sweep axes over any name, sweepable or not, the
    /// type's own names more often, and at times the axis before's again.
    fn arb_doc() -> impl Strategy<Value = Value> {
        (
            0usize..TYPES.len(),
            proptest::collection::vec(0usize..28, 6),
            0usize..3 * NAMES.len(),
            proptest::collection::vec(
                (
                    0usize..NAMES.len() + 12,
                    proptest::collection::vec(0usize..NUMBERS.len(), 1..4),
                ),
                0..3,
            ),
        )
            .prop_map(|(ty, picks, extra, axes)| {
                let mut w = Map::new();
                w.insert("type", Value::from(TYPES[ty]));
                for (&key, &pick) in KEYS[ty].iter().zip(&picks) {
                    match (key, pick) {
                        (_, 0..=9) => {}
                        ("grid", k) => w.insert(key, grid(k - 10)),
                        (_, k) => w.insert(key, number(k - 10)),
                    }
                }
                if let Some(&key) = NAMES.get(extra) {
                    w.insert(key, number(picks[0] % 6));
                }
                let mut doc = Map::new();
                doc.insert("schema", Value::from("ifsim-scenario-v1"));
                doc.insert("name", Value::from("p"));
                doc.insert("workload", Value::Object(w));
                if !axes.is_empty() {
                    let mut before = KEYS[ty][0];
                    let axes = axes
                        .into_iter()
                        .map(|(param, values)| {
                            let own = KEYS[ty];
                            before = match param.checked_sub(NAMES.len()) {
                                None => NAMES[param],
                                Some(k @ 0..=7) => own[k % own.len()],
                                Some(_) => before,
                            };
                            let mut axis = Map::new();
                            axis.insert("param", Value::from(before));
                            axis.insert(
                                "values",
                                Value::Array(values.into_iter().map(number).collect()),
                            );
                            Value::Object(axis)
                        })
                        .collect();
                    doc.insert("sweep", Value::Array(axes));
                }
                Value::Object(doc)
            })
    }

    /// Specs built directly, past what a document can hold: integers past
    /// 2^53 and near `u64::MAX`, so the train-step overflow check runs too.
    fn arb_spec() -> impl Strategy<Value = GeneratorSpec> {
        let wide = prop_oneof![
            0u64..70,
            Just(serde_json::MAX_SAFE_INTEGER),
            Just(1u64 << 59),
            Just(1u64 << 60),
            Just(u64::MAX),
        ];
        (
            0usize..4,
            proptest::collection::vec(wide, 6),
            (0usize..10, 0usize..10),
        )
            .prop_map(|(ty, v, (x, y))| {
                let n = |k: usize| v[k] as usize;
                let extent = |k: usize| [0, 1, 2, 3, 4, 8, 9, usize::MAX][k % 8];
                match ty {
                    0 => GeneratorSpec::MoeAllToAll {
                        ranks: n(0),
                        bytes_per_pair: v[1],
                        steps: n(2),
                        compute_bytes: v[3],
                    },
                    1 => GeneratorSpec::ParamServer {
                        ranks: n(0),
                        server: n(1),
                        push_bytes: v[2],
                        pull_bytes: v[3],
                        steps: n(4),
                        apply_bytes: v[5],
                    },
                    2 => GeneratorSpec::Halo {
                        grid: (extent(x), extent(y)),
                        halo_bytes: v[0],
                        iters: n(1),
                        compute_bytes: v[2],
                    },
                    _ => GeneratorSpec::TrainStep {
                        ranks: n(0),
                        params: n(1),
                        batch_bytes: v[2],
                        steps: n(3),
                        compute_passes: n(4),
                    },
                }
            })
    }

    fn canonical(w: &Workload) -> (String, String) {
        (
            serde_json::to_string(&super::super::workload_to_json(w)),
            serde_json::to_string(&workload_to_json(w)),
        )
    }

    /// The generator reaches every outcome the checks have, so the
    /// property below compares each of them and not only the first.
    #[test]
    fn the_generator_reaches_every_outcome() {
        let mut rng = TestRng::from_key("format::oracle::outcomes");
        let strategy = arb_doc();
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..2048 {
            let outcome = match from_json(&strategy.generate(&mut rng)) {
                Ok(s) if s.sweep.is_empty() => "ok",
                Ok(_) => "ok with a sweep",
                Err(e) => [
                    "unknown field",
                    "unknown workload type",
                    "[x, y] pair",
                    "out of range [2, 8]",
                    "out of range [0, ",
                    "out of range [1, 64]",
                    "out of range [1, 1844",
                    "must be at least 1",
                    "got",
                    INTEGER_RANGE,
                    "is not sweepable",
                    "duplicate axis",
                    "must be positive and finite",
                ]
                .into_iter()
                .find(|m| e.message.contains(m))
                .unwrap_or_else(|| panic!("an unexpected fault: {e}")),
            };
            seen.insert(outcome);
        }
        assert_eq!(seen.len(), 15, "outcomes seen: {seen:?}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Parsing, the range checks and the sweep checks read from the
        /// tables exactly what the five functions spelled out: the same
        /// scenario or the same first fault, and the same canonical JSON.
        #[test]
        fn generator_tables_match_the_five_function_oracle(doc in arb_doc()) {
            let got = Scenario::from_json(&doc);
            prop_assert_eq!(&got, &from_json(&doc));
            if let Ok(s) = got {
                let (table, oracle) = canonical(&s.workload);
                prop_assert_eq!(table, oracle);
            }
        }

        /// On specs a document cannot hold, the range checks, the sweep
        /// axes, the canonical JSON and setting a parameter agree too.
        #[test]
        fn spec_methods_match_the_five_function_oracle(
            spec in arb_spec(),
            name in 0usize..NAMES.len(),
            value in prop_oneof![
                (0usize..NUMBERS.len()).prop_map(|k| NUMBERS[k]),
                Just(f64::NAN),
                Just(f64::INFINITY),
            ],
        ) {
            prop_assert_eq!(spec.validate(), validate(&spec));
            prop_assert_eq!(spec.sweepable_params(), sweepable_params(&spec));
            let (table, oracle) = canonical(&Workload::Generator(spec.clone()));
            prop_assert_eq!(table, oracle);
            let (mut a, mut b) = (spec.clone(), spec);
            prop_assert_eq!(a.set_param(NAMES[name], value), set_param(&mut b, NAMES[name], value));
            prop_assert_eq!(a, b);
        }
    }
}
