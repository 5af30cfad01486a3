//! The serve wire protocol: newline-delimited JSON request/response pairs.
//!
//! Every message is one JSON object on one line. Requests carry an `op`
//! field (`ping`, `stats`, `shutdown`, `run`); responses carry `status`
//! plus an HTTP-flavoured numeric `code` so scripted clients can branch
//! without string matching. The only structured pair is
//! [`RunRequest`] / [`RunResponse`]; `ping`/`stats`/`shutdown` responses
//! are free-form JSON documented in `docs/SERVING.md`.
//!
//! Two encoding rules keep the protocol exact under the vendored
//! f64-backed JSON shim:
//!
//! - `seed` travels as a **decimal string**, not a JSON number, so the
//!   full `u64` range survives the round-trip; integer numbers above
//!   2^53 - 1 ([`serde_json::MAX_SAFE_INTEGER`]) are refused, since the
//!   parse may already have rounded them;
//! - responses contain no timestamps or timing fields, so a cached
//!   response is byte-identical to the fresh compute it replays (only the
//!   `cached` flag and the per-request `trace_id` differ).
//!
//! **Tracing:** any request may carry a top-level `trace_id` string; the
//! server echoes it (or a generated one) on every non-ping response, so a
//! client can correlate a slow answer with the server's request span and
//! the latency-histogram exemplars in `/metrics`.
//!
//! **Structured errors:** every malformed-payload rejection is a
//! [`FieldError`] naming the offending field as a dotted path
//! (`overrides.calib.eff_sdma_xgmi`, `scenario.workload.records[3].bytes`);
//! error responses carry the path under the wire key `field` alongside
//! the human-readable `error` text. Requests are strict: a key outside
//! the schema is such a rejection too. Requests, responses and scenarios
//! are all read through the scenario crate's [`Field`] reader, so both
//! planes speak one shape.

use ifsim_core::BenchConfig;
use ifsim_scenario::Field;
pub use ifsim_scenario::FieldError;
use serde_json::{Map, Value};

/// Any request a client can send.
// One short-lived value per wire line, destructured immediately after
// parsing — the Run variant's size (inline scenario payload) never
// accumulates anywhere, so boxing would be pure indirection.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Server statistics snapshot (`ifsim-serve-stats-v2`).
    Stats,
    /// Ask the server to drain and exit.
    Shutdown,
    /// Run (or replay from cache) one experiment.
    Run(RunRequest),
}

/// Overrides applied on top of the server's resident default
/// configuration. All fields are optional; `calib` entries are
/// **multiplicative factors** on named calibration constants (the same
/// names `ifsim-drift --list-fields` prints), so `1.0` is the identity.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct ConfigOverrides {
    /// Start from `BenchConfig::quick()` instead of the full default.
    pub quick: bool,
    /// Jitter seed override.
    pub seed: Option<u64>,
    /// Measured repetitions override.
    pub reps: Option<usize>,
    /// Warmup repetitions override.
    pub warmup: Option<usize>,
    /// `(field, factor)` multiplicative calibration perturbations.
    pub calib: Vec<(String, f64)>,
}

impl ConfigOverrides {
    /// Materialize the overrides into a runnable configuration. An
    /// unknown calibration field, a factor that is not positive and
    /// finite, or one that takes an efficiency out of (0, 1] is a client
    /// error naming the offending `overrides.calib.<field>` path.
    pub fn resolve(&self) -> Result<BenchConfig, FieldError> {
        let mut cfg = if self.quick {
            BenchConfig::quick()
        } else {
            BenchConfig::default()
        };
        if let Some(s) = self.seed {
            cfg.seed = s;
        }
        if let Some(r) = self.reps {
            cfg.reps = r;
        }
        if let Some(w) = self.warmup {
            cfg.warmup = w;
        }
        for (field, factor) in &self.calib {
            cfg.calib
                .scale_f64_field(field, *factor)
                .map_err(|e| FieldError::new(format!("overrides.calib.{field}"), e))?;
        }
        Ok(cfg)
    }

    /// Whether every field is at its default (serialized as `{}`).
    pub fn is_default(&self) -> bool {
        *self == ConfigOverrides::default()
    }
}

/// One experiment request.
#[derive(Clone, Debug, PartialEq)]
pub struct RunRequest {
    /// Registry id (`fig6a`, `table1`, ...). May be empty when an inline
    /// `scenario` is supplied; the server then echoes the compiled
    /// scenario's id (`scenario:<name>`).
    pub experiment_id: String,
    /// Inline scenario document (schema `ifsim-scenario-v1`), compiled
    /// server-side instead of a registry lookup. The scenario's content
    /// digest folds into the configuration digest, so caching and
    /// single-flight key on scenario *content* — field order and the
    /// client-chosen `experiment_id` label don't matter.
    pub scenario: Option<Value>,
    /// Configuration overrides (empty = server defaults).
    pub overrides: ConfigOverrides,
    /// CSV artifact names to return; empty returns all of them.
    pub artifacts: Vec<String>,
    /// Optional deadline, measured from request arrival. Work that is
    /// already expired at dequeue is shed, and a computation that
    /// overruns it is cooperatively cancelled; either way the client
    /// gets an explicit `DeadlineExceeded` (504) instead of a late
    /// answer. `None` means the request may take as long as it takes.
    pub deadline_ms: Option<u64>,
    /// Client-chosen trace id echoed on the response; `None` lets the
    /// server generate one. Not part of the cache key.
    pub trace_id: Option<String>,
    /// Run with causal DAG capture and return the critical-path report
    /// (`ifsim-critpath-v1`) alongside the ordinary payload. Analyzed
    /// results cache under a derived key, so plain requests for the same
    /// configuration still replay their original bytes.
    pub analyze: bool,
}

impl RunRequest {
    /// A request for `experiment_id` under default overrides.
    pub fn new(experiment_id: impl Into<String>) -> RunRequest {
        RunRequest {
            experiment_id: experiment_id.into(),
            scenario: None,
            overrides: ConfigOverrides::default(),
            artifacts: Vec::new(),
            deadline_ms: None,
            trace_id: None,
            analyze: false,
        }
    }

    /// Encode as a wire JSON value (`{"op":"run",...}`).
    pub fn to_json(&self) -> Value {
        let mut m = Map::new();
        m.insert("op", Value::from("run"));
        m.insert("experiment_id", Value::from(self.experiment_id.clone()));
        if let Some(s) = &self.scenario {
            m.insert("scenario", s.clone());
        }
        let mut o = Map::new();
        if self.overrides.quick {
            o.insert("quick", Value::from(true));
        }
        if let Some(s) = self.overrides.seed {
            o.insert("seed", Value::from(s.to_string()));
        }
        if let Some(r) = self.overrides.reps {
            o.insert("reps", Value::from(r));
        }
        if let Some(w) = self.overrides.warmup {
            o.insert("warmup", Value::from(w));
        }
        if !self.overrides.calib.is_empty() {
            let mut c = Map::new();
            for (field, factor) in &self.overrides.calib {
                c.insert(field.clone(), Value::from(*factor));
            }
            o.insert("calib", Value::Object(c));
        }
        m.insert("overrides", Value::Object(o));
        if let Some(d) = self.deadline_ms {
            m.insert("deadline_ms", Value::from(d));
        }
        if let Some(t) = &self.trace_id {
            m.insert("trace_id", Value::from(t.clone()));
        }
        if self.analyze {
            m.insert("analyze", Value::from(true));
        }
        if !self.artifacts.is_empty() {
            m.insert(
                "artifacts",
                Value::Array(
                    self.artifacts
                        .iter()
                        .map(|a| Value::from(a.clone()))
                        .collect(),
                ),
            );
        }
        Value::Object(m)
    }

    /// Decode the wire value produced by [`RunRequest::to_json`]. Every
    /// rejection names the offending field as a dotted path, and so does a
    /// key outside the request schema.
    pub fn from_json(v: &Value) -> Result<RunRequest, FieldError> {
        let obj = Field::new(v, "").object("run request must be a JSON object")?;
        obj.only(&[
            "op",
            "experiment_id",
            "scenario",
            "overrides",
            "artifacts",
            "deadline_ms",
            "trace_id",
            "analyze",
        ])?;
        let scenario = obj.opt("scenario", |s| {
            s.object("must be a JSON object")?;
            Ok(s.value().clone())
        })?;
        let experiment_id = match obj.opt("experiment_id", Field::str)? {
            Some(id) => id.to_string(),
            // An inline scenario names itself; a registry run must say
            // which experiment it wants.
            None if scenario.is_some() => String::new(),
            None => return Err(obj.err_at("experiment_id", "run request needs a string id")),
        };
        let overrides = obj.opt("overrides", parse_overrides)?.unwrap_or_default();
        Ok(RunRequest {
            experiment_id,
            scenario,
            overrides,
            artifacts: obj
                .opt("artifacts", |a| {
                    a.items("must be an array", |name| name.str().map(str::to_string))
                })?
                .unwrap_or_default(),
            deadline_ms: obj.opt("deadline_ms", Field::u64)?,
            trace_id: obj.opt("trace_id", Field::str)?.map(str::to_string),
            analyze: obj.opt("analyze", Field::bool)?.unwrap_or(false),
        })
    }
}

fn parse_overrides(f: Field) -> Result<ConfigOverrides, FieldError> {
    let obj = f.object("must be an object")?;
    obj.only(&["quick", "seed", "reps", "warmup", "calib"])?;
    let reps = obj.opt("reps", Field::usize)?;
    if reps == Some(0) {
        return Err(obj.err_at("reps", "must be at least 1"));
    }
    Ok(ConfigOverrides {
        quick: obj.opt("quick", Field::bool)?.unwrap_or(false),
        seed: obj.opt("seed", Field::seed)?,
        reps,
        warmup: obj.opt("warmup", Field::usize)?,
        calib: obj.opt("calib", Field::calib_factors)?.unwrap_or_default(),
    })
}

/// Response status taxonomy, with HTTP-flavoured numeric codes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    /// The request was served (`200`).
    Ok,
    /// The request itself is invalid — unknown experiment, bad override,
    /// unparseable line (`400`).
    BadRequest,
    /// Admission control rejected the request: every worker is busy and
    /// the queue is full. Retry later (`429`).
    Overloaded,
    /// The experiment panicked or the server failed internally (`500`).
    Internal,
    /// The request's `deadline_ms` expired before a result was ready —
    /// shed at dequeue, cancelled mid-compute, or timed out while
    /// coalesced behind another computation (`504`).
    DeadlineExceeded,
}

impl Status {
    /// The numeric code.
    pub fn code(self) -> u64 {
        match self {
            Status::Ok => 200,
            Status::BadRequest => 400,
            Status::Overloaded => 429,
            Status::Internal => 500,
            Status::DeadlineExceeded => 504,
        }
    }

    /// The wire string.
    pub fn as_str(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::BadRequest => "bad-request",
            Status::Overloaded => "overloaded",
            Status::Internal => "internal-error",
            Status::DeadlineExceeded => "deadline-exceeded",
        }
    }

    /// Parse the wire string.
    pub fn parse(s: &str) -> Result<Status, String> {
        match s {
            "ok" => Ok(Status::Ok),
            "bad-request" => Ok(Status::BadRequest),
            "overloaded" => Ok(Status::Overloaded),
            "internal-error" => Ok(Status::Internal),
            "deadline-exceeded" => Ok(Status::DeadlineExceeded),
            other => Err(format!("unknown status '{other}'")),
        }
    }
}

/// The response to a [`RunRequest`]. Carries no timestamps: a cache hit
/// re-serializes to exactly the bytes the original compute produced,
/// `cached` flag and per-request `trace_id` aside.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResponse {
    /// Trace id echoed from (or generated for) the request; empty means
    /// "not yet assigned" and is omitted on the wire.
    pub trace_id: String,
    /// Outcome class.
    pub status: Status,
    /// Echo of the requested experiment id.
    pub experiment_id: String,
    /// Content digest of the resolved configuration (cache key); empty
    /// when the request never reached digesting (parse/validation error).
    pub digest: String,
    /// Whether the result came from the cache.
    pub cached: bool,
    /// Error detail for non-`Ok` statuses.
    pub error: Option<String>,
    /// Dotted path of the request field a `BadRequest` rejection is
    /// about (wire key `field`); `None` when no single field applies.
    pub error_field: Option<String>,
    /// The rendered report, for `Ok`.
    pub report: Option<String>,
    /// `(file name, contents)` CSV artifacts, filtered per the request.
    pub csv: Vec<(String, String)>,
    /// Paper-shape checks passed.
    pub checks_passed: usize,
    /// Paper-shape checks total.
    pub checks_total: usize,
    /// Critical-path report (`ifsim-critpath-v1`) when the request asked
    /// for analysis; omitted from the wire otherwise.
    pub critpath: Option<Value>,
}

impl RunResponse {
    /// An error response (no payload).
    pub fn error(status: Status, experiment_id: impl Into<String>, msg: String) -> RunResponse {
        RunResponse {
            trace_id: String::new(),
            status,
            experiment_id: experiment_id.into(),
            digest: String::new(),
            cached: false,
            error: Some(msg),
            error_field: None,
            report: None,
            csv: Vec::new(),
            checks_passed: 0,
            checks_total: 0,
            critpath: None,
        }
    }

    /// A field-annotated error response: `error` carries the full
    /// human-readable rendering (`field 'x': ...`), `field` the bare
    /// dotted path for machine consumption.
    pub fn field_error(
        status: Status,
        experiment_id: impl Into<String>,
        err: FieldError,
    ) -> RunResponse {
        let mut resp = RunResponse::error(status, experiment_id, err.to_string());
        if !err.field.is_empty() {
            resp.error_field = Some(err.field);
        }
        resp
    }

    /// Encode as a wire JSON value.
    pub fn to_json(&self) -> Value {
        let mut m = Map::new();
        m.insert("op", Value::from("run-response"));
        if !self.trace_id.is_empty() {
            m.insert("trace_id", Value::from(self.trace_id.clone()));
        }
        m.insert("status", Value::from(self.status.as_str()));
        m.insert("code", Value::from(self.status.code()));
        m.insert("experiment_id", Value::from(self.experiment_id.clone()));
        m.insert("digest", Value::from(self.digest.clone()));
        m.insert("cached", Value::from(self.cached));
        if let Some(e) = &self.error {
            m.insert("error", Value::from(e.clone()));
        }
        if let Some(f) = &self.error_field {
            m.insert("field", Value::from(f.clone()));
        }
        if let Some(r) = &self.report {
            m.insert("report", Value::from(r.clone()));
        }
        m.insert(
            "csv",
            Value::Array(
                self.csv
                    .iter()
                    .map(|(name, contents)| {
                        let mut f = Map::new();
                        f.insert("name", Value::from(name.clone()));
                        f.insert("contents", Value::from(contents.clone()));
                        Value::Object(f)
                    })
                    .collect(),
            ),
        );
        m.insert("checks_passed", Value::from(self.checks_passed));
        m.insert("checks_total", Value::from(self.checks_total));
        if let Some(c) = &self.critpath {
            m.insert("critpath", c.clone());
        }
        Value::Object(m)
    }

    /// Decode the wire value produced by [`RunResponse::to_json`]. Keys
    /// outside the schema are ignored, so a client reads the replies of a
    /// newer server.
    pub fn from_json(v: &Value) -> Result<RunResponse, String> {
        Self::read(v).map_err(|e| e.to_string())
    }

    fn read(v: &Value) -> Result<RunResponse, FieldError> {
        let obj = Field::new(v, "").object("run response must be a JSON object")?;
        let status = obj.req("status")?;
        let text = |key| obj.opt(key, |s| s.str().map(str::to_string));
        let count = |key| Ok(obj.opt(key, Field::usize)?.unwrap_or(0));
        Ok(RunResponse {
            trace_id: text("trace_id")?.unwrap_or_default(),
            status: Status::parse(status.str()?).map_err(|e| status.err(e))?,
            experiment_id: text("experiment_id")?.unwrap_or_default(),
            digest: text("digest")?.unwrap_or_default(),
            cached: obj.opt("cached", Field::bool)?.unwrap_or(false),
            error: text("error")?,
            error_field: text("field")?,
            report: text("report")?,
            csv: obj.opt("csv", read_csv)?.unwrap_or_default(),
            checks_passed: count("checks_passed")?,
            checks_total: count("checks_total")?,
            critpath: obj.get("critpath").map(|c| c.value().clone()),
        })
    }
}

/// CSV artifacts on the wire: `[{"name": ..., "contents": ...}, ...]`.
pub(crate) fn read_csv(f: Field) -> Result<Vec<(String, String)>, FieldError> {
    f.items("must be an array", |file| {
        let file = file.object("must be an object")?;
        let text = |key| file.req(key)?.str().map(str::to_string);
        Ok((text("name")?, text("contents")?))
    })
}

/// Parse one request line. `Err` maps to a `400` response naming the
/// offending field when one applies.
pub fn parse_request(line: &str) -> Result<Request, FieldError> {
    let v = serde_json::from_str(line.trim())
        .map_err(|e| FieldError::new("", format!("bad JSON: {e}")))?;
    parse_request_value(&v)
}

/// Parse an already-decoded request value — the server decodes each line
/// once, peels the [`envelope_trace_id`], then dispatches here. `ping`,
/// `stats` and `shutdown` carry nothing but `op` and `trace_id`.
pub fn parse_request_value(v: &Value) -> Result<Request, FieldError> {
    let obj = Field::new(v, "").object("request must be a JSON object")?;
    let op = obj
        .get("op")
        .and_then(|op| op.value().as_str())
        .ok_or_else(|| obj.err_at("op", "request needs a string 'op' field"))?;
    let bare = |req| {
        obj.only(&["op", "trace_id"])?;
        obj.opt("trace_id", Field::str)?;
        Ok(req)
    };
    match op {
        "ping" => bare(Request::Ping),
        "stats" => bare(Request::Stats),
        "shutdown" => bare(Request::Shutdown),
        "run" => Ok(Request::Run(RunRequest::from_json(v)?)),
        other => Err(obj.err_at(
            "op",
            format!("unknown op '{other}' (expected ping|stats|shutdown|run)"),
        )),
    }
}

/// The top-level `trace_id` of any request envelope, when present. Unlike
/// the request parser it tolerates a malformed envelope, so a `400` can
/// still echo the id.
pub fn envelope_trace_id(v: &Value) -> Option<&str> {
    v.get("trace_id").and_then(Value::as_str)
}

/// Encode a request as its wire JSON value.
pub fn request_to_json(req: &Request) -> Value {
    let op = match req {
        Request::Ping => "ping",
        Request::Stats => "stats",
        Request::Shutdown => "shutdown",
        Request::Run(r) => return r.to_json(),
    };
    let mut m = Map::new();
    m.insert("op", Value::from(op));
    Value::Object(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_request_round_trips_with_full_seed_precision() {
        let mut scenario = Map::new();
        scenario.insert("schema", Value::from("ifsim-scenario-v1"));
        scenario.insert("name", Value::from("wire-demo"));
        let req = RunRequest {
            experiment_id: "fig6a".into(),
            scenario: Some(Value::Object(scenario)),
            overrides: ConfigOverrides {
                quick: true,
                // Deliberately above 2^53: a JSON number would lose it.
                seed: Some(u64::MAX - 12345),
                reps: Some(3),
                warmup: Some(1),
                calib: vec![("eff_sdma_xgmi".into(), 1.1)],
            },
            artifacts: vec!["fig6a_hops.csv".into()],
            deadline_ms: Some(2500),
            trace_id: Some("cafe0123deadbeef".into()),
            analyze: true,
        };
        let line = serde_json::to_string(&req.to_json());
        let back = RunRequest::from_json(&serde_json::from_str(&line).unwrap()).unwrap();
        assert_eq!(req, back);
    }

    #[test]
    fn trace_id_rides_the_envelope_both_ways() {
        // Absent on request and response alike: omitted, not null.
        let req = RunRequest::new("fig1");
        assert!(req.to_json().get("trace_id").is_none());
        let mut resp = RunResponse::error(Status::Ok, "fig1", String::new());
        resp.error = None;
        assert!(resp.to_json().get("trace_id").is_none());
        // Present: round-trips verbatim and is visible to the envelope
        // helper regardless of op.
        resp.trace_id = "t-123".into();
        let back = RunResponse::from_json(&resp.to_json()).unwrap();
        assert_eq!(back.trace_id, "t-123");
        let v = serde_json::from_str(r#"{"op":"stats","trace_id":"abc"}"#).unwrap();
        assert_eq!(envelope_trace_id(&v), Some("abc"));
        assert_eq!(parse_request_value(&v).unwrap(), Request::Stats);
    }

    #[test]
    fn deadline_status_round_trips() {
        let resp = RunResponse::error(Status::DeadlineExceeded, "fig1", "too slow".into());
        let line = serde_json::to_string(&resp.to_json());
        let back = RunResponse::from_json(&serde_json::from_str(&line).unwrap()).unwrap();
        assert_eq!(back.status, Status::DeadlineExceeded);
        assert_eq!(back.status.code(), 504);
        assert_eq!(
            Status::parse("deadline-exceeded"),
            Ok(Status::DeadlineExceeded)
        );
    }

    #[test]
    fn simple_ops_parse() {
        assert_eq!(parse_request(r#"{"op":"ping"}"#).unwrap(), Request::Ping);
        assert_eq!(parse_request(r#"{"op":"stats"}"#).unwrap(), Request::Stats);
        assert_eq!(
            parse_request(r#"{"op":"shutdown"}"#).unwrap(),
            Request::Shutdown
        );
        assert!(parse_request(r#"{"op":"fly"}"#).is_err());
        assert!(parse_request("not json").is_err());
        assert!(parse_request(r#"{"no_op":1}"#).is_err());
    }

    #[test]
    fn overrides_resolve_against_defaults() {
        let o = ConfigOverrides {
            quick: true,
            seed: Some(7),
            reps: None,
            warmup: None,
            calib: vec![("eff_sdma_xgmi".into(), 1.25)],
        };
        let cfg = o.resolve().unwrap();
        let quick = BenchConfig::quick();
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.reps, quick.reps);
        assert_eq!(cfg.warmup, quick.warmup);
        assert!((cfg.calib.eff_sdma_xgmi - quick.calib.eff_sdma_xgmi * 1.25).abs() < 1e-12);
        // An unknown field, and factors the calibration refuses: ×2.0 takes
        // eff_sdma_xgmi to 1.5, past the efficiency ceiling.
        for (field, factor, says) in [
            ("no_such_knob", 1.0, "unknown calibration field"),
            ("eff_sdma_xgmi", 2.0, "outside (0, 1]"),
            ("ddr_total_bw", 0.0, "not positive"),
            ("ddr_total_bw", f64::NAN, "not positive"),
        ] {
            let bad = ConfigOverrides {
                calib: vec![(field.into(), factor)],
                ..Default::default()
            };
            let err = bad.resolve().unwrap_err();
            assert_eq!(err.field, format!("overrides.calib.{field}"));
            assert!(err.message.contains(says), "{field} x{factor}: {err:?}");
        }
    }

    #[test]
    fn malformed_payloads_name_the_offending_field() {
        let cases = [
            (r#"{"op":"run"}"#, "experiment_id"),
            (r#"{"op":"run","experiment_id":7}"#, "experiment_id"),
            (
                r#"{"op":"run","experiment_id":"fig1","overrides":{"seed":12}}"#,
                "overrides.seed",
            ),
            (
                r#"{"op":"run","experiment_id":"fig1","overrides":{"reps":"x"}}"#,
                "overrides.reps",
            ),
            (
                r#"{"op":"run","experiment_id":"fig1","overrides":{"reps":0}}"#,
                "overrides.reps",
            ),
            // Past 2^53 a JSON number no longer holds the integer written.
            (
                r#"{"op":"run","experiment_id":"fig1","overrides":{"warmup":9007199254740993}}"#,
                "overrides.warmup",
            ),
            (
                r#"{"op":"run","experiment_id":"fig1","deadline_ms":18446744073709551615}"#,
                "deadline_ms",
            ),
            (
                r#"{"op":"run","experiment_id":"fig1","overrides":{"calib":{"k":"y"}}}"#,
                "overrides.calib.k",
            ),
            (
                r#"{"op":"run","experiment_id":"fig1","artifacts":[3]}"#,
                "artifacts[0]",
            ),
            (
                r#"{"op":"run","experiment_id":"fig1","scenario":[]}"#,
                "scenario",
            ),
            (r#"{"op":"warp"}"#, "op"),
            // Run requests are strict: a wrong type or an unknown key is a
            // field error, never a silent default.
            (
                r#"{"op":"run","experiment_id":"fig1","analyze":"yes"}"#,
                "analyze",
            ),
            (
                r#"{"op":"run","experiment_id":"fig1","overides":{}}"#,
                "overides",
            ),
            (
                r#"{"op":"run","experiment_id":"fig1","overrides":{"nope":1}}"#,
                "overrides.nope",
            ),
            (
                r#"{"op":"run","experiment_id":"fig1","trace_id":7}"#,
                "trace_id",
            ),
            (r#"{"op":"ping","experiment_id":"fig1"}"#, "experiment_id"),
            (r#"{"op":"stats","trace_id":["x"]}"#, "trace_id"),
        ];
        for (line, field) in cases {
            let err = parse_request(line).unwrap_err();
            assert_eq!(err.field, field, "for {line}");
        }
        let err = parse_request(r#"{"op":"run","experiment_id":"fig1","overides":{}}"#);
        assert!(
            err.unwrap_err()
                .message
                .contains("allowed: op, experiment_id"),
            "an unknown key lists the schema"
        );
        // The envelope helper still finds a malformed request's trace id.
        let v = serde_json::from_str(r#"{"op":"run","bogus":1,"trace_id":"t-9"}"#).unwrap();
        assert!(parse_request_value(&v).is_err());
        assert_eq!(envelope_trace_id(&v), Some("t-9"));
        // An inline scenario may omit the experiment id entirely.
        let req = parse_request(r#"{"op":"run","scenario":{"name":"x"}}"#).unwrap();
        let Request::Run(req) = req else {
            panic!("expected a run request")
        };
        assert!(req.experiment_id.is_empty());
        assert!(req.scenario.is_some());
    }

    #[test]
    fn field_error_response_round_trips() {
        let resp = RunResponse::field_error(
            Status::BadRequest,
            "scenario:demo",
            FieldError {
                field: "scenario.workload.ranks".into(),
                message: "must be between 2 and 8".into(),
            },
        );
        assert_eq!(resp.error_field.as_deref(), Some("scenario.workload.ranks"));
        assert!(resp
            .error
            .as_deref()
            .unwrap()
            .contains("scenario.workload.ranks"));
        let line = serde_json::to_string(&resp.to_json());
        let back = RunResponse::from_json(&serde_json::from_str(&line).unwrap()).unwrap();
        assert_eq!(resp, back);
    }

    #[test]
    fn error_response_round_trips() {
        let resp = RunResponse::error(Status::Overloaded, "fig7", "queue full".into());
        let line = serde_json::to_string(&resp.to_json());
        let back = RunResponse::from_json(&serde_json::from_str(&line).unwrap()).unwrap();
        assert_eq!(resp, back);
        assert_eq!(back.status.code(), 429);
    }
}
