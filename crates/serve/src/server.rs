//! The resident server: request handling, admission control, and the
//! socket host.
//!
//! [`ServerCore`] is the transport-independent heart — one JSON line in,
//! one JSON line out — so unit tests exercise caching, coalescing,
//! deadlines, admission, and error paths without sockets. [`Server`]
//! wraps a core with a Unix or TCP listener, one handler thread per
//! connection, signal-triggered graceful drain (SIGTERM or SIGINT; a
//! second signal forces immediate exit), and optional telemetry
//! artifacts written at exit.
//!
//! Robustness machinery layered onto the PR 5 core:
//!
//! - **persistent cache** — with `cache_dir` set, results survive
//!   restarts via the crash-safe [`DiskStore`];
//! - **single-flight coalescing** — N concurrent requests for one digest
//!   attach to a single computation; one leader computes, every follower
//!   receives the same result (or the same error);
//! - **deadlines** — a request's `deadline_ms` is checked before
//!   admission, again at dequeue inside the worker (already-expired work
//!   is shed), and cooperatively at the microbench repetition
//!   checkpoints via a [`CancelToken`] threaded through
//!   `Experiment::run_with`; an overrun answers `504` and the
//!   wedged computation unwinds at its next checkpoint instead of
//!   holding a worker forever.

use crate::cache::{CachedRun, ResultCache};
use crate::proto::{self, Request, RunRequest, RunResponse, Status};
use crate::store::{DiskStore, ScanReport};
use ifsim_core::des::cancel::{CancelToken, Cancelled};
use ifsim_core::registry;
use ifsim_core::telemetry::{
    critpath, CollectedTelemetry, EventKind, MetricKey, MetricsRegistry, SimTelemetry,
    TimelineEvent,
};
use ifsim_core::{BenchConfig, Capture, Experiment, RunOpts};
use serde_json::{Map, Value};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpListener;
#[cfg(unix)]
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use std::time::{SystemTime, UNIX_EPOCH};
use threadpool::ThreadPool;

/// Stats/metrics schema tag, validated by `telemetry-lint --serve`.
/// v2 adds the persistent-cache, single-flight, and deadline accounting.
pub const STATS_SCHEMA: &str = "ifsim-serve-stats-v2";

/// Server sizing knobs.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Worker threads computing experiments concurrently.
    pub workers: usize,
    /// Requests allowed to wait beyond the busy workers; the admission
    /// capacity is `workers + queue_depth`, and anything past it is
    /// answered `Overloaded` instead of queued.
    pub queue_depth: usize,
    /// In-memory result-cache capacity (entries).
    pub cache_cap: usize,
    /// Byte cap shared by the in-memory tier and the disk store.
    pub cache_bytes: u64,
    /// Directory for the crash-safe persistent cache; `None` keeps the
    /// PR 5 behaviour (memory only, cold after restart).
    pub cache_dir: Option<PathBuf>,
    /// Hard per-request wall-clock budget in milliseconds applied even
    /// to requests without a `deadline_ms`; `0` disables it.
    pub request_timeout_ms: u64,
    /// Chrome trace of request lifecycles, written at exit. Request spans
    /// are kept in memory only when this is set.
    pub trace_out: Option<PathBuf>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            workers: 4,
            queue_depth: 16,
            cache_cap: 256,
            cache_bytes: 256 << 20,
            cache_dir: None,
            request_timeout_ms: 0,
            trace_out: None,
        }
    }
}

/// What a computation resolves to: the cached run, or the error status
/// and message every attached request should relay.
type FlightOutcome = Result<Arc<CachedRun>, (Status, String)>;

/// One in-flight computation that concurrent requests for the same
/// digest attach to. The leader publishes exactly once; followers wait,
/// optionally bounded by their own deadline.
struct Flight {
    result: Mutex<Option<FlightOutcome>>,
    done: Condvar,
}

impl Flight {
    fn new() -> Flight {
        Flight {
            result: Mutex::new(None),
            done: Condvar::new(),
        }
    }

    fn complete(&self, outcome: FlightOutcome) {
        *self.result.lock().unwrap() = Some(outcome);
        self.done.notify_all();
    }

    /// Wait for the leader; `None` means the follower's deadline expired
    /// first.
    fn wait(&self, deadline: Option<Instant>) -> Option<FlightOutcome> {
        let mut guard = self.result.lock().unwrap();
        loop {
            if let Some(outcome) = guard.as_ref() {
                return Some(outcome.clone());
            }
            match deadline {
                None => guard = self.done.wait(guard).unwrap(),
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        return None;
                    }
                    guard = self.done.wait_timeout(guard, d - now).unwrap().0;
                }
            }
        }
    }
}

/// What a worker sends back to the request thread that queued it.
enum JobOutcome {
    /// The experiment completed.
    Done {
        /// The computed result.
        run: CachedRun,
        /// Time the job sat queued before a worker picked it up.
        queue_wait_ns: u64,
        /// Time the experiment itself ran.
        compute_ns: u64,
        /// `(link, mean_util, peak_util)` extracted from an instrumented
        /// run's fabric-utilization counter track; empty when the job ran
        /// uninstrumented (the common case).
        fabric: Vec<(String, f64, f64)>,
        /// Flight-recorder samples dropped to ring overflow during an
        /// instrumented run, folded into
        /// `serve_fabric_recorder_dropped_samples_total`. Zero for
        /// uninstrumented jobs.
        recorder_dropped: f64,
    },
    /// The deadline had already expired at dequeue; never started.
    Shed,
    /// The cancellation token fired mid-computation.
    Cancelled,
}

/// Per-request phase breakdown collected while serving a `run` request,
/// attached to the request span so one slow answer explains itself:
/// which cache tier probed, which single-flight role, how long queued,
/// how long computing.
#[derive(Clone, Debug, Default)]
pub struct RunTrace {
    /// Cache probe answer: `mem`, `disk`, or `miss`.
    pub cache_tier: &'static str,
    /// Single-flight role: `leader`, `follower`, or empty (cache hit /
    /// early error — the request never reached the flight table).
    pub sf_role: &'static str,
    /// Nanoseconds queued behind busy workers (leader only).
    pub queue_wait_ns: u64,
    /// Nanoseconds of experiment compute (leader only).
    pub compute_ns: u64,
}

/// The transport-independent server: resident registry + two-tier cache +
/// single-flight table + bounded compute pool + self-observation.
pub struct ServerCore {
    opts: ServeOptions,
    cache: ResultCache,
    pool: ThreadPool,
    flights: Mutex<HashMap<String, Arc<Flight>>>,
    /// Requests admitted (queued or running) right now.
    in_flight: AtomicUsize,
    draining: std::sync::atomic::AtomicBool,
    started: Instant,
    metrics: Mutex<MetricsRegistry>,
    events: Mutex<Vec<TimelineEvent>>,
    // Robustness accounting, mirrored into the metrics registry.
    sf_leaders: AtomicU64,
    sf_followers: AtomicU64,
    dl_exceeded: AtomicU64,
    dl_shed: AtomicU64,
    dl_cancelled: AtomicU64,
    quarantine_seen: AtomicU64,
    /// Uniquifier folded into generated trace ids.
    trace_counter: AtomicU64,
    /// When set (HTTP plane up), at most one compute per second runs
    /// instrumented to refresh the per-link fabric-utilization gauges.
    fabric_sampling: AtomicBool,
    /// Milliseconds-since-start of the last instrumented compute; the
    /// sampling gate CASes this to claim a slot.
    last_fabric_sample_ms: AtomicU64,
}

/// Total `fabric_recorder_dropped_samples` across an instrumented run's
/// simulators — the ring-drop counter the flight recorder always emits
/// (0.0 when nothing overflowed).
fn recorder_dropped_samples(telemetry: &CollectedTelemetry) -> f64 {
    telemetry
        .metrics()
        .counters()
        .filter(|(k, _)| k.name() == "fabric_recorder_dropped_samples")
        .map(|(_, v)| v)
        .sum()
}

/// `(link, mean_util, peak_util)` per directed fabric link, extracted
/// from the `fabric_util` counter track of an instrumented run. The
/// flight recorder emits `fabric util <link>` counters; this folds them
/// into one mean/peak pair per link for the live gauges. The mean is
/// taken per sample, so it weights recompute epochs equally rather than
/// by the time each epoch lasted.
fn fabric_link_utils(telemetry: &CollectedTelemetry) -> Vec<(String, f64, f64)> {
    let mut acc: std::collections::BTreeMap<String, (f64, f64, u64)> = Default::default();
    for ev in telemetry.events() {
        let EventKind::Counter { value } = ev.kind else {
            continue;
        };
        if ev.cat != "fabric_util" {
            continue;
        }
        let Some(link) = ev.name.strip_prefix("fabric util ") else {
            continue;
        };
        let slot = acc.entry(link.to_string()).or_insert((0.0, 0.0, 0));
        slot.0 += value;
        slot.1 = slot.1.max(value);
        slot.2 += 1;
    }
    acc.into_iter()
        .map(|(link, (sum, peak, n))| (link, sum / n as f64, peak))
        .collect()
}

/// Parse and compile an inline scenario document into a runnable
/// experiment, prefixing error field paths with `scenario.` so they name
/// the request field they live under.
fn compile_scenario(doc: &Value) -> Result<Experiment, proto::FieldError> {
    ifsim_scenario::Scenario::from_json(doc)
        .and_then(|s| ifsim_scenario::compile(&s))
        .map_err(|e| proto::FieldError {
            field: if e.field.is_empty() {
                "scenario".into()
            } else {
                format!("scenario.{}", e.field)
            },
            message: e.message,
        })
}

/// SplitMix64 finalizer: mixes a seed into a well-distributed 64-bit
/// value (trace-id generation).
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Suppress the default panic hook's report for cooperative-cancellation
/// unwinds ([`Cancelled`] payloads); real panics keep the full report.
fn silence_cancelled_unwinds() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().is::<Cancelled>() {
                return;
            }
            default_hook(info);
        }));
    });
}

impl ServerCore {
    /// Build a core with `opts` (worker count clamped to ≥ 1), opening —
    /// and crash-recovering — the persistent cache when `cache_dir` is
    /// set. The [`ScanReport`] says what the recovery scan found.
    pub fn build(opts: ServeOptions) -> std::io::Result<(ServerCore, Option<ScanReport>)> {
        silence_cancelled_unwinds();
        let workers = opts.workers.max(1);
        let (store, scan) = match &opts.cache_dir {
            Some(dir) => {
                let (store, report) = DiskStore::open(dir, opts.cache_bytes)?;
                (Some(store), Some(report))
            }
            None => (None, None),
        };
        let cache = ResultCache::with_limits(opts.cache_cap, opts.cache_bytes, store);
        let core = ServerCore {
            cache,
            pool: ThreadPool::new(workers),
            flights: Mutex::new(HashMap::new()),
            in_flight: AtomicUsize::new(0),
            draining: std::sync::atomic::AtomicBool::new(false),
            started: Instant::now(),
            metrics: Mutex::new(MetricsRegistry::new()),
            events: Mutex::new(Vec::new()),
            sf_leaders: AtomicU64::new(0),
            sf_followers: AtomicU64::new(0),
            dl_exceeded: AtomicU64::new(0),
            dl_shed: AtomicU64::new(0),
            dl_cancelled: AtomicU64::new(0),
            quarantine_seen: AtomicU64::new(0),
            trace_counter: AtomicU64::new(0),
            fabric_sampling: AtomicBool::new(false),
            last_fabric_sample_ms: AtomicU64::new(0),
            opts: ServeOptions { workers, ..opts },
        };
        // Pre-seed the robustness counters so a stats snapshot carries
        // them (and lints clean) before the first interesting request.
        {
            let mut metrics = core.metrics.lock().unwrap();
            for name in [
                "serve_singleflight_leaders",
                "serve_singleflight_followers",
                "serve_deadline_exceeded_total",
                "serve_deadline_shed_total",
                "serve_cancelled_jobs_total",
                "serve_cache_quarantined_total",
                "serve_cache_hits",
                "serve_cache_misses",
                "serve_overloaded_total",
                "serve_panicked_jobs",
                "serve_fabric_recorder_dropped_samples_total",
            ] {
                metrics.counter_add(MetricKey::new(name), 0.0);
            }
        }
        core.sync_quarantine_counter();
        Ok((core, scan))
    }

    /// [`ServerCore::build`] for memory-only options; panics if `opts`
    /// names a `cache_dir` that cannot be opened.
    pub fn new(opts: ServeOptions) -> ServerCore {
        ServerCore::build(opts).expect("open cache dir").0
    }

    /// Admission capacity: busy workers plus the bounded queue.
    pub fn capacity(&self) -> usize {
        self.opts.workers + self.opts.queue_depth
    }

    /// Try to claim one admission slot. `false` means the server is at
    /// capacity and the caller must answer `Overloaded`. Public so tests
    /// can pin the server at capacity deterministically.
    pub fn try_admit(&self) -> bool {
        let cap = self.capacity();
        self.in_flight
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                if n < cap {
                    Some(n + 1)
                } else {
                    None
                }
            })
            .is_ok()
    }

    /// Release one admission slot claimed by [`ServerCore::try_admit`].
    pub fn finish_admitted(&self) {
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
    }

    /// Requests admitted (queued or running) right now.
    pub fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::SeqCst)
    }

    /// Whether a shutdown request or signal has started the drain.
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Begin draining: the socket host stops accepting, in-flight work
    /// completes, then the process exits.
    pub fn start_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    /// The result cache (hit/miss counters for tests and stats).
    pub fn cache(&self) -> &ResultCache {
        &self.cache
    }

    /// Single-flight leader count (requests that computed).
    pub fn singleflight_leaders(&self) -> u64 {
        self.sf_leaders.load(Ordering::SeqCst)
    }

    /// Single-flight follower count (requests that coalesced).
    pub fn singleflight_followers(&self) -> u64 {
        self.sf_followers.load(Ordering::SeqCst)
    }

    /// Generate a fresh 16-hex-digit trace id. Wall clock, pid, and a
    /// process-local counter feed a SplitMix64 finalizer, so ids are
    /// unique within a daemon and collide across daemons only by chance.
    pub fn gen_trace_id(&self) -> String {
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        let n = self.trace_counter.fetch_add(1, Ordering::Relaxed);
        let mixed = splitmix64(nanos ^ (u64::from(std::process::id()) << 32) ^ n);
        format!("{mixed:016x}")
    }

    /// Turn on the once-per-second instrumented-compute sampling that
    /// feeds the per-link fabric-utilization gauges. Off by default: the
    /// collector adds measurable overhead, so only a daemon with a live
    /// observability plane pays for it.
    pub fn enable_fabric_sampling(&self) {
        self.fabric_sampling.store(true, Ordering::SeqCst);
    }

    /// Claim the fabric-sampling slot if sampling is on and at least a
    /// second has passed since the last instrumented compute.
    fn claim_fabric_sample(&self) -> bool {
        if !self.fabric_sampling.load(Ordering::SeqCst) {
            return false;
        }
        let now_ms = self.started.elapsed().as_millis() as u64;
        let last = self.last_fabric_sample_ms.load(Ordering::SeqCst);
        // 0 means "never sampled"; sample immediately on the first claim.
        if last != 0 && now_ms.saturating_sub(last) < 1000 {
            return false;
        }
        self.last_fabric_sample_ms
            .compare_exchange(last, now_ms.max(1), Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    /// Handle one request line, returning the response line (no trailing
    /// newline). Never panics outward: every failure maps to a status.
    ///
    /// Every line is decoded once; its top-level `trace_id` (or a
    /// generated one) is echoed on every response except `pong`, and the
    /// request span plus latency exemplar carry the same id.
    pub fn handle_line(&self, line: &str) -> String {
        let t0 = Instant::now();
        let decoded = serde_json::from_str(line.trim()).map_err(|e| proto::FieldError {
            field: String::new(),
            message: format!("bad JSON: {e}"),
        });
        let trace_id = decoded
            .as_ref()
            .ok()
            .and_then(|v| proto::envelope_trace_id(v))
            .map(str::to_string)
            .unwrap_or_else(|| self.gen_trace_id());
        let parsed = decoded.and_then(|v| proto::parse_request_value(&v));
        let mut run_trace = None;
        let (op, mut value) = match parsed {
            Err(e) => {
                let mut m = Map::new();
                m.insert("op", Value::from("error"));
                m.insert("status", Value::from(Status::BadRequest.as_str()));
                m.insert("code", Value::from(Status::BadRequest.code()));
                m.insert("error", Value::from(e.to_string()));
                if !e.field.is_empty() {
                    m.insert("field", Value::from(e.field));
                }
                ("parse", Value::Object(m))
            }
            Ok(Request::Ping) => {
                let mut m = Map::new();
                m.insert("op", Value::from("pong"));
                m.insert("status", Value::from(Status::Ok.as_str()));
                m.insert("code", Value::from(Status::Ok.code()));
                ("ping", Value::Object(m))
            }
            Ok(Request::Stats) => ("stats", self.stats_json()),
            Ok(Request::Shutdown) => {
                self.start_drain();
                let mut m = Map::new();
                m.insert("op", Value::from("shutdown-response"));
                m.insert("status", Value::from(Status::Ok.as_str()));
                m.insert("code", Value::from(Status::Ok.code()));
                m.insert("draining", Value::from(true));
                ("shutdown", Value::Object(m))
            }
            Ok(Request::Run(req)) => {
                let mut trace = RunTrace::default();
                let mut resp = self.handle_run(&req, t0, &mut trace);
                resp.trace_id = trace_id.clone();
                run_trace = Some(trace);
                ("run", resp.to_json())
            }
        };
        // Every non-ping response names its trace (pong stays minimal:
        // it is the hot liveness path).
        if op != "ping" {
            if let Value::Object(ref mut m) = value {
                m.insert("trace_id", Value::from(trace_id.clone()));
            }
        }
        let t_ser = Instant::now();
        let text = serde_json::to_string(&value);
        let serialize_ns = t_ser.elapsed().as_nanos() as u64;
        self.observe_request(op, &value, t0, &trace_id, run_trace.as_ref(), serialize_ns);
        text
    }

    /// Serve one run request: validate → digest → cache → coalesce →
    /// admit → compute under deadline. Phase timings and tier/role labels
    /// land in `trace`.
    fn handle_run(&self, req: &RunRequest, arrival: Instant, trace: &mut RunTrace) -> RunResponse {
        // Resolve the work unit: an inline scenario compiles server-side
        // (its content digest rides the experiment's digest_extra, so the
        // cache and single-flight key on scenario content); otherwise the
        // id is a registry lookup. Either failure names the field.
        let exp = if let Some(doc) = &req.scenario {
            match compile_scenario(doc) {
                Ok(exp) => exp,
                Err(e) => {
                    return RunResponse::field_error(
                        Status::BadRequest,
                        req.experiment_id.clone(),
                        e,
                    )
                }
            }
        } else {
            match registry::by_id(&req.experiment_id) {
                Some(exp) => exp,
                None => {
                    return RunResponse::field_error(
                        Status::BadRequest,
                        req.experiment_id.clone(),
                        proto::FieldError {
                            field: "experiment_id".into(),
                            message: format!("unknown experiment '{}'", req.experiment_id),
                        },
                    )
                }
            }
        };
        // A scenario request may omit the id; echo the compiled one.
        let req = &RunRequest {
            experiment_id: if req.experiment_id.is_empty() {
                exp.id.to_string()
            } else {
                req.experiment_id.clone()
            },
            ..req.clone()
        };
        let cfg = match req.overrides.resolve() {
            Ok(cfg) => cfg,
            Err(e) => {
                return RunResponse::field_error(Status::BadRequest, req.experiment_id.clone(), e)
            }
        };
        let digest = exp.config_digest(&cfg);
        // Analyzed runs answer with extra payload (the critical-path
        // report), so they cache under a derived key: a plain request for
        // the same configuration must keep replaying its original bytes.
        let digest = if req.analyze {
            ifsim_core::experiment::digest_kv(&[
                ("base".to_string(), digest),
                ("analyze".to_string(), "critpath-v1".to_string()),
            ])
        } else {
            digest
        };

        let (hit, tier) = self.cache.get_traced(&digest);
        trace.cache_tier = tier.as_str();
        if let Some(hit) = hit {
            self.bump_counter("serve_cache_hits");
            return self.respond_from(req, &hit, true);
        }
        self.bump_counter("serve_cache_misses");
        self.sync_quarantine_counter();

        let deadline = req
            .deadline_ms
            .map(|ms| arrival + Duration::from_millis(ms));

        // Shed requests that are already dead before touching the pool.
        if deadline.is_some_and(|d| Instant::now() >= d) {
            self.count_deadline(&self.dl_shed, "serve_deadline_shed_total");
            return self.deadline_error(req, &digest, "deadline expired before compute started");
        }

        // Single-flight: the first request for a digest leads, everyone
        // else attaches to its computation.
        let (flight, leader) = {
            let mut flights = self.flights.lock().unwrap();
            match flights.get(&digest) {
                Some(f) => (Arc::clone(f), false),
                None => {
                    let f = Arc::new(Flight::new());
                    flights.insert(digest.clone(), Arc::clone(&f));
                    (f, true)
                }
            }
        };

        trace.sf_role = if leader { "leader" } else { "follower" };
        if !leader {
            self.sf_followers.fetch_add(1, Ordering::SeqCst);
            self.bump_counter("serve_singleflight_followers");
            return match flight.wait(deadline) {
                Some(Ok(run)) => self.respond_from(req, &run, false),
                Some(Err((status, msg))) => self.error_with_digest(status, req, &digest, msg),
                None => self.deadline_error(
                    req,
                    &digest,
                    "deadline expired while coalesced behind an identical in-flight request",
                ),
            };
        }

        self.sf_leaders.fetch_add(1, Ordering::SeqCst);
        self.bump_counter("serve_singleflight_leaders");
        let outcome = self.compute(exp, cfg, &digest, req.analyze, deadline, trace);
        // Publish to followers *after* unregistering, so a request that
        // arrives later starts a fresh computation instead of attaching
        // to a completed flight.
        self.flights.lock().unwrap().remove(&digest);
        flight.complete(outcome.clone());
        match outcome {
            Ok(run) => self.respond_from(req, &run, false),
            Err((status, msg)) => self.error_with_digest(status, req, &digest, msg),
        }
    }

    /// Leader-side compute: admission, dispatch with a cancel token,
    /// bounded wait, cache insertion.
    fn compute(
        &self,
        exp: Experiment,
        cfg: BenchConfig,
        digest: &str,
        analyze: bool,
        deadline: Option<Instant>,
        trace: &mut RunTrace,
    ) -> FlightOutcome {
        if !self.try_admit() {
            self.bump_counter("serve_overloaded_total");
            return Err((
                Status::Overloaded,
                format!(
                    "server at capacity ({} in flight); retry later",
                    self.capacity()
                ),
            ));
        }
        self.set_gauge("serve_queue_depth", self.in_flight() as f64);

        let token = match deadline {
            Some(d) => CancelToken::with_deadline(d),
            None => CancelToken::new(),
        };
        // The worker sends its outcome back over a channel; if the
        // experiment panics, the sender drops without sending, the pool
        // respawns the worker, and the client gets a 500 instead of a
        // wedged connection.
        let (tx, rx) = mpsc::channel::<JobOutcome>();
        {
            let digest = digest.to_string();
            let token = token.clone();
            let instrument = self.claim_fabric_sample();
            let submitted = Instant::now();
            self.pool.execute(move || {
                // Dequeue-time deadline check: work that expired while
                // queued is shed without computing anything.
                let queue_wait_ns = submitted.elapsed().as_nanos() as u64;
                if token.is_cancelled() {
                    let _ = tx.send(JobOutcome::Shed);
                    return;
                }
                let t_compute = Instant::now();
                // Analyzed runs capture the causal DAG and render the
                // critical-path report; plain instrumented runs
                // (rate-limited, only with the HTTP plane up) harvest the
                // per-link fabric utilization counter track for the live
                // gauges. Either way the telemetry also carries the
                // flight recorder's ring-drop counter; uncaptured runs
                // come back with empty telemetry.
                let capture = match (analyze, instrument) {
                    (true, _) => Capture::Dag,
                    (false, true) => Capture::Telemetry,
                    (false, false) => Capture::Off,
                };
                let opts = RunOpts {
                    capture,
                    cancel: Some(&token),
                };
                let outcome = match exp.run_with(&cfg, &opts) {
                    Ok((result, telemetry)) => JobOutcome::Done {
                        run: CachedRun {
                            digest,
                            report: result.report(),
                            checks_passed: result.checks.iter().filter(|c| c.passed).count(),
                            checks_total: result.checks.len(),
                            csv: result.csv,
                            critpath: analyze.then(|| {
                                let report = critpath::report(telemetry.dags(), 10);
                                serde_json::to_string(&critpath::critpath_json(&report))
                            }),
                        },
                        fabric: fabric_link_utils(&telemetry),
                        recorder_dropped: recorder_dropped_samples(&telemetry),
                        queue_wait_ns,
                        compute_ns: t_compute.elapsed().as_nanos() as u64,
                    },
                    Err(Cancelled) => JobOutcome::Cancelled,
                };
                let _ = tx.send(outcome);
            });
        }

        let hard = (self.opts.request_timeout_ms > 0)
            .then(|| Duration::from_millis(self.opts.request_timeout_ms));
        let wait = match (deadline, hard) {
            (Some(d), Some(h)) => Some(h.min(d.saturating_duration_since(Instant::now()))),
            (Some(d), None) => Some(d.saturating_duration_since(Instant::now())),
            (None, Some(h)) => Some(h),
            (None, None) => None,
        };
        // Err(true) = timed out; Err(false) = worker died (panic).
        let outcome = match wait {
            None => rx.recv().map_err(|_| false),
            Some(d) => rx
                .recv_timeout(d)
                .map_err(|e| matches!(e, mpsc::RecvTimeoutError::Timeout)),
        };
        self.finish_admitted();
        self.set_gauge("serve_queue_depth", self.in_flight() as f64);
        match outcome {
            Ok(JobOutcome::Done {
                run,
                queue_wait_ns,
                compute_ns,
                fabric,
                recorder_dropped,
            }) => {
                trace.queue_wait_ns = queue_wait_ns;
                trace.compute_ns = compute_ns;
                if recorder_dropped > 0.0 {
                    self.metrics.lock().unwrap().counter_add(
                        MetricKey::new("serve_fabric_recorder_dropped_samples_total"),
                        recorder_dropped,
                    );
                }
                if !fabric.is_empty() {
                    let mut metrics = self.metrics.lock().unwrap();
                    for (link, mean, peak) in fabric {
                        metrics.gauge_set(
                            MetricKey::new("serve_fabric_link_utilization")
                                .with("link", link.clone()),
                            mean,
                        );
                        metrics.gauge_set(
                            MetricKey::new("serve_fabric_link_peak_utilization").with("link", link),
                            peak,
                        );
                    }
                }
                let run = Arc::new(run);
                self.cache.insert(Arc::clone(&run));
                Ok(run)
            }
            Ok(JobOutcome::Shed) => {
                self.count_deadline(&self.dl_shed, "serve_deadline_shed_total");
                Err((
                    Status::DeadlineExceeded,
                    "deadline expired while queued; work shed at dequeue".into(),
                ))
            }
            Ok(JobOutcome::Cancelled) => {
                self.count_deadline(&self.dl_cancelled, "serve_cancelled_jobs_total");
                Err((
                    Status::DeadlineExceeded,
                    "deadline expired mid-computation; experiment cancelled".into(),
                ))
            }
            Err(true) => {
                // Ask the computation to die at its next checkpoint; the
                // worker survives the cooperative unwind and is reused.
                token.cancel();
                self.count_deadline(&self.dl_cancelled, "serve_cancelled_jobs_total");
                let what = if deadline.is_some() {
                    "request deadline exceeded; computation cancelled"
                } else {
                    "request hard timeout exceeded; computation cancelled"
                };
                Err((Status::DeadlineExceeded, what.into()))
            }
            Err(false) => {
                self.bump_counter("serve_panicked_jobs");
                Err((
                    Status::Internal,
                    "experiment panicked; see server log".into(),
                ))
            }
        }
    }

    /// An error response that still names the cache key.
    fn error_with_digest(
        &self,
        status: Status,
        req: &RunRequest,
        digest: &str,
        msg: String,
    ) -> RunResponse {
        if status == Status::DeadlineExceeded {
            self.count_deadline(&self.dl_exceeded, "serve_deadline_exceeded_total");
        }
        let mut resp = RunResponse::error(status, req.experiment_id.clone(), msg);
        resp.digest = digest.to_string();
        resp
    }

    /// A `504 DeadlineExceeded` response.
    fn deadline_error(&self, req: &RunRequest, digest: &str, msg: &str) -> RunResponse {
        self.error_with_digest(Status::DeadlineExceeded, req, digest, msg.to_string())
    }

    fn count_deadline(&self, field: &AtomicU64, counter: &str) {
        field.fetch_add(1, Ordering::SeqCst);
        self.bump_counter(counter);
    }

    /// Fold newly quarantined disk entries into the metrics counter.
    fn sync_quarantine_counter(&self) {
        let Some(store) = self.cache.store() else {
            return;
        };
        let total = store.quarantined_total();
        let prev = self.quarantine_seen.swap(total, Ordering::SeqCst);
        if total > prev {
            self.metrics.lock().unwrap().counter_add(
                MetricKey::new("serve_cache_quarantined_total"),
                (total - prev) as f64,
            );
        }
    }

    /// Build the OK response, applying the request's artifact filter.
    fn respond_from(&self, req: &RunRequest, run: &CachedRun, cached: bool) -> RunResponse {
        let csv = if req.artifacts.is_empty() {
            run.csv.clone()
        } else {
            run.csv
                .iter()
                .filter(|(name, _)| req.artifacts.iter().any(|a| a == name))
                .cloned()
                .collect()
        };
        RunResponse {
            trace_id: String::new(), // filled by handle_line
            status: Status::Ok,
            experiment_id: req.experiment_id.clone(),
            digest: run.digest.clone(),
            cached,
            error: None,
            error_field: None,
            report: Some(run.report.clone()),
            csv,
            checks_passed: run.checks_passed,
            checks_total: run.checks_total,
            // Stored as the exact serialized text; re-parse so the
            // response embeds it as structured JSON, not a string blob.
            critpath: run
                .critpath
                .as_deref()
                .and_then(|text| serde_json::from_str(text).ok()),
        }
    }

    /// The `stats` response (`ifsim-serve-stats-v2`).
    pub fn stats_json(&self) -> Value {
        self.sync_quarantine_counter();
        let mut cache = Map::new();
        cache.insert("entries", Value::from(self.cache.entries()));
        cache.insert("capacity", Value::from(self.cache.capacity()));
        cache.insert("bytes", Value::from(self.cache.bytes() as f64));
        cache.insert("bytes_capacity", Value::from(self.cache.bytes_cap() as f64));
        cache.insert("hits", Value::from(self.cache.hits()));
        cache.insert("disk_hits", Value::from(self.cache.disk_hits()));
        cache.insert("misses", Value::from(self.cache.misses()));
        cache.insert("hit_rate", Value::from(self.cache.hit_rate()));
        cache.insert("persistent", Value::from(self.cache.store().is_some()));
        let (disk_entries, disk_bytes, quarantined) = match self.cache.store() {
            Some(s) => (s.entries(), s.total_bytes(), s.quarantined_total()),
            None => (0, 0, 0),
        };
        cache.insert("disk_entries", Value::from(disk_entries));
        cache.insert("disk_bytes", Value::from(disk_bytes as f64));
        cache.insert("quarantined", Value::from(quarantined));
        let mut queue = Map::new();
        queue.insert("in_flight", Value::from(self.in_flight()));
        queue.insert("capacity", Value::from(self.capacity()));
        queue.insert("workers", Value::from(self.opts.workers));
        queue.insert("queue_depth", Value::from(self.opts.queue_depth));
        let mut pool = Map::new();
        pool.insert("panicked_jobs", Value::from(self.pool.panicked_jobs()));
        let mut singleflight = Map::new();
        singleflight.insert(
            "leaders",
            Value::from(self.sf_leaders.load(Ordering::SeqCst)),
        );
        singleflight.insert(
            "followers",
            Value::from(self.sf_followers.load(Ordering::SeqCst)),
        );
        let mut deadline = Map::new();
        deadline.insert(
            "exceeded",
            Value::from(self.dl_exceeded.load(Ordering::SeqCst)),
        );
        deadline.insert("shed", Value::from(self.dl_shed.load(Ordering::SeqCst)));
        deadline.insert(
            "cancelled",
            Value::from(self.dl_cancelled.load(Ordering::SeqCst)),
        );
        let mut m = Map::new();
        m.insert("op", Value::from("stats-response"));
        m.insert("status", Value::from(Status::Ok.as_str()));
        m.insert("code", Value::from(Status::Ok.code()));
        m.insert("schema", Value::from(STATS_SCHEMA));
        m.insert(
            "uptime_ns",
            Value::from(self.started.elapsed().as_nanos() as f64),
        );
        m.insert("draining", Value::from(self.draining()));
        m.insert("cache", Value::Object(cache));
        m.insert("queue", Value::Object(queue));
        m.insert("pool", Value::Object(pool));
        m.insert("singleflight", Value::Object(singleflight));
        m.insert("deadline", Value::Object(deadline));
        m.insert("metrics", self.metrics.lock().unwrap().to_json());
        Value::Object(m)
    }

    /// The `/metrics` exposition: the live registry plus derived gauges
    /// (uptime, in-flight, draining), rendered as Prometheus text.
    pub fn prometheus_text(&self) -> String {
        self.sync_quarantine_counter();
        let mut reg = self.metrics.lock().unwrap().clone();
        reg.gauge_set(
            MetricKey::new("serve_uptime_seconds"),
            self.started.elapsed().as_secs_f64(),
        );
        reg.gauge_set(MetricKey::new("serve_in_flight"), self.in_flight() as f64);
        reg.gauge_set(
            MetricKey::new("serve_draining"),
            if self.draining() { 1.0 } else { 0.0 },
        );
        ifsim_core::telemetry::render_prometheus(&reg)
    }

    /// Account one handled request into metrics and the trace timeline:
    /// the request counter, the latency histogram (with a trace-id
    /// exemplar), and — only when `trace_out` will export it — a span
    /// carrying the trace id plus the per-phase breakdown for run requests.
    fn observe_request(
        &self,
        op: &str,
        response: &Value,
        t0: Instant,
        trace_id: &str,
        run_trace: Option<&RunTrace>,
        serialize_ns: u64,
    ) {
        let latency_ns = t0.elapsed().as_nanos() as f64;
        let start_ns = (t0 - self.started).as_nanos() as f64;
        let code = response.get("code").and_then(Value::as_u64).unwrap_or(0);
        {
            let mut metrics = self.metrics.lock().unwrap();
            metrics.counter_add(
                MetricKey::new("serve_requests_total")
                    .with("op", op)
                    .with("code", code.to_string()),
                1.0,
            );
            metrics.observe_with_exemplar(
                MetricKey::new("serve_request_latency_ns").with("op", op),
                latency_ns,
                trace_id,
            );
        }
        if self.opts.trace_out.is_none() {
            return;
        }
        let start = ifsim_core::des::Time::from_ns(start_ns);
        let end = ifsim_core::des::Time::from_ns(start_ns + latency_ns);
        let mut ev = TimelineEvent::span(start, end, format!("req {op}"), "serve_request")
            .with_arg("code", code.to_string())
            .with_arg("trace_id", trace_id)
            .with_arg("serialize_ns", serialize_ns.to_string());
        if let Some(cached) = response.get("cached").and_then(Value::as_bool) {
            ev = ev.with_arg("cached", cached.to_string());
        }
        if let Some(id) = response.get("experiment_id").and_then(Value::as_str) {
            ev = ev.with_arg("experiment_id", id);
        }
        if let Some(t) = run_trace {
            if !t.cache_tier.is_empty() {
                ev = ev.with_arg("cache", t.cache_tier);
            }
            if !t.sf_role.is_empty() {
                ev = ev.with_arg("singleflight", t.sf_role);
            }
            if t.sf_role == "leader" {
                ev = ev
                    .with_arg("queue_wait_ns", t.queue_wait_ns.to_string())
                    .with_arg("compute_ns", t.compute_ns.to_string());
            }
        }
        self.events.lock().unwrap().push(ev);
    }

    fn bump_counter(&self, name: &str) {
        self.metrics
            .lock()
            .unwrap()
            .counter_add(MetricKey::new(name), 1.0);
    }

    fn set_gauge(&self, name: &str, v: f64) {
        self.metrics
            .lock()
            .unwrap()
            .gauge_set(MetricKey::new(name), v);
    }

    /// Wait for every admitted request to complete.
    pub fn drain(&self) {
        self.pool.join();
    }

    /// A snapshot of the server's own telemetry (request spans + metrics)
    /// as one collected process, for `--trace-out`/`--metrics-out`.
    pub fn collected_telemetry(&self) -> CollectedTelemetry {
        let mut collected = CollectedTelemetry::new();
        collected.ingest(SimTelemetry {
            process_name: "ifsim-serve".into(),
            events: self.events.lock().unwrap().clone(),
            threads: vec![(0, "requests".into())],
            metrics: self.metrics.lock().unwrap().clone(),
            dag: None,
        });
        collected
    }
}

/// Where the server listens.
#[derive(Clone, Debug)]
pub enum ServeAddr {
    /// A Unix domain socket path (removed on graceful exit).
    #[cfg(unix)]
    Unix(PathBuf),
    /// A TCP `host:port` bind address.
    Tcp(String),
}

enum ListenerKind {
    #[cfg(unix)]
    Unix(UnixListener),
    Tcp(TcpListener),
}

trait Stream: Read + Write + Send {}
impl<T: Read + Write + Send> Stream for T {}

/// Count of drain signals (SIGTERM or SIGINT) received, incremented from
/// the handler (async-signal-safe: an atomic add; the forced `_exit` on
/// the second signal is on the async-signal-safe list too). The accept
/// loop polls it; a second signal never waits for the drain.
static SIGNALS: AtomicUsize = AtomicUsize::new(0);

/// Exit code for a forced (double-signal) shutdown: 128 + SIGINT.
const FORCED_EXIT_CODE: i32 = 130;

#[cfg(unix)]
fn install_signal_handlers() {
    extern "C" fn on_signal(_sig: i32) {
        let prev = SIGNALS.fetch_add(1, Ordering::SeqCst);
        if prev >= 1 {
            // Second signal: the operator wants out *now*. Skip drain,
            // skip artifact writes, exit non-zero immediately.
            extern "C" {
                fn _exit(code: i32) -> !;
            }
            unsafe { _exit(FORCED_EXIT_CODE) }
        }
    }
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT_NO: i32 = 2;
    const SIGTERM_NO: i32 = 15;
    unsafe {
        signal(SIGINT_NO, on_signal);
        signal(SIGTERM_NO, on_signal);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

/// A [`ServerCore`] bound to a socket, serving until drained.
pub struct Server {
    core: Arc<ServerCore>,
    listener: ListenerKind,
    addr: ServeAddr,
    /// What the persistent-cache recovery scan found at bind time
    /// (`None` without a `cache_dir`).
    pub scan_report: Option<ScanReport>,
    /// Metrics snapshot (stats schema), written at exit.
    pub metrics_out: Option<PathBuf>,
    /// The bound observability plane (`--http`), spawned when `run`
    /// starts and stopped after the drain completes — so `/readyz` can
    /// report `503 draining` for the whole drain window.
    pub http: Option<crate::http::HttpPlane>,
}

impl Server {
    /// Bind `addr` and build the resident core (recovering the
    /// persistent cache first when one is configured).
    pub fn bind(addr: ServeAddr, opts: ServeOptions) -> std::io::Result<Server> {
        let (core, scan_report) = ServerCore::build(opts)?;
        let listener = match &addr {
            #[cfg(unix)]
            ServeAddr::Unix(path) => {
                // A stale socket file from a killed predecessor blocks
                // bind; remove it (connect-refused files only).
                let _ = std::fs::remove_file(path);
                let l = UnixListener::bind(path)?;
                l.set_nonblocking(true)?;
                ListenerKind::Unix(l)
            }
            ServeAddr::Tcp(host) => {
                let l = TcpListener::bind(host.as_str())?;
                l.set_nonblocking(true)?;
                ListenerKind::Tcp(l)
            }
        };
        Ok(Server {
            core: Arc::new(core),
            listener,
            addr,
            scan_report,
            metrics_out: None,
            http: None,
        })
    }

    /// The shared core (for in-process tests and stats).
    pub fn core(&self) -> Arc<ServerCore> {
        Arc::clone(&self.core)
    }

    /// For TCP binds, the actual local address (port 0 resolves here).
    pub fn local_tcp_addr(&self) -> Option<std::net::SocketAddr> {
        match &self.listener {
            ListenerKind::Tcp(l) => l.local_addr().ok(),
            #[cfg(unix)]
            ListenerKind::Unix(_) => None,
        }
    }

    fn accept(&self) -> std::io::Result<Option<Box<dyn Stream>>> {
        match &self.listener {
            #[cfg(unix)]
            ListenerKind::Unix(l) => match l.accept() {
                Ok((s, _)) => {
                    s.set_nonblocking(false)?;
                    Ok(Some(Box::new(s)))
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(None),
                Err(e) => Err(e),
            },
            ListenerKind::Tcp(l) => match l.accept() {
                Ok((s, _)) => {
                    s.set_nonblocking(false)?;
                    Ok(Some(Box::new(s)))
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(None),
                Err(e) => Err(e),
            },
        }
    }

    /// Serve until a shutdown request, SIGTERM, or SIGINT, then drain
    /// in-flight work, write any configured telemetry artifacts, and
    /// clean up the socket. A second signal during (or before) the drain
    /// forces an immediate exit with code 130. Each connection gets one
    /// handler thread reading request lines until the client disconnects.
    pub fn run(mut self) -> std::io::Result<()> {
        install_signal_handlers();
        let http = self.http.take().map(crate::http::HttpPlane::spawn);
        let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        loop {
            if SIGNALS.load(Ordering::Relaxed) > 0 {
                self.core.start_drain();
            }
            if self.core.draining() {
                break;
            }
            match self.accept()? {
                Some(stream) => {
                    let core = Arc::clone(&self.core);
                    handlers.push(std::thread::spawn(move || handle_connection(core, stream)));
                }
                None => std::thread::sleep(Duration::from_millis(20)),
            }
        }
        // Graceful drain: stop accepting (done — we left the loop), let
        // admitted work finish, then reap connection threads (their
        // clients see the shutdown response and disconnect).
        self.core.drain();
        for h in handlers {
            let _ = h.join();
        }
        // The observability plane outlives the drain so `/readyz` could
        // answer `503 draining`; now the work is done, take it down.
        if let Some(h) = http {
            h.shutdown();
        }
        if let Some(path) = &self.core.opts.trace_out {
            std::fs::write(path, self.core.collected_telemetry().chrome_trace_string())?;
        }
        if let Some(path) = &self.metrics_out {
            std::fs::write(path, serde_json::to_string_pretty(&self.core.stats_json()))?;
        }
        #[cfg(unix)]
        if let ServeAddr::Unix(path) = &self.addr {
            let _ = std::fs::remove_file(path);
        }
        Ok(())
    }
}

/// One connection: read request lines, answer each, until EOF.
fn handle_connection(core: Arc<ServerCore>, stream: Box<dyn Stream>) {
    // The box serves both directions; split borrows via a raw reader on
    // a clone is not available for `dyn`, so buffer reads manually.
    let mut stream = stream;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        // Read until newline or EOF.
        let line_end = loop {
            if let Some(pos) = buf.iter().position(|&b| b == b'\n') {
                break Some(pos);
            }
            match stream.read(&mut chunk) {
                Ok(0) => break None,
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                Err(_) => break None,
            }
        };
        let Some(pos) = line_end else {
            return;
        };
        let line: Vec<u8> = buf.drain(..=pos).collect();
        let line = String::from_utf8_lossy(&line[..pos]).into_owned();
        if line.trim().is_empty() {
            continue;
        }
        let mut response = core.handle_line(&line);
        response.push('\n');
        if stream.write_all(response.as_bytes()).is_err() || stream.flush().is_err() {
            return;
        }
    }
}
