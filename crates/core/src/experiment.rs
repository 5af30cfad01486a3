//! Experiment plumbing: results, checks, rendering.

use ifsim_des::cancel::{CancelToken, Cancelled};
use ifsim_microbench::BenchConfig;
use ifsim_telemetry::{CollectedTelemetry, Collector};
use std::fmt::Write as _;
use std::sync::Arc;

/// One shape/value check against the paper.
#[derive(Clone, Debug)]
pub struct Check {
    /// What is being checked (one sentence).
    pub name: String,
    /// Whether the reproduction satisfies it.
    pub passed: bool,
    /// Measured-vs-paper detail for the report.
    pub detail: String,
}

impl Check {
    /// Build a check from a predicate plus detail text.
    pub fn new(name: impl Into<String>, passed: bool, detail: impl Into<String>) -> Check {
        Check {
            name: name.into(),
            passed,
            detail: detail.into(),
        }
    }
}

/// The output of running one experiment.
#[derive(Clone, Debug)]
pub struct ExperimentResult {
    /// Registry id, e.g. `fig6b`.
    pub id: &'static str,
    /// Human title.
    pub title: &'static str,
    /// Rendered tables/series, ready to print.
    pub rendered: String,
    /// `(file name, contents)` CSV artifacts.
    pub csv: Vec<(String, String)>,
    /// Paper-shape checks.
    pub checks: Vec<Check>,
}

impl ExperimentResult {
    /// Whether every check passed.
    pub fn all_passed(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }

    /// Render the result including the check list.
    pub fn report(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "=== {} — {} ===", self.id, self.title);
        out.push_str(&self.rendered);
        if !self.checks.is_empty() {
            let _ = writeln!(out, "\nchecks vs. paper:");
            for c in &self.checks {
                let mark = if c.passed { "PASS" } else { "FAIL" };
                let _ = writeln!(out, "  [{mark}] {} — {}", c.name, c.detail);
            }
        }
        out
    }
}

/// How an experiment produces its result: the registry's plain function
/// pointers, or a closure compiled at runtime (scenario files). Both run
/// identically under every driver — telemetry, `--jobs`, DAG capture,
/// cancellation — because the drivers only ever see [`Experiment::run`].
#[derive(Clone)]
enum Runner {
    /// A hand-coded registry experiment.
    Static(fn(&BenchConfig) -> ExperimentResult),
    /// A runtime-compiled experiment (e.g. `ifsim-scenario` workloads).
    Dynamic(Arc<dyn Fn(&BenchConfig) -> ExperimentResult + Send + Sync>),
}

/// Intern a string into the `'static` lifetime the registry API speaks.
/// Each distinct string leaks exactly once (a global pool deduplicates),
/// so compiling the same scenario repeatedly — the serve daemon does —
/// stays bounded by the number of *distinct* ids ever seen.
pub fn intern(s: &str) -> &'static str {
    use std::collections::HashSet;
    use std::sync::{Mutex, OnceLock};
    static POOL: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    let mut pool = POOL
        .get_or_init(|| Mutex::new(HashSet::new()))
        .lock()
        .unwrap();
    match pool.get(s) {
        Some(&interned) => interned,
        None => {
            let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
            pool.insert(leaked);
            leaked
        }
    }
}

/// A registered experiment.
#[derive(Clone)]
pub struct Experiment {
    /// Registry id (`table1`, `fig2`, ... `fig12`, or `scenario:<name>`).
    pub id: &'static str,
    /// Human title (the paper's caption, abbreviated).
    pub title: &'static str,
    /// What the paper artifact shows.
    pub description: &'static str,
    runner: Runner,
    /// Extra identity folded into [`Experiment::config_digest`] — dynamic
    /// experiments carry their compiled definition's digest here so two
    /// scenarios sharing a name but differing in content never collide in
    /// a result cache.
    digest_extra: Vec<(String, String)>,
}

impl Experiment {
    /// Define an experiment.
    pub fn new(
        id: &'static str,
        title: &'static str,
        description: &'static str,
        runner: fn(&BenchConfig) -> ExperimentResult,
    ) -> Experiment {
        Experiment {
            id,
            title,
            description,
            runner: Runner::Static(runner),
            digest_extra: Vec::new(),
        }
    }

    /// Define a runtime-compiled experiment. The id/title/description are
    /// interned (deduplicated leak) into the `'static` lifetime the rest of
    /// the stack speaks; `digest_extra` pairs join the configuration pairs
    /// in [`Experiment::config_digest`] so content-addressed caches key on
    /// the compiled definition, not just its name.
    pub fn dynamic(
        id: &str,
        title: &str,
        description: &str,
        digest_extra: Vec<(String, String)>,
        runner: Arc<dyn Fn(&BenchConfig) -> ExperimentResult + Send + Sync>,
    ) -> Experiment {
        Experiment {
            id: intern(id),
            title: intern(title),
            description: intern(description),
            runner: Runner::Dynamic(runner),
            digest_extra,
        }
    }

    /// Run it.
    pub fn run(&self, cfg: &BenchConfig) -> ExperimentResult {
        match &self.runner {
            Runner::Static(f) => f(cfg),
            Runner::Dynamic(f) => f(cfg),
        }
    }

    /// Content-address this experiment under `cfg`: a hex digest over the
    /// experiment id plus every configuration constant (seed, repetition
    /// counts, and the full calibration). Two invocations with equal
    /// digests are behaviourally identical — the simulator derives all
    /// jitter from the seed — so result caches (`ifsim-serve`) key on it.
    ///
    /// The key/value pairs are sorted by name before hashing, so the digest
    /// is stable across struct-field reordering and accessor-table churn.
    pub fn config_digest(&self, cfg: &BenchConfig) -> String {
        let mut pairs: Vec<(String, String)> = vec![
            ("experiment".into(), self.id.to_string()),
            ("seed".into(), cfg.seed.to_string()),
            ("reps".into(), cfg.reps.to_string()),
            ("warmup".into(), cfg.warmup.to_string()),
        ];
        for (name, value) in cfg.calib.kv() {
            pairs.push((format!("calib.{name}"), value.to_string()));
        }
        pairs.extend(self.digest_extra.iter().cloned());
        digest_kv(&pairs)
    }

    /// Run it as `opts` asks: under a telemetry collector when
    /// `opts.capture` is not [`Capture::Off`] (the telemetry comes back
    /// empty otherwise), and under `opts.cancel` when a token is given.
    ///
    /// Every simulator the experiment constructs while a collector is
    /// installed self-observes; the merged timeline, metrics snapshot and
    /// (under [`Capture::Dag`]) causal dependency graphs come back beside
    /// the result. Capture is observation-only: the simulated schedule is
    /// bitwise-identical to an unobserved run.
    ///
    /// With a token, it is installed for the calling thread and the
    /// microbench repetition loops checkpoint it between reps; a fired
    /// token surfaces as `Err(Cancelled)`, discarding the partial result
    /// and its telemetry. A genuine panic inside the experiment is
    /// re-raised untouched.
    pub fn run_with(
        &self,
        cfg: &BenchConfig,
        opts: &RunOpts<'_>,
    ) -> Result<(ExperimentResult, CollectedTelemetry), Cancelled> {
        let collector = opts.capture.install();
        let result = match opts.cancel {
            None => self.run(cfg),
            Some(token) => {
                let _guard = token.install();
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.run(cfg))) {
                    Ok(result) => result,
                    Err(payload) if payload.is::<Cancelled>() => return Err(Cancelled),
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
        };
        let telemetry = collector.map_or_else(CollectedTelemetry::new, Collector::take);
        Ok((result, telemetry))
    }

    /// [`Experiment::run_with`] under [`Capture::Dag`] and no token.
    pub fn run_instrumented_dag(
        &self,
        cfg: &BenchConfig,
    ) -> (ExperimentResult, CollectedTelemetry) {
        self.run_with(cfg, &RunOpts::capture(Capture::Dag))
            .expect("no token, no cancellation")
    }
}

/// What [`Experiment::run_with`] observes beside the result.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Capture {
    /// No collector; the telemetry comes back empty.
    #[default]
    Off,
    /// A telemetry collector: timeline, metrics, flight recorder.
    Telemetry,
    /// [`Capture::Telemetry`] plus causal dependency-DAG capture, the
    /// input to `ifsim_telemetry::critpath` and the what-if engine.
    Dag,
}

impl Capture {
    /// Install the collector this capture needs on the calling thread;
    /// simulators constructed until it is taken or dropped feed it.
    pub fn install(self) -> Option<Collector> {
        match self {
            Capture::Off => None,
            Capture::Telemetry => Some(Collector::install()),
            Capture::Dag => Some(Collector::install_with_dag()),
        }
    }
}

/// How [`Experiment::run_with`] runs an experiment.
#[derive(Clone, Copy, Default)]
pub struct RunOpts<'a> {
    /// What to observe.
    pub capture: Capture,
    /// A token whose firing abandons the run with `Err(Cancelled)`.
    pub cancel: Option<&'a CancelToken>,
}

impl RunOpts<'_> {
    /// Observe `capture`, with no cancellation.
    pub fn capture(capture: Capture) -> RunOpts<'static> {
        RunOpts {
            capture,
            cancel: None,
        }
    }
}

/// Digest a key/value set into 32 hex characters, independent of the order
/// the pairs are supplied in (they are sorted by key, then value, and
/// hashed as `key=value` lines with [`fnv128_hex`]).
pub fn digest_kv(pairs: &[(String, String)]) -> String {
    let mut sorted: Vec<&(String, String)> = pairs.iter().collect();
    sorted.sort();
    let mut lines = Vec::new();
    for (k, v) in sorted {
        lines.extend_from_slice(k.as_bytes());
        lines.push(b'=');
        lines.extend_from_slice(v.as_bytes());
        lines.push(b'\n');
    }
    fnv128_hex(&lines)
}

/// 128-bit digest of raw bytes as 32 hex characters: two FNV-1a streams
/// with distinct offset bases, without external hash dependencies. Config
/// digests ([`digest_kv`]) and the serve store's entry checksums.
pub fn fnv128_hex(bytes: &[u8]) -> String {
    const PRIME: u64 = 0x100000001b3;
    let mut h1: u64 = 0xcbf29ce484222325;
    let mut h2: u64 = h1 ^ 0x9e3779b97f4a7c15;
    for &b in bytes {
        h1 = (h1 ^ u64::from(b)).wrapping_mul(PRIME);
        h2 = (h2 ^ u64::from(b)).wrapping_mul(PRIME);
    }
    format!("{h1:016x}{h2:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy(_: &BenchConfig) -> ExperimentResult {
        ExperimentResult {
            id: "x",
            title: "t",
            rendered: "body\n".into(),
            csv: vec![],
            checks: vec![Check::new("a", true, "ok"), Check::new("b", false, "off")],
        }
    }

    fn run_telemetry(e: &Experiment, cfg: &BenchConfig) -> (ExperimentResult, CollectedTelemetry) {
        e.run_with(cfg, &RunOpts::capture(Capture::Telemetry))
            .unwrap()
    }

    #[test]
    fn run_with_telemetry_captures_the_benchmark_runtimes() {
        fn runner(cfg: &BenchConfig) -> ExperimentResult {
            let mut hip = cfg.runtime(ifsim_hip::EnvConfig::default());
            let a = hip.malloc(1 << 20).unwrap();
            let b = hip.malloc(1 << 20).unwrap();
            hip.memcpy(b, 0, a, 0, 1 << 20, ifsim_hip::MemcpyKind::DeviceToDevice)
                .unwrap();
            ExperimentResult {
                id: "probe",
                title: "probe",
                rendered: String::new(),
                csv: vec![],
                checks: vec![],
            }
        }
        let e = Experiment::new("probe", "probe", "d", runner);
        let (r, t) = run_telemetry(&e, &BenchConfig::quick());
        assert!(r.all_passed());
        assert_eq!(t.sims(), 1, "one runtime contributed a snapshot");
        assert!(t.events().iter().any(|e| e.cat == "hip_op"));
        assert!(t
            .metrics()
            .histogram(
                &ifsim_telemetry::MetricKey::new("hip_op_duration_ns")
                    .with("op", "memcpy")
                    .with("dev", "0")
            )
            .is_some());
    }

    #[test]
    fn run_instrumented_dag_captures_a_dependency_graph() {
        fn runner(cfg: &BenchConfig) -> ExperimentResult {
            let mut hip = cfg.runtime(ifsim_hip::EnvConfig::default());
            let a = hip.malloc(1 << 20).unwrap();
            let b = hip.malloc(1 << 20).unwrap();
            hip.memcpy(b, 0, a, 0, 1 << 20, ifsim_hip::MemcpyKind::DeviceToDevice)
                .unwrap();
            ExperimentResult {
                id: "probe",
                title: "probe",
                rendered: String::new(),
                csv: vec![],
                checks: vec![],
            }
        }
        let e = Experiment::new("probe", "probe", "d", runner);
        let (_, t) = e.run_instrumented_dag(&BenchConfig::quick());
        assert_eq!(t.dags().len(), 1, "one runtime, one graph");
        let g = &t.dags()[0];
        assert!(!g.is_empty());
        // The graph analyzes to a path whose total is the makespan.
        let p = ifsim_telemetry::critpath::analyze(g);
        let sum: f64 = p.steps.iter().map(|s| s.end_ns - s.start_ns).sum();
        assert!((sum - p.makespan_ns).abs() <= 1e-6 * p.makespan_ns.max(1.0));
        // The plain telemetry capture stays dag-free, and no capture
        // observes nothing at all.
        let (_, t2) = run_telemetry(&e, &BenchConfig::quick());
        assert!(t2.dags().is_empty());
        assert_eq!(t2.sims(), 1);
        let (_, off) = e
            .run_with(&BenchConfig::quick(), &RunOpts::default())
            .unwrap();
        assert_eq!(off.sims(), 0);
    }

    #[test]
    fn digest_is_stable_across_pair_ordering() {
        let fwd = vec![
            ("seed".to_string(), "42".to_string()),
            ("reps".to_string(), "3".to_string()),
            ("calib.eff_sdma_xgmi".to_string(), "0.75".to_string()),
        ];
        let mut rev = fwd.clone();
        rev.reverse();
        assert_eq!(digest_kv(&fwd), digest_kv(&rev));
        assert_eq!(digest_kv(&fwd).len(), 32);
        // Content changes move the digest.
        let mut other = fwd.clone();
        other[0].1 = "43".to_string();
        assert_ne!(digest_kv(&fwd), digest_kv(&other));
    }

    #[test]
    fn config_digest_tracks_id_seed_and_calibration() {
        let a = Experiment::new("x", "t", "d", dummy);
        let b = Experiment::new("y", "t", "d", dummy);
        let cfg = BenchConfig::quick();
        assert_eq!(a.config_digest(&cfg), a.config_digest(&cfg.clone()));
        assert_ne!(a.config_digest(&cfg), b.config_digest(&cfg));
        let mut seeded = cfg.clone();
        seeded.seed = 7;
        assert_ne!(a.config_digest(&cfg), a.config_digest(&seeded));
        let mut perturbed = cfg.clone();
        *perturbed.calib.f64_field_mut("eff_sdma_xgmi").unwrap() *= 1.1;
        assert_ne!(a.config_digest(&cfg), a.config_digest(&perturbed));
        // reps is part of the identity too: artifacts embed averaged rows.
        let mut reps = cfg.clone();
        reps.reps += 1;
        assert_ne!(a.config_digest(&cfg), a.config_digest(&reps));
    }

    const CAPTURES: [Capture; 3] = [Capture::Off, Capture::Telemetry, Capture::Dag];

    #[test]
    fn run_with_maps_a_fired_token_to_err_under_every_capture() {
        fn runner(cfg: &BenchConfig) -> ExperimentResult {
            // Mirror the microbench harness shape: checkpoint between reps.
            for _ in 0..cfg.reps {
                ifsim_des::cancel::checkpoint();
            }
            dummy(cfg)
        }
        let e = Experiment::new("c", "t", "d", runner);
        let cfg = BenchConfig::quick();
        let live = CancelToken::new();
        let fired = CancelToken::new();
        fired.cancel();
        for capture in CAPTURES {
            let opts = |cancel| RunOpts { capture, cancel };
            assert!(e.run_with(&cfg, &opts(Some(&live))).is_ok(), "{capture:?}");
            assert!(
                matches!(e.run_with(&cfg, &opts(Some(&fired))), Err(Cancelled)),
                "{capture:?}"
            );
        }
    }

    #[test]
    fn run_with_propagates_real_panics() {
        fn runner(_: &BenchConfig) -> ExperimentResult {
            panic!("genuine failure");
        }
        let e = Experiment::new("p", "t", "d", runner);
        let token = CancelToken::new();
        for capture in CAPTURES {
            for cancel in [None, Some(&token)] {
                let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    e.run_with(&BenchConfig::quick(), &RunOpts { capture, cancel })
                }));
                assert!(caught.is_err(), "non-cancellation panics unwind outward");
            }
        }
    }

    #[test]
    fn dynamic_experiments_run_and_digest_their_definition() {
        let mk = |extra: &str| {
            let rendered = format!("payload {extra}\n");
            Experiment::dynamic(
                "scenario:probe",
                "probe scenario",
                "dynamic runner probe",
                vec![("scenario".into(), extra.into())],
                Arc::new(move |_cfg: &BenchConfig| ExperimentResult {
                    id: "scenario:probe",
                    title: "probe scenario",
                    rendered: rendered.clone(),
                    csv: vec![],
                    checks: vec![],
                }),
            )
        };
        let a = mk("aaaa");
        let b = mk("bbbb");
        let cfg = BenchConfig::quick();
        assert_eq!(a.run(&cfg).rendered, "payload aaaa\n");
        // Same name, different compiled content: the digests must differ,
        // and re-interning the same strings must not grow the pool's view.
        assert_ne!(a.config_digest(&cfg), b.config_digest(&cfg));
        assert_eq!(a.config_digest(&cfg), mk("aaaa").config_digest(&cfg));
        assert!(std::ptr::eq(a.id, mk("aaaa").id), "ids interned once");
        // Dynamic experiments ride the instrumented drivers unchanged.
        let (r, t) = run_telemetry(&a, &cfg);
        assert_eq!(r.id, "scenario:probe");
        assert_eq!(t.sims(), 0, "probe constructs no runtimes");
    }

    #[test]
    fn report_shows_pass_and_fail() {
        let e = Experiment::new("x", "t", "d", dummy);
        let r = e.run(&BenchConfig::quick());
        assert!(!r.all_passed());
        let text = r.report();
        assert!(text.contains("[PASS] a"));
        assert!(text.contains("[FAIL] b"));
        assert!(text.contains("body"));
    }
}
