#![warn(missing_docs)]

//! # ifsim-bench — benchmark harness
//!
//! Two entry points:
//!
//! - the **`repro`** binary regenerates every table and figure of the paper
//!   (`cargo run -p ifsim-bench --bin repro -- all`), printing the rows the
//!   paper reports and writing CSV artifacts plus a check summary;
//! - the **`stack`** example is the one host-time benchmark
//!   (`BENCHMARK.json`): it times four workloads end to end and, traced,
//!   every layer they call; `cargo bench` runs the `ablations` harness,
//!   which prints the simulated effect of each design choice DESIGN.md
//!   calls out.

pub use ifsim_core::telemetry;
pub use ifsim_core::{registry, BenchConfig, Capture, Experiment, ExperimentResult, RunOpts};
pub use ifsim_scenario as scenario;

use ifsim_core::des::cancel::Cancelled;
use std::path::{Path, PathBuf};
use telemetry::{json, CollectedTelemetry};

/// Resolve registry ids into experiments (empty selects everything). An
/// unknown id is an error listing the available ids.
pub fn select(ids: &[String]) -> Result<Vec<Experiment>, String> {
    if ids.is_empty() {
        return Ok(registry::all());
    }
    ids.iter()
        .map(|id| {
            registry::by_id(id).ok_or_else(|| {
                format!(
                    "unknown experiment '{id}'; available: {}",
                    registry::ids().join(", ")
                )
            })
        })
        .collect()
}

/// Read, parse, and compile a scenario file into a runnable experiment.
/// Errors carry the file path and the offending field.
pub fn load_scenario(path: &Path) -> Result<Experiment, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let s = ifsim_scenario::Scenario::from_str(&text)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    ifsim_scenario::compile(&s).map_err(|e| format!("{}: {e}", path.display()))
}

/// Run an experiment set — registry selections, compiled scenarios, or a
/// mix — each via [`Experiment::run_with`] under `opts`, with up to `jobs`
/// in flight at once. Results come back in submission order, exactly as a
/// serial run would produce them: experiments are independent by
/// construction (each builds its own simulators from `cfg`, same seed,
/// same jitter stream regardless of scheduling), and the telemetry
/// collector stack is thread-local, so each worker gathers exactly the
/// telemetry — DAGs included — the serial driver would. The only
/// parallelism-visible effect is wall-clock time.
pub fn run_set(
    exps: Vec<Experiment>,
    cfg: &BenchConfig,
    opts: &RunOpts<'_>,
    jobs: usize,
) -> Result<Vec<(ExperimentResult, CollectedTelemetry)>, Cancelled> {
    if jobs <= 1 || exps.len() <= 1 {
        return exps.iter().map(|e| e.run_with(cfg, opts)).collect();
    }
    let (capture, cancel) = (opts.capture, opts.cancel.cloned());
    let pool = threadpool::ThreadPool::new(jobs.min(exps.len()));
    let (tx, rx) = std::sync::mpsc::channel();
    let n = exps.len();
    for (i, e) in exps.into_iter().enumerate() {
        let tx = tx.clone();
        let cfg = cfg.clone();
        let cancel = cancel.clone();
        pool.execute(move || {
            let opts = RunOpts {
                capture,
                cancel: cancel.as_ref(),
            };
            // A send can only fail if the receiver bailed early, which it
            // never does below; ignore the error to keep panics meaningful.
            let _ = tx.send((i, e.run_with(&cfg, &opts)));
        });
    }
    drop(tx);
    let mut slots: Vec<Option<_>> = std::iter::repeat_with(|| None).take(n).collect();
    for (i, result) in rx {
        slots[i] = Some(result);
    }
    pool.join();
    assert_eq!(pool.panic_count(), 0, "an experiment worker panicked");
    slots
        .into_iter()
        .map(|s| s.expect("every index reported a result"))
        .collect()
}

/// The artifact flags `repro` and `mgpu-bench` share: parsed here, and
/// written here.
#[derive(Debug, Default)]
pub struct ArtifactArgs {
    /// `--csv DIR`: each experiment's CSV artifacts plus one
    /// `<id>.metrics.json` telemetry snapshot.
    pub csv_dir: Option<PathBuf>,
    /// `--trace-out FILE`: the merged Chrome trace-event timeline.
    pub trace_out: Option<PathBuf>,
    /// `--metrics-out FILE`: the merged metrics snapshot (JSON).
    pub metrics_out: Option<PathBuf>,
    /// `--attr-out FILE`: the bottleneck-attribution report (markdown).
    pub attr_out: Option<PathBuf>,
    /// `--attr-json FILE`: the attribution as JSON (`ifsim-attr-v1`).
    pub attr_json: Option<PathBuf>,
    /// `--timeseries-out FILE`: the flight recorder's link-utilization
    /// counter series as long-format CSV.
    pub timeseries_out: Option<PathBuf>,
    /// `--critpath-out FILE`: the critical-path report reconstructed from
    /// captured dependency DAGs (JSON, `ifsim-critpath-v1`).
    pub critpath_out: Option<PathBuf>,
}

impl ArtifactArgs {
    /// Consume `flag` and its value from `rest` if it is an artifact flag;
    /// `Ok(false)` leaves any other flag to the caller.
    pub fn parse_flag(
        &mut self,
        flag: &str,
        rest: &mut impl Iterator<Item = String>,
    ) -> Result<bool, String> {
        let (slot, what) = match flag {
            "--csv" => (&mut self.csv_dir, "a directory"),
            "--trace-out" => (&mut self.trace_out, "a file"),
            "--metrics-out" => (&mut self.metrics_out, "a file"),
            "--attr-out" => (&mut self.attr_out, "a file"),
            "--attr-json" => (&mut self.attr_json, "a file"),
            "--timeseries-out" => (&mut self.timeseries_out, "a file"),
            "--critpath-out" => (&mut self.critpath_out, "a file"),
            _ => return Ok(false),
        };
        let value = rest.next().ok_or_else(|| format!("{flag} needs {what}"))?;
        *slot = Some(PathBuf::from(value));
        Ok(true)
    }

    /// What the requested artifacts need observed: dependency DAGs for the
    /// critical path, a collector for any other artifact (the snapshots
    /// beside the CSVs included), nothing otherwise.
    pub fn capture(&self) -> Capture {
        let telemetry = [
            &self.csv_dir,
            &self.trace_out,
            &self.metrics_out,
            &self.attr_out,
            &self.attr_json,
            &self.timeseries_out,
        ];
        if self.critpath_out.is_some() {
            Capture::Dag
        } else if telemetry.iter().any(|p| p.is_some()) {
            Capture::Telemetry
        } else {
            Capture::Off
        }
    }

    /// Write one experiment's CSV artifacts and its labeled metrics
    /// snapshot into the `--csv` directory, if one was given.
    pub fn write_result(&self, r: &ExperimentResult, t: &CollectedTelemetry) -> Result<(), String> {
        let Some(dir) = &self.csv_dir else {
            return Ok(());
        };
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        for (name, contents) in &r.csv {
            write(&dir.join(name), contents)?;
        }
        let snapshot = json::to_string_pretty(&t.metrics_json_labeled(r.id));
        write(&dir.join(format!("{}.metrics.json", r.id)), &snapshot)
    }

    /// Write every requested artifact of the merged telemetry.
    pub fn write_all(&self, merged: &CollectedTelemetry) -> Result<(), String> {
        type Render = fn(&CollectedTelemetry) -> String;
        let artifacts: [(&Option<PathBuf>, Render); 6] = [
            (&self.trace_out, CollectedTelemetry::chrome_trace_string),
            (&self.metrics_out, CollectedTelemetry::metrics_json_string),
            (&self.attr_out, telemetry::render_attribution),
            (&self.attr_json, |t| {
                json::to_string_pretty(&telemetry::attribution_json(t))
            }),
            (&self.timeseries_out, telemetry::timeseries_csv),
            (&self.critpath_out, |t| {
                let report = telemetry::critpath::report(t.dags(), 10);
                json::to_string_pretty(&telemetry::critpath_json(&report))
            }),
        ];
        for (path, render) in artifacts {
            if let Some(path) = path {
                write(path, &render(merged))?;
            }
        }
        Ok(())
    }
}

/// `println!` for the command-line tools, except that a closed stdout is
/// not a crash: once the reader has gone away (`repro all | head -1`),
/// this and every later line is dropped and the tool carries on, so its
/// artifacts are still written and its exit status is still its verdict.
#[macro_export]
macro_rules! outln {
    ($($arg:tt)*) => {
        $crate::write_stdout_line(format_args!($($arg)*))
    };
}

/// Set once a write to stdout has met a closed pipe.
static STDOUT_CLOSED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// The body of [`outln!`].
#[doc(hidden)]
pub fn write_stdout_line(line: std::fmt::Arguments<'_>) {
    use std::io::Write;
    use std::sync::atomic::Ordering;
    if STDOUT_CLOSED.load(Ordering::Relaxed) {
        return;
    }
    match writeln!(std::io::stdout().lock(), "{line}") {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => {
            STDOUT_CLOSED.store(true, Ordering::Relaxed);
        }
        Err(e) => panic!("failed printing to stdout: {e}"),
    }
}

/// Write `contents` to `path`; the error names the path.
pub fn write(path: &Path, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick1() -> BenchConfig {
        let mut cfg = BenchConfig::quick();
        cfg.reps = 1;
        cfg
    }

    fn ids(ids: &[&str]) -> Vec<String> {
        ids.iter().map(|s| s.to_string()).collect()
    }

    fn run(
        ids: &[String],
        capture: Capture,
        jobs: usize,
    ) -> Vec<(ExperimentResult, CollectedTelemetry)> {
        let exps = select(ids).unwrap();
        run_set(exps, &quick1(), &RunOpts::capture(capture), jobs).unwrap()
    }

    #[test]
    fn selects_experiments_in_order() {
        let exps = select(&ids(&["table1", "fig6a"])).unwrap();
        let got: Vec<&str> = exps.iter().map(|e| e.id).collect();
        assert_eq!(got, ["table1", "fig6a"]);
        assert_eq!(select(&[]).unwrap().len(), registry::ids().len());
    }

    #[test]
    fn unknown_id_is_an_error_with_listing() {
        let err = select(&ids(&["fig6a", "fig99"]))
            .err()
            .expect("fig99 rejected");
        assert!(err.contains("unknown experiment 'fig99'"), "{err}");
        for id in registry::ids() {
            assert!(err.contains(id), "listing misses {id}: {err}");
        }
    }

    #[test]
    fn parallel_driver_matches_serial_results_and_order() {
        let ids = ids(&["fig6b", "table1", "fig6a"]);
        let serial = run(&ids, Capture::Off, 1);
        let parallel = run(&ids, Capture::Off, 3);
        assert_eq!(serial.len(), parallel.len());
        for ((s, ts), (p, tp)) in serial.iter().zip(&parallel) {
            assert_eq!(s.id, p.id);
            assert_eq!(s.report(), p.report(), "{} diverged under --jobs", s.id);
            assert_eq!(s.csv, p.csv, "{} CSV diverged under --jobs", s.id);
            assert_eq!((ts.sims(), tp.sims()), (0, 0), "no capture, no telemetry");
        }
    }

    #[test]
    fn parallel_telemetry_capture_collects_per_experiment_telemetry() {
        let pairs = run(&ids(&["fig6a", "fig6b"]), Capture::Telemetry, 2);
        let got: Vec<&str> = pairs.iter().map(|(r, _)| r.id).collect();
        assert_eq!(got, ["fig6a", "fig6b"], "submission order preserved");
        // fig6b constructs observed runtimes: its telemetry must arrive
        // even though the collector lived on a worker thread.
        let t = &pairs[1].1;
        assert!(t.sims() > 0, "fig6b telemetry observed off-thread");
        assert!(t.events().iter().any(|e| e.cat == "hip_op"));
        assert!(t.dags().is_empty(), "telemetry capture takes no DAGs");
    }

    #[test]
    fn dag_capture_forwards_graphs_from_workers() {
        let ids = ids(&["fig6a", "fig6b"]);
        let serial = run(&ids, Capture::Dag, 1);
        let parallel = run(&ids, Capture::Dag, 2);
        assert_eq!(serial.len(), parallel.len());
        for ((rs, ts), (rp, tp)) in serial.iter().zip(&parallel) {
            assert_eq!(rs.report(), rp.report(), "{} diverged under --jobs", rs.id);
            assert_eq!(
                ts.dags().len(),
                tp.dags().len(),
                "{} graph count diverged under --jobs",
                rs.id
            );
        }
        // fig6b constructs observed runtimes, so graphs must be present —
        // and each analyzes to a path partitioning its makespan.
        let (_, t) = &parallel[1];
        assert!(!t.dags().is_empty(), "fig6b produced dependency graphs");
        for g in t.dags() {
            let p = telemetry::critpath::analyze(g);
            let sum: f64 = p.steps.iter().map(|s| s.end_ns - s.start_ns).sum();
            assert!((sum - p.makespan_ns).abs() <= 1e-6 * p.makespan_ns.max(1.0));
        }
    }

    #[test]
    fn a_fired_token_cancels_the_set_serial_and_parallel() {
        let fired = ifsim_core::des::cancel::CancelToken::new();
        fired.cancel();
        let opts = RunOpts {
            capture: Capture::Off,
            cancel: Some(&fired),
        };
        for jobs in [1, 2] {
            let exps = select(&ids(&["fig6b", "fig7"])).unwrap();
            assert!(
                run_set(exps, &quick1(), &opts, jobs).is_err(),
                "jobs {jobs}"
            );
        }
    }

    #[test]
    fn artifact_flags_parse_and_pick_the_capture() {
        let parse = |argv: &[&str]| {
            let mut a = ArtifactArgs::default();
            let mut it = argv.iter().map(|s| s.to_string());
            while let Some(flag) = it.next() {
                if !a.parse_flag(&flag, &mut it)? {
                    return Err(format!("not an artifact flag: {flag}"));
                }
            }
            Ok::<_, String>(a)
        };
        assert_eq!(parse(&[]).unwrap().capture(), Capture::Off);
        assert_eq!(
            parse(&["--csv", "d"]).unwrap().capture(),
            Capture::Telemetry
        );
        assert_eq!(
            parse(&["--attr-json", "a", "--critpath-out", "c"])
                .unwrap()
                .capture(),
            Capture::Dag
        );
        assert_eq!(
            parse(&["--trace-out"]).unwrap_err(),
            "--trace-out needs a file"
        );
        assert!(parse(&["--jobs", "2"]).is_err());
    }
}
