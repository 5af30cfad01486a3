//! The batch workloads: one caller running a fixed set of experiments per
//! pass, back to back.
//!
//! - `repro-quick` runs every registry id under `BenchConfig::quick()`,
//!   exactly what `repro --quick` runs;
//! - `scenario-scaled` runs the three scenario files under `workloads/`
//!   plain;
//! - `scenario-observed` runs the same files under DAG capture and builds
//!   the artifacts `--trace-out`, `--metrics-out` and `--critpath-out`
//!   write.

use crate::calib::Calibrator;
use crate::layers::{self, Counts, Layer};
use crate::spans::Spans;
use crate::stats::median;
use crate::{repo_root, Outcome};
use ifsim_core::experiment::digest_kv;
use ifsim_core::telemetry::{critpath, critpath_json, json, CollectedTelemetry};
use ifsim_core::{registry, BenchConfig, Experiment};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Which batch workload.
#[derive(Clone, Copy, PartialEq)]
pub enum Kind {
    /// Every registry id, quick.
    Repro,
    /// The scenario files, plain.
    Scaled,
    /// The scenario files, observed and exported.
    Observed,
}

/// `(name, text)` of every scenario file under `workloads/`, by name.
pub fn scenario_files() -> Result<Vec<(String, String)>, String> {
    let dir = crate::bench_dir().join("workloads");
    let mut files = Vec::new();
    let entries = std::fs::read_dir(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| format!("{}: {e}", dir.display()))?.path();
        if path.extension().is_some_and(|x| x == "json") {
            let name = path
                .file_stem()
                .and_then(|s| s.to_str())
                .ok_or_else(|| format!("{}: unnamed file", path.display()))?
                .to_string();
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            files.push((name, text));
        }
    }
    files.sort();
    Ok(files)
}

/// Parse and compile scenario texts into experiments.
pub fn compile_all(files: &[(String, String)]) -> Result<Vec<Experiment>, String> {
    files
        .iter()
        .map(|(name, text)| {
            let s = ifsim_scenario::Scenario::from_str(text).map_err(|e| format!("{name}: {e}"))?;
            ifsim_scenario::compile(&s).map_err(|e| format!("{name}: {e}"))
        })
        .collect()
}

/// One experiment of a pass, with the name of its `core.run_ms` row.
struct Unit {
    row: String,
    exp: Experiment,
}

/// What one pass produced.
struct Pass {
    items: Vec<Item>,
    /// Seconds of each experiment, then of each export step.
    rows: Vec<f64>,
    /// The pass in calibration units: each step's seconds over the kernel
    /// timings on either side of it.
    cost: f64,
}

/// What one experiment (or the export step) produced in a pass.
struct Item {
    name: String,
    ok: bool,
    artifacts: Vec<String>,
}

struct Batch {
    kind: Kind,
    units: Vec<Unit>,
    cfg: BenchConfig,
}

/// The export stage's rows, after the experiments' rows.
const EXPORT_ROWS: [&str; 3] = [
    "telemetry.chrome_export_ms",
    "telemetry.metrics_export_ms",
    "telemetry.critpath_ms",
];

impl Batch {
    /// Construct the workload's inputs: the registry, or the scenario
    /// files read, parsed and compiled.
    fn setup(kind: Kind, seed: u64) -> Result<Batch, String> {
        let units = match kind {
            Kind::Repro => registry::all()
                .into_iter()
                .map(|exp| Unit {
                    row: exp.id.to_string(),
                    exp,
                })
                .collect(),
            Kind::Scaled | Kind::Observed => {
                let files = scenario_files()?;
                compile_all(&files)?
                    .into_iter()
                    .zip(files)
                    .map(|(exp, (row, _))| Unit { row, exp })
                    .collect()
            }
        };
        let mut cfg = BenchConfig::quick();
        cfg.seed = seed;
        Ok(Batch { kind, units, cfg })
    }

    /// Run one pass under `parent`, timing the calibration kernel after
    /// every step.
    fn pass(&self, spans: &mut Spans, parent: u64, cal: &mut Calibrator) -> Pass {
        let observed = self.kind == Kind::Observed;
        let mut merged = CollectedTelemetry::new();
        let mut items = Vec::with_capacity(self.units.len() + 1);
        let mut rows = Vec::with_capacity(self.units.len() + EXPORT_ROWS.len());
        let mut cost = 0.0;
        let mut step = |rows: &mut Vec<f64>, s: f64| {
            rows.push(s);
            cost += s / cal.tick();
        };
        for u in &self.units {
            let (run, s) = spans.span(parent, u.exp.id, |_, _| {
                catch_unwind(AssertUnwindSafe(|| {
                    if observed {
                        // Merging is part of the observed work: repro does
                        // it per experiment before writing any artifact.
                        let (r, t) = u.exp.run_instrumented_dag(&self.cfg);
                        merged.absorb(t);
                        r
                    } else {
                        u.exp.run(&self.cfg)
                    }
                }))
            });
            step(&mut rows, s);
            items.push(match run {
                Ok(r) => {
                    let mut artifacts = vec![r.report()];
                    for (name, contents) in r.csv.iter() {
                        artifacts.push(name.clone());
                        artifacts.push(contents.clone());
                    }
                    Item {
                        name: u.row.clone(),
                        ok: r.all_passed(),
                        artifacts,
                    }
                }
                Err(_) => Item {
                    name: u.row.clone(),
                    ok: false,
                    artifacts: Vec::new(),
                },
            });
        }
        if observed {
            let (chrome, s) = spans.span(parent, "telemetry.chrome_export", |_, _| {
                merged.chrome_trace_string()
            });
            step(&mut rows, s);
            let (metrics, s) = spans.span(parent, "telemetry.metrics_export", |_, _| {
                merged.metrics_json_string()
            });
            step(&mut rows, s);
            // Takes the telemetry, so freeing it is charged here too.
            let (critpath, s) = spans.span(parent, "telemetry.critpath", move |_, _| {
                let report = critpath::report(merged.dags(), 10);
                json::to_string_pretty(&critpath_json(&report))
            });
            step(&mut rows, s);
            items.push(Item {
                name: "exports".into(),
                ok: true,
                artifacts: vec![chrome, metrics, critpath],
            });
        }
        Pass { items, rows, cost }
    }
}

/// Check `fig6a`/`fig6b`/`fig6c`/`fig7` against `golden/` at the pinned
/// configuration (quick, one rep, default seed). Returns (attempted, failed).
fn golden_check() -> (u64, u64) {
    let mut cfg = BenchConfig::quick();
    cfg.reps = 1;
    let (mut attempted, mut failed) = (0, 0);
    for id in ["fig6a", "fig6b", "fig6c", "fig7"] {
        let exp = registry::by_id(id).expect("pinned figures are registered");
        for (name, contents) in exp.run(&cfg).csv {
            attempted += 1;
            let path = repo_root().join("golden").join(&name);
            if std::fs::read_to_string(&path).ok().as_deref() != Some(contents.as_str()) {
                failed += 1;
                eprintln!("output check: {id} {name} differs from {}", path.display());
            }
        }
    }
    (attempted, failed)
}

/// Run a batch workload for `seconds` of passes after one untimed warm-up
/// pass. Every pass is checked against the warm-up pass; a traced run
/// also measures the per-layer rows.
pub fn run(kind: Kind, seed: u64, seconds: f64, spans: &mut Spans) -> Result<Outcome, String> {
    let origin = Instant::now();
    let batch = Batch::setup(kind, seed)?;
    let mut quiet = Spans::new(origin, 0, false);
    let mut cal = Calibrator::new(origin);
    let setups = crate::time_setup(&mut cal, || Batch::setup(kind, seed))?;

    let warm = batch.pass(&mut quiet, 0, &mut cal).items;
    let mut attempted = warm.len() as u64;
    let mut failed = warm.iter().filter(|i| !i.ok).count() as u64;
    for item in warm.iter().filter(|i| !i.ok) {
        eprintln!("output check: {} failed in the warm-up pass", item.name);
    }
    let digest_pairs: Vec<(String, String)> = warm
        .iter()
        .flat_map(|i| {
            i.artifacts
                .iter()
                .enumerate()
                .map(move |(k, a)| (format!("{}#{k}", i.name), a.clone()))
        })
        .collect();
    let output_digest = digest_kv(&digest_pairs);
    drop(digest_pairs);
    if kind == Kind::Repro {
        let (a, f) = golden_check();
        attempted += a;
        failed += f;
    }

    let traced = spans.recording();
    let mut layer = traced.then(Layer::new);
    let mut prepared = None;
    if let Some(m) = layer.as_mut() {
        let files = scenario_files()?;
        let exps: Vec<&Experiment> = batch.units.iter().map(|u| &u.exp).collect();
        let (probes, replay) = spans
            .span(0, "probe", |sp, id| {
                layers::probe(sp, id, &exps, &batch.cfg)
            })
            .0;
        let unit = spans
            .span(0, "unit_costs", |sp, id| {
                layers::unit_costs(sp, id, &files, &replay, m)
            })
            .0;
        prepared = Some((unit, probes));
    }
    let start = Instant::now();

    let n_rows = batch.units.len()
        + if kind == Kind::Observed {
            EXPORT_ROWS.len()
        } else {
            0
        };
    let mut ops = Vec::new();
    let (mut traced_ops, mut quiet_ops) = (Vec::new(), Vec::new());
    let mut row_samples: Vec<Vec<f64>> = vec![Vec::new(); n_rows];
    let mut partition = Vec::new();
    let mut chrome_bytes = 0usize;
    let mut ops_cal = Vec::new();
    loop {
        if start.elapsed().as_secs_f64() >= seconds && !ops.is_empty() {
            break;
        }
        let record = traced && ops.len().is_multiple_of(2);
        let sp = if record { &mut *spans } else { &mut quiet };
        let spent = cal.spent();
        let (pass, wall) = sp.span(0, "pass", |sp, id| batch.pass(sp, id, &mut cal));
        // The op is the pass without the kernel timings inside it.
        let s = wall - (cal.spent() - spent);
        ops.push(s);
        ops_cal.push(pass.cost);
        let Pass { items, rows, .. } = pass;
        for (item, w) in items.iter().zip(&warm) {
            attempted += 1;
            if !item.ok || item.artifacts != w.artifacts {
                failed += 1;
                eprintln!("output check: {} differs from the warm-up pass", item.name);
            }
        }
        if let Some(exports) = items.iter().find(|i| i.name == "exports") {
            chrome_bytes = exports.artifacts[0].len();
        }
        if record {
            traced_ops.push(s);
            partition.push((rows.iter().sum::<f64>() - s).abs() / s);
            for (samples, r) in row_samples.iter_mut().zip(rows) {
                samples.push(r);
            }
        } else {
            quiet_ops.push(s);
        }
    }

    if let (Some(m), Some((unit, probes))) = (layer.as_mut(), prepared) {
        for (u, samples) in batch.units.iter().zip(&row_samples) {
            m.insert(format!("core.run_ms.{}", u.row), median(samples) * 1e3);
        }
        m.insert("core.partition_error".into(), median(&partition));
        let mut counts = Counts::default();
        for p in &probes {
            counts.add(&p.counts, 1.0);
        }
        let plain: f64 = probes.iter().map(|p| p.plain_s).sum();
        let instr: f64 = probes.iter().map(|p| p.instr_s).sum();
        let mut telemetry_s = 0.0;
        if kind == Kind::Observed {
            let exports: Vec<f64> = row_samples[batch.units.len()..]
                .iter()
                .map(|s| median(s))
                .collect();
            for (name, s) in EXPORT_ROWS.iter().zip(&exports) {
                m.insert(name.to_string(), s * 1e3);
            }
            m.insert(
                "json.serialize_mb_per_s".into(),
                layers::ratio(chrome_bytes as f64 / 1e6, exports[0]),
            );
            telemetry_s = instr - plain + exports.iter().sum::<f64>();
        }
        m.insert(
            "bench.trace_overhead".into(),
            layers::ratio(median(&traced_ops), median(&quiet_ops)),
        );
        layers::ledger(
            m,
            &unit,
            &ops,
            &counts,
            layers::ratio(instr, plain),
            telemetry_s,
        );
    }

    Ok(Outcome {
        attempted,
        failed,
        output_digest,
        setups,
        window_s: ops.iter().sum(),
        ops_s: ops,
        ops_cal,
        kernel_median_s: median(&cal.timings().collect::<Vec<_>>()),
        layer,
    })
}
