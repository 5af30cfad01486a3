//! `ifsim-drift` — the paper-drift watchdog.
//!
//! Re-runs the golden-pinned registry experiments under the pinned
//! configuration (`BenchConfig::quick()` with `reps = 1`, default seed),
//! diffs every CSV cell against `golden/`, and reports the maximum
//! relative drift per figure against a per-figure tolerance:
//!
//! ```text
//! ifsim-drift [--golden DIR] [--figures fig6a,fig7,...]
//!             [--perturb FIELD=FACTOR] [--metrics-out FILE] [--list-fields]
//! ```
//!
//! Exit status: 0 when every figure is within tolerance, 1 when any
//! drifts past it (the worst offender is named), 2 on usage errors.
//!
//! `--perturb` multiplies one `Calibration` field by a factor before the
//! run — the self-test CI uses it to prove the watchdog actually trips
//! (`--perturb eff_sdma_xgmi=1.1` must fail fig6c/fig7 with exit 1). A
//! factor that is not positive and finite, or that takes an efficiency
//! out of (0, 1], is a usage error. `--metrics-out` writes
//! `drift_max_rel{figure=...}` gauges for dashboards.

use ifsim_core::hip::Calibration;
use ifsim_core::microbench::BenchConfig;
use ifsim_core::registry;
use ifsim_core::telemetry::{json, MetricKey, MetricsRegistry};
use std::path::PathBuf;
use std::process::ExitCode;

/// Figures pinned under `golden/`, with their drift tolerance. Hop counts
/// (fig6a) are integers — any change is drift; the timing figures allow a
/// small relative band so a legitimate ±2 % calibration nudge is reported
/// as drift only when it actually moves a figure.
const FIGURES: &[(&str, f64)] = &[
    ("fig6a", 1e-9),
    ("fig6b", 0.02),
    ("fig6c", 0.02),
    ("fig7", 0.02),
];

struct Args {
    golden: PathBuf,
    figures: Vec<String>,
    perturb: Option<(String, f64)>,
    metrics_out: Option<PathBuf>,
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: ifsim-drift [--golden DIR] [--figures LIST] \
         [--perturb FIELD=FACTOR] [--metrics-out FILE] [--list-fields]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        golden: PathBuf::from("golden"),
        figures: FIGURES.iter().map(|(f, _)| f.to_string()).collect(),
        perturb: None,
        metrics_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut next = |name: &str| {
            it.next()
                .unwrap_or_else(|| usage(&format!("{name} needs a value")))
        };
        match a.as_str() {
            "--golden" => args.golden = PathBuf::from(next("--golden")),
            "--figures" => {
                args.figures = next("--figures").split(',').map(str::to_string).collect();
                for f in &args.figures {
                    if !FIGURES.iter().any(|(name, _)| name == f) {
                        usage(&format!(
                            "unknown figure '{f}'; pinned: {}",
                            FIGURES
                                .iter()
                                .map(|(n, _)| *n)
                                .collect::<Vec<_>>()
                                .join(", ")
                        ));
                    }
                }
            }
            "--perturb" => {
                let v = next("--perturb");
                let (field, factor) = v
                    .split_once('=')
                    .unwrap_or_else(|| usage("--perturb wants FIELD=FACTOR"));
                let factor: f64 = factor
                    .parse()
                    .unwrap_or_else(|_| usage(&format!("bad factor '{factor}'")));
                args.perturb = Some((field.to_string(), factor));
            }
            "--metrics-out" => args.metrics_out = Some(PathBuf::from(next("--metrics-out"))),
            "--list-fields" => {
                for name in Calibration::f64_field_names() {
                    println!("{name}");
                }
                std::process::exit(0);
            }
            "--help" | "-h" => usage("help requested"),
            other => usage(&format!("unknown option {other}")),
        }
    }
    args
}

/// Worst relative difference between two CSV artifacts, cell by cell.
/// Numeric cells compare relatively; anything else (headers, the blank
/// diagonal) must match exactly, and structural mismatches — extra rows,
/// missing columns — count as infinite drift.
fn max_rel_drift(current: &str, golden: &str) -> (f64, String) {
    let cur: Vec<&str> = current.lines().collect();
    let gold: Vec<&str> = golden.lines().collect();
    if cur.len() != gold.len() {
        return (
            f64::INFINITY,
            format!("row count {} vs golden {}", cur.len(), gold.len()),
        );
    }
    let mut worst = 0.0f64;
    let mut site = String::from("no drift");
    for (li, (c, g)) in cur.iter().zip(&gold).enumerate() {
        let cc: Vec<&str> = c.split(',').collect();
        let gc: Vec<&str> = g.split(',').collect();
        if cc.len() != gc.len() {
            return (f64::INFINITY, format!("column count differs on line {li}"));
        }
        for (ci, (a, b)) in cc.iter().zip(&gc).enumerate() {
            match (a.parse::<f64>(), b.parse::<f64>()) {
                (Ok(x), Ok(y)) => {
                    let rel = (x - y).abs() / y.abs().max(1e-12);
                    if rel > worst {
                        worst = rel;
                        site = format!("line {li}, column {ci}: {x} vs golden {y}");
                    }
                }
                _ => {
                    if a != b {
                        return (
                            f64::INFINITY,
                            format!("non-numeric cell changed on line {li}: '{a}' vs '{b}'"),
                        );
                    }
                }
            }
        }
    }
    (worst, site)
}

fn main() -> ExitCode {
    let args = parse_args();
    // The exact configuration golden/ was generated with (see
    // tests/golden_outputs.rs): quick, one rep, default seed.
    let mut cfg = BenchConfig::quick();
    cfg.reps = 1;
    if let Some((field, factor)) = &args.perturb {
        if let Err(e) = cfg.calib.scale_f64_field(field, *factor) {
            usage(&format!("--perturb {field}={factor}: {e}"));
        }
        println!("perturbed {field} by ×{factor}");
    }

    let mut metrics = MetricsRegistry::new();
    let mut worst: Option<(String, f64, f64)> = None; // (figure, rel, tol)
    let mut failed = 0usize;
    for fig in &args.figures {
        let tol = FIGURES
            .iter()
            .find(|(name, _)| name == fig)
            .expect("validated in parse_args")
            .1;
        let exp = match registry::by_id(fig) {
            Some(e) => e,
            None => {
                eprintln!("{fig}: not in the experiment registry");
                return ExitCode::from(2);
            }
        };
        let result = exp.run(&cfg);
        if result.csv.is_empty() {
            eprintln!("{fig}: experiment produced no CSV artifacts");
            return ExitCode::from(2);
        }
        for (name, contents) in &result.csv {
            let path = args.golden.join(name);
            let golden = match std::fs::read_to_string(&path) {
                Ok(g) => g,
                Err(e) => {
                    eprintln!("{fig}: cannot read {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            };
            let (rel, site) = max_rel_drift(contents, &golden);
            let pass = rel <= tol;
            let verdict = if pass {
                "ok".to_string()
            } else {
                format!("FAIL at {site}")
            };
            println!("{fig} ({name}): max rel drift {rel:.3e} (tol {tol:.1e}) — {verdict}");
            metrics.gauge_set(
                MetricKey::new("drift_max_rel").with("figure", fig.clone()),
                rel,
            );
            metrics.gauge_set(
                MetricKey::new("drift_tolerance").with("figure", fig.clone()),
                tol,
            );
            if !pass {
                failed += 1;
                metrics.counter_add(MetricKey::new("drift_failures"), 1.0);
            }
            if worst.as_ref().is_none_or(|(_, w, _)| rel > *w) {
                worst = Some((fig.clone(), rel, tol));
            }
        }
    }

    if let Some(path) = &args.metrics_out {
        let text = json::to_string_pretty(&metrics.to_json());
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }

    if failed > 0 {
        let (fig, rel, tol) = worst.expect("a failure implies a worst figure");
        eprintln!(
            "drift check FAILED: {failed} artifact(s) out of tolerance; \
             worst is {fig} at {rel:.3e} (tol {tol:.1e})"
        );
        return ExitCode::FAILURE;
    }
    println!(
        "drift check passed: {} figure(s) within tolerance",
        args.figures.len()
    );
    ExitCode::SUCCESS
}
