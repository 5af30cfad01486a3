//! `ifsim-analyze` — critical-path causal profiler and what-if engine.
//!
//! Runs one registry experiment with causal DAG capture on, reconstructs
//! the critical path (`ifsim_telemetry::critpath`), and — COZ-style —
//! re-runs the experiment with individual calibration constants scaled by
//! a factor grid to *measure* (not model) how the makespan would move if
//! a link class were faster or slower:
//!
//! ```text
//! ifsim-analyze EXPERIMENT [--quick] [--seed N] [--reps N] [--warmup N]
//!               [--fields F1,F2,...] [--factors 0.5,1.25,2.0] [--top K]
//!               [--out FILE.json] [--report FILE.md] [--no-whatif]
//!               [--list-fields]
//! ```
//!
//! The markdown report goes to stdout (or `--report`); `--out` writes the
//! `ifsim-critpath-v1` JSON document that `telemetry-lint --critpath`
//! validates. Exit status: 0 on success, 1 if the critical-path
//! invariants fail to hold (path total must equal the summed makespan at
//! 1e-6), 2 on usage errors.

use ifsim_core::hip::Calibration;
use ifsim_core::microbench::BenchConfig;
use ifsim_core::registry;
use ifsim_core::telemetry::critpath;
use ifsim_core::telemetry::json;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    experiment: String,
    quick: bool,
    seed: Option<u64>,
    reps: Option<usize>,
    warmup: Option<usize>,
    fields: Vec<String>,
    factors: Vec<f64>,
    top: usize,
    out: Option<PathBuf>,
    report: Option<PathBuf>,
    whatif: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: ifsim-analyze EXPERIMENT [--quick] [--seed N] [--reps N] [--warmup N]\n\
         \x20                  [--fields F1,F2,...] [--factors 0.5,1.25,2.0] [--top K]\n\
         \x20                  [--out FILE.json] [--report FILE.md] [--no-whatif] [--list-fields]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        experiment: String::new(),
        quick: false,
        seed: None,
        reps: None,
        warmup: None,
        // Defaults sweep the two xGMI link classes: SDMA-driven copies and
        // kernel-driven remote-memory traffic. Both `Calibration` F64 fields.
        fields: vec!["eff_sdma_xgmi".into(), "eff_kernel_xgmi".into()],
        factors: vec![0.5, 1.25, 2.0],
        top: 10,
        out: None,
        report: None,
        whatif: true,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut next = |name: &str| {
            it.next()
                .unwrap_or_else(|| usage(&format!("{name} needs a value")))
        };
        match a.as_str() {
            "--quick" => args.quick = true,
            "--seed" => {
                args.seed = Some(
                    next("--seed")
                        .parse()
                        .unwrap_or_else(|_| usage("bad --seed")),
                )
            }
            "--reps" => {
                args.reps = Some(
                    next("--reps")
                        .parse()
                        .unwrap_or_else(|_| usage("bad --reps")),
                )
            }
            "--warmup" => {
                args.warmup = Some(
                    next("--warmup")
                        .parse()
                        .unwrap_or_else(|_| usage("bad --warmup")),
                )
            }
            "--fields" => {
                args.fields = next("--fields").split(',').map(str::to_string).collect();
                for f in &args.fields {
                    if !Calibration::f64_field_names().any(|name| name == f) {
                        usage(&format!(
                            "unknown calibration field '{f}'; try --list-fields"
                        ));
                    }
                }
            }
            "--factors" => {
                args.factors = next("--factors")
                    .split(',')
                    .map(|s| {
                        s.parse::<f64>()
                            .unwrap_or_else(|_| usage(&format!("bad factor '{s}'")))
                    })
                    .collect();
                if args.factors.iter().any(|&f| f <= 0.0 || !f.is_finite()) {
                    usage("factors must be positive");
                }
            }
            "--top" => args.top = next("--top").parse().unwrap_or_else(|_| usage("bad --top")),
            "--out" => args.out = Some(PathBuf::from(next("--out"))),
            "--report" => args.report = Some(PathBuf::from(next("--report"))),
            "--no-whatif" => args.whatif = false,
            "--list-fields" => {
                for name in Calibration::f64_field_names() {
                    println!("{name}");
                }
                std::process::exit(0);
            }
            "--help" | "-h" => usage("help requested"),
            other if !other.starts_with('-') && args.experiment.is_empty() => {
                args.experiment = other.to_string();
            }
            other => usage(&format!("unknown option {other}")),
        }
    }
    if args.experiment.is_empty() {
        usage(&format!(
            "an experiment id is required; available: {}",
            registry::ids().join(", ")
        ));
    }
    args
}

fn config(args: &Args) -> BenchConfig {
    let mut cfg = if args.quick {
        BenchConfig::quick()
    } else {
        BenchConfig::default()
    };
    if let Some(seed) = args.seed {
        cfg.seed = seed;
    }
    if let Some(reps) = args.reps {
        cfg.reps = reps;
    }
    if let Some(warmup) = args.warmup {
        cfg.warmup = warmup;
    }
    cfg
}

/// Sum of the captured runs' makespans — "the run's makespan" for a
/// multi-runtime experiment.
fn total_makespan(dags: &[ifsim_core::telemetry::DepGraph]) -> f64 {
    dags.iter().map(|g| g.makespan_ns()).sum()
}

fn main() -> ExitCode {
    let args = parse_args();
    let exp = match ifsim_bench::select(std::slice::from_ref(&args.experiment)) {
        Ok(mut exps) => exps.remove(0),
        Err(e) => usage(&e),
    };
    let cfg = config(&args);

    eprintln!("analyzing {} (dag-instrumented baseline)...", exp.id);
    let (result, telemetry) = exp.run_instrumented_dag(&cfg);
    let dags = telemetry.dags();
    if dags.is_empty() {
        eprintln!(
            "error: {} constructed no observed runtimes; nothing to analyze",
            exp.id
        );
        return ExitCode::from(2);
    }
    let baseline_ns = total_makespan(dags);
    let mut report = critpath::report(dags, args.top);

    // Invariant checks — the whole point of the partition construction.
    // A violation means the capture or the walk is broken, so fail loudly.
    let tol = 1e-6 * baseline_ns.max(1.0);
    if (report.total_ns - baseline_ns).abs() > tol {
        eprintln!(
            "INVARIANT VIOLATED: critical-path total {:.3} ns != makespan {:.3} ns",
            report.total_ns, baseline_ns
        );
        return ExitCode::FAILURE;
    }
    let cat_sum: f64 = report.by_category.values().sum();
    if (cat_sum - report.total_ns).abs() > tol {
        eprintln!(
            "INVARIANT VIOLATED: category slacks {:.3} ns do not partition total {:.3} ns",
            cat_sum, report.total_ns
        );
        return ExitCode::FAILURE;
    }
    eprintln!(
        "  {} run(s), makespan {:.3} ms, {} path steps",
        report.runs,
        baseline_ns / 1e6,
        report.per_run.iter().map(|r| r.steps).sum::<usize>()
    );

    if args.whatif {
        for field in &args.fields {
            let mut ran: Vec<f64> = Vec::new();
            for &factor in &args.factors {
                let mut cfg2 = cfg.clone();
                let slot = cfg2
                    .calib
                    .f64_field_mut(field)
                    .expect("validated in parse_args");
                let base = *slot;
                *slot *= factor;
                let mut effective = factor;
                // Efficiency constants are fractions of the physical link
                // rate; the fabric model rejects values above 1.0. Cap the
                // sweep at the ceiling and record the factor we really ran.
                let ceiling = Calibration::f64_field_ceiling(field).unwrap_or(f64::INFINITY);
                if *slot > ceiling {
                    *slot = ceiling;
                    effective = ceiling / base;
                    eprintln!(
                        "what-if: {field} x{factor} clamped to the efficiency \
                         ceiling (effective x{effective:.3})"
                    );
                }
                if ran.iter().any(|&r| (r - effective).abs() < 1e-12) {
                    continue; // two requested factors clamped to the same point
                }
                ran.push(effective);
                eprintln!("what-if: {field} x{effective:.3} ...");
                let (_, t2) = exp.run_instrumented_dag(&cfg2);
                let makespan = total_makespan(t2.dags());
                report.whatif.push(critpath::whatif_entry(
                    field,
                    effective,
                    makespan,
                    baseline_ns,
                ));
            }
        }
    }

    let crosscheck = critpath::attribution_crosscheck(telemetry.metrics(), &report);

    let mut markdown = critpath::render_critpath(&report);
    let cross_text = critpath::render_crosscheck(&crosscheck);
    if !cross_text.is_empty() {
        markdown.push('\n');
        markdown.push_str(&cross_text);
    }
    markdown.push('\n');
    markdown.push_str(&format!(
        "_Experiment: {} — {} ({}/{} checks passed)._\n",
        exp.id,
        exp.title,
        result.checks.iter().filter(|c| c.passed).count(),
        result.checks.len()
    ));

    match &args.report {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &markdown) {
                eprintln!("cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            eprintln!("report written to {}", path.display());
        }
        None => print!("{markdown}"),
    }
    if let Some(path) = &args.out {
        let text = json::to_string_pretty(&critpath::critpath_json(&report));
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("critpath JSON written to {}", path.display());
    }
    ExitCode::SUCCESS
}
