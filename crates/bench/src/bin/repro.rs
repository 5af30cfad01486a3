//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro [OPTIONS] [IDS...]
//!
//!   IDS              experiment ids (fig1, table1, table2, fig2..fig12);
//!                    'all' or no ids runs everything
//!   --quick          2 repetitions, no warmup (smoke run)
//!   --seed <u64>     jitter seed (default 0xC0FFEE)
//!   --reps <n>       measured repetitions per point
//!   --csv <dir>      write CSV artifacts into <dir> (plus one
//!                    <id>.metrics.json telemetry snapshot per experiment)
//!   --trace-out <f>  write the merged Chrome trace-event timeline to <f>
//!   --metrics-out <f> write the merged metrics snapshot (JSON) to <f>
//!   --attr-out <f>   write the bottleneck-attribution report (markdown)
//!   --attr-json <f>  write the attribution as JSON (schema ifsim-attr-v1)
//!   --timeseries-out <f> write the flight recorder's link-utilization
//!                    counter series as long-format CSV
//!   --critpath-out <f> capture causal dependency DAGs and write the
//!                    critical-path report as JSON (schema ifsim-critpath-v1)
//!   --jobs <n>       run up to <n> experiments concurrently; every
//!                    artifact is byte-identical to a serial run
//!   --scenario <f>   compile a scenario file (schema ifsim-scenario-v1)
//!                    and run it alongside any ids; repeatable
//!   --list           list experiments and exit
//! ```

use ifsim_bench::outln;
use ifsim_bench::telemetry::CollectedTelemetry;
use ifsim_bench::{load_scenario, run_set, select, ArtifactArgs, BenchConfig, Experiment, RunOpts};
use ifsim_core::registry;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    ids: Vec<String>,
    all: bool,
    scenarios: Vec<PathBuf>,
    cfg: BenchConfig,
    artifacts: ArtifactArgs,
    jobs: usize,
    list: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        ids: Vec::new(),
        all: false,
        scenarios: Vec::new(),
        cfg: BenchConfig::default(),
        artifacts: ArtifactArgs::default(),
        jobs: 1,
        list: false,
    };
    // `--seed` and `--reps` apply on top of the base config whatever their
    // order relative to `--quick`.
    let (mut quick, mut seed, mut reps) = (false, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        if args.artifacts.parse_flag(&a, &mut it)? {
            continue;
        }
        match a.as_str() {
            "--quick" => quick = true,
            "--list" => args.list = true,
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                seed = Some(v.parse().map_err(|e| format!("bad seed: {e}"))?);
            }
            "--reps" => {
                let v = it.next().ok_or("--reps needs a value")?;
                let n: usize = v.parse().map_err(|e| format!("bad reps: {e}"))?;
                if n == 0 {
                    return Err("--reps must be at least 1".into());
                }
                reps = Some(n);
            }
            "--jobs" => {
                let v = it.next().ok_or("--jobs needs a value")?;
                args.jobs = v.parse().map_err(|e| format!("bad jobs: {e}"))?;
                if args.jobs == 0 {
                    return Err("--jobs must be at least 1".into());
                }
            }
            "--scenario" => {
                let v = it.next().ok_or("--scenario needs a file")?;
                args.scenarios.push(PathBuf::from(v));
            }
            "--help" | "-h" => {
                outln!(
                    "usage: repro [--quick] [--seed N] [--reps N] [--csv DIR] \
                     [--trace-out FILE] [--metrics-out FILE] [--attr-out FILE] \
                     [--attr-json FILE] [--timeseries-out FILE] [--critpath-out FILE] \
                     [--jobs N] [--scenario FILE]... [--list] [IDS...]"
                );
                outln!("experiments: {}", registry::ids().join(", "));
                std::process::exit(0);
            }
            "all" => {
                args.all = true;
                args.ids.clear();
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown option {other}"));
            }
            other => args.ids.push(other.to_string()),
        }
    }
    if quick {
        args.cfg = BenchConfig::quick();
    }
    if let Some(seed) = seed {
        args.cfg.seed = seed;
    }
    if let Some(reps) = reps {
        args.cfg.reps = reps;
    }
    Ok(args)
}

/// Resolve the ids and scenario files into one experiment set. Scenario
/// files alone narrow the run to just them; ids or an explicit 'all' bring
/// registry experiments into the same set.
fn experiments(args: &Args) -> Result<Vec<Experiment>, String> {
    let mut exps = if !args.all && args.ids.is_empty() && !args.scenarios.is_empty() {
        Vec::new()
    } else {
        select(&args.ids)?
    };
    for path in &args.scenarios {
        exps.push(load_scenario(path)?);
    }
    Ok(exps)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if args.list {
        for e in registry::all() {
            outln!("{:<8} {} — {}", e.id, e.title, e.description);
        }
        return ExitCode::SUCCESS;
    }
    let exps = match experiments(&args) {
        Ok(exps) => exps,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    outln!(
        "ifsim repro — seed {:#x}, {} reps + {} warmup\n",
        args.cfg.seed,
        args.cfg.reps,
        args.cfg.warmup
    );
    // Results come back in submission order regardless of --jobs, and each
    // experiment seeds its simulators from the config alone, so the loop
    // below emits byte-identical artifacts whether the run was parallel
    // or serial.
    let opts = RunOpts::capture(args.artifacts.capture());
    let results = run_set(exps, &args.cfg, &opts, args.jobs).expect("no token, no cancellation");

    let n = results.len();
    let mut failed = 0usize;
    let mut total_checks = 0usize;
    let mut merged = CollectedTelemetry::new();
    for (r, telemetry) in results {
        outln!("{}", r.report());
        total_checks += r.checks.len();
        failed += r.checks.iter().filter(|c| !c.passed).count();
        if let Err(e) = args.artifacts.write_result(&r, &telemetry) {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
        merged.absorb(telemetry);
    }
    if let Err(e) = args.artifacts.write_all(&merged) {
        eprintln!("{e}");
        return ExitCode::FAILURE;
    }

    outln!(
        "summary: {n} experiments, {}/{} checks passed",
        total_checks - failed,
        total_checks
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
