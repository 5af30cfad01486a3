//! `stack` — the stack benchmark: end-to-end host time of four workloads,
//! and in a separate traced run a per-layer ledger of where that time
//! goes. See `README.md` beside this crate.
//!
//! ```text
//! stack --workload all|<name> [--seed U64] [--seconds S] [--trace 0|1] [--out DIR]
//! stack --compare DIR_A DIR_B
//! ```
//!
//! A run prints `<workload> <metric> <value> <unit>` per metric and, as
//! its last line, `{"correct", "attempted", "failed", "metrics"}`; it also
//! writes the result (schema `ifsim-bench-stack-v1`) to
//! `DIR/<workload>-<seed>[-traced].json`, and a traced run writes the
//! bench's own spans to `DIR/<workload>-<seed>.stack-trace.json`. The exit
//! code is nonzero when any output check failed. `--compare` prints a
//! verdict per workload and end-to-end metric over two result
//! directories and exits 1 on any `worse`.

mod batch;
mod calib;
mod compare;
mod layers;
mod serve;
mod spans;
mod stats;

use serde_json::{Map, Value};
use spans::Spans;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

/// Schema tag of the result files.
pub const SCHEMA: &str = "ifsim-bench-stack-v1";
/// Fresh constructions of a workload's inputs behind `setup_s`.
pub const SETUP_REPS: usize = 200;
/// Seconds measured when `--seconds` is not given (`run_seconds` in
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 20.0;
/// Where results go when `--out` is not given, relative to the cwd.
const DEFAULT_OUT: &str = ".stack_out";

/// The workloads, in the order `all` runs them.
pub const WORKLOADS: [&str; 4] = [
    "repro-quick",
    "scenario-scaled",
    "scenario-observed",
    "serve-mixed",
];

/// End-to-end metrics: name, unit, which direction is better. An op is a
/// pass over the workload's experiments, or one request for `serve-mixed`.
///
/// Op times are in kernel units (`cal`, see `calib.rs`): each op's time
/// over the calibration kernel's timings around it, because the host
/// shares its cores with other tenants, whose load moves wall times by up
/// to 1.7× from one run to the next. `setup_s` is in kernel units too,
/// read as seconds at the kernel's speed on the reference host
/// ([`calib::REFERENCE_S`]); its wall-time twin is `setup_wall_s`.
pub const END_TO_END: [(&str, &str, &str); 4] = [
    ("setup_s", "s", "lower"),
    ("op_cal_p50", "cal", "lower"),
    ("op_cal_tail", "cal", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
];

/// Wall-time twins of the calibrated metrics, printed, stored and
/// compared beside them but not gated: `(wall metric, gated metric)`.
pub const WALL: [(&str, &str); 3] = [
    ("setup_wall_s", "setup_s"),
    ("op_wall_ms_p50", "op_cal_p50"),
    ("op_wall_ms_tail", "op_cal_tail"),
];

/// A traced run measures for this share of `--seconds`: it adds unit
/// costs and probes, and its op times are not gated.
const TRACED_SHARE: f64 = 0.2;

/// The repository root, where `golden/` and `BENCHMARK.json` live.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// This benchmark's directory, beside `ifsim-bench`'s manifest.
pub fn bench_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/stack")
}

/// Construct a workload's inputs [`SETUP_REPS`] times, back to back, each
/// followed by a kernel timing. Returns `(wall seconds, kernel units)` of
/// each construction.
pub fn time_setup<T>(
    cal: &mut calib::Calibrator,
    mut construct: impl FnMut() -> Result<T, String>,
) -> Result<Vec<(f64, f64)>, String> {
    (0..SETUP_REPS)
        .map(|_| {
            let t0 = Instant::now();
            drop(construct()?);
            let s = t0.elapsed().as_secs_f64();
            Ok((s, s / cal.tick()))
        })
        .collect()
}

/// Per-layer metrics of a traced run: name, unit, better direction.
/// Rows that do not apply to a workload read 0.
pub fn per_layer() -> Result<Vec<(String, &'static str, &'static str)>, String> {
    let mut defs: Vec<(String, &str, &str)> = Vec::new();
    let mut push = |name: String, unit, better| defs.push((name, unit, better));
    for (name, unit, better) in [
        ("des.push_pop_ns", "ns", "lower"),
        ("topology.router_new_us", "us", "lower"),
        ("topology.route_lookup_ns", "ns", "lower"),
        ("hip.sim_new_us", "us", "lower"),
        ("hip.sims_per_pass", "count", "lower"),
        ("hip.ops_per_pass", "count", "lower"),
        ("hip.host_ns_per_op", "ns", "lower"),
        ("hip.memcpy_peer_us", "us", "lower"),
        ("hip.kernel_sync_us", "us", "lower"),
        ("fabric.flows_per_pass", "count", "lower"),
        ("fabric.recomputes_full_per_pass", "count", "lower"),
        ("fabric.recomputes_incremental_per_pass", "count", "lower"),
        ("fabric.incremental_share", "ratio", "higher"),
        ("fabric.peak_concurrent_flows", "count", "lower"),
        ("fabric.replay_flows", "count", "lower"),
        ("fabric.replay_peak_flows", "count", "lower"),
        ("fabric.replay_incremental_share", "ratio", "higher"),
        ("fabric.replay_us", "us", "lower"),
        ("fabric.replay_full_us", "us", "lower"),
        ("coll.rccl_comm_new_us", "us", "lower"),
        ("coll.allreduce_8x1mib_us", "us", "lower"),
    ] {
        push(name.to_string(), unit, better);
    }
    let files = batch::scenario_files()?;
    for (stem, _) in &files {
        push(format!("scenario.parse_us.{stem}"), "us", "lower");
        push(format!("scenario.compile_us.{stem}"), "us", "lower");
    }
    let rows = ifsim_core::registry::ids()
        .into_iter()
        .map(str::to_string)
        .chain(files.into_iter().map(|(stem, _)| stem));
    for row in rows {
        push(format!("core.run_ms.{row}"), "ms", "lower");
    }
    for (name, unit, better) in [
        ("core.partition_error", "ratio", "lower"),
        ("telemetry.collect_x", "ratio", "lower"),
        ("telemetry.events_per_pass", "count", "lower"),
        ("telemetry.dag_nodes_per_pass", "count", "lower"),
        ("telemetry.chrome_export_ms", "ms", "lower"),
        ("telemetry.metrics_export_ms", "ms", "lower"),
        ("telemetry.critpath_ms", "ms", "lower"),
        ("json.serialize_mb_per_s", "MB/s", "higher"),
        ("serve.response_kb_mean", "KiB", "lower"),
        ("serve.hit_ratio", "ratio", "higher"),
        ("serve.hit_us_p50", "us", "lower"),
        ("serve.miss_ms_p50", "ms", "lower"),
        ("serve.miss_ms_tail", "ms", "lower"),
        ("serve.singleflight_followers", "count", "higher"),
        ("serve.overloaded", "count", "lower"),
        ("ledger.construct_share", "ratio", "lower"),
        ("ledger.fabric_share", "ratio", "lower"),
        ("ledger.telemetry_share", "ratio", "lower"),
        ("ledger.unexplained_share", "ratio", "lower"),
        ("bench.trace_overhead", "ratio", "lower"),
    ] {
        push(name.to_string(), unit, better);
    }
    Ok(defs)
}

/// What one workload run measured.
pub struct Outcome {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations that failed a check, panicked, or answered wrongly.
    pub failed: u64,
    /// Digest over every report and CSV the workload produced.
    pub output_digest: String,
    /// Each construction of the workload's inputs: `(wall seconds, kernel
    /// units)`.
    pub setups: Vec<(f64, f64)>,
    /// Wall seconds of each timed op.
    pub ops_s: Vec<f64>,
    /// Each timed op in kernel units.
    pub ops_cal: Vec<f64>,
    /// Seconds of the median kernel timing of the run.
    pub kernel_median_s: f64,
    /// Wall seconds the timed ops took together.
    pub window_s: f64,
    /// Per-layer rows, in a traced run.
    pub layer: Option<layers::Layer>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: PathBuf,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_seed(s: &str) -> Result<u64, String> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    }
    .map_err(|e| format!("bad seed '{s}': {e}"))
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0xC0FFEE,
        seconds: DEFAULT_SECONDS,
        traced: false,
        out: PathBuf::from(DEFAULT_OUT),
        compare: None,
    };
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = parse_seed(&value()?)?,
            "--seconds" => {
                let v = value()?;
                args.seconds = v.parse().map_err(|e| format!("bad seconds '{v}': {e}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--out" => args.out = PathBuf::from(value()?),
            "--compare" => {
                let a = value()?;
                args.compare = Some((PathBuf::from(a), PathBuf::from(value()?)));
            }
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    if args.compare.is_none()
        && args.workload != "all"
        && !WORKLOADS.contains(&args.workload.as_str())
    {
        return Err(format!(
            "--workload must be all or one of: {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn metric(value: f64, unit: &str) -> Value {
    let mut m = Map::new();
    m.insert("value", Value::from(value));
    m.insert("unit", Value::from(unit));
    Value::Object(m)
}

fn run_one(args: &Args) -> Result<bool, String> {
    let origin = Instant::now();
    let mut spans = Spans::new(origin, 0, args.traced);
    let seed = args.seed;
    let secs = args.seconds * if args.traced { TRACED_SHARE } else { 1.0 };
    let o = match args.workload.as_str() {
        "repro-quick" => batch::run(batch::Kind::Repro, seed, secs, &mut spans),
        "scenario-scaled" => batch::run(batch::Kind::Scaled, seed, secs, &mut spans),
        "scenario-observed" => batch::run(batch::Kind::Observed, seed, secs, &mut spans),
        _ => serve::run(seed, secs, &mut spans),
    }?;
    let w = args.workload.as_str();
    let wall_ms: Vec<f64> = o.ops_s.iter().map(|s| s * 1e3).collect();
    let (setup_wall, setup_cal): (Vec<f64>, Vec<f64>) = o.setups.iter().copied().unzip();
    let tail = stats::tail(&o.ops_cal);
    let mut metrics = Map::new();
    if let Some(layer) = &o.layer {
        let defs = per_layer()?;
        if let Some(stray) = layer.keys().find(|k| !defs.iter().any(|d| &d.0 == *k)) {
            return Err(format!("per-layer row {stray} is not defined"));
        }
        for (name, unit, _) in defs {
            let v = layer.get(&name).copied().unwrap_or(0.0);
            println!("{w} {name} {v} {unit}");
            metrics.insert(name, metric(v, unit));
        }
    } else {
        let values = [
            stats::median(&setup_cal) * calib::REFERENCE_S,
            stats::median(&o.ops_cal),
            tail.value,
            peak_rss_mb(),
        ];
        for ((name, unit, _), v) in END_TO_END.iter().zip(values) {
            if *name == "op_cal_tail" {
                println!("{w} {name} {v} {unit} (p{:.3}, n={})", tail.pct, tail.n);
            } else {
                println!("{w} {name} {v} {unit}");
            }
            metrics.insert(*name, metric(v, unit));
        }
    }
    let info = [
        ("setup_wall_s", stats::median(&setup_wall), "s"),
        ("op_wall_ms_p50", stats::median(&wall_ms), "ms"),
        ("op_wall_ms_tail", stats::tail(&wall_ms).value, "ms"),
        (
            "ops_per_s",
            layers::ratio(o.ops_s.len() as f64, o.window_s),
            "1/s",
        ),
        ("kernel_median_ms", o.kernel_median_s * 1e3, "ms"),
    ];
    let mut info_json = Map::new();
    for (name, v, unit) in info {
        println!("{w} {name} {v} {unit} (not gated)");
        info_json.insert(name, metric(v, unit));
    }
    let correct = o.failed == 0;
    println!("{w} output_digest {}", o.output_digest);

    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let stem = format!("{w}-{seed}");
    let mut file = Map::new();
    file.insert("schema", Value::from(SCHEMA));
    file.insert("workload", Value::from(w));
    file.insert("seed", Value::from(seed.to_string()));
    file.insert("seconds", Value::from(secs));
    file.insert("traced", Value::from(args.traced));
    file.insert("correct", Value::from(correct));
    file.insert("attempted", Value::from(o.attempted));
    file.insert("failed", Value::from(o.failed));
    file.insert("output_digest", Value::from(o.output_digest.clone()));
    file.insert("ops", Value::from(o.ops_s.len()));
    file.insert("tail_pct", Value::from(tail.pct));
    file.insert("metrics", Value::Object(metrics.clone()));
    file.insert("info", Value::Object(info_json));
    let name = if args.traced {
        let trace = args.out.join(format!("{stem}.stack-trace.json"));
        std::fs::write(&trace, spans::chrome_trace(&spans.take()))
            .map_err(|e| format!("{}: {e}", trace.display()))?;
        format!("{stem}-traced.json")
    } else {
        format!("{stem}.json")
    };
    let path = args.out.join(name);
    std::fs::write(&path, serde_json::to_string_pretty(&Value::Object(file)))
        .map_err(|e| format!("{}: {e}", path.display()))?;

    let mut last = Map::new();
    last.insert("correct", Value::from(correct));
    last.insert("attempted", Value::from(o.attempted));
    last.insert("failed", Value::from(o.failed));
    last.insert("metrics", Value::Object(metrics));
    println!("{}", serde_json::to_string(&Value::Object(last)));
    Ok(correct)
}

/// Run every workload, each in a child process of its own so its peak
/// RSS is its own; one after another, never concurrently. Then gather
/// every result in `DIR` for this seed, traced and untraced, into the
/// snapshot `DIR/BENCH_stack.json`.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut all_ok = true;
    for w in WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.traced { "1" } else { "0" }])
            .arg("--out")
            .arg(&args.out)
            .status()
            .map_err(|e| format!("cannot run {w}: {e}"))?;
        all_ok &= status.success();
    }
    let mut runs = Vec::new();
    for w in WORKLOADS {
        for suffix in ["", "-traced"] {
            let path = args.out.join(format!("{w}-{}{suffix}.json", args.seed));
            if let Ok(text) = std::fs::read_to_string(&path) {
                runs.push(
                    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?,
                );
            }
        }
    }
    let mut snapshot = Map::new();
    snapshot.insert("schema", Value::from(SCHEMA));
    snapshot.insert("seed", Value::from(args.seed.to_string()));
    snapshot.insert("runs", Value::Array(runs));
    let path = args.out.join("BENCH_stack.json");
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&Value::Object(snapshot)),
    )
    .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(all_ok)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: stack --workload all|<name> [--seed U64] [--seconds S] [--trace 0|1] \
                 [--out DIR]\n       stack --compare DIR_A DIR_B"
            );
            return ExitCode::from(2);
        }
    };
    let result = match &args.compare {
        Some((a, b)) => compare::run(a, b, &repo_root().join("BENCHMARK.json")),
        None if args.workload == "all" => run_all(&args),
        None => run_one(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root lists exactly the metrics
    /// this program prints, with the same units and directions.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = repo_root().join("BENCHMARK.json");
        let text = std::fs::read_to_string(&path).unwrap();
        let v = serde_json::from_str(&text).unwrap();
        let listed = |key: &str| -> Vec<(String, String, String)> {
            v.get(key)
                .and_then(Value::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect()
        };
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
            .collect();
        assert_eq!(listed("end_to_end"), e2e);
        let layer: Vec<_> = per_layer()
            .unwrap()
            .into_iter()
            .map(|(n, u, b)| (n, u.to_string(), b.to_string()))
            .collect();
        assert_eq!(listed("per_layer"), layer);
        let names: Vec<String> = v
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap().to_string())
            .collect();
        assert_eq!(names, WORKLOADS);
    }

    #[test]
    fn every_workload_file_parses_and_compiles() {
        let files = batch::scenario_files().unwrap();
        assert_eq!(files.len(), 3);
        let exps = batch::compile_all(&files).unwrap();
        for (e, (stem, _)) in exps.iter().zip(&files) {
            assert_eq!(
                e.id,
                format!("scenario:{stem}"),
                "file named after its scenario"
            );
        }
    }

    #[test]
    fn arguments_parse_as_documented() {
        let args = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = args("--workload serve-mixed --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!((a.seed, a.seconds, a.traced), (7, 10.0, true));
        assert_eq!(
            args("--workload all --seed 0xC0FFEE").unwrap().seed,
            0xC0FFEE
        );
        assert!(args("--workload nope").is_err());
        assert!(args("--workload all --trace 2").is_err());
        assert!(args("--workload all --seconds 0").is_err());
    }
}
