//! Smoke tests for the `repro` and `mgpu-bench` binaries: argument
//! handling, output shape, and exit codes.

use std::process::{Command, Stdio};

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn mgpu() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mgpu-bench"))
}

#[test]
fn repro_list_names_every_artifact() {
    let out = repro().arg("--list").output().expect("run repro");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for id in ["fig1", "table1", "fig6b", "fig12", "ext-mi300a"] {
        assert!(text.contains(id), "missing {id} in --list");
    }
}

#[test]
fn repro_runs_a_single_experiment_and_reports_checks() {
    let out = repro()
        .args(["--quick", "--reps", "1", "fig6a"])
        .output()
        .expect("run repro");
    assert!(out.status.success(), "exit: {:?}", out.status);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("fig6a"));
    assert!(text.contains("[PASS]"));
    assert!(text.contains("checks passed"));
}

#[test]
fn repro_quick_keeps_seed_and_reps_in_either_order() {
    for args in [
        ["--reps", "1", "--seed", "5", "--quick", "fig6a"],
        ["--quick", "--reps", "1", "--seed", "5", "fig6a"],
    ] {
        let out = repro().args(args).output().expect("run repro");
        assert!(out.status.success(), "{args:?}: {:?}", out.status);
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(
            text.contains("seed 0x5, 1 reps + 0 warmup"),
            "{args:?}: {text}"
        );
    }
}

#[test]
fn repro_rejects_unknown_ids_and_options() {
    let out = repro().arg("--bogus").output().expect("run repro");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown option"));
}

#[test]
fn repro_writes_csv_artifacts() {
    let dir = std::env::temp_dir().join(format!("ifsim-cli-test-{}", std::process::id()));
    let out = repro()
        .args(["--quick", "--reps", "1", "--csv"])
        .arg(&dir)
        .arg("fig6a")
        .output()
        .expect("run repro");
    assert!(out.status.success());
    let csv = std::fs::read_to_string(dir.join("fig6a.csv")).expect("artifact written");
    assert!(csv.starts_with("src\\dst"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn repro_jobs_output_is_byte_identical_to_serial() {
    // The acceptance bar for the parallel driver: every artifact — stdout,
    // CSVs, per-experiment metrics snapshots, merged trace and metrics —
    // must match a serial run byte for byte. The fault experiment puts
    // instants and counter samples through the merge, not only spans.
    let run = |tag: &str, jobs: &str| {
        let dir = temp_dir(tag);
        let out = repro()
            .args(["--quick", "--reps", "1", "--jobs", jobs, "--csv"])
            .arg(&dir)
            .arg("--trace-out")
            .arg(dir.join("trace.json"))
            .arg("--metrics-out")
            .arg(dir.join("metrics.json"))
            .args(["table1", "fig6a", "fig6b", "ext-fault-p2p-lanes"])
            .output()
            .expect("run repro");
        assert!(out.status.success(), "exit ({tag}): {:?}", out.status);
        (dir, out.stdout)
    };
    let (d1, stdout1) = run("jobs1", "1");
    let (d4, stdout4) = run("jobs4", "4");
    assert_eq!(
        String::from_utf8_lossy(&stdout1),
        String::from_utf8_lossy(&stdout4),
        "stdout diverges under --jobs"
    );
    let mut names: Vec<_> = std::fs::read_dir(&d1)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    names.sort();
    assert!(
        names.len() >= 5,
        "expected CSVs + snapshots + merged artifacts, got {names:?}"
    );
    for name in names {
        let a = std::fs::read(d1.join(&name)).unwrap();
        let b = std::fs::read(d4.join(&name)).expect("same artifact set");
        assert_eq!(a, b, "{name:?} diverges under --jobs");
    }
    std::fs::remove_dir_all(&d1).ok();
    std::fs::remove_dir_all(&d4).ok();
}

#[test]
fn mgpu_bench_osu_bw_prints_a_bandwidth_row() {
    let out = mgpu()
        .args(["osu-bw", "--dst", "2", "--reps", "1"])
        .output()
        .expect("run mgpu-bench");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("GCD0 -> GCD2"));
    assert!(text.contains("Bandwidth"));
    // Single link with SDMA: ~37.5 GB/s appears in the row.
    assert!(text.contains("37.5"), "{text}");
}

#[test]
fn mgpu_bench_doctor_exit_code_reflects_health() {
    let ok = mgpu()
        .args(["doctor", "--reps", "1", "--size", "16777216"])
        .output()
        .expect("run doctor");
    assert!(ok.status.success(), "healthy node exits 0");
    let sick = mgpu()
        .args([
            "doctor", "--reps", "1", "--size", "16777216", "--derate", "0,1,0.4",
        ])
        .output()
        .expect("run doctor");
    assert!(!sick.status.success(), "degraded node exits non-zero");
    assert!(String::from_utf8_lossy(&sick.stdout).contains("DEGRADED"));
    // A factor outside (0, 1] is a usage error that names the factor.
    for (factor, shown) in [
        ("0", "factor 0 "),
        ("nan", "factor NaN "),
        ("1.5", "factor 1.5 "),
    ] {
        let bad = mgpu()
            .args(["doctor", "--reps", "1", "--size", "16777216", "--derate"])
            .arg(format!("0,1,{factor}"))
            .output()
            .expect("run doctor");
        let stderr = String::from_utf8_lossy(&bad.stderr);
        assert_eq!(
            bad.status.code(),
            Some(2),
            "--derate 0,1,{factor}: {stderr}"
        );
        assert!(stderr.contains(shown), "--derate 0,1,{factor}: {stderr}");
    }
}

#[test]
fn out_of_range_flags_are_usage_errors_naming_the_flag() {
    let dir = temp_dir("bad-flags");
    let scenario = dir.join("calib.json");
    std::fs::write(
        &scenario,
        r#"{"schema": "ifsim-scenario-v1", "name": "calib", "calib": {"eff_sdma_xgmi": 2.0},
            "workload": {"type": "moe-alltoall"}}"#,
    )
    .unwrap();
    let mgpu_bin = env!("CARGO_BIN_EXE_mgpu-bench");
    // (binary, arguments, what the error must name)
    let mut cases: Vec<(&str, String, &str)> = Vec::new();
    for cmd in [
        "h2d",
        "stream",
        "p2p",
        "p2p --bandwidth",
        "osu-bw",
        "osu-coll",
        "rccl",
        "doctor",
    ] {
        cases.push((mgpu_bin, format!("{cmd} --size 0"), "--size"));
    }
    for cmd in ["rccl", "osu-coll"] {
        for ranks in [0, 1, 9] {
            cases.push((mgpu_bin, format!("{cmd} --ranks {ranks}"), "--ranks"));
        }
    }
    cases.push((mgpu_bin, "osu-bw --dst 8".into(), "--dst"));
    cases.push((mgpu_bin, "stream --devices 9".into(), "--devices"));
    cases.push((mgpu_bin, "h2d --reps 0".into(), "--reps"));
    // A repeated GCD would count twice toward the theoretical peak.
    cases.push((mgpu_bin, "stream --devices 0,2,0".into(), "GCD 0 twice"));
    // Zero repetitions leave nothing to summarize.
    cases.push((
        env!("CARGO_BIN_EXE_repro"),
        "--quick --reps 0 fig2".into(),
        "--reps",
    ));
    cases.push((
        env!("CARGO_BIN_EXE_ifsim-analyze"),
        "fig2 --quick --reps 0".into(),
        "--reps",
    ));
    for factor in ["2", "0", "-1", "nan", "inf"] {
        cases.push((
            env!("CARGO_BIN_EXE_ifsim-drift"),
            format!("--perturb eff_sdma_xgmi={factor}"),
            "--perturb eff_sdma_xgmi",
        ));
    }
    cases.push((
        env!("CARGO_BIN_EXE_repro"),
        format!("--quick --reps 1 --scenario {}", scenario.display()),
        "calib.eff_sdma_xgmi",
    ));
    for (bin, args, named) in cases {
        let out = Command::new(bin)
            .args(args.split(' '))
            .output()
            .expect("run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args}: {stderr}");
        assert!(stderr.contains(named), "{args} must name {named}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `ifsim-analyze` writes `--report` and `--out` through the shared
/// artifact writer: a path it cannot write fails the run, naming the path.
#[test]
fn analyze_names_an_output_it_cannot_write() {
    let missing = temp_dir("analyze-write").join("missing");
    for flag in ["--report", "--out"] {
        let path = missing.join(format!("critpath{flag}"));
        let out = Command::new(env!("CARGO_BIN_EXE_ifsim-analyze"))
            .args(["fig2", "--quick", "--reps", "1", "--no-whatif", flag])
            .arg(&path)
            .output()
            .expect("run ifsim-analyze");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flag}: {stderr}");
        let named = format!("cannot write {}", path.display());
        assert!(
            stderr.contains(&named),
            "{flag} must name its path: {stderr}"
        );
    }
    std::fs::remove_dir_all(missing.parent().unwrap()).ok();
}

#[test]
fn mgpu_bench_usage_on_no_command() {
    let out = mgpu().output().expect("run mgpu-bench");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

fn lint() -> Command {
    Command::new(env!("CARGO_BIN_EXE_telemetry-lint"))
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ifsim-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// A stdout whose reader has already gone: the write end of a pipe whose
/// only reader, `true`, has exited, so every write fails with a broken
/// pipe, however early it comes.
fn closed_pipe() -> Stdio {
    let mut reader = Command::new("true")
        .stdin(Stdio::piped())
        .spawn()
        .expect("spawn true");
    let writer = reader.stdin.take().expect("piped stdin");
    reader.wait().expect("wait for true");
    Stdio::from(writer)
}

/// A closed stdout is not a crash: once the reader of `repro all | head
/// -1` has gone, `repro` drops the rest of its report, still writes every
/// artifact, and exits with its checks' verdict, with no panic or
/// backtrace on stderr.
#[test]
fn repro_exits_quietly_when_stdout_closes() {
    let dir = temp_dir("closed-stdout");
    let metrics = dir.join("metrics.json");
    let out = repro()
        .args(["--quick", "--reps", "1", "--csv"])
        .arg(&dir)
        .arg("--metrics-out")
        .arg(&metrics)
        .args(["fig6a", "ext-fault-link-down"])
        .stdout(closed_pipe())
        .output()
        .expect("run repro");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
    assert!(stderr.is_empty(), "{stderr}");
    let csv = std::fs::read_to_string(dir.join("fig6a.csv")).expect("fig6a.csv written");
    assert!(csv.starts_with("src\\dst"), "{csv}");
    let metrics_text = std::fs::read_to_string(&metrics).expect("metrics written");
    assert!(
        metrics_text.contains("hip_op_duration_ns"),
        "{metrics_text}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The same for `telemetry-lint`, whose exit status must stay the lints'
/// verdict: a failing trace followed by a passing metrics file, with the
/// `metrics OK` line meeting a closed pipe, still exits 1 and lints every
/// input.
#[test]
fn telemetry_lint_keeps_its_verdict_when_stdout_closes() {
    let dir = temp_dir("lint-closed-stdout");
    let bad_trace = dir.join("bad-trace.json");
    std::fs::write(&bad_trace, r#"{"traceEvents":[{"ph":"X"}]}"#).unwrap();
    let good_metrics = dir.join("metrics.json");
    std::fs::write(
        &good_metrics,
        r#"{"counters":[{"name":"n","labels":{},"value":1}],"gauges":[],"histograms":[]}"#,
    )
    .unwrap();
    let bad_scenario = dir.join("bad-scenario.json");
    std::fs::write(&bad_scenario, "{").unwrap();
    let out = lint()
        .arg("--trace")
        .arg(&bad_trace)
        .arg("--metrics")
        .arg(&good_metrics)
        .arg("--scenario")
        .arg(&bad_scenario)
        .stdout(closed_pipe())
        .output()
        .expect("run telemetry-lint");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("trace   FAIL"), "{stderr}");
    // The scenario after the muted `metrics OK` line is still linted.
    assert!(stderr.contains("scenario FAIL"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn repro_traces_a_fault_experiment_with_telemetry() {
    let dir = temp_dir("fault-trace");
    let trace = dir.join("trace.json");
    let metrics = dir.join("metrics.json");
    let out = repro()
        .args(["--quick", "--reps", "1", "ext-fault-link-down"])
        .arg("--trace-out")
        .arg(&trace)
        .arg("--metrics-out")
        .arg(&metrics)
        .output()
        .expect("run repro");
    assert!(
        out.status.success(),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("ext-fault-link-down"));
    // The fault experiment's trace carries hip ops, fabric flows, and the
    // injected fault marker; the metrics carry per-link byte counters.
    let trace_text = std::fs::read_to_string(&trace).expect("trace written");
    for needle in ["hip_op", "fabric_flow", "\"fault\""] {
        assert!(trace_text.contains(needle), "trace missing {needle}");
    }
    let metrics_text = std::fs::read_to_string(&metrics).expect("metrics written");
    for needle in ["fabric_link_wire_bytes", "hip_op_duration_ns", "p99"] {
        assert!(metrics_text.contains(needle), "metrics missing {needle}");
    }
    // And both pass the lint.
    let ok = lint()
        .arg("--trace")
        .arg(&trace)
        .arg("--metrics")
        .arg(&metrics)
        .output()
        .expect("run telemetry-lint");
    assert!(
        ok.status.success(),
        "lint failed: {}",
        String::from_utf8_lossy(&ok.stderr)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn repro_rejects_unknown_ids_with_exit_2_and_the_listing() {
    let out = repro()
        .args(["--quick", "--reps", "1", "fig99"])
        .output()
        .expect("run repro");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown experiment 'fig99'"), "{err}");
    for id in ["fig1", "table1", "fig6b", "ext-fault-link-down"] {
        assert!(err.contains(id), "listing misses {id}: {err}");
    }
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn mgpu_bench_tool_artifacts_pass_the_lint() {
    let dir = temp_dir("tool-artifacts");
    let trace = dir.join("trace.json");
    let critpath = dir.join("critpath.json");
    let out = mgpu()
        .args(["p2p", "--latency", "--reps", "1"])
        .arg("--trace-out")
        .arg(&trace)
        .arg("--critpath-out")
        .arg(&critpath)
        .output()
        .expect("run mgpu-bench p2p");
    assert!(
        out.status.success(),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let ok = lint()
        .arg("--trace")
        .arg(&trace)
        .arg("--critpath")
        .arg(&critpath)
        .output()
        .expect("run telemetry-lint");
    assert!(
        ok.status.success(),
        "lint failed: {}",
        String::from_utf8_lossy(&ok.stderr)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mgpu_bench_leaves_experiments_to_repro() {
    for args in [
        &["exp", "fig6a"][..],
        &["p2p", "fig6a"],
        &["p2p", "--jobs", "2"],
    ] {
        let out = mgpu().args(args).output().expect("run mgpu-bench");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
    }
}

#[test]
fn repro_emits_telemetry_artifacts_next_to_csv() {
    let dir = temp_dir("repro-telemetry");
    let trace = dir.join("trace.json");
    let metrics = dir.join("metrics.json");
    let out = repro()
        .args(["--quick", "--reps", "1"])
        .arg("--csv")
        .arg(&dir)
        .arg("--trace-out")
        .arg(&trace)
        .arg("--metrics-out")
        .arg(&metrics)
        .arg("fig6b")
        .output()
        .expect("run repro");
    assert!(out.status.success(), "exit: {:?}", out.status);
    // Per-experiment snapshot beside the CSV, plus the merged artifacts.
    let labeled = std::fs::read_to_string(dir.join("fig6b.metrics.json")).expect("snapshot");
    assert!(labeled.contains("\"fig6b\""));
    assert!(labeled.contains("hip_op_duration_ns"));
    assert!(std::fs::read_to_string(&trace)
        .expect("trace")
        .contains("traceEvents"));
    let ok = lint()
        .arg("--trace")
        .arg(&trace)
        .arg("--metrics")
        .arg(&metrics)
        .output()
        .expect("run telemetry-lint");
    assert!(
        ok.status.success(),
        "lint failed: {}",
        String::from_utf8_lossy(&ok.stderr)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn observability_artifacts_do_not_change_results() {
    // Attribution and the flight recorder are observers: a run that emits
    // every observability artifact must produce byte-identical CSVs (and
    // identical stdout reports) to a bare run of the same experiments.
    let bare_dir = temp_dir("obs-off");
    let bare = repro()
        .args(["--quick", "--reps", "1", "--csv"])
        .arg(&bare_dir)
        .args(["fig6a", "fig6b"])
        .output()
        .expect("bare run");
    assert!(bare.status.success());
    let obs_dir = temp_dir("obs-on");
    let obs = repro()
        .args(["--quick", "--reps", "1", "--csv"])
        .arg(&obs_dir)
        .arg("--attr-out")
        .arg(obs_dir.join("attr.md"))
        .arg("--attr-json")
        .arg(obs_dir.join("attr.json"))
        .arg("--timeseries-out")
        .arg(obs_dir.join("util.csv"))
        .arg("--trace-out")
        .arg(obs_dir.join("trace.json"))
        .args(["fig6a", "fig6b"])
        .output()
        .expect("instrumented run");
    assert!(obs.status.success());
    assert_eq!(
        String::from_utf8_lossy(&bare.stdout),
        String::from_utf8_lossy(&obs.stdout),
        "stdout diverges when observability is on"
    );
    for name in ["fig6a.csv", "fig6b.csv"] {
        let a = std::fs::read(bare_dir.join(name)).unwrap();
        let b = std::fs::read(obs_dir.join(name)).unwrap();
        assert_eq!(a, b, "{name} diverges when observability is on");
    }
    // The attribution JSON the instrumented run produced passes the lint.
    let ok = lint()
        .arg("--attr")
        .arg(obs_dir.join("attr.json"))
        .output()
        .expect("run telemetry-lint");
    assert!(
        ok.status.success(),
        "attr lint failed: {}",
        String::from_utf8_lossy(&ok.stderr)
    );
    std::fs::remove_dir_all(&bare_dir).ok();
    std::fs::remove_dir_all(&obs_dir).ok();
}

#[test]
fn repro_attr_report_names_the_saturated_link() {
    // The lane-loss experiment drives the quad GCD0<->GCD1 link into
    // contention: the attribution report must name it dominant.
    let dir = temp_dir("attr-report");
    let attr = dir.join("attr.md");
    let out = repro()
        .args(["--quick", "--reps", "1", "ext-fault-p2p-lanes"])
        .arg("--attr-out")
        .arg(&attr)
        .output()
        .expect("run repro");
    assert!(out.status.success());
    let report = std::fs::read_to_string(&attr).expect("attr report written");
    assert!(
        report.contains("Dominant binding segment: **GCD0->GCD1**"),
        "{report}"
    );
    assert!(report.contains("endpoint/engine cap"), "{report}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn telemetry_lint_validates_attribution_json() {
    let dir = temp_dir("lint-attr");
    let good = dir.join("attr.json");
    std::fs::write(
        &good,
        r#"{
  "schema": "ifsim-attr-v1",
  "flows": 4,
  "total_ns": 100.0,
  "cap_bound_ns": 60.0,
  "link_bound_ns": 40.0,
  "segments": [{"segment": "GCD0->GCD1", "bound_ns": 40.0, "share": 0.4}]
}"#,
    )
    .unwrap();
    let out = lint().arg("--attr").arg(&good).output().expect("lint");
    assert!(
        out.status.success(),
        "good attr rejected: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Wrong schema, and a segment sum that disagrees with link_bound_ns,
    // must both fail.
    for (name, body) in [
        (
            "schema",
            r#"{"schema": "other", "flows": 0, "total_ns": 0.0,
               "cap_bound_ns": 0.0, "link_bound_ns": 0.0, "segments": []}"#,
        ),
        (
            "sum",
            r#"{"schema": "ifsim-attr-v1", "flows": 1, "total_ns": 100.0,
               "cap_bound_ns": 60.0, "link_bound_ns": 40.0,
               "segments": [{"segment": "GCD0->GCD1", "bound_ns": 10.0, "share": 0.1}]}"#,
        ),
    ] {
        let bad = dir.join(format!("bad-{name}.json"));
        std::fs::write(&bad, body).unwrap();
        let out = lint().arg("--attr").arg(&bad).output().expect("lint");
        assert!(!out.status.success(), "{name} attr accepted");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn telemetry_lint_rejects_malformed_artifacts() {
    let dir = temp_dir("lint");
    let bad_trace = dir.join("bad-trace.json");
    std::fs::write(&bad_trace, r#"{"traceEvents":[{"ph":"X"}]}"#).unwrap();
    let out = lint()
        .arg("--trace")
        .arg(&bad_trace)
        .output()
        .expect("lint");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("missing name"));
    let bad_metrics = dir.join("bad-metrics.json");
    std::fs::write(&bad_metrics, r#"{"counters":[]}"#).unwrap();
    let out = lint()
        .arg("--metrics")
        .arg(&bad_metrics)
        .output()
        .expect("lint");
    assert!(!out.status.success());
    // Nothing to lint at all is a usage error.
    let out = lint().output().expect("lint");
    assert_eq!(out.status.code(), Some(2));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn telemetry_lint_enforces_trace_ordering() {
    let dir = temp_dir("lint-order");
    let meta = r#"{"name":"process_name","ph":"M","ts":0,"pid":0,"tid":0,"args":{"name":"p"}}"#;
    let at = |ts: &str| format!(r#"{{"name":"e","ph":"i","ts":{ts},"pid":0,"tid":0}}"#);
    let util = |ts: u32, link: &str, v: &str| {
        format!(
            r#"{{"name":"fabric util {link}","cat":"fabric_util","ph":"C","ts":{ts},"pid":0,"tid":0,"args":{{"value":{v}}}}}"#
        )
    };
    let cases = [
        (
            "ordered",
            vec![meta.to_string(), at("1"), at("1"), at("2.5")],
            None,
        ),
        (
            "backwards",
            vec![meta.to_string(), at("2"), at("1.5")],
            Some("event #2 goes back in time"),
        ),
        (
            "late-metadata",
            vec![at("1"), meta.to_string()],
            Some("metadata record #1 comes after the first event #0"),
        ),
        // A counter holds its value until the next sample, so a track may
        // repeat a value only in its last sample.
        (
            "final-repeat",
            vec![
                meta.to_string(),
                util(1, "GCD0->GCD1", "0.5"),
                util(2, "GCD0->GCD2", "0.5"),
                util(3, "GCD0->GCD1", "0"),
                util(4, "GCD0->GCD1", "0"),
                util(4, "GCD0->GCD2", "0.5"),
            ],
            None,
        ),
        (
            "middle-repeat",
            vec![
                meta.to_string(),
                util(1, "GCD0->GCD1", "0.5"),
                util(2, "GCD0->GCD1", "0.5"),
                util(3, "GCD0->GCD2", "0.5"),
                util(4, "GCD0->GCD1", "0"),
            ],
            Some("counter #2 on track (pid 0, 'fabric util GCD0->GCD1') repeats"),
        ),
    ];
    for (name, records, err) in cases {
        let path = dir.join(format!("{name}.json"));
        let doc = format!(r#"{{"traceEvents":[{}]}}"#, records.join(","));
        std::fs::write(&path, doc).unwrap();
        let out = lint().arg("--trace").arg(&path).output().expect("lint");
        let stderr = String::from_utf8_lossy(&out.stderr);
        match err {
            None => assert!(out.status.success(), "{name} rejected: {stderr}"),
            Some(msg) => {
                assert!(!out.status.success(), "{name} accepted");
                assert!(stderr.contains(msg), "{name}: {stderr}");
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn repro_rejects_zero_jobs() {
    let out = repro()
        .args(["--jobs", "0", "fig6a"])
        .output()
        .expect("run repro");
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--jobs must be at least 1"),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[cfg(unix)]
mod serve_cli {
    //! End-to-end tests for `ifsim-client` and `ifsim-loadgen` against an
    //! in-process `ifsim_serve::Server` hosted on a temp Unix socket.

    use super::temp_dir;
    use ifsim_serve::{ServeAddr, ServeOptions, Server};
    use std::path::PathBuf;
    use std::process::Command;

    fn client() -> Command {
        Command::new(env!("CARGO_BIN_EXE_ifsim-client"))
    }

    fn loadgen() -> Command {
        Command::new(env!("CARGO_BIN_EXE_ifsim-loadgen"))
    }

    /// Host a server on `<dir>/serve.sock` in a background thread; the
    /// returned guard joins the server (after a client-driven shutdown).
    fn host(dir: &std::path::Path) -> (PathBuf, std::thread::JoinHandle<()>) {
        let sock = dir.join("serve.sock");
        let server = Server::bind(
            ServeAddr::Unix(sock.clone()),
            ServeOptions {
                workers: 4,
                queue_depth: 16,
                cache_cap: 64,
                ..ServeOptions::default()
            },
        )
        .expect("bind temp socket");
        let handle = std::thread::spawn(move || server.run().expect("server run"));
        (sock, handle)
    }

    fn shut_down(sock: &std::path::Path, handle: std::thread::JoinHandle<()>) {
        let out = client()
            .arg("--socket")
            .arg(sock)
            .arg("shutdown")
            .output()
            .expect("run client shutdown");
        assert!(out.status.success(), "shutdown failed");
        handle.join().expect("server thread");
    }

    #[test]
    fn client_artifacts_are_byte_identical_to_repro_and_replay_from_cache() {
        let dir = temp_dir("serve-client");
        let (sock, handle) = host(&dir);

        // Same config through the service, twice: the second answer must be
        // a cache hit carrying the same bytes.
        let run = |tag: &str| {
            let csv_dir = dir.join(tag);
            let out = client()
                .arg("--socket")
                .arg(&sock)
                .args(["exp", "fig6a", "--quick", "--reps", "1", "--no-report"])
                .arg("--csv")
                .arg(&csv_dir)
                .output()
                .expect("run client exp");
            assert!(
                out.status.success(),
                "stdout: {}\nstderr: {}",
                String::from_utf8_lossy(&out.stdout),
                String::from_utf8_lossy(&out.stderr)
            );
            (csv_dir, String::from_utf8_lossy(&out.stdout).into_owned())
        };
        let (d1, stdout1) = run("first");
        let (d2, stdout2) = run("second");
        assert!(stdout1.contains("computed"), "{stdout1}");
        assert!(stdout2.contains("cache hit"), "{stdout2}");

        // And both match what the repro CLI writes for the same config.
        let repro_dir = dir.join("repro");
        let out = super::repro()
            .args(["--quick", "--reps", "1", "--csv"])
            .arg(&repro_dir)
            .arg("fig6a")
            .output()
            .expect("run repro");
        assert!(out.status.success());
        let reference = std::fs::read(repro_dir.join("fig6a.csv")).expect("repro csv");
        for d in [&d1, &d2] {
            let served = std::fs::read(d.join("fig6a.csv")).expect("served csv");
            assert_eq!(served, reference, "served CSV diverges from repro CLI");
        }

        shut_down(&sock, handle);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn loadgen_repeat_run_is_all_cache_hits() {
        let dir = temp_dir("serve-loadgen");
        let (sock, handle) = host(&dir);

        let run = || {
            let out = loadgen()
                .arg("--socket")
                .arg(&sock)
                .args(["--concurrency", "8", "--requests", "100", "--seed", "7"])
                .output()
                .expect("run loadgen");
            assert!(
                out.status.success(),
                "stdout: {}\nstderr: {}",
                String::from_utf8_lossy(&out.stdout),
                String::from_utf8_lossy(&out.stderr)
            );
            String::from_utf8_lossy(&out.stdout).into_owned()
        };
        let first = run();
        assert!(first.contains("completed 100/100 ok"), "{first}");
        assert!(first.contains("p50"), "{first}");
        // Replaying the identical seeded mix hits the warm cache on every
        // request — comfortably above the 0.9 acceptance bar.
        let second = run();
        assert!(second.contains("hit rate 100.0%"), "{second}");
        assert!(second.contains("0 errors"), "{second}");

        shut_down(&sock, handle);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn client_stats_raw_passes_the_serve_lint() {
        let dir = temp_dir("serve-stats");
        let (sock, handle) = host(&dir);

        // One request so the latency histogram and request counter exist.
        let out = client()
            .arg("--socket")
            .arg(&sock)
            .args(["exp", "fig1", "--quick", "--no-report"])
            .output()
            .expect("run client exp");
        assert!(out.status.success());

        let out = client()
            .arg("--socket")
            .arg(&sock)
            .args(["stats", "--raw"])
            .output()
            .expect("run client stats");
        assert!(out.status.success());
        let stats_path = dir.join("stats.json");
        std::fs::write(&stats_path, &out.stdout).expect("write stats");
        let ok = super::lint()
            .arg("--serve")
            .arg(&stats_path)
            .output()
            .expect("run telemetry-lint");
        assert!(
            ok.status.success(),
            "serve lint failed: {}",
            String::from_utf8_lossy(&ok.stderr)
        );

        shut_down(&sock, handle);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn client_requires_an_address_and_a_command() {
        let out = client().arg("ping").output().expect("run client");
        assert_eq!(out.status.code(), Some(2));
        assert!(String::from_utf8_lossy(&out.stderr).contains("--socket or --tcp"));
        let out = loadgen().output().expect("run loadgen");
        assert_eq!(out.status.code(), Some(2));
        assert!(String::from_utf8_lossy(&out.stderr).contains("--socket or --tcp"));
    }
}

#[test]
fn telemetry_lint_validates_bench_summary() {
    // The committed stack-bench snapshot lints clean.
    let committed = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/stack/BENCH_stack.json"
    );
    let out = lint().arg("--bench").arg(committed).output().expect("lint");
    assert!(
        out.status.success(),
        "committed BENCH_stack.json rejected: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("8 runs"));

    // One untraced and one traced run in the shape the stack bench writes.
    let untraced = r#"{"schema": "ifsim-bench-stack-v1", "workload": "repro-quick",
        "traced": false, "correct": true, "attempted": 4, "failed": 1, "metrics": {
        "setup_s": {"value": 0.5, "unit": "s"}, "op_cal_p50": {"value": 2, "unit": "cal"},
        "op_cal_tail": {"value": 3, "unit": "cal"}, "peak_rss_mb": {"value": 20, "unit": "MiB"}}}"#;
    let traced = r#"{"schema": "ifsim-bench-stack-v1", "workload": "repro-quick",
        "traced": true, "correct": true, "attempted": 4, "failed": 0, "metrics": {
        "hip.sims_per_pass": {"value": 357, "unit": "count"},
        "ledger.fabric_share": {"value": 0.25, "unit": "ratio"},
        "ledger.unexplained_share": {"value": 0.75, "unit": "ratio"}}}"#;
    let doc = |runs: &str| format!(r#"{{"schema": "ifsim-bench-stack-v1", "runs": [{runs}]}}"#);
    let dir = temp_dir("lint-bench");
    let lint_doc = |name: &str, body: String| {
        let path = dir.join(format!("{name}.json"));
        std::fs::write(&path, body).unwrap();
        lint().arg("--bench").arg(&path).output().expect("lint")
    };
    let out = lint_doc("good", doc(&format!("{untraced}, {traced}")));
    assert!(
        out.status.success(),
        "good summary rejected: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Each case breaks exactly one rule: (name, run, text replaced, by, reason).
    for (name, run, from, to, why) in [
        (
            "run-schema",
            untraced,
            "stack-v1",
            "stack-v0",
            "run #0 has unexpected schema",
        ),
        (
            "no-workload",
            untraced,
            r#""workload""#,
            r#""load""#,
            "missing workload",
        ),
        ("incorrect", untraced, "true", "false", "is not correct"),
        (
            "failed-over-attempted",
            untraced,
            r#""failed": 1"#,
            r#""failed": 5"#,
            "bad attempted",
        ),
        (
            "zero-attempted",
            traced,
            r#""attempted": 4"#,
            r#""attempted": 0"#,
            "bad attempted",
        ),
        (
            "negative-failed",
            untraced,
            r#""failed": 1"#,
            r#""failed": -1"#,
            "bad attempted",
        ),
        (
            "negative-value",
            untraced,
            "0.5",
            "-0.5",
            "metric setup_s has bad value",
        ),
        (
            "string-value",
            untraced,
            "0.5",
            r#""fast""#,
            "metric setup_s has bad value",
        ),
        (
            "no-unit",
            traced,
            r#", "unit": "count""#,
            "",
            "metric hip.sims_per_pass has no unit",
        ),
        (
            "no-end-to-end",
            untraced,
            "peak_rss_mb",
            "rss",
            "missing end-to-end metric peak_rss_mb",
        ),
        (
            "ledger-sum",
            traced,
            "0.75",
            "0.5",
            "ledger shares sum to 0.75",
        ),
    ] {
        assert!(run.contains(from), "{name}: nothing to replace");
        let out = lint_doc(name, doc(&run.replacen(from, to, 1)));
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name} accepted: {err}");
        assert!(
            err.contains(why),
            "{name} rejected for the wrong reason: {err}"
        );
    }
    // The document itself: its schema tag and a non-empty runs array.
    for (name, body, why) in [
        (
            "schema",
            doc(untraced).replacen("stack-v1", "fabric-v2", 1),
            "unexpected schema",
        ),
        ("no-runs", doc(""), "runs is empty"),
        (
            "runs-object",
            r#"{"schema": "ifsim-bench-stack-v1", "runs": {}}"#.into(),
            "missing runs array",
        ),
    ] {
        let out = lint_doc(name, body);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name} accepted: {err}");
        assert!(
            err.contains(why),
            "{name} rejected for the wrong reason: {err}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
