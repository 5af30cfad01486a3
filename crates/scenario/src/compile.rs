//! Compiling a [`Scenario`] into the [`Experiment`] machinery.
//!
//! The compiled experiment is indistinguishable from a registry entry to
//! every driver: it runs under `repro --quick --jobs N`, telemetry
//! capture, DAG/critpath analysis, and `ifsim-serve` without those layers
//! knowing scenarios exist. The scenario's content digest travels in
//! `digest_extra`, so `config_digest` — and therefore every result cache —
//! keys on scenario *content*, not its name.

use crate::format::{Scenario, Workload};
use crate::generators;
use crate::trace::{self, TraceRecord};
use crate::FieldError;
use ifsim_core::experiment::{Check, Experiment, ExperimentResult};
use ifsim_core::{registry, BenchConfig};
use ifsim_des::Time;
use ifsim_fabric::FaultPlan;
use ifsim_hip::EnvConfig;
use std::fmt::Write as _;
use std::sync::Arc;

impl Scenario {
    /// The scenario's overrides applied on top of a driver-supplied base
    /// configuration. [`Scenario::validate`] checks the calibration factors
    /// against the default calibration; a base that is already perturbed
    /// (a serve request's `overrides.calib`) can still push an efficiency
    /// out of range, which fails naming `calib.<field>`.
    pub fn apply_config(&self, base: &BenchConfig) -> Result<BenchConfig, FieldError> {
        let mut cfg = if self.config.quick {
            BenchConfig::quick()
        } else {
            base.clone()
        };
        if let Some(seed) = self.config.seed {
            cfg.seed = seed;
        }
        if let Some(reps) = self.config.reps {
            cfg.reps = reps;
        }
        if let Some(warmup) = self.config.warmup {
            cfg.warmup = warmup;
        }
        for (field, factor) in &self.calib {
            cfg.calib
                .scale_f64_field(field, *factor)
                .map_err(|message| FieldError {
                    field: format!("calib.{field}"),
                    message,
                })?;
        }
        Ok(cfg)
    }

    /// The scheduled faults as a runtime fault plan.
    pub fn fault_plan(&self) -> FaultPlan {
        let mut plan = FaultPlan::new();
        for f in &self.faults {
            plan = plan.at(Time::from_ns(f.at_us * 1e3), f.kind);
        }
        plan
    }
}

/// Compile a scenario into an experiment. Registry workloads delegate to
/// the named registry entry (the scenario contributes configuration only,
/// so results are byte-identical to running the entry directly); trace and
/// generator workloads replay their record DAG, one sweep point at a time.
pub fn compile(s: &Scenario) -> Result<Experiment, FieldError> {
    s.validate()?;
    let id = format!("scenario:{}", s.name);
    let description = if s.description.is_empty() {
        format!(
            "scenario file '{}' ({})",
            s.name,
            workload_kind(&s.workload)
        )
    } else {
        s.description.clone()
    };
    let digest_extra = vec![("scenario".to_string(), s.digest())];
    let scenario = s.clone();
    let runner: Arc<dyn Fn(&BenchConfig) -> ExperimentResult + Send + Sync> = match &s.workload {
        Workload::Registry { id } => {
            // Existence was validated; resolve once at compile time.
            let inner = registry::by_id(id).ok_or_else(|| FieldError {
                field: "workload.id".into(),
                message: format!("unknown registry experiment '{id}'"),
            })?;
            Arc::new(move |cfg| match scenario.apply_config(cfg) {
                Ok(cfg) => inner.run(&cfg),
                Err(e) => refused(inner.id, inner.title, e),
            })
        }
        Workload::Trace { .. } | Workload::Generator(_) => {
            let exp_id = ifsim_core::experiment::intern(&id);
            let exp_title = ifsim_core::experiment::intern(&s.title);
            Arc::new(move |cfg| run_replay(&scenario, cfg, exp_id, exp_title))
        }
    };
    Ok(Experiment::dynamic(
        &id,
        &s.title,
        &description,
        digest_extra,
        runner,
    ))
}

fn workload_kind(w: &Workload) -> &'static str {
    match w {
        Workload::Registry { .. } => "registry delegate",
        Workload::Trace { .. } => "trace replay",
        Workload::Generator(g) => g.kind_name(),
    }
}

/// One sweep point: parameter assignments and the records they expand to.
struct SweepPoint {
    params: Vec<(String, f64)>,
    records: Vec<TraceRecord>,
}

fn sweep_points(s: &Scenario) -> Vec<SweepPoint> {
    match &s.workload {
        Workload::Registry { .. } => Vec::new(),
        Workload::Trace { records } => vec![SweepPoint {
            params: Vec::new(),
            records: records.clone(),
        }],
        Workload::Generator(g) => {
            if s.sweep.is_empty() {
                return vec![SweepPoint {
                    params: Vec::new(),
                    records: generators::expand(g),
                }];
            }
            // Cartesian product, first axis outermost.
            let mut assignments: Vec<Vec<(String, f64)>> = vec![Vec::new()];
            for axis in &s.sweep {
                let mut next = Vec::new();
                for base in &assignments {
                    for &v in &axis.values {
                        let mut a = base.clone();
                        a.push((axis.param.clone(), v));
                        next.push(a);
                    }
                }
                assignments = next;
            }
            assignments
                .into_iter()
                .map(|params| {
                    let mut spec = g.clone();
                    for (name, v) in &params {
                        // Validated against a probe clone at parse time.
                        let _ = spec.set_param(name, *v);
                    }
                    SweepPoint {
                        params,
                        records: generators::expand(&spec),
                    }
                })
                .collect()
        }
    }
}

/// The result of a run whose configuration the scenario cannot apply: no
/// artifacts, and one failed check naming the field.
fn refused(id: &'static str, title: &'static str, e: FieldError) -> ExperimentResult {
    ExperimentResult {
        id,
        title,
        rendered: String::new(),
        csv: Vec::new(),
        checks: vec![Check::new(e.field, false, e.message)],
    }
}

/// Replay every sweep point `cfg.reps` times (after `cfg.warmup` discarded
/// reps), each rep in a fresh runtime with the fault plan re-armed and a
/// per-rep seed, and report mean makespans.
fn run_replay(
    s: &Scenario,
    cfg: &BenchConfig,
    exp_id: &'static str,
    exp_title: &'static str,
) -> ExperimentResult {
    let cfg = match s.apply_config(cfg) {
        Ok(cfg) => cfg,
        Err(e) => return refused(exp_id, exp_title, e),
    };
    let points = sweep_points(s);
    let mut rendered = String::new();
    let mut csv = String::from("point,records,bytes,makespan_us,gbps\n");
    let mut checks: Vec<Check> = Vec::new();
    let _ = writeln!(
        rendered,
        "{:<28} {:>8} {:>12} {:>14} {:>10}",
        "point", "records", "MiB", "makespan (us)", "GB/s"
    );
    let mut all_ok = true;
    for (pi, point) in points.iter().enumerate() {
        let label = if point.params.is_empty() {
            "baseline".to_string()
        } else {
            point
                .params
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        let mut sum_us = 0.0;
        let mut bytes = 0u64;
        let mut failed: Option<String> = None;
        for rep in 0..cfg.warmup + cfg.reps {
            let mut rep_cfg = cfg.clone();
            rep_cfg.seed = cfg.seed.wrapping_add(rep as u64);
            let mut hip = rep_cfg.runtime(EnvConfig::default());
            if let Err(e) = hip.set_fault_plan(s.fault_plan()) {
                failed = Some(format!("fault plan rejected: {e:?}"));
                break;
            }
            match trace::replay(&mut hip, &point.records) {
                Ok(stats) => {
                    if rep >= cfg.warmup {
                        sum_us += stats.makespan.as_us();
                        bytes = stats.total_bytes();
                    }
                }
                Err(e) => {
                    failed = Some(format!("replay failed: {e:?}"));
                    break;
                }
            }
        }
        if let Some(msg) = failed {
            all_ok = false;
            let _ = writeln!(rendered, "{label:<28} {msg}");
            checks.push(Check::new(format!("point[{pi}] replays"), false, msg));
            continue;
        }
        let mean_us = sum_us / cfg.reps.max(1) as f64;
        let gbps = if mean_us > 0.0 {
            bytes as f64 / (mean_us * 1e-6) / 1e9
        } else {
            0.0
        };
        let _ = writeln!(
            rendered,
            "{:<28} {:>8} {:>12.1} {:>14.1} {:>10.2}",
            label,
            point.records.len(),
            bytes as f64 / (1 << 20) as f64,
            mean_us,
            gbps
        );
        let _ = writeln!(
            csv,
            "{},{},{},{:.3},{:.4}",
            label.replace(',', ";"),
            point.records.len(),
            bytes,
            mean_us,
            gbps
        );
        if mean_us <= 0.0 {
            all_ok = false;
        }
    }
    checks.push(Check::new(
        "replay completes",
        all_ok,
        format!(
            "{} point(s), {} rep(s) each, positive makespans",
            points.len(),
            cfg.reps
        ),
    ));
    ExperimentResult {
        id: exp_id,
        title: exp_title,
        rendered,
        csv: vec![(format!("scenario_{}.csv", s.name), csv)],
        checks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{ConfigSection, GeneratorSpec};

    fn moe(name: &str) -> Scenario {
        Scenario {
            name: name.into(),
            title: name.into(),
            description: String::new(),
            topology: "frontier".into(),
            config: ConfigSection {
                quick: false,
                seed: Some(7),
                reps: Some(2),
                warmup: Some(0),
            },
            calib: Vec::new(),
            faults: Vec::new(),
            workload: Workload::Generator(GeneratorSpec::MoeAllToAll {
                ranks: 4,
                bytes_per_pair: 1 << 20,
                steps: 1,
                compute_bytes: 4 << 20,
            }),
            sweep: Vec::new(),
        }
    }

    #[test]
    fn compiled_scenarios_run_and_pass_their_checks() {
        let exp = compile(&moe("compile-smoke")).unwrap();
        assert_eq!(exp.id, "scenario:compile-smoke");
        let r = exp.run(&BenchConfig::quick());
        assert!(r.all_passed(), "{}", r.report());
        assert!(r.rendered.contains("baseline"));
        assert_eq!(r.csv.len(), 1);
    }

    #[test]
    fn digest_tracks_content_not_name() {
        let a = moe("same-name");
        let mut b = moe("same-name");
        if let Workload::Generator(GeneratorSpec::MoeAllToAll { bytes_per_pair, .. }) =
            &mut b.workload
        {
            *bytes_per_pair <<= 1;
        }
        let cfg = BenchConfig::default();
        let ea = compile(&a).unwrap();
        let eb = compile(&b).unwrap();
        assert_eq!(ea.id, eb.id);
        assert_ne!(ea.config_digest(&cfg), eb.config_digest(&cfg));
        // Same content -> same digest, regardless of compile order.
        let ea2 = compile(&a).unwrap();
        assert_eq!(ea.config_digest(&cfg), ea2.config_digest(&cfg));
    }

    #[test]
    fn registry_delegation_is_byte_identical() {
        let s = Scenario {
            workload: Workload::Registry { id: "fig6b".into() },
            config: ConfigSection::default(),
            ..moe("reg-twin")
        };
        let cfg = BenchConfig::quick();
        let direct = registry::by_id("fig6b").unwrap().run(&cfg);
        let via = compile(&s).unwrap().run(&cfg);
        assert_eq!(direct.rendered, via.rendered);
        assert_eq!(direct.csv, via.csv);
    }

    #[test]
    fn a_factor_a_perturbed_base_pushes_out_of_range_fails_a_check() {
        // ×1.2 is valid on the default 0.75, but not on a base a driver
        // already raised to 0.975: the run refuses with a failed check.
        let mut base = BenchConfig::quick();
        base.calib.scale_f64_field("eff_sdma_xgmi", 1.3).unwrap();
        for workload in [moe("x").workload, Workload::Registry { id: "fig6c".into() }] {
            let s = Scenario {
                calib: vec![("eff_sdma_xgmi".into(), 1.2)],
                workload,
                ..moe("calib-over")
            };
            let exp = compile(&s).unwrap();
            let r = exp.run(&base);
            assert!(r.csv.is_empty(), "{}", r.report());
            assert_eq!(r.checks.len(), 1);
            assert_eq!(r.checks[0].name, "calib.eff_sdma_xgmi");
            assert!(!r.checks[0].passed);
            // The default base takes the same factor.
            assert!(!exp.run(&BenchConfig::quick()).csv.is_empty());
        }
    }

    #[test]
    fn sweeps_expand_the_cartesian_product() {
        let mut s = moe("sweep-grid");
        s.sweep = vec![
            crate::format::SweepAxis {
                param: "bytes_per_pair".into(),
                values: vec![65536.0, 262144.0],
            },
            crate::format::SweepAxis {
                param: "ranks".into(),
                values: vec![2.0, 4.0],
            },
        ];
        let points = sweep_points(&s);
        assert_eq!(points.len(), 4);
        let r = compile(&s).unwrap().run(&BenchConfig::quick());
        assert!(r.all_passed(), "{}", r.report());
        assert!(r.rendered.contains("bytes_per_pair=65536 ranks=2"));
    }
}
