//! `--compare DIR_A DIR_B`: judge B (the change) against A (the parent)
//! per workload and end-to-end metric, over the untraced result files in
//! each directory. Runs pair up by seed.

use crate::stats::quartiles;
use crate::SCHEMA;
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::Path;

/// How B compares with A on one metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Verdict {
    /// B wins at least 9 in 10 pairs and the medians differ by more than
    /// A's interquartile range.
    Improved,
    /// B's median is within the bound of A's.
    Unchanged,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// The run-to-run spread is wider than the bound.
    Unresolved,
}

/// The verdict for samples `a` and `b`, `pairs` of which ran on the same
/// seed; `bound` is the share of A's median B may lose.
pub fn verdict(
    a: &[f64],
    b: &[f64],
    pairs: &[(f64, f64)],
    lower_is_better: bool,
    bound: f64,
) -> Verdict {
    let better = |x: f64, y: f64| if lower_is_better { x < y } else { x > y };
    let (a1, am, a3) = quartiles(a);
    let (b1, bm, b3) = quartiles(b);
    let wins = pairs.iter().filter(|&&(pa, pb)| better(pb, pa)).count();
    if !pairs.is_empty()
        && wins * 10 >= pairs.len() * 9
        && better(bm, am)
        && (bm - am).abs() > a3 - a1
    {
        return Verdict::Improved;
    }
    let spread = |q1: f64, m: f64, q3: f64| if m == 0.0 { 0.0 } else { (q3 - q1) / m.abs() };
    if spread(a1, am, a3).max(spread(b1, bm, b3)) > bound {
        let every_b_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
        return if every_b_better {
            Verdict::Unchanged
        } else {
            Verdict::Unresolved
        };
    }
    let loss = if am == 0.0 {
        0.0
    } else if lower_is_better {
        (bm - am) / am.abs()
    } else {
        (am - bm) / am.abs()
    };
    if loss > bound {
        Verdict::Worse
    } else {
        Verdict::Unchanged
    }
}

/// `workload → seed → metric → value` from a directory's untraced results.
type Results = BTreeMap<String, BTreeMap<String, BTreeMap<String, f64>>>;

fn load(dir: &Path) -> Result<Results, String> {
    let mut out = Results::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| format!("{}: {e}", dir.display()))?.path();
        if path.extension().is_none_or(|x| x != "json") {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let Ok(v) = serde_json::from_str(&text) else {
            continue;
        };
        if v.get("schema").and_then(Value::as_str) != Some(SCHEMA)
            || v.get("traced").and_then(Value::as_bool) != Some(false)
        {
            continue;
        }
        let field = |k: &str| {
            v.get(k)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("{}: missing '{k}'", path.display()))
        };
        let mut metrics = BTreeMap::new();
        for key in ["metrics", "info"] {
            let values = v
                .get(key)
                .and_then(Value::as_object)
                .ok_or_else(|| format!("{}: missing '{key}'", path.display()))?;
            for (k, m) in values.iter() {
                if let Some(x) = m.get("value").and_then(Value::as_f64) {
                    metrics.insert(k.clone(), x);
                }
            }
        }
        out.entry(field("workload")?)
            .or_default()
            .insert(field("seed")?, metrics);
    }
    Ok(out)
}

/// `(name, lower is better, bound)` of each end-to-end metric listed in
/// `BENCHMARK.json`.
fn bounds(bench_json: &Path) -> Result<Vec<(String, bool, f64)>, String> {
    let text = std::fs::read_to_string(bench_json)
        .map_err(|e| format!("{}: {e}", bench_json.display()))?;
    let v = serde_json::from_str(&text).map_err(|e| format!("{}: {e}", bench_json.display()))?;
    v.get("end_to_end")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{}: no end_to_end list", bench_json.display()))?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str);
            let better = m.get("better").and_then(Value::as_str);
            let bound = m.get("bound").and_then(Value::as_f64);
            match (name, better, bound) {
                (Some(n), Some(b), Some(x)) => Ok((n.to_string(), b == "lower", x)),
                _ => Err(format!(
                    "{}: malformed end_to_end entry",
                    bench_json.display()
                )),
            }
        })
        .collect()
}

/// Print the comparison; `Ok(false)` when any gated metric got worse.
/// The wall-time rows follow the gated ones, at their bounds, and do not
/// set the exit code: they show a change that also moves the calibration
/// kernel, which cancels out of the gated times.
pub fn run(dir_a: &Path, dir_b: &Path, bench_json: &Path) -> Result<bool, String> {
    let gated = bounds(bench_json)?;
    let mut metrics: Vec<(String, bool, f64, bool)> = gated
        .iter()
        .map(|(n, lower, bound)| (n.clone(), *lower, *bound, true))
        .collect();
    for (wall, of) in crate::WALL {
        if let Some((_, lower, bound)) = gated.iter().find(|g| g.0 == of) {
            metrics.push((wall.to_string(), *lower, *bound, false));
        }
    }
    let (a, b) = (load(dir_a)?, load(dir_b)?);
    let mut ok = true;
    println!(
        "{:<18} {:<15} {:>30} {:>30} {:>6} verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B wins"
    );
    for (workload, runs_a) in &a {
        let Some(runs_b) = b.get(workload) else {
            println!("{workload:<18} (no runs in {})", dir_b.display());
            continue;
        };
        for (name, lower, bound, is_gated) in &metrics {
            let values = |runs: &BTreeMap<String, BTreeMap<String, f64>>| -> Vec<f64> {
                runs.values().filter_map(|m| m.get(name).copied()).collect()
            };
            let (va, vb) = (values(runs_a), values(runs_b));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let pairs: Vec<(f64, f64)> = runs_a
                .iter()
                .filter_map(|(seed, m)| Some((*m.get(name)?, *runs_b.get(seed)?.get(name)?)))
                .collect();
            let wins = pairs
                .iter()
                .filter(|&&(x, y)| if *lower { y < x } else { y > x })
                .count();
            let v = verdict(&va, &vb, &pairs, *lower, *bound);
            ok &= !is_gated || v != Verdict::Worse;
            let show = |xs: &[f64]| {
                let (q1, m, q3) = quartiles(xs);
                format!("{m:.4e} [{q1:.4e}, {q3:.4e}]")
            };
            println!(
                "{workload:<18} {name:<15} {:>30} {:>30} {:>6} {v:?} (bound {bound}, n={}/{}){}",
                show(&va),
                show(&vb),
                format!("{wins}/{}", pairs.len()),
                va.len(),
                vb.len(),
                if *is_gated { "" } else { " not gated" }
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paired(a: &[f64], b: &[f64]) -> Vec<(f64, f64)> {
        a.iter().copied().zip(b.iter().copied()).collect()
    }

    #[test]
    fn verdicts_on_synthetic_samples() {
        let a = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0,
        ];
        // Same distribution, shuffled: unchanged.
        let same = [
            100.1, 99.9, 100.0, 99.5, 100.5, 99.8, 101.0, 99.0, 100.2, 100.0,
        ];
        assert_eq!(
            verdict(&a, &same, &paired(&a, &same), true, 0.05),
            Verdict::Unchanged
        );
        // 20% faster in every pair: improved, for lower- and higher-is-better.
        let fast: Vec<f64> = a.iter().map(|x| x * 0.8).collect();
        assert_eq!(
            verdict(&a, &fast, &paired(&a, &fast), true, 0.05),
            Verdict::Improved
        );
        let more: Vec<f64> = a.iter().map(|x| x * 1.2).collect();
        assert_eq!(
            verdict(&a, &more, &paired(&a, &more), false, 0.05),
            Verdict::Improved
        );
        // 20% slower: worse; 3% slower is within a 5% bound.
        assert_eq!(
            verdict(&a, &more, &paired(&a, &more), true, 0.05),
            Verdict::Worse
        );
        let slight: Vec<f64> = a.iter().map(|x| x * 1.03).collect();
        assert_eq!(
            verdict(&a, &slight, &paired(&a, &slight), true, 0.05),
            Verdict::Unchanged
        );
        // A spread wider than the bound cannot be resolved.
        let noisy = [
            60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0,
        ];
        assert_eq!(
            verdict(&a, &noisy, &paired(&a, &noisy), true, 0.05),
            Verdict::Unresolved
        );
        // Winning 8 of 10 pairs is not enough to claim a gain.
        let mut mostly = fast.clone();
        mostly[0] = 200.0;
        mostly[1] = 200.0;
        assert_ne!(
            verdict(&a, &mostly, &paired(&a, &mostly), true, 0.5),
            Verdict::Improved
        );
    }
}
