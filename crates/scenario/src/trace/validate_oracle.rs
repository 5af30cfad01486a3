//! The record-set validation that [`ReplayPlan::new`](super::ReplayPlan::new)
//! took over, kept as a test oracle: it indexes the ids in a map of its
//! own, looks each dependency up there, and finds a cycle with a Kahn's
//! loop of its own, in no particular order. The plan ranks the ids once.
//! On any record set, planted faults included, both must return the same
//! first fault, field path and message, and accept the same sets.

use super::{FieldError, TraceOp, TraceRecord};
use std::collections::BTreeMap;

/// Validate a record set in two passes over the records: unique non-empty
/// ids first, then each record's size, GCDs and dependencies, then a cycle.
pub fn validate(records: &[TraceRecord], n_gcds: u8) -> Result<(), FieldError> {
    if records.is_empty() {
        return Err(FieldError::new(
            "workload.records",
            "trace must contain at least one record",
        ));
    }
    let mut index: BTreeMap<&str, usize> = BTreeMap::new();
    for (i, r) in records.iter().enumerate() {
        if r.id.is_empty() {
            return Err(FieldError::new(
                format!("workload.records[{i}].id"),
                "must be non-empty",
            ));
        }
        if index.insert(r.id.as_str(), i).is_some() {
            return Err(FieldError::new(
                format!("workload.records[{i}].id"),
                format!("duplicate record id '{}'", r.id),
            ));
        }
    }
    for (i, r) in records.iter().enumerate() {
        let gcd_ok = |field: &str, g: u8| -> Result<(), FieldError> {
            if g >= n_gcds {
                Err(FieldError::new(
                    format!("workload.records[{i}].{field}"),
                    format!("GCD {g} out of range (node has {n_gcds})"),
                ))
            } else {
                Ok(())
            }
        };
        if r.op.bytes() == 0 {
            return Err(FieldError::new(
                format!("workload.records[{i}].bytes"),
                "must be at least 1",
            ));
        }
        match r.op {
            TraceOp::Copy { src, dst, .. } => {
                gcd_ok("src", src)?;
                gcd_ok("dst", dst)?;
                if src == dst {
                    return Err(FieldError::new(
                        format!("workload.records[{i}].dst"),
                        "copy src and dst must differ (use 'kernel' for local traffic)",
                    ));
                }
            }
            TraceOp::H2D { dst, .. } => gcd_ok("dst", dst)?,
            TraceOp::D2H { src, .. } => gcd_ok("src", src)?,
            TraceOp::Kernel { gcd, .. } => gcd_ok("dst", gcd)?,
        }
        for dep in &r.depends_on {
            if dep == &r.id {
                return Err(FieldError::new(
                    format!("workload.records[{i}].depends_on"),
                    format!("record '{}' depends on itself", r.id),
                ));
            }
            if !index.contains_key(dep.as_str()) {
                return Err(FieldError::new(
                    format!("workload.records[{i}].depends_on"),
                    format!("unknown dependency '{dep}'"),
                ));
            }
        }
    }
    // The records Kahn's loop never reaches, in any pop order, are those on
    // a cycle or after one; the first of them in record order is named.
    let mut indegree: Vec<usize> = records.iter().map(|r| r.depends_on.len()).collect();
    let mut dependents = vec![Vec::new(); records.len()];
    for (i, r) in records.iter().enumerate() {
        for dep in &r.depends_on {
            dependents[index[dep.as_str()]].push(i);
        }
    }
    let mut ready: Vec<usize> = (0..records.len()).filter(|&i| indegree[i] == 0).collect();
    while let Some(d) = ready.pop() {
        for &i in &dependents[d] {
            indegree[i] -= 1;
            if indegree[i] == 0 {
                ready.push(i);
            }
        }
    }
    match (0..records.len()).find(|&i| indegree[i] > 0) {
        Some(i) => Err(FieldError::new(
            "workload.records",
            format!("dependency cycle through record '{}'", records[i].id),
        )),
        None => Ok(()),
    }
}

mod properties {
    use super::super::ReplayPlan;
    use super::*;
    use proptest::prelude::*;

    /// Record sets of up to six records, with faults planted often enough
    /// that some sets hold several: no records, empty and repeated ids,
    /// zero bytes, GCD 8 on an eight-GCD node, copies onto their source,
    /// and dependencies that are unknown, on the record itself or cyclic.
    fn arb_records() -> impl Strategy<Value = Vec<TraceRecord>> {
        let record = (
            0u8..32,
            0u8..4,
            (0u8..17, 0u8..17),
            0u64..24,
            proptest::collection::vec(0u8..24, 0..3),
        );
        let gcd = |g: u8| if g == 16 { 8 } else { g % 8 };
        proptest::collection::vec(record, 0..7).prop_map(move |raw| {
            let n = raw.len();
            raw.into_iter()
                .enumerate()
                .map(|(i, (id, kind, (g1, g2), bytes, deps))| {
                    let id = match id {
                        0 => String::new(),
                        1 => "r0".to_string(),
                        _ => format!("r{i}"),
                    };
                    let bytes = if bytes == 0 { 0 } else { bytes << 10 };
                    let (g1, g2) = (gcd(g1), gcd(g2));
                    let op = match kind {
                        0 => TraceOp::Copy {
                            src: g1,
                            dst: g2,
                            bytes,
                        },
                        1 => TraceOp::H2D { dst: g1, bytes },
                        2 => TraceOp::D2H { src: g1, bytes },
                        _ => TraceOp::Kernel { gcd: g1, bytes },
                    };
                    let depends_on = deps
                        .into_iter()
                        .map(|d| match d {
                            21 => format!("r{i}"),
                            22 => "zz".to_string(),
                            23 => String::new(),
                            d => format!("r{}", (i + 1 + d as usize % (n - 1).max(1)) % n),
                        })
                        .collect();
                    TraceRecord { id, op, depends_on }
                })
                .collect()
        })
    }

    /// The generator reaches every outcome, so the property below compares
    /// each fault and not only the first check.
    #[test]
    fn the_generator_plants_every_fault() {
        let mut rng = TestRng::from_key("validate_oracle::faults");
        let strategy = arb_records();
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..512 {
            let outcome = match validate(&strategy.generate(&mut rng), 8) {
                Ok(()) => "ok",
                Err(e) => [
                    "at least one record",
                    "must be non-empty",
                    "duplicate record id",
                    "must be at least 1",
                    "out of range",
                    "must differ",
                    "depends on itself",
                    "unknown dependency",
                    "dependency cycle",
                ]
                .into_iter()
                .find(|m| e.message.contains(m))
                .expect("a known fault"),
            };
            seen.insert(outcome);
        }
        assert_eq!(seen.len(), 10, "outcomes seen: {seen:?}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The replay plan reports exactly what the map-based oracle
        /// reports, fault for fault, and accepts exactly what it accepts.
        #[test]
        fn ranked_validation_matches_the_map_oracle(
            records in arb_records(),
            n_gcds in 7u8..10,
        ) {
            prop_assert_eq!(ReplayPlan::new(&records, n_gcds).map(drop), validate(&records, n_gcds));
        }
    }
}
