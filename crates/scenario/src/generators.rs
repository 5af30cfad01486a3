//! Built-in trace generators: common multi-GPU communication motifs
//! expanded into explicit [`TraceRecord`] DAGs, so they replay through the
//! exact machinery user-supplied traces use. Record ids are stable,
//! zero-padded strings — the canonical replay order is reproducible and
//! diffs of generated traces stay readable.

use crate::format::GeneratorSpec;
use crate::trace::{TraceOp, TraceRecord};

/// Expand a generator into its trace.
pub fn expand(spec: &GeneratorSpec) -> Vec<TraceRecord> {
    match *spec {
        GeneratorSpec::MoeAllToAll {
            ranks,
            bytes_per_pair,
            steps,
            compute_bytes,
        } => moe_alltoall(ranks, bytes_per_pair, steps, compute_bytes),
        GeneratorSpec::ParamServer {
            ranks,
            server,
            push_bytes,
            pull_bytes,
            steps,
            apply_bytes,
        } => param_server(ranks, server, push_bytes, pull_bytes, steps, apply_bytes),
        GeneratorSpec::Halo {
            grid,
            halo_bytes,
            iters,
            compute_bytes,
        } => halo(grid, halo_bytes, iters, compute_bytes),
        GeneratorSpec::TrainStep {
            ranks,
            params,
            batch_bytes,
            steps,
            compute_passes,
        } => train_step(ranks, params, batch_bytes, steps, compute_passes),
    }
}

fn rec(id: String, op: TraceOp, depends_on: Vec<String>) -> TraceRecord {
    TraceRecord { id, op, depends_on }
}

/// Mixture-of-experts layer: per step, a gating kernel on every rank, a
/// pairwise all-to-all dispatch (round `r` sends `rank -> rank+r mod n`),
/// an expert kernel gated on every incoming shard, and the mirror-image
/// combine all-to-all. Step `s+1`'s gate waits for step `s`'s combine
/// shards to land — the pattern that makes MoE latency-bound on the
/// all-to-all rather than on expert FLOPs.
fn moe_alltoall(
    n: usize,
    bytes_per_pair: u64,
    steps: usize,
    compute_bytes: u64,
) -> Vec<TraceRecord> {
    let gate_bytes = (compute_bytes / 4).max(8);
    let mut out = Vec::new();
    for s in 0..steps {
        for r in 0..n {
            // Gate waits on last step's combine shards arriving here.
            let deps = if s == 0 {
                Vec::new()
            } else {
                (1..n)
                    .map(|round| {
                        let src = (r + n - round % n) % n;
                        format!("s{:02}.comb{round:02}.r{src}", s - 1)
                    })
                    .collect()
            };
            out.push(rec(
                format!("s{s:02}.gate.r{r}"),
                TraceOp::Kernel {
                    gcd: r as u8,
                    bytes: gate_bytes,
                },
                deps,
            ));
        }
        for round in 1..n {
            for src in 0..n {
                out.push(rec(
                    format!("s{s:02}.disp{round:02}.r{src}"),
                    TraceOp::Copy {
                        src: src as u8,
                        dst: ((src + round) % n) as u8,
                        bytes: bytes_per_pair,
                    },
                    vec![format!("s{s:02}.gate.r{src}")],
                ));
            }
        }
        for r in 0..n {
            // Expert waits on every shard dispatched to this rank.
            let deps = (1..n)
                .map(|round| {
                    let src = (r + n - round % n) % n;
                    format!("s{s:02}.disp{round:02}.r{src}")
                })
                .collect();
            out.push(rec(
                format!("s{s:02}.expert.r{r}"),
                TraceOp::Kernel {
                    gcd: r as u8,
                    bytes: compute_bytes,
                },
                deps,
            ));
        }
        for round in 1..n {
            for src in 0..n {
                out.push(rec(
                    format!("s{s:02}.comb{round:02}.r{src}"),
                    TraceOp::Copy {
                        src: src as u8,
                        dst: ((src + round) % n) as u8,
                        bytes: bytes_per_pair,
                    },
                    vec![format!("s{s:02}.expert.r{src}")],
                ));
            }
        }
    }
    out
}

/// Parameter-server push/pull: every worker pushes gradients to the
/// server rank, an apply kernel folds them in, workers pull fresh
/// parameters. The server's ingress link is the deliberate hotspot.
fn param_server(
    n: usize,
    server: usize,
    push_bytes: u64,
    pull_bytes: u64,
    steps: usize,
    apply_bytes: u64,
) -> Vec<TraceRecord> {
    let workers: Vec<usize> = (0..n).filter(|&r| r != server).collect();
    let mut out = Vec::new();
    for s in 0..steps {
        for &w in &workers {
            let deps = if s == 0 {
                Vec::new()
            } else {
                vec![format!("s{:02}.pull.r{w}", s - 1)]
            };
            out.push(rec(
                format!("s{s:02}.push.r{w}"),
                TraceOp::Copy {
                    src: w as u8,
                    dst: server as u8,
                    bytes: push_bytes,
                },
                deps,
            ));
        }
        out.push(rec(
            format!("s{s:02}.apply"),
            TraceOp::Kernel {
                gcd: server as u8,
                bytes: apply_bytes,
            },
            workers
                .iter()
                .map(|w| format!("s{s:02}.push.r{w}"))
                .collect(),
        ));
        for &w in &workers {
            out.push(rec(
                format!("s{s:02}.pull.r{w}"),
                TraceOp::Copy {
                    src: server as u8,
                    dst: w as u8,
                    bytes: pull_bytes,
                },
                vec![format!("s{s:02}.apply")],
            ));
        }
    }
    out
}

/// 2-D halo exchange on a `gx x gy` rank grid, row-major on devices,
/// 4-neighborhood, non-periodic: each iteration computes, then trades
/// halos with direct neighbors; the next compute waits on the halos
/// arriving. The canonical stencil overlap pattern at node scale.
fn halo(
    grid: (usize, usize),
    halo_bytes: u64,
    iters: usize,
    compute_bytes: u64,
) -> Vec<TraceRecord> {
    let (gx, gy) = grid;
    let rank = |x: usize, y: usize| y * gx + x;
    let neighbors = |x: usize, y: usize| {
        let mut v = Vec::new();
        if x > 0 {
            v.push(rank(x - 1, y));
        }
        if x + 1 < gx {
            v.push(rank(x + 1, y));
        }
        if y > 0 {
            v.push(rank(x, y - 1));
        }
        if y + 1 < gy {
            v.push(rank(x, y + 1));
        }
        v
    };
    let mut out = Vec::new();
    for it in 0..iters {
        for y in 0..gy {
            for x in 0..gx {
                let r = rank(x, y);
                // Compute waits for last iteration's halos to arrive.
                let deps = if it == 0 {
                    Vec::new()
                } else {
                    neighbors(x, y)
                        .into_iter()
                        .map(|nb| format!("i{:02}.halo.r{nb}.to{r}", it - 1))
                        .collect()
                };
                out.push(rec(
                    format!("i{it:02}.comp.r{r}"),
                    TraceOp::Kernel {
                        gcd: r as u8,
                        bytes: compute_bytes,
                    },
                    deps,
                ));
            }
        }
        for y in 0..gy {
            for x in 0..gx {
                let r = rank(x, y);
                for nb in neighbors(x, y) {
                    out.push(rec(
                        format!("i{it:02}.halo.r{r}.to{nb}"),
                        TraceOp::Copy {
                            src: r as u8,
                            dst: nb as u8,
                            bytes: halo_bytes,
                        },
                        vec![format!("i{it:02}.comp.r{r}")],
                    ));
                }
            }
        }
    }
    out
}

/// Data-parallel training-step replay. Per step and rank: ingest the
/// batch, run `compute_passes` forward+backward passes (a STREAM copy plus
/// a STREAM triad each, 5 f32 accesses per parameter), the `2(n-1)`-round
/// ring AllReduce of the gradients (rank `r` sends `1/n` of them to
/// `r+1 mod n` each round), and an optimizer triad. A rank forwards in
/// round `r` the chunk it received in round `r-1`; the next step's ingest
/// waits for the rank's optimizer.
fn train_step(
    n: usize,
    params: usize,
    batch_bytes: u64,
    steps: usize,
    compute_passes: usize,
) -> Vec<TraceRecord> {
    let param_bytes = params as u64 * 4;
    let chunk = (param_bytes / n as u64).max(1);
    let rounds = 2 * (n - 1);
    let mut out = Vec::new();
    for s in 0..steps {
        for r in 0..n {
            let deps = if s == 0 {
                Vec::new()
            } else {
                vec![format!("s{:02}.opt.r{r}", s - 1)]
            };
            out.push(rec(
                format!("s{s:02}.in.r{r}"),
                TraceOp::H2D {
                    dst: r as u8,
                    bytes: batch_bytes,
                },
                deps,
            ));
        }
        for r in 0..n {
            out.push(rec(
                format!("s{s:02}.fb.r{r}"),
                TraceOp::Kernel {
                    gcd: r as u8,
                    bytes: 5 * param_bytes * compute_passes as u64,
                },
                vec![format!("s{s:02}.in.r{r}")],
            ));
        }
        for round in 0..rounds {
            for src in 0..n {
                let dep = if round == 0 {
                    format!("s{s:02}.fb.r{src}")
                } else {
                    // Forward the chunk that arrived last round from the
                    // ring predecessor.
                    format!("s{s:02}.ring{:02}.r{}", round - 1, (src + n - 1) % n)
                };
                out.push(rec(
                    format!("s{s:02}.ring{round:02}.r{src}"),
                    TraceOp::Copy {
                        src: src as u8,
                        dst: ((src + 1) % n) as u8,
                        bytes: chunk,
                    },
                    vec![dep],
                ));
            }
        }
        for r in 0..n {
            // The last chunk lands here from the ring predecessor.
            out.push(rec(
                format!("s{s:02}.opt.r{r}"),
                TraceOp::Kernel {
                    gcd: r as u8,
                    bytes: 3 * param_bytes,
                },
                vec![format!(
                    "s{s:02}.ring{:02}.r{}",
                    rounds - 1,
                    (r + n - 1) % n
                )],
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace;
    use ifsim_hip::{EnvConfig, HipSim};

    fn all_specs() -> Vec<GeneratorSpec> {
        vec![
            GeneratorSpec::MoeAllToAll {
                ranks: 4,
                bytes_per_pair: 1 << 20,
                steps: 2,
                compute_bytes: 4 << 20,
            },
            GeneratorSpec::ParamServer {
                ranks: 4,
                server: 0,
                push_bytes: 2 << 20,
                pull_bytes: 2 << 20,
                steps: 2,
                apply_bytes: 4 << 20,
            },
            GeneratorSpec::Halo {
                grid: (2, 2),
                halo_bytes: 1 << 20,
                iters: 2,
                compute_bytes: 4 << 20,
            },
            GeneratorSpec::TrainStep {
                ranks: 4,
                params: (4 << 20) / 4,
                batch_bytes: 4 << 20,
                steps: 2,
                compute_passes: 1,
            },
        ]
    }

    #[test]
    fn every_generator_expands_to_a_valid_trace_that_replays() {
        for spec in all_specs() {
            let records = expand(&spec);
            trace::ReplayPlan::new(&records, 8)
                .unwrap_or_else(|e| panic!("{}: {e}", spec.kind_name()));
            let mut hip = HipSim::new(EnvConfig::default());
            hip.mem_mut().set_phantom_threshold(0);
            let stats = trace::replay(&mut hip, &records)
                .unwrap_or_else(|e| panic!("{}: {e:?}", spec.kind_name()));
            assert!(stats.makespan.as_us() > 0.0, "{}", spec.kind_name());
        }
    }

    #[test]
    fn moe_alltoall_moves_the_expected_bytes() {
        let n = 4u64;
        let records = expand(&GeneratorSpec::MoeAllToAll {
            ranks: n as usize,
            bytes_per_pair: 1 << 20,
            steps: 3,
            compute_bytes: 4 << 20,
        });
        let copy_bytes: u64 = records
            .iter()
            .filter_map(|r| match r.op {
                TraceOp::Copy { bytes, .. } => Some(bytes),
                _ => None,
            })
            .sum();
        // Dispatch + combine: 2 all-to-alls of n*(n-1) pairwise shards.
        assert_eq!(copy_bytes, 3 * 2 * n * (n - 1) * (1 << 20));
    }

    #[test]
    fn steps_serialize_through_the_dependency_chain() {
        // In the param-server trace, step 1's pushes must depend on step
        // 0's pulls — no cross-step parallelism.
        let records = expand(&GeneratorSpec::ParamServer {
            ranks: 3,
            server: 1,
            push_bytes: 1 << 20,
            pull_bytes: 1 << 20,
            steps: 2,
            apply_bytes: 1 << 20,
        });
        let push1 = records.iter().find(|r| r.id == "s01.push.r0").unwrap();
        assert_eq!(push1.depends_on, vec!["s00.pull.r0".to_string()]);
    }

    #[test]
    fn train_step_records_follow_the_ring_allreduce_shape() {
        let n = 4;
        let params = (4 << 20) / 4;
        let records = expand(&GeneratorSpec::TrainStep {
            ranks: n,
            params,
            batch_bytes: 8 << 20,
            steps: 1,
            compute_passes: 20,
        });
        // n ingests + n computes + 2(n-1) ring rounds of n hops + n opts.
        assert_eq!(records.len(), 3 * n + 2 * (n - 1) * n);
        // Ring hops chain successor ranks and move equal chunks summing to
        // one full gradient buffer per reduce+broadcast half.
        let hop_bytes: u64 = records
            .iter()
            .filter_map(|r| match r.op {
                TraceOp::Copy { src, dst, bytes } => {
                    assert_eq!(usize::from(dst), (usize::from(src) + 1) % n);
                    Some(bytes)
                }
                _ => None,
            })
            .sum();
        assert_eq!(hop_bytes, 2 * (n as u64 - 1) * (params as u64 * 4));
    }

    #[test]
    fn train_step_ring_forwards_received_chunks() {
        let records = expand(&GeneratorSpec::TrainStep {
            ranks: 4,
            params: 1 << 20,
            batch_bytes: 1 << 20,
            steps: 1,
            compute_passes: 1,
        });
        let hop = records.iter().find(|r| r.id == "s00.ring01.r2").unwrap();
        // Rank 2 forwards in round 1 what rank 1 sent it in round 0.
        assert_eq!(hop.depends_on, vec!["s00.ring00.r1".to_string()]);
    }
}
