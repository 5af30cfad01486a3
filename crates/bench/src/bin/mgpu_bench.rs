//! `mgpu-bench` — the paper's benchmark tools as one CLI, mirroring the
//! interfaces of the original suites (CommScope, STREAM,
//! p2pBandwidthLatencyTest, OSU micro-benchmarks, RCCL-tests) against the
//! simulated node.
//!
//! ```text
//! mgpu-bench h2d [--size BYTES]          CommScope host-to-device cases
//! mgpu-bench stream [--devices 0,2,4,6]  multi-GCD CPU-GPU STREAM
//! mgpu-bench p2p [--latency|--bandwidth|--bidir]
//! mgpu-bench osu-bw --dst N [--no-sdma]  MPI point-to-point bandwidth
//! mgpu-bench osu-latency --dst N         MPI ping-pong latency
//! mgpu-bench osu-coll --coll allreduce --ranks N [--size BYTES]
//! mgpu-bench rccl --coll allreduce --ranks N [--size BYTES]
//! mgpu-bench doctor [--derate A,B,F]     link health probe
//! ```
//!
//! Global options: `--seed <u64>`, `--reps <n>`, and the telemetry flags
//! `--trace-out <file>` / `--metrics-out <file>` / `--attr-out <file>` /
//! `--attr-json <file>` / `--timeseries-out <file>` / `--critpath-out
//! <file>`, which observe whatever command runs and write the merged
//! Chrome trace-event timeline, the metrics snapshot, the
//! bottleneck-attribution report (markdown / JSON), the flight recorder's
//! link-utilization series as long-format CSV, and the critical-path
//! report reconstructed from captured dependency DAGs (JSON, schema
//! `ifsim-critpath-v1`; see docs/OBSERVABILITY.md). Registry experiments
//! and scenario files run through `repro`.

use ifsim_bench::ArtifactArgs;
use ifsim_core::coll::Collective;
use ifsim_core::des::units::{fmt_bytes, pow2_sweep, GIB, KIB, MIB};
use ifsim_core::hip::{EnvConfig, GcdId};
use ifsim_core::microbench::{
    comm_scope, doctor, osu, p2p_matrix, rccl_tests, report, stream, BenchConfig,
};
use ifsim_core::topology::NodeTopology;
use std::process::ExitCode;

struct Cli {
    cmd: String,
    cfg: BenchConfig,
    size: Option<u64>,
    devices: Vec<usize>,
    dst: usize,
    ranks: usize,
    coll: Collective,
    no_sdma: bool,
    p2p_mode: &'static str,
    derate: Option<(u8, u8, f64)>,
    artifacts: ArtifactArgs,
}

fn usage() -> ! {
    eprintln!(
        "usage: mgpu-bench <h2d|stream|p2p|osu-bw|osu-latency|osu-coll|rccl|doctor> [options]\n\
         run `mgpu-bench <cmd> --help` conventions: --size BYTES --devices LIST --dst N\n\
         --ranks N --coll NAME --no-sdma --latency/--bandwidth/--bidir --derate A,B,F\n\
         --seed U64 --reps N --trace-out FILE --metrics-out FILE\n\
         --attr-out FILE --attr-json FILE --timeseries-out FILE --critpath-out FILE"
    );
    std::process::exit(2)
}

fn fail(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}

fn parse_collective(s: &str) -> Collective {
    match s.to_ascii_lowercase().as_str() {
        "reduce" => Collective::Reduce,
        "broadcast" | "bcast" => Collective::Broadcast,
        "allreduce" => Collective::AllReduce,
        "reducescatter" | "reduce_scatter" => Collective::ReduceScatter,
        "allgather" => Collective::AllGather,
        other => fail(&format!("unknown collective '{other}'")),
    }
}

fn parse() -> Cli {
    let mut args = std::env::args().skip(1);
    let Some(cmd) = args.next() else { usage() };
    let mut cli = Cli {
        cmd,
        cfg: BenchConfig::quick(),
        size: None,
        devices: (0..8).collect(),
        dst: 1,
        ranks: 8,
        coll: Collective::AllReduce,
        no_sdma: false,
        p2p_mode: "bandwidth",
        derate: None,
        artifacts: ArtifactArgs::default(),
    };
    while let Some(a) = args.next() {
        match cli.artifacts.parse_flag(&a, &mut args) {
            Ok(true) => continue,
            Ok(false) => {}
            Err(e) => fail(&e),
        }
        let mut next = |name: &str| {
            args.next()
                .unwrap_or_else(|| fail(&format!("{name} needs a value")))
        };
        match a.as_str() {
            "--size" => cli.size = Some(next("--size").parse().unwrap_or_else(|_| usage())),
            "--seed" => cli.cfg.seed = next("--seed").parse().unwrap_or_else(|_| usage()),
            "--reps" => cli.cfg.reps = next("--reps").parse().unwrap_or_else(|_| usage()),
            "--devices" => {
                cli.devices = next("--devices")
                    .split(',')
                    .map(|d| d.parse().unwrap_or_else(|_| usage()))
                    .collect()
            }
            "--dst" => cli.dst = next("--dst").parse().unwrap_or_else(|_| usage()),
            "--ranks" => cli.ranks = next("--ranks").parse().unwrap_or_else(|_| usage()),
            "--coll" => cli.coll = parse_collective(&next("--coll")),
            "--no-sdma" => cli.no_sdma = true,
            "--latency" => cli.p2p_mode = "latency",
            "--bandwidth" => cli.p2p_mode = "bandwidth",
            "--bidir" => cli.p2p_mode = "bidir",
            "--derate" => {
                let v = next("--derate");
                let parts: Vec<&str> = v.split(',').collect();
                if parts.len() != 3 {
                    usage();
                }
                cli.derate = Some((
                    parts[0].parse().unwrap_or_else(|_| usage()),
                    parts[1].parse().unwrap_or_else(|_| usage()),
                    parts[2].parse().unwrap_or_else(|_| usage()),
                ));
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument {other}");
                usage()
            }
        }
    }
    if cli.artifacts.csv_dir.is_some() {
        fail("--csv writes experiment artifacts; run experiments with `repro`");
    }
    // Range checks against the node, so that a bad value is a usage error
    // that names its flag instead of a panic inside a benchmark.
    let gcds = NodeTopology::frontier().gcds().count();
    if cli.size == Some(0) && cli.cmd != "osu-latency" {
        fail("--size must be at least 1 byte (only osu-latency sends empty messages)");
    }
    if cli.cfg.reps == 0 {
        fail("--reps must be at least 1");
    }
    if !(1..gcds).contains(&cli.dst) {
        fail(&format!(
            "--dst {} is not a peer GCD of GCD0: pick 1..={}",
            cli.dst,
            gcds - 1
        ));
    }
    if !(2..=gcds).contains(&cli.ranks) {
        fail(&format!("--ranks {} outside 2..={gcds}", cli.ranks));
    }
    if let Some(d) = cli.devices.iter().find(|&&d| d >= gcds) {
        fail(&format!(
            "--devices names GCD {d}; the node has GCDs 0..={}",
            gcds - 1
        ));
    }
    cli
}

fn main() -> ExitCode {
    let cli = parse();
    // With a telemetry artifact requested, every runtime the dispatched
    // command constructs self-observes and feeds this collector; the
    // critical-path report additionally needs causal DAG capture on.
    let collector = cli.artifacts.capture().install();
    let code = dispatch(&cli);
    if let Some(collector) = collector {
        if let Err(e) = cli.artifacts.write_all(&collector.take()) {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    }
    code
}

fn dispatch(cli: &Cli) -> ExitCode {
    match cli.cmd.as_str() {
        "h2d" => {
            let sizes = match cli.size {
                Some(s) => vec![s],
                None => pow2_sweep(4 * KIB, GIB),
            };
            let series = comm_scope::h2d_all_interfaces(&cli.cfg, &sizes);
            print!(
                "{}",
                report::render_series_table(
                    "# CommScope-style host-to-device bandwidth",
                    "size",
                    &series
                )
            );
        }
        "stream" => {
            let bytes = cli.size.unwrap_or(64 * MIB);
            let bw = stream::multi_gpu_host_stream(&cli.cfg, &cli.devices, bytes);
            println!(
                "# multi-GCD CPU-GPU STREAM, {} per buffer, devices {:?}",
                fmt_bytes(bytes),
                cli.devices
            );
            println!("total bidirectional bandwidth: {bw:.1} GB/s");
            println!(
                "theoretical: {:.1} GB/s ({:.1} %)",
                cli.devices.len() as f64 * 72.0,
                100.0 * bw / (cli.devices.len() as f64 * 72.0)
            );
        }
        "p2p" => match cli.p2p_mode {
            "latency" => print!("{}", p2p_matrix::latency_matrix(&cli.cfg).render()),
            "bidir" => print!(
                "{}",
                p2p_matrix::bandwidth_matrix_bidir(&cli.cfg, cli.size.unwrap_or(128 * MIB))
                    .render()
            ),
            _ => print!(
                "{}",
                p2p_matrix::bandwidth_matrix(&cli.cfg, cli.size.unwrap_or(256 * MIB)).render()
            ),
        },
        "osu-bw" => {
            let bytes = cli.size.unwrap_or(GIB);
            let bw = osu::osu_p2p_bw(&cli.cfg, cli.dst, bytes, !cli.no_sdma);
            println!("# OSU-style MPI bandwidth, GCD0 -> GCD{}", cli.dst);
            println!("{:>12} {:>14}", "Size", "Bandwidth (GB/s)");
            println!("{:>12} {bw:>14.2}", fmt_bytes(bytes));
        }
        "osu-latency" => {
            let bytes = cli.size.unwrap_or(8);
            let us = osu::osu_p2p_latency(&cli.cfg, cli.dst, bytes);
            println!("# OSU-style MPI latency, GCD0 <-> GCD{}", cli.dst);
            println!("{:>12} {:>14}", "Size", "Latency (us)");
            println!("{:>12} {us:>14.2}", fmt_bytes(bytes));
        }
        "osu-coll" => {
            let bytes = cli.size.unwrap_or(MIB);
            let us = osu::mpi_collective_latency(&cli.cfg, cli.coll, cli.ranks, bytes);
            println!(
                "# OSU-style MPI {} latency, {} ranks, {}",
                cli.coll.name(),
                cli.ranks,
                fmt_bytes(bytes)
            );
            println!("Avg Latency (us): {us:.2}");
        }
        "rccl" => {
            let bytes = cli.size.unwrap_or(MIB);
            let us = rccl_tests::rccl_collective_latency(&cli.cfg, cli.coll, cli.ranks, bytes);
            println!(
                "# rccl-tests-style {} latency, {} GPUs, {}",
                cli.coll.name(),
                cli.ranks,
                fmt_bytes(bytes)
            );
            println!("time (us): {us:.2}");
        }
        "doctor" => {
            let mut hip = cli.cfg.runtime(EnvConfig::default());
            if let Some((a, b, f)) = cli.derate {
                println!("injected fault: GCD{a}-GCD{b} at {:.0} %\n", f * 100.0);
                if let Err(e) = hip.derate_xgmi_link(GcdId(a), GcdId(b), f) {
                    eprintln!("cannot derate: {e}");
                    return ExitCode::from(2);
                }
            }
            let health = doctor::probe_links(&mut hip, cli.size.unwrap_or(64 * MIB));
            print!("{}", doctor::render_report(&health, 0.1));
            if health.iter().any(|h| !h.healthy(0.1)) {
                return ExitCode::FAILURE;
            }
        }
        _ => usage(),
    }
    ExitCode::SUCCESS
}
