//! `ifsim-loadgen` — closed-loop load generator for `ifsim-serve`.
//!
//! ```text
//! ifsim-loadgen (--socket PATH | --tcp HOST:PORT) [OPTIONS]
//!
//!   --concurrency K    closed-loop worker connections (default 8)
//!   --requests N       total requests in the mix (default 100)
//!   --seed U64         mix seed (default 0xC0FFEE); the same seed
//!                      replays byte-for-byte the same request sequence,
//!                      so a second run exercises the server's cache
//!   --retries N        max retries per request on Overloaded, with
//!                      seeded decorrelated-jitter backoff (default 50)
//!   --stats-interval SECS
//!                      print a live progress line every SECS seconds
//!                      while the run is in flight (fractional ok)
//!   --out FILE         write a machine-readable JSON summary
//!                      (schema ifsim-loadgen-v1) at the end of the run
//! ```
//!
//! The mix draws uniformly (seeded SplitMix64) from a pool of cheap
//! registry experiments crossed with a handful of jitter seeds — the
//! paper-sweep shape: many repeated configurations. Reports throughput
//! and latency percentiles via the simulator's own `Summary` machinery,
//! plus the observed cache hit rate. Exit code 0 when every request
//! eventually succeeded.

use ifsim_core::des::{Rng, Summary};
use ifsim_core::telemetry::json::{self, Value};
use ifsim_serve::proto::RunRequest;
use ifsim_serve::{ClientAddr, Connection, Status};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Cheap, check-clean experiments for the request mix. Crossed with
/// `SEED_POOL` this gives 20 distinct cache keys per mix seed.
const EXPERIMENT_POOL: &[&str] = &["fig1", "table1", "table2", "fig6a"];
const SEED_POOL: &[u64] = &[11, 22, 33, 44, 55];

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: ifsim-loadgen (--socket PATH | --tcp HOST:PORT) \
         [--concurrency K] [--requests N] [--seed U64] [--retries N] \
         [--stats-interval SECS] [--out FILE]"
    );
    std::process::exit(2)
}

struct Args {
    addr: ClientAddr,
    concurrency: usize,
    requests: usize,
    seed: u64,
    retries: usize,
    stats_interval: Option<Duration>,
    out: Option<PathBuf>,
}

fn parse_args() -> Args {
    let mut addr: Option<ClientAddr> = None;
    let mut args = Args {
        addr: ClientAddr::Tcp(String::new()), // placeholder, replaced below
        concurrency: 8,
        requests: 100,
        seed: 0xC0FFEE,
        retries: 50,
        stats_interval: None,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut next = |name: &str| {
            it.next()
                .unwrap_or_else(|| usage(&format!("{name} needs a value")))
        };
        match a.as_str() {
            "--socket" => {
                let path = next("--socket");
                #[cfg(unix)]
                {
                    addr = Some(ClientAddr::Unix(PathBuf::from(path)));
                }
                #[cfg(not(unix))]
                {
                    let _ = path;
                    usage("--socket requires a Unix platform; use --tcp");
                }
            }
            "--tcp" => addr = Some(ClientAddr::Tcp(next("--tcp"))),
            "--concurrency" => {
                args.concurrency = next("--concurrency")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --concurrency value"));
                if args.concurrency == 0 {
                    usage("--concurrency must be at least 1");
                }
            }
            "--requests" => {
                args.requests = next("--requests")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --requests value"));
            }
            "--seed" => {
                args.seed = next("--seed")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --seed value"));
            }
            "--retries" => {
                args.retries = next("--retries")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --retries value"));
            }
            "--stats-interval" => {
                let secs: f64 = next("--stats-interval")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --stats-interval value"));
                if !(secs > 0.0 && secs.is_finite()) {
                    usage("--stats-interval must be a positive number of seconds");
                }
                args.stats_interval = Some(Duration::from_secs_f64(secs));
            }
            "--out" => args.out = Some(PathBuf::from(next("--out"))),
            "--help" | "-h" => usage("help requested"),
            other => usage(&format!("unknown option {other}")),
        }
    }
    match addr {
        Some(a) => args.addr = a,
        None => usage("one of --socket or --tcp is required"),
    }
    args
}

/// Backoff bounds for Overloaded retries (decorrelated jitter).
const BACKOFF_BASE_MS: u64 = 2;
const BACKOFF_CAP_MS: u64 = 250;

/// Decorrelated-jitter backoff (the AWS recipe): the next sleep is drawn
/// uniformly from `[base, min(cap, prev * 3))`. Seeded through the
/// worker's own SplitMix64 stream, so a fixed `--seed` replays the exact
/// same backoff schedule — load tests stay reproducible — while
/// concurrent workers still decorrelate instead of thundering back in
/// lockstep the way the old `5ms * attempt` linear ramp did.
fn next_backoff_ms(rng: &mut Rng, prev_ms: u64) -> u64 {
    let hi = prev_ms
        .saturating_mul(3)
        .clamp(BACKOFF_BASE_MS + 1, BACKOFF_CAP_MS);
    BACKOFF_BASE_MS + rng.next_u64() % (hi - BACKOFF_BASE_MS)
}

/// The seeded request mix: `n` quick single-rep runs drawn from the
/// experiment × seed pools.
fn build_mix(seed: u64, n: usize) -> Vec<RunRequest> {
    let mut rng = Rng::new(seed);
    (0..n)
        .map(|_| {
            let exp = EXPERIMENT_POOL[(rng.next_u64() % EXPERIMENT_POOL.len() as u64) as usize];
            let jitter_seed = SEED_POOL[(rng.next_u64() % SEED_POOL.len() as u64) as usize];
            let mut req = RunRequest::new(exp);
            req.overrides.quick = true;
            req.overrides.reps = Some(1);
            req.overrides.seed = Some(jitter_seed);
            req
        })
        .collect()
}

/// One request's outcome, reported back to the aggregator.
struct Outcome {
    latency_ns: f64,
    cached: bool,
    overloaded_retries: usize,
    /// Final wire response code (0 for transport errors).
    code: u64,
    error: Option<String>,
}

fn main() -> ExitCode {
    let args = parse_args();
    let mix = Arc::new(build_mix(args.seed, args.requests));
    println!(
        "ifsim-loadgen: {} requests over {} distinct configs, concurrency {}, mix seed {:#x}",
        mix.len(),
        EXPERIMENT_POOL.len() * SEED_POOL.len(),
        args.concurrency,
        args.seed
    );

    let cursor = Arc::new(AtomicUsize::new(0));
    let (tx, rx) = mpsc::channel::<Outcome>();
    let t0 = Instant::now();
    let mut workers = Vec::new();
    for worker in 0..args.concurrency {
        let mix = Arc::clone(&mix);
        let cursor = Arc::clone(&cursor);
        let tx = tx.clone();
        let addr = args.addr.clone();
        let retries = args.retries;
        // Per-worker jitter stream: derived from the mix seed so runs
        // replay deterministically, distinct per worker so they don't
        // share a backoff schedule.
        let mut rng = Rng::new(args.seed ^ (worker as u64).wrapping_mul(0x9E3779B97F4A7C15));
        workers.push(std::thread::spawn(move || {
            let mut conn = match Connection::connect(&addr) {
                Ok(c) => c,
                Err(e) => {
                    let _ = tx.send(Outcome {
                        latency_ns: 0.0,
                        cached: false,
                        overloaded_retries: 0,
                        code: 0,
                        error: Some(format!("cannot connect: {e}")),
                    });
                    return;
                }
            };
            loop {
                let i = cursor.fetch_add(1, Ordering::SeqCst);
                let Some(req) = mix.get(i) else {
                    return;
                };
                let _ = tx.send(drive_one(&mut conn, req, retries, &mut rng));
            }
        }));
    }
    drop(tx);

    let mut latencies = Vec::with_capacity(mix.len());
    let mut cached = 0usize;
    let mut overloaded_retries = 0usize;
    let mut errors = Vec::new();
    let mut codes: BTreeMap<u64, usize> = BTreeMap::new();
    // Live progress: tick every --stats-interval while outcomes stream
    // in; without the flag the timeout is effectively "wait for work".
    let mut finished = 0usize;
    let mut tick_done = 0usize;
    let mut tick_at = Instant::now();
    loop {
        let timeout = args
            .stats_interval
            .map(|iv| iv.saturating_sub(tick_at.elapsed()))
            .unwrap_or(Duration::from_secs(3600));
        let outcome = match rx.recv_timeout(timeout) {
            Ok(o) => Some(o),
            Err(mpsc::RecvTimeoutError::Timeout) => None,
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        };
        if let Some(outcome) = outcome {
            finished += 1;
            overloaded_retries += outcome.overloaded_retries;
            *codes.entry(outcome.code).or_insert(0) += 1;
            match outcome.error {
                Some(e) => errors.push(e),
                None => {
                    latencies.push(outcome.latency_ns);
                    if outcome.cached {
                        cached += 1;
                    }
                }
            }
        }
        if let Some(iv) = args.stats_interval {
            if tick_at.elapsed() >= iv {
                let rate = (finished - tick_done) as f64 / tick_at.elapsed().as_secs_f64();
                println!(
                    "[{:6.1}s] {finished}/{} done · {rate:.1} req/s · \
                     {cached} cached · {overloaded_retries} overload retries · {} errors",
                    t0.elapsed().as_secs_f64(),
                    mix.len(),
                    errors.len()
                );
                tick_done = finished;
                tick_at = Instant::now();
            }
        }
    }
    for w in workers {
        let _ = w.join();
    }
    let wall = t0.elapsed();

    if latencies.is_empty() {
        eprintln!("no request succeeded; first error: {:?}", errors.first());
        return ExitCode::FAILURE;
    }
    let summary = Summary::from_samples(&latencies);
    let done = latencies.len();
    println!(
        "completed {done}/{} ok ({cached} cache hits, hit rate {:.1}%) \
         with {overloaded_retries} overloaded retries, {} errors",
        mix.len(),
        100.0 * cached as f64 / done as f64,
        errors.len()
    );
    println!(
        "wall {:.2}s · throughput {:.1} req/s",
        wall.as_secs_f64(),
        done as f64 / wall.as_secs_f64()
    );
    let ms = 1e6;
    println!(
        "latency ms: p50 {:.2} · p95 {:.2} · p99 {:.2} · max {:.2}",
        summary.median / ms,
        summary.p95 / ms,
        summary.p99 / ms,
        summary.max / ms
    );
    for e in errors.iter().take(3) {
        eprintln!("error: {e}");
    }
    if let Some(path) = &args.out {
        let doc = summary_json(
            &args,
            &summary,
            done,
            cached,
            overloaded_retries,
            &codes,
            &errors,
            wall,
        );
        if let Err(e) = std::fs::write(path, json::to_string_pretty(&doc)) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("summary written to {}", path.display());
    }
    if errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The `--out` document (schema `ifsim-loadgen-v1`): run parameters,
/// totals, a per-code breakdown, and latency percentiles in nanoseconds.
#[allow(clippy::too_many_arguments)]
fn summary_json(
    args: &Args,
    summary: &Summary,
    done: usize,
    cached: usize,
    overloaded_retries: usize,
    codes: &BTreeMap<u64, usize>,
    errors: &[String],
    wall: Duration,
) -> Value {
    let mut params = json::Map::new();
    params.insert("concurrency", Value::from(args.concurrency));
    params.insert("requests", Value::from(args.requests));
    // Full-range u64 travels as a decimal string, like the wire protocol.
    params.insert("seed", Value::from(args.seed.to_string()));
    params.insert("retries", Value::from(args.retries));
    let mut latency = json::Map::new();
    latency.insert("p50_ns", Value::from(summary.median));
    latency.insert("p95_ns", Value::from(summary.p95));
    latency.insert("p99_ns", Value::from(summary.p99));
    latency.insert("max_ns", Value::from(summary.max));
    latency.insert("mean_ns", Value::from(summary.mean));
    let mut by_code = json::Map::new();
    for (code, n) in codes {
        by_code.insert(code.to_string(), Value::from(*n));
    }
    let mut m = json::Map::new();
    m.insert("schema", Value::from("ifsim-loadgen-v1"));
    m.insert("params", Value::Object(params));
    m.insert("completed", Value::from(done));
    m.insert("cached", Value::from(cached));
    m.insert(
        "cache_hit_rate",
        Value::from(cached as f64 / done.max(1) as f64),
    );
    m.insert("overloaded_retries", Value::from(overloaded_retries));
    m.insert("errors", Value::from(errors.len()));
    m.insert("codes", Value::Object(by_code));
    m.insert("wall_seconds", Value::from(wall.as_secs_f64()));
    m.insert(
        "throughput_rps",
        Value::from(done as f64 / wall.as_secs_f64().max(1e-9)),
    );
    m.insert("latency", Value::Object(latency));
    Value::Object(m)
}

/// Issue one request, retrying Overloaded answers with seeded
/// decorrelated-jitter backoff.
fn drive_one(conn: &mut Connection, req: &RunRequest, retries: usize, rng: &mut Rng) -> Outcome {
    let mut overloaded_retries = 0usize;
    let mut backoff_ms = BACKOFF_BASE_MS;
    let t0 = Instant::now();
    loop {
        match conn.run(req) {
            Ok(resp) if resp.status == Status::Ok => {
                return Outcome {
                    latency_ns: t0.elapsed().as_nanos() as f64,
                    cached: resp.cached,
                    overloaded_retries,
                    code: resp.status.code(),
                    error: None,
                };
            }
            Ok(resp) if resp.status == Status::Overloaded => {
                if overloaded_retries >= retries {
                    return Outcome {
                        latency_ns: 0.0,
                        cached: false,
                        overloaded_retries,
                        code: resp.status.code(),
                        error: Some(format!(
                            "{}: still overloaded after {retries} retries",
                            req.experiment_id
                        )),
                    };
                }
                overloaded_retries += 1;
                backoff_ms = next_backoff_ms(rng, backoff_ms);
                std::thread::sleep(Duration::from_millis(backoff_ms));
            }
            Ok(resp) => {
                return Outcome {
                    latency_ns: 0.0,
                    cached: false,
                    overloaded_retries,
                    code: resp.status.code(),
                    error: Some(format!(
                        "{}: {} ({}): {}",
                        req.experiment_id,
                        resp.status.as_str(),
                        resp.status.code(),
                        resp.error.unwrap_or_default()
                    )),
                };
            }
            Err(e) => {
                return Outcome {
                    latency_ns: 0.0,
                    cached: false,
                    overloaded_retries,
                    code: 0,
                    error: Some(format!("{}: transport: {e}", req.experiment_id)),
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_bounded_and_seed_deterministic() {
        let mut a = Rng::new(0xC0FFEE);
        let mut b = Rng::new(0xC0FFEE);
        let mut prev_a = BACKOFF_BASE_MS;
        let mut prev_b = BACKOFF_BASE_MS;
        for _ in 0..1000 {
            prev_a = next_backoff_ms(&mut a, prev_a);
            prev_b = next_backoff_ms(&mut b, prev_b);
            assert_eq!(prev_a, prev_b, "same seed, same schedule");
            assert!((BACKOFF_BASE_MS..BACKOFF_CAP_MS).contains(&prev_a));
        }
        let mut c = Rng::new(0xDEADBEEF);
        let schedule_c: Vec<u64> = (0..8)
            .scan(BACKOFF_BASE_MS, |p, _| {
                *p = next_backoff_ms(&mut c, *p);
                Some(*p)
            })
            .collect();
        let mut a = Rng::new(0xC0FFEE);
        let schedule_a: Vec<u64> = (0..8)
            .scan(BACKOFF_BASE_MS, |p, _| {
                *p = next_backoff_ms(&mut a, *p);
                Some(*p)
            })
            .collect();
        assert_ne!(schedule_a, schedule_c, "different seeds decorrelate");
    }

    #[test]
    fn mix_is_seed_deterministic() {
        let a = build_mix(7, 32);
        let b = build_mix(7, 32);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x, y);
        }
        let c = build_mix(8, 32);
        assert!(a.iter().zip(&c).any(|(x, y)| x != y));
    }
}
