//! `serve-mixed`: an in-process `ServerCore` driven through `handle_line`
//! by closed-loop clients — each sends its next request only after the
//! previous reply, so a slower server receives less load.
//!
//! Keys are the 24 registry ids at 16 jitter seeds (384 keys, more than
//! the 256-entry cache holds), quick with one rep, drawn with a u²-skew
//! from a seeded SplitMix64: popular keys hit, the long tail misses and
//! evicts. Every tenth request uploads a golden scenario inline, so
//! scenario parsing and compiling sit on the request path.

use crate::calib::{Calibrator, Timeline};
use crate::layers::{self, Counts, Layer};
use crate::spans::Spans;
use crate::stats::{median, tail};
use crate::Outcome;
use ifsim_core::experiment::digest_kv;
use ifsim_core::{registry, Experiment};
use ifsim_serve::{RunRequest, RunResponse, ServeOptions, ServerCore, Status};
use serde_json::Value;
use std::borrow::Cow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

/// Closed-loop client threads; the box has two cores.
const CLIENTS: usize = 2;
/// Server worker threads computing misses.
const WORKERS: usize = 2;
/// Jitter seeds crossed with the registry ids.
const SEED_SLOTS: usize = 16;
/// Every this many requests, one uploads a scenario inline.
const SCENARIO_EVERY: u64 = 10;
/// Untimed requests per client that fill the cache before timing.
const WARMUP_PER_CLIENT: usize = 600;
/// How often each client times the calibration kernel while timed.
const CAL_EVERY: Duration = Duration::from_millis(25);
/// How near a request the kernel timings count. A narrower window follows
/// the host's speed more closely but rests on fewer timings; at ±5 s the
/// median request repeated best across runs on the reference host.
const CAL_WINDOW: Duration = Duration::from_secs(5);
/// Golden scenarios uploaded inline, from `golden/scenarios/`.
const INLINE_SCENARIOS: [&str; 2] = ["moe-alltoall", "halo-faulted"];

/// SplitMix64: the generator the simulator's jitter model uses.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// The request keys of one seed: registry ids × jitter seeds, then the
/// inline scenarios. Key `slot * ids + i` is registry id `i` at seed
/// `slot`, so the popular low keys span every id.
pub struct Mix {
    requests: Vec<RunRequest>,
    lines: Vec<String>,
    n_ids: usize,
    n_registry: usize,
}

impl Mix {
    /// Build the keys for `seed` over `ids`, plus one inline request per
    /// scenario document.
    pub fn build(seed: u64, ids: &[&str], scenarios: &[Value]) -> Mix {
        let mut state = seed;
        let seeds: Vec<u64> = (0..SEED_SLOTS).map(|_| splitmix64(&mut state)).collect();
        let request = |id: &str, seed: u64| {
            let mut req = RunRequest::new(id);
            req.overrides.quick = true;
            req.overrides.reps = Some(1);
            req.overrides.seed = Some(seed);
            req
        };
        let mut requests: Vec<RunRequest> = seeds
            .iter()
            .flat_map(|&s| ids.iter().map(move |id| (*id, s)))
            .map(|(id, s)| request(id, s))
            .collect();
        for doc in scenarios {
            let mut req = request("", seeds[0]);
            req.scenario = Some(doc.clone());
            requests.push(req);
        }
        // A fixed trace id per key keeps every reply to one key
        // byte-identical apart from its `cached` flag.
        for (k, req) in requests.iter_mut().enumerate() {
            req.trace_id = Some(format!("k{k}"));
        }
        let lines = requests
            .iter()
            .map(|r| serde_json::to_string(&r.to_json()))
            .collect();
        Mix {
            requests,
            lines,
            n_ids: ids.len(),
            n_registry: ids.len() * SEED_SLOTS,
        }
    }

    /// The unit of work behind key `k`: its registry id's index, or
    /// `ids + j` for inline scenario `j`.
    fn unit_of(&self, k: usize) -> usize {
        if k < self.n_registry {
            k % self.n_ids
        } else {
            self.n_ids + k - self.n_registry
        }
    }
}

/// One client's seeded key sequence.
pub struct Stream {
    state: u64,
    n: u64,
}

impl Stream {
    /// Client `client`'s sequence for `seed`.
    pub fn new(seed: u64, client: usize) -> Stream {
        Stream {
            state: seed ^ (client as u64 + 1).wrapping_mul(0xD1B54A32D192ED03),
            n: 0,
        }
    }

    /// The next key.
    pub fn next(&mut self, mix: &Mix) -> usize {
        self.n += 1;
        let n_scenarios = (mix.requests.len() - mix.n_registry) as u64;
        if n_scenarios > 0 && self.n.is_multiple_of(SCENARIO_EVERY) {
            return mix.n_registry + ((self.n / SCENARIO_EVERY) % n_scenarios) as usize;
        }
        let u = (splitmix64(&mut self.state) >> 11) as f64 / (1u64 << 53) as f64;
        ((u * u * mix.n_registry as f64) as usize).min(mix.n_registry - 1)
    }
}

/// Whether `pat` occurs in the reply's envelope, which precedes the
/// report and CSV payload.
fn envelope_has(resp: &str, pat: &str) -> bool {
    let head = &resp.as_bytes()[..resp.len().min(512)];
    head.windows(pat.len()).any(|w| w == pat.as_bytes())
}

/// Checks every reply against the first reply to its key, ignoring only
/// the `cached` flag; the first replies of the reference keys were
/// themselves checked against direct runs.
struct Checker {
    first: Vec<Mutex<Option<String>>>,
}

impl Checker {
    /// Whether the reply is ok and consistent, and whether it was a hit.
    fn check(&self, k: usize, resp: &str) -> (bool, bool) {
        let hit = envelope_has(resp, "\"cached\":true");
        if !envelope_has(resp, "\"status\":\"ok\"") {
            return (false, hit);
        }
        let norm: Cow<str> = if hit {
            Cow::Borrowed(resp)
        } else {
            Cow::Owned(resp.replacen("\"cached\":false", "\"cached\":true", 1))
        };
        let mut first = self.first[k].lock().expect("no checker thread panics");
        let ok = match first.as_deref() {
            Some(f) => f == norm,
            None => {
                *first = Some(norm.into_owned());
                true
            }
        };
        (ok, hit)
    }
}

/// One answered request.
struct Rec {
    /// When it was sent, in seconds on the clients' clock.
    start: f64,
    s: f64,
    /// `s` in calibration-kernel units (timed requests only).
    units: f64,
    key: usize,
    hit: bool,
    ok: bool,
    bytes: usize,
    overloaded: bool,
    recorded: bool,
}

/// The inline scenario documents, from `golden/scenarios/`.
fn inline_scenarios() -> Result<Vec<Value>, String> {
    INLINE_SCENARIOS
        .iter()
        .map(|name| {
            let path = crate::repo_root()
                .join("golden/scenarios")
                .join(format!("{name}.json"));
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
        })
        .collect()
}

/// The experiment a reference key runs, resolved as the server does.
fn experiment_of(req: &RunRequest) -> Result<Experiment, String> {
    match &req.scenario {
        Some(doc) => ifsim_scenario::Scenario::from_json(doc)
            .and_then(|s| ifsim_scenario::compile(&s))
            .map_err(|e| e.to_string()),
        None => registry::by_id(&req.experiment_id)
            .ok_or_else(|| format!("unknown id {}", req.experiment_id)),
    }
}

/// Whether a reply carries exactly what a direct run of its key produces.
fn matches_direct(resp: &str, req: &RunRequest) -> bool {
    let Ok(cfg) = req.overrides.resolve() else {
        return false;
    };
    let Ok(exp) = experiment_of(req) else {
        return false;
    };
    let Ok(direct) = catch_unwind(AssertUnwindSafe(|| exp.run(&cfg))) else {
        return false;
    };
    let Ok(reply) = serde_json::from_str(resp)
        .map_err(|e| e.to_string())
        .and_then(|v| RunResponse::from_json(&v))
    else {
        return false;
    };
    reply.status == Status::Ok
        && reply.report.as_deref() == Some(direct.report().as_str())
        && reply.csv == direct.csv
}

/// What the client threads share.
struct Clients<'a> {
    core: &'a ServerCore,
    mix: &'a Mix,
    checker: &'a Checker,
    /// The clock request start times are read on.
    origin: Instant,
}

impl Clients<'_> {
    /// Send the stream's next request as a span under `parent` in `sp`.
    fn request(&self, stream: &mut Stream, sp: &mut Spans, parent: u64) -> Rec {
        let key = stream.next(self.mix);
        let start = self.origin.elapsed().as_secs_f64();
        let (resp, s) = sp.span(parent, "request", |_, _| {
            self.core.handle_line(&self.mix.lines[key])
        });
        let (ok, hit) = self.checker.check(key, &resp);
        Rec {
            start,
            s,
            units: 0.0,
            key,
            hit,
            ok,
            bytes: resp.len(),
            overloaded: envelope_has(&resp, "\"status\":\"overloaded\""),
            recorded: sp.recording(),
        }
    }

    /// Send `count` untimed requests.
    fn warm(&self, stream: &mut Stream, count: usize) -> Vec<Rec> {
        let mut quiet = Spans::new(Instant::now(), 0, false);
        (0..count)
            .map(|_| self.request(stream, &mut quiet, 0))
            .collect()
    }

    /// Send requests until `deadline`, recording every other block of
    /// [`SCENARIO_EVERY`] requests when `rec` records — a block holds one
    /// inline scenario, so both halves see the same mix — and timing the
    /// calibration kernel every [`CAL_EVERY`].
    fn timed(
        &self,
        stream: &mut Stream,
        rec: &mut Spans,
        parent: u64,
        deadline: Instant,
        cal: &mut Calibrator,
    ) -> Vec<Rec> {
        let mut quiet = Spans::new(Instant::now(), 0, false);
        let mut out: Vec<Rec> = Vec::new();
        let mut since = Instant::now();
        while Instant::now() < deadline {
            if since.elapsed() >= CAL_EVERY {
                cal.sample();
                since = Instant::now();
            }
            let block = out.len() / SCENARIO_EVERY as usize;
            let record = rec.recording() && block.is_multiple_of(2);
            let sp = if record { &mut *rec } else { &mut quiet };
            out.push(self.request(stream, sp, parent));
        }
        cal.sample();
        out
    }
}

/// Run the mix for `seconds` after the reference check and the warm-up.
pub fn run(seed: u64, seconds: f64, spans: &mut Spans) -> Result<Outcome, String> {
    let opts = ServeOptions {
        workers: WORKERS,
        ..ServeOptions::default()
    };
    let ids = registry::ids();
    let setup = || -> Result<(ServerCore, Mix), String> {
        Ok((
            ServerCore::new(opts.clone()),
            Mix::build(seed, &ids, &inline_scenarios()?),
        ))
    };
    let origin = Instant::now();
    let setups = crate::time_setup(&mut Calibrator::new(origin), setup)?;
    let (core, mix) = setup()?;
    let checker = Checker {
        first: (0..mix.lines.len()).map(|_| Mutex::new(None)).collect(),
    };

    // Reference keys: each registry id at the first seed, and each inline
    // scenario, answered by the server and compared with a direct run.
    let reference: Vec<usize> = (0..mix.n_ids)
        .chain(mix.n_registry..mix.lines.len())
        .collect();
    let mut attempted = reference.len() as u64;
    let mut failed = 0u64;
    let mut digest_pairs = Vec::new();
    for &k in &reference {
        let resp = core.handle_line(&mix.lines[k]);
        let (ok, _) = checker.check(k, &resp);
        if !(ok && matches_direct(&resp, &mix.requests[k])) {
            failed += 1;
            eprintln!("output check: key {k} differs from a direct run");
        }
        digest_pairs.push((
            format!("k{k}"),
            resp.replacen("\"cached\":false", "\"cached\":true", 1),
        ));
    }
    let output_digest = digest_kv(&digest_pairs);

    let traced = spans.recording();
    let mut layer = traced.then(Layer::new);
    let mut prepared = None;
    if let Some(m) = layer.as_mut() {
        let files = crate::batch::scenario_files()?;
        let exps = reference
            .iter()
            .map(|&k| experiment_of(&mix.requests[k]))
            .collect::<Result<Vec<_>, _>>()?;
        let cfg = mix.requests[0]
            .overrides
            .resolve()
            .map_err(|e| e.to_string())?;
        let refs: Vec<&Experiment> = exps.iter().collect();
        let (probes, replay) = spans
            .span(0, "probe", |sp, id| layers::probe(sp, id, &refs, &cfg))
            .0;
        let unit = spans
            .span(0, "unit_costs", |sp, id| {
                layers::unit_costs(sp, id, &files, &replay, m)
            })
            .0;
        prepared = Some((unit, probes));
    }

    // Each client fills the cache, waits for the others, then runs timed.
    let barrier = Barrier::new(CLIENTS + 1);
    let mut window_s = 0.0;
    let clients = Clients {
        core: &core,
        mix: &mix,
        checker: &checker,
        origin,
    };
    let mut per_client: Vec<(Vec<Rec>, Vec<Rec>, Spans, Calibrator)> =
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let (clients, barrier) = (&clients, &barrier);
                    scope.spawn(move || {
                        let mut stream = Stream::new(seed, c);
                        let warm = clients.warm(&mut stream, WARMUP_PER_CLIENT);
                        let mut rec = Spans::new(origin, c as u32 + 1, traced);
                        let mut cal = Calibrator::new(origin);
                        barrier.wait();
                        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
                        let timed = rec
                            .span(0, "client", |sp, id| {
                                clients.timed(&mut stream, sp, id, deadline, &mut cal)
                            })
                            .0;
                        (warm, timed, rec, cal)
                    })
                })
                .collect();
            barrier.wait();
            let t0 = Instant::now();
            let joined = handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect();
            window_s = t0.elapsed().as_secs_f64();
            joined
        });
    // A miss computes on a server worker, on whichever core is free, so
    // every request is divided by the kernel timings of both clients
    // near it.
    let timeline = Timeline::new(per_client.iter().map(|c| &c.3));
    let calibration: Vec<f64> = per_client.iter().flat_map(|c| c.3.timings()).collect();
    let mut timed = Vec::new();
    for (warm, t, rec, _) in per_client.iter_mut() {
        for r in t.iter_mut() {
            r.units = r.s / timeline.near(r.start, CAL_WINDOW);
        }
        for r in warm.iter().chain(t.iter()).filter(|r| !r.ok) {
            eprintln!("output check: key {} answered wrongly", r.key);
        }
        attempted += (warm.len() + t.len()) as u64;
        failed += warm.iter().chain(t.iter()).filter(|r| !r.ok).count() as u64;
        timed.append(t);
        spans.absorb(rec);
    }

    if let (Some(m), Some((unit, probes))) = (layer.as_mut(), prepared) {
        let n = timed.len() as f64;
        let pick = |f: &dyn Fn(&Rec) -> bool| -> Vec<f64> {
            timed.iter().filter(|r| f(r)).map(|r| r.s).collect()
        };
        let hits = pick(&|r| r.hit);
        let misses = pick(&|r| !r.hit);
        let rows = [
            ("serve.hit_ratio", layers::ratio(hits.len() as f64, n)),
            ("serve.hit_us_p50", median(&hits) * 1e6),
            ("serve.miss_ms_p50", median(&misses) * 1e3),
            ("serve.miss_ms_tail", tail(&misses).value * 1e3),
            (
                "serve.singleflight_followers",
                core.singleflight_followers() as f64,
            ),
            (
                "serve.overloaded",
                timed.iter().filter(|r| r.overloaded).count() as f64,
            ),
            (
                "serve.response_kb_mean",
                layers::ratio(
                    timed.iter().map(|r| r.bytes as f64).sum::<f64>() / 1024.0,
                    n,
                ),
            ),
            (
                "bench.trace_overhead",
                layers::ratio(
                    median(&pick(&|r| r.recorded)),
                    median(&pick(&|r| !r.recorded)),
                ),
            ),
        ];
        for (name, v) in rows {
            m.insert(name.into(), v);
        }
        // A request does its key's work when it misses, none when it hits.
        let mut counts = Counts::default();
        for r in timed.iter().filter(|r| !r.hit) {
            counts.add(&probes[mix.unit_of(r.key)].counts, 1.0 / n.max(1.0));
        }
        let plain: f64 = probes.iter().map(|p| p.plain_s).sum();
        let instr: f64 = probes.iter().map(|p| p.instr_s).sum();
        let ops: Vec<f64> = timed.iter().map(|r| r.s).collect();
        layers::ledger(m, &unit, &ops, &counts, layers::ratio(instr, plain), 0.0);
    }

    Ok(Outcome {
        attempted,
        failed,
        output_digest,
        setups,
        ops_s: timed.iter().map(|r| r.s).collect(),
        ops_cal: timed.iter().map(|r| r.units).collect(),
        kernel_median_s: median(&calibration),
        window_s,
        layer,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(seed: u64, client: usize, mix: &Mix) -> Vec<usize> {
        let mut s = Stream::new(seed, client);
        (0..2000).map(|_| s.next(mix)).collect()
    }

    #[test]
    fn the_mix_is_deterministic_for_a_seed_and_differs_across_seeds() {
        let ids = registry::ids();
        let doc = serde_json::from_str(r#"{"schema":"ifsim-scenario-v1","name":"x"}"#).unwrap();
        let a = Mix::build(1, &ids, &[doc]);
        let again = Mix::build(
            1,
            &ids,
            &[serde_json::from_str(r#"{"schema":"ifsim-scenario-v1","name":"x"}"#).unwrap()],
        );
        let b = Mix::build(2, &ids, &[]);
        assert_eq!(a.lines, again.lines);
        assert_eq!(keys(1, 0, &a), keys(1, 0, &again));
        assert_ne!(a.lines[..a.n_registry], b.lines[..b.n_registry]);
        assert_ne!(keys(1, 0, &a), keys(2, 0, &a));
        assert_ne!(keys(1, 0, &a), keys(1, 1, &a), "clients draw apart");
        assert_eq!(a.lines.len(), 24 * SEED_SLOTS + 1);
        // Skewed toward low keys, every tenth an inline scenario.
        let ks = keys(1, 0, &a);
        assert!(ks.iter().skip(9).step_by(10).all(|&k| k == a.n_registry));
        let low = ks.iter().filter(|&&k| k < a.n_registry / 4).count();
        assert!(low > ks.len() / 3, "u² skew favours low keys: {low}");
    }

    #[test]
    fn replies_are_checked_apart_from_the_cached_flag() {
        let checker = Checker {
            first: vec![Mutex::new(None)],
        };
        let miss = r#"{"op":"run-response","status":"ok","cached":false,"report":"r"}"#;
        let hit = r#"{"op":"run-response","status":"ok","cached":true,"report":"r"}"#;
        let other = r#"{"op":"run-response","status":"ok","cached":true,"report":"s"}"#;
        assert_eq!(checker.check(0, miss), (true, false));
        assert_eq!(checker.check(0, hit), (true, true));
        assert_eq!(checker.check(0, other), (false, true));
        let overloaded = r#"{"op":"run-response","status":"overloaded","cached":false}"#;
        assert_eq!(checker.check(0, overloaded), (false, false));
    }
}
