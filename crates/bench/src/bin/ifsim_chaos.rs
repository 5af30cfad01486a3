//! `ifsim-chaos` — fault-injection harness for the `ifsim-serve` daemon.
//!
//! ```text
//! ifsim-chaos --script NAME [OPTIONS]
//!
//!   --script NAME      fault script to run (repeatable):
//!                        kill-mid-write   SIGKILL the daemon while it
//!                                         computes and persists, leave
//!                                         torn tmp debris, restart, and
//!                                         demand byte-identical replays
//!                        corrupt-cache    truncate + bit-flip committed
//!                                         entries between daemon lives;
//!                                         corrupt entries must be
//!                                         quarantined, never served
//!                        singleflight     8 concurrent cold requests
//!                                         must coalesce onto exactly
//!                                         one computation
//!                        deadline-storm   a burst of tiny-deadline
//!                                         requests answers Ok or 504,
//!                                         never 500, and the daemon
//!                                         survives
//!                        socket-reset     half-written lines, garbage
//!                                         bytes, and abrupt disconnects
//!                                         must not wedge the daemon
//!                        signal-drain     SIGINT drains gracefully
//!                                         (exit 0); a double signal
//!                                         forces exit 130
//!                        all              every script above
//!   --seed U64         fault-timing seed (default 0xC4A05); the same
//!                      seed replays the same kill points and corruption
//!                      offsets
//!   --serve-bin PATH   ifsim-serve binary (default: sibling of this one)
//!   --workdir DIR      scratch directory (default: under the temp dir;
//!                      removed on success, kept on failure)
//! ```
//!
//! Every script asserts *correctness under faults*, not liveness alone:
//! responses after a crash/restart are compared byte-for-byte against an
//! in-process ground-truth run of the same registry experiment — the
//! same bytes a one-shot `repro` invocation would produce. Exit code 0
//! only when every requested script passes.

use ifsim_core::des::Rng;
use ifsim_serve::proto::RunRequest;
use ifsim_serve::store::{self, QUARANTINE_DIR};
use ifsim_serve::{ClientAddr, Connection, Status};
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: ifsim-chaos --script (kill-mid-write|corrupt-cache|singleflight|\
         deadline-storm|socket-reset|signal-drain|all) [--seed U64] \
         [--serve-bin PATH] [--workdir DIR]"
    );
    std::process::exit(2)
}

struct Args {
    scripts: Vec<String>,
    seed: u64,
    serve_bin: PathBuf,
    workdir: PathBuf,
}

const ALL_SCRIPTS: &[&str] = &[
    "kill-mid-write",
    "corrupt-cache",
    "singleflight",
    "deadline-storm",
    "socket-reset",
    "signal-drain",
];

fn parse_args() -> Args {
    let mut scripts = Vec::new();
    let mut seed = 0xC4A05u64;
    let mut serve_bin: Option<PathBuf> = None;
    let mut workdir: Option<PathBuf> = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut next = |name: &str| {
            it.next()
                .unwrap_or_else(|| usage(&format!("{name} needs a value")))
        };
        match a.as_str() {
            "--script" => {
                let s = next("--script");
                if s == "all" {
                    scripts.extend(ALL_SCRIPTS.iter().map(|s| s.to_string()));
                } else if ALL_SCRIPTS.contains(&s.as_str()) {
                    scripts.push(s);
                } else {
                    usage(&format!("unknown script '{s}'"));
                }
            }
            "--seed" => {
                let raw = next("--seed");
                // Decimal or 0x-prefixed hex, matching how the default
                // seed is documented.
                seed = raw
                    .strip_prefix("0x")
                    .or_else(|| raw.strip_prefix("0X"))
                    .map(|h| u64::from_str_radix(h, 16))
                    .unwrap_or_else(|| raw.parse())
                    .unwrap_or_else(|_| usage("bad --seed"));
            }
            "--serve-bin" => serve_bin = Some(PathBuf::from(next("--serve-bin"))),
            "--workdir" => workdir = Some(PathBuf::from(next("--workdir"))),
            "--help" | "-h" => usage("help requested"),
            other => usage(&format!("unknown option {other}")),
        }
    }
    if scripts.is_empty() {
        usage("at least one --script is required");
    }
    let serve_bin = serve_bin.unwrap_or_else(|| {
        // The chaos harness and the daemon build into the same target
        // profile directory; default to the sibling binary.
        std::env::current_exe()
            .ok()
            .and_then(|p| p.parent().map(|d| d.join("ifsim-serve")))
            .unwrap_or_else(|| PathBuf::from("ifsim-serve"))
    });
    let workdir = workdir.unwrap_or_else(|| {
        std::env::temp_dir().join(format!("ifsim-chaos-{}", std::process::id()))
    });
    Args {
        scripts,
        seed,
        serve_bin,
        workdir,
    }
}

/// One daemon life: the spawned child plus how to reach and kill it.
struct Daemon {
    child: Child,
    addr: ClientAddr,
}

impl Daemon {
    /// Spawn `ifsim-serve` on a fresh Unix socket (TCP on non-Unix) and
    /// wait until it answers pings.
    fn spawn(bin: &Path, dir: &Path, extra: &[String]) -> Result<Daemon, String> {
        let mut cmd = Command::new(bin);
        #[cfg(unix)]
        let addr = {
            let sock = dir.join("chaos.sock");
            let _ = std::fs::remove_file(&sock);
            cmd.arg("--socket").arg(&sock);
            ClientAddr::Unix(sock)
        };
        #[cfg(not(unix))]
        let addr = {
            cmd.arg("--tcp").arg("127.0.0.1:47631");
            ClientAddr::Tcp("127.0.0.1:47631".into())
        };
        cmd.args(extra).stdout(Stdio::null()).stderr(Stdio::null());
        let child = cmd
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let daemon = Daemon { child, addr };
        daemon.wait_ready(Duration::from_secs(10))?;
        Ok(daemon)
    }

    fn wait_ready(&self, timeout: Duration) -> Result<(), String> {
        let t0 = Instant::now();
        loop {
            if let Ok(mut conn) = Connection::connect(&self.addr) {
                if conn.ping().is_ok() {
                    return Ok(());
                }
            }
            if t0.elapsed() > timeout {
                return Err("daemon did not become ready".into());
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    fn connect(&self) -> Result<Connection, String> {
        Connection::connect(&self.addr).map_err(|e| format!("connect: {e}"))
    }

    /// SIGKILL — the crash being simulated. Never graceful.
    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Graceful exit via the shutdown op; returns the exit status.
    fn shutdown(&mut self) -> Result<std::process::ExitStatus, String> {
        self.connect()?
            .shutdown()
            .map_err(|e| format!("shutdown: {e}"))?;
        self.child.wait().map_err(|e| format!("wait: {e}"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A quick single-rep request for `exp` under `seed` — the workload unit
/// every script drives.
fn quick_req(exp: &str, seed: u64) -> RunRequest {
    let mut req = RunRequest::new(exp);
    req.overrides.quick = true;
    req.overrides.reps = Some(1);
    req.overrides.seed = Some(seed);
    req
}

/// Ground truth: run the same experiment in-process — identical to what
/// a one-shot `repro` run would print — and return (report, csv).
fn ground_truth(req: &RunRequest) -> Result<(String, Vec<(String, String)>), String> {
    let exp = ifsim_core::registry::by_id(&req.experiment_id)
        .ok_or_else(|| format!("unknown experiment {}", req.experiment_id))?;
    let cfg = req.overrides.resolve().map_err(|e| e.to_string())?;
    let result = exp.run(&cfg);
    Ok((result.report(), result.csv))
}

/// Demand that a served response carries exactly the one-shot bytes.
fn assert_byte_identical(req: &RunRequest, conn: &mut Connection) -> Result<bool, String> {
    let resp = conn.run(req).map_err(|e| format!("run: {e}"))?;
    if resp.status != Status::Ok {
        return Err(format!(
            "{}: {} ({}): {}",
            req.experiment_id,
            resp.status.as_str(),
            resp.status.code(),
            resp.error.unwrap_or_default()
        ));
    }
    let (report, csv) = ground_truth(req)?;
    if resp.report.as_deref() != Some(report.as_str()) {
        return Err(format!(
            "{}: served report differs from one-shot ground truth",
            req.experiment_id
        ));
    }
    if resp.csv != csv {
        return Err(format!(
            "{}: served csv differs from one-shot ground truth",
            req.experiment_id
        ));
    }
    Ok(resp.cached)
}

/// The corpus each persistence script populates the cache with.
fn corpus() -> Vec<RunRequest> {
    vec![
        quick_req("fig1", 11),
        quick_req("table1", 22),
        quick_req("table2", 33),
        quick_req("fig6a", 44),
    ]
}

fn cache_args(cache_dir: &Path) -> Vec<String> {
    vec![
        "--cache-dir".into(),
        cache_dir.display().to_string(),
        "--workers".into(),
        "2".into(),
    ]
}

/// Entry files currently committed under digest names (quarantine and
/// tmp debris excluded).
fn committed_entries(cache_dir: &Path) -> Vec<PathBuf> {
    let Ok(rd) = std::fs::read_dir(cache_dir) else {
        return Vec::new();
    };
    let mut out: Vec<PathBuf> = rd
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            p.is_file()
                && !p
                    .file_name()
                    .is_some_and(|n| n.to_string_lossy().starts_with("tmp-"))
        })
        .collect();
    out.sort();
    out
}

/// SIGKILL the daemon while it computes and persists a fresh digest,
/// drop torn tmp debris like an interrupted `put` would leave, restart
/// onto the same cache directory, and demand: no tmp files survive the
/// recovery scan, every previously committed digest replays
/// byte-identical from cache, and the interrupted digest is recomputed
/// correctly — never served corrupt.
fn script_kill_mid_write(args: &Args, dir: &Path, rng: &mut Rng) -> Result<(), String> {
    let cache_dir = dir.join("cache-kill");
    let _ = std::fs::remove_dir_all(&cache_dir);

    let mut daemon = Daemon::spawn(&args.serve_bin, dir, &cache_args(&cache_dir))?;
    let mut conn = daemon.connect()?;
    for req in corpus() {
        let cached = assert_byte_identical(&req, &mut conn)?;
        if cached {
            return Err(format!("{}: cold digest served cached", req.experiment_id));
        }
    }
    let committed = committed_entries(&cache_dir);
    if committed.len() != corpus().len() {
        return Err(format!(
            "expected {} committed entries, found {}",
            corpus().len(),
            committed.len()
        ));
    }

    // Fire a request for a fresh digest from a side thread and SIGKILL
    // the daemon at a seeded point while it computes/persists. The
    // response may never arrive; the crash is the point.
    drop(conn);
    let victim = quick_req("fig1", 9999);
    let firing = {
        let addr = daemon.addr.clone();
        let victim = victim.clone();
        std::thread::spawn(move || {
            if let Ok(mut c) = Connection::connect(&addr) {
                let _ = c.run(&victim); // EOF mid-wait is expected
            }
        })
    };
    std::thread::sleep(Duration::from_millis(rng.next_u64() % 40));
    daemon.kill();
    let _ = firing.join();

    // Torn tmp debris a mid-`put` crash leaves: a prefix of real entry
    // bytes under a tmp name.
    let torn = store::encode_entry(&ifsim_serve::CachedRun {
        digest: "deadbeefdeadbeefdeadbeefdeadbeef".into(),
        report: "torn".into(),
        csv: vec![],
        checks_passed: 0,
        checks_total: 0,
        critpath: None,
    });
    let cut = 1 + (rng.next_u64() as usize % (torn.len() - 1));
    std::fs::write(cache_dir.join("tmp-chaos-1"), &torn[..cut]).map_err(|e| e.to_string())?;

    // Restart onto the same directory.
    let daemon2 = Daemon::spawn(&args.serve_bin, dir, &cache_args(&cache_dir))?;
    let mut conn = daemon2.connect()?;

    // The recovery scan swept the debris.
    let tmp_left = std::fs::read_dir(&cache_dir)
        .map_err(|e| e.to_string())?
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().starts_with("tmp-"))
        .count();
    if tmp_left != 0 {
        return Err(format!("{tmp_left} tmp files survived the recovery scan"));
    }

    // Every committed digest replays byte-identical, from cache, with
    // zero recomputation.
    for req in corpus() {
        if !assert_byte_identical(&req, &mut conn)? {
            return Err(format!(
                "{}: previously committed digest was recomputed after restart",
                req.experiment_id
            ));
        }
    }
    // The interrupted digest: cached (its write completed before the
    // kill) or recomputed (it did not) — byte-identical either way.
    assert_byte_identical(&victim, &mut conn)?;

    let stats = daemon2
        .connect()?
        .stats()
        .map_err(|e| format!("stats: {e}"))?;
    let leaders = stats
        .get("singleflight")
        .and_then(|s| s.get("leaders"))
        .and_then(Value::as_u64)
        .ok_or("stats missing singleflight.leaders")?;
    if leaders > 1 {
        return Err(format!(
            "restart recomputed {leaders} digests; expected at most the interrupted one"
        ));
    }
    Ok(())
}

/// Corrupt committed entries between daemon lives (truncate one,
/// bit-flip another at seeded offsets). The restarted daemon must
/// quarantine them — keeping the evidence — and serve every digest
/// byte-identical: intact ones from cache, corrupted ones recomputed.
fn script_corrupt_cache(args: &Args, dir: &Path, rng: &mut Rng) -> Result<(), String> {
    let cache_dir = dir.join("cache-corrupt");
    let _ = std::fs::remove_dir_all(&cache_dir);

    let mut daemon = Daemon::spawn(&args.serve_bin, dir, &cache_args(&cache_dir))?;
    let mut conn = daemon.connect()?;
    for req in corpus() {
        assert_byte_identical(&req, &mut conn)?;
    }
    drop(conn);
    daemon.shutdown()?;

    let committed = committed_entries(&cache_dir);
    if committed.len() < 3 {
        return Err(format!(
            "need ≥ 3 committed entries, have {}",
            committed.len()
        ));
    }
    // Truncate the first, bit-flip the second, leave the rest intact.
    let bytes = std::fs::read(&committed[0]).map_err(|e| e.to_string())?;
    let cut = rng.next_u64() as usize % bytes.len();
    std::fs::write(&committed[0], &bytes[..cut]).map_err(|e| e.to_string())?;
    let mut bytes = std::fs::read(&committed[1]).map_err(|e| e.to_string())?;
    let pos = rng.next_u64() as usize % bytes.len();
    bytes[pos] ^= 1 << (rng.next_u64() % 8);
    std::fs::write(&committed[1], &bytes).map_err(|e| e.to_string())?;

    let daemon2 = Daemon::spawn(&args.serve_bin, dir, &cache_args(&cache_dir))?;
    let mut conn = daemon2.connect()?;
    let mut recomputed = 0;
    for req in corpus() {
        if !assert_byte_identical(&req, &mut conn)? {
            recomputed += 1;
        }
    }
    if recomputed != 2 {
        return Err(format!(
            "expected exactly the 2 corrupted digests recomputed, saw {recomputed}"
        ));
    }
    let stats = conn.stats().map_err(|e| format!("stats: {e}"))?;
    let quarantined = stats
        .get("cache")
        .and_then(|c| c.get("quarantined"))
        .and_then(Value::as_u64)
        .ok_or("stats missing cache.quarantined")?;
    if quarantined != 2 {
        return Err(format!(
            "expected 2 quarantined entries, stats says {quarantined}"
        ));
    }
    let evidence = std::fs::read_dir(cache_dir.join(QUARANTINE_DIR))
        .map(|d| d.count())
        .unwrap_or(0);
    if evidence != 2 {
        return Err(format!("expected 2 quarantine files, found {evidence}"));
    }
    Ok(())
}

/// 8 concurrent connections fire the same cold request; the daemon must
/// run exactly one computation and answer all 8 byte-identically.
fn script_singleflight(args: &Args, dir: &Path, rng: &mut Rng) -> Result<(), String> {
    let daemon = Daemon::spawn(
        &args.serve_bin,
        dir,
        &[
            "--workers".into(),
            "4".into(),
            "--queue-depth".into(),
            "16".into(),
        ],
    )?;
    let req = quick_req("fig6a", 1000 + rng.next_u64() % 1000);
    let mut threads = Vec::new();
    let barrier = std::sync::Arc::new(std::sync::Barrier::new(8));
    for _ in 0..8 {
        let addr = daemon.addr.clone();
        let req = req.clone();
        let barrier = std::sync::Arc::clone(&barrier);
        threads.push(std::thread::spawn(move || -> Result<String, String> {
            let mut conn = Connection::connect(&addr).map_err(|e| format!("connect: {e}"))?;
            barrier.wait();
            let mut resp = conn.run(&req).map_err(|e| format!("run: {e}"))?;
            if resp.status != Status::Ok {
                return Err(format!("status {}", resp.status.as_str()));
            }
            resp.cached = false; // stragglers may legitimately hit cache
            resp.trace_id.clear(); // per-request, unique by design
            Ok(serde_json::to_string(&resp.to_json()))
        }));
    }
    let mut bodies = Vec::new();
    for t in threads {
        bodies.push(t.join().map_err(|_| "worker panicked")??);
    }
    if bodies.iter().any(|b| b != &bodies[0]) {
        return Err("concurrent responses disagree".into());
    }
    let (report, _) = ground_truth(&req)?;
    let first: Value = serde_json::from_str(&bodies[0]).map_err(|e| e.to_string())?;
    if first.get("report").and_then(Value::as_str) != Some(report.as_str()) {
        return Err("coalesced response differs from ground truth".into());
    }
    let stats = daemon
        .connect()?
        .stats()
        .map_err(|e| format!("stats: {e}"))?;
    let leaders = stats
        .get("singleflight")
        .and_then(|s| s.get("leaders"))
        .and_then(Value::as_u64)
        .ok_or("stats missing singleflight.leaders")?;
    if leaders != 1 {
        return Err(format!(
            "expected exactly 1 computation, leaders = {leaders}"
        ));
    }
    Ok(())
}

/// A burst of tiny (and zero) deadlines mixed with sane ones: every
/// answer is Ok-and-byte-identical or an explicit 504 — never a 500,
/// never a wedged connection — and the daemon survives the storm.
fn script_deadline_storm(args: &Args, dir: &Path, rng: &mut Rng) -> Result<(), String> {
    let daemon = Daemon::spawn(
        &args.serve_bin,
        dir,
        &[
            "--workers".into(),
            "2".into(),
            "--request-timeout-ms".into(),
            "30000".into(),
        ],
    )?;
    let mut conn = daemon.connect()?;
    let mut ok = 0u64;
    let mut expired = 0u64;
    for i in 0..40u64 {
        let mut req = quick_req("fig1", 100 + i % 5);
        req.deadline_ms = match rng.next_u64() % 3 {
            0 => Some(0),                  // dead on arrival
            1 => Some(rng.next_u64() % 4), // a few ms: races compute
            _ => Some(60_000),             // generous
        };
        let resp = conn.run(&req).map_err(|e| format!("run: {e}"))?;
        match resp.status {
            Status::Ok => ok += 1,
            Status::DeadlineExceeded => expired += 1,
            other => return Err(format!("unexpected status {}", other.as_str())),
        }
    }
    if ok == 0 {
        return Err("no request survived the storm; deadlines over-shed".into());
    }
    if expired == 0 {
        return Err("no deadline fired; the storm tested nothing".into());
    }
    // The daemon is intact and still serves correct bytes.
    assert_byte_identical(&quick_req("fig1", 104), &mut conn)?;
    let stats = conn.stats().map_err(|e| format!("stats: {e}"))?;
    let exceeded = stats
        .get("deadline")
        .and_then(|d| d.get("exceeded"))
        .and_then(Value::as_u64)
        .ok_or("stats missing deadline.exceeded")?;
    if exceeded != expired {
        return Err(format!(
            "stats counted {exceeded} deadline failures, client saw {expired}"
        ));
    }
    Ok(())
}

/// Half-written request lines, garbage bytes, and abrupt disconnects:
/// none may wedge the daemon or poison later, well-formed requests.
fn script_socket_reset(args: &Args, dir: &Path, rng: &mut Rng) -> Result<(), String> {
    use std::io::Write as _;
    let daemon = Daemon::spawn(&args.serve_bin, dir, &[])?;
    #[cfg(unix)]
    let connect_raw = |daemon: &Daemon| -> Result<std::os::unix::net::UnixStream, String> {
        match &daemon.addr {
            ClientAddr::Unix(p) => {
                std::os::unix::net::UnixStream::connect(p).map_err(|e| e.to_string())
            }
            ClientAddr::Tcp(_) => Err("unix expected".into()),
        }
    };
    #[cfg(unix)]
    for round in 0..10 {
        let mut raw = connect_raw(&daemon)?;
        match rng.next_u64() % 3 {
            0 => {
                // Half a request line, then hang up mid-message.
                let line = serde_json::to_string(&quick_req("fig1", round).to_json());
                let cut = 1 + rng.next_u64() as usize % (line.len() - 1);
                let _ = raw.write_all(&line.as_bytes()[..cut]);
            }
            1 => {
                // Garbage (including NULs), newline-terminated: the
                // daemon must answer 400, not die.
                let _ = raw.write_all(b"\x00\xff{{{ not json\n");
            }
            _ => {
                // Connect and vanish without a byte.
            }
        }
        drop(raw); // abrupt disconnect
    }
    // After the abuse: a clean connection still gets correct bytes.
    let mut conn = daemon.connect()?;
    assert_byte_identical(&quick_req("fig1", 77), &mut conn)?;
    conn.ping().map_err(|e| format!("ping after abuse: {e}"))?;
    Ok(())
}

/// One SIGINT drains gracefully (exit 0, socket removed); two in a row
/// force an immediate exit with code 130.
fn script_signal_drain(args: &Args, dir: &Path, _rng: &mut Rng) -> Result<(), String> {
    #[cfg(unix)]
    {
        extern "C" {
            fn kill(pid: i32, sig: i32) -> i32;
        }
        const SIGINT_NO: i32 = 2;

        // Graceful: one SIGINT.
        let mut daemon = Daemon::spawn(&args.serve_bin, dir, &[])?;
        let pid = daemon.child.id() as i32;
        unsafe { kill(pid, SIGINT_NO) };
        let status = daemon.child.wait().map_err(|e| e.to_string())?;
        if status.code() != Some(0) {
            return Err(format!("single SIGINT: expected exit 0, got {status:?}"));
        }
        if let ClientAddr::Unix(sock) = &daemon.addr {
            if sock.exists() {
                return Err("graceful drain left the socket file behind".into());
            }
        }

        // Forced: two SIGINTs. Back-to-back signals coalesce (standard
        // signals don't queue), so pin the daemon in its drain first —
        // graceful shutdown waits for open connections to hang up, and
        // we deliberately keep one open — then space the signals out.
        // The second must abandon the drain and exit immediately.
        let mut daemon = Daemon::spawn(&args.serve_bin, dir, &[])?;
        let mut held = daemon.connect()?; // keeps the drain waiting
        held.ping().map_err(|e| format!("held ping: {e}"))?;
        let pid = daemon.child.id() as i32;
        unsafe { kill(pid, SIGINT_NO) };
        std::thread::sleep(Duration::from_millis(80));
        unsafe { kill(pid, SIGINT_NO) };
        let t0 = Instant::now();
        let status = loop {
            if let Some(s) = daemon.child.try_wait().map_err(|e| e.to_string())? {
                break s;
            }
            if t0.elapsed() > Duration::from_secs(5) {
                daemon.kill();
                return Err("double SIGINT: daemon did not exit within 5s".into());
            }
            std::thread::sleep(Duration::from_millis(10));
        };
        if status.code() != Some(130) {
            return Err(format!("double SIGINT: expected exit 130, got {status:?}"));
        }
        drop(held);
        Ok(())
    }
    #[cfg(not(unix))]
    {
        let _ = (args, dir);
        println!("  (signal-drain skipped: requires Unix signals)");
        Ok(())
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    if std::fs::create_dir_all(&args.workdir).is_err() {
        eprintln!("cannot create workdir {}", args.workdir.display());
        return ExitCode::FAILURE;
    }
    println!(
        "ifsim-chaos: {} script(s), seed {:#x}, serve bin {}, workdir {}",
        args.scripts.len(),
        args.seed,
        args.serve_bin.display(),
        args.workdir.display()
    );
    let mut rng = Rng::new(args.seed);
    let mut failures = 0;
    for script in &args.scripts {
        let t0 = Instant::now();
        let result = match script.as_str() {
            "kill-mid-write" => script_kill_mid_write(&args, &args.workdir, &mut rng),
            "corrupt-cache" => script_corrupt_cache(&args, &args.workdir, &mut rng),
            "singleflight" => script_singleflight(&args, &args.workdir, &mut rng),
            "deadline-storm" => script_deadline_storm(&args, &args.workdir, &mut rng),
            "socket-reset" => script_socket_reset(&args, &args.workdir, &mut rng),
            "signal-drain" => script_signal_drain(&args, &args.workdir, &mut rng),
            other => Err(format!("unknown script {other}")),
        };
        match result {
            Ok(()) => println!("  PASS {script} ({:.2}s)", t0.elapsed().as_secs_f64()),
            Err(e) => {
                println!("  FAIL {script}: {e}");
                failures += 1;
            }
        }
    }
    if failures == 0 {
        let _ = std::fs::remove_dir_all(&args.workdir);
        println!("ifsim-chaos: all scripts passed");
        ExitCode::SUCCESS
    } else {
        println!(
            "ifsim-chaos: {failures} script(s) failed; evidence kept in {}",
            args.workdir.display()
        );
        ExitCode::FAILURE
    }
}
