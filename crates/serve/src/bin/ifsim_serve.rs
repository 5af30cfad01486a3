//! `ifsim-serve` — the resident simulation daemon.
//!
//! ```text
//! ifsim-serve (--socket PATH | --tcp HOST:PORT) [OPTIONS]
//!
//!   --socket PATH      listen on a Unix domain socket (removed on exit)
//!   --tcp HOST:PORT    listen on TCP instead
//!   --workers N        concurrent experiment computations (default 4)
//!   --queue-depth M    admitted requests beyond the busy workers
//!                      (default 16); past workers+M the server answers
//!                      Overloaded (429) instead of queueing
//!   --cache-cap N      in-memory result-cache entries (default 256)
//!   --cache-dir DIR    persist results to a crash-safe on-disk cache;
//!                      recovered (and torn entries quarantined) at start
//!   --cache-bytes B    byte cap for the cache tiers (default 268435456)
//!   --request-timeout-ms T
//!                      hard per-request budget even without a client
//!                      deadline_ms; 0 disables (default 0)
//!   --trace-out FILE   write a Chrome trace of request lifecycles on exit
//!   --metrics-out FILE write the stats snapshot (JSON) on exit
//!   --http ADDR        serve the live observability plane on ADDR
//!                      (/metrics, /healthz, /readyz, /stats, /dashboard,
//!                      /events); port 0 picks a free port
//! ```
//!
//! The daemon exits on a `shutdown` request, SIGTERM, or SIGINT, draining
//! in-flight work first; a second signal skips the drain and exits with
//! code 130. Protocol details: `docs/SERVING.md`.

use ifsim_serve::{HttpPlane, ServeAddr, ServeOptions, Server};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    addr: ServeAddr,
    opts: ServeOptions,
    metrics_out: Option<PathBuf>,
    http: Option<String>,
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: ifsim-serve (--socket PATH | --tcp HOST:PORT) [--workers N] \
         [--queue-depth M] [--cache-cap N] [--cache-dir DIR] [--cache-bytes B] \
         [--request-timeout-ms T] [--trace-out FILE] [--metrics-out FILE] \
         [--http ADDR]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut addr: Option<ServeAddr> = None;
    let mut opts = ServeOptions::default();
    let mut metrics_out = None;
    let mut http = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut next = |name: &str| {
            it.next()
                .unwrap_or_else(|| usage(&format!("{name} needs a value")))
        };
        let parse_num = |name: &str, v: String| -> usize {
            v.parse()
                .unwrap_or_else(|_| usage(&format!("{name} wants a number, got '{v}'")))
        };
        match a.as_str() {
            #[cfg(unix)]
            "--socket" => addr = Some(ServeAddr::Unix(PathBuf::from(next("--socket")))),
            #[cfg(not(unix))]
            "--socket" => usage("--socket requires a Unix platform; use --tcp"),
            "--tcp" => addr = Some(ServeAddr::Tcp(next("--tcp"))),
            "--workers" => {
                opts.workers = parse_num("--workers", next("--workers"));
                if opts.workers == 0 {
                    usage("--workers must be at least 1");
                }
            }
            "--queue-depth" => opts.queue_depth = parse_num("--queue-depth", next("--queue-depth")),
            "--cache-cap" => opts.cache_cap = parse_num("--cache-cap", next("--cache-cap")),
            "--cache-dir" => opts.cache_dir = Some(PathBuf::from(next("--cache-dir"))),
            "--cache-bytes" => {
                opts.cache_bytes = parse_num("--cache-bytes", next("--cache-bytes")) as u64;
                if opts.cache_bytes == 0 {
                    usage("--cache-bytes must be at least 1");
                }
            }
            "--request-timeout-ms" => {
                opts.request_timeout_ms =
                    parse_num("--request-timeout-ms", next("--request-timeout-ms")) as u64;
            }
            "--trace-out" => opts.trace_out = Some(PathBuf::from(next("--trace-out"))),
            "--metrics-out" => metrics_out = Some(PathBuf::from(next("--metrics-out"))),
            "--http" => http = Some(next("--http")),
            "--help" | "-h" => usage("help requested"),
            other => usage(&format!("unknown option {other}")),
        }
    }
    let Some(addr) = addr else {
        usage("one of --socket or --tcp is required");
    };
    Args {
        addr,
        opts,
        metrics_out,
        http,
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    let mut server = match Server::bind(args.addr.clone(), args.opts.clone()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot bind {:?}: {e}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    server.metrics_out = args.metrics_out;
    if let Some(http_addr) = &args.http {
        match HttpPlane::bind(server.core(), http_addr) {
            Ok(plane) => {
                println!("http listening on {}", plane.local_addr());
                server.http = Some(plane);
            }
            Err(e) => {
                eprintln!("cannot bind http {http_addr}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    match &args.addr {
        #[cfg(unix)]
        ServeAddr::Unix(path) => println!("ifsim-serve listening on {}", path.display()),
        ServeAddr::Tcp(_) => {
            let local = server
                .local_tcp_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|| "?".into());
            println!("ifsim-serve listening on tcp {local}");
        }
    }
    println!(
        "workers {} · queue depth {} · cache capacity {}",
        args.opts.workers, args.opts.queue_depth, args.opts.cache_cap
    );
    if let Some(report) = &server.scan_report {
        println!(
            "cache recovered: {} entries ({} bytes), {} quarantined, \
             {} torn tmp files removed, {} evicted over cap",
            report.recovered, report.bytes, report.quarantined, report.removed_tmp, report.evicted
        );
    }
    if let Err(e) = server.run() {
        eprintln!("server error: {e}");
        return ExitCode::FAILURE;
    }
    println!("ifsim-serve drained; bye");
    ExitCode::SUCCESS
}
