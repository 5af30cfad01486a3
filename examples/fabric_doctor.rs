//! Fabric doctor: probe every direct xGMI link and flag degraded ones —
//! the paper's methodology packaged as an operational health check.
//!
//! ```text
//! cargo run --release --example fabric_doctor            # healthy node
//! cargo run --release --example fabric_doctor -- 2 4 0.5 # inject a fault
//! ```

use ifsim::hip::{EnvConfig, GcdId};
use ifsim::microbench::doctor;
use ifsim::microbench::BenchConfig;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = BenchConfig::quick();
    let mut hip = cfg.runtime(EnvConfig::default());

    if let [a, b, f] = &args[..] {
        let a: u8 = a.parse().expect("GCD index");
        let b: u8 = b.parse().expect("GCD index");
        let f: f64 = f.parse().expect("derate factor (0, 1]");
        println!(
            "injecting fault: link GCD{a}-GCD{b} derated to {:.0} %\n",
            f * 100.0
        );
        hip.derate_xgmi_link(GcdId(a), GcdId(b), f)
            .expect("directly linked GCDs and a factor in (0, 1]");
    }

    println!("=== fabric doctor: probing all 12 direct xGMI links ===\n");
    let health = doctor::probe_links(&mut hip, 64 << 20);
    print!("{}", doctor::render_report(&health, 0.1));

    let degraded: Vec<_> = health.iter().filter(|h| !h.healthy(0.1)).collect();
    if degraded.is_empty() {
        println!("\nall links within 10 % of expected bandwidth.");
    } else {
        println!(
            "\n{} link(s) degraded — check xGMI training state:",
            degraded.len()
        );
        for h in degraded {
            println!(
                "  {}-{}: {:.1} of {:.1} GB/s expected ({:.0} %)",
                h.a,
                h.b,
                h.measured,
                h.expected,
                h.ratio * 100.0
            );
        }
    }
}
