//! What runs cost the allocator.
//!
//! A DAG-captured run of the golden `moe-alltoall` scenario may make only a
//! few allocations per timeline event beyond the same run uncaptured.
//!
//! Text that many events repeat (routes, counter track names, device
//! numbers, byte counts) is rendered once per snapshot and shared, and the
//! per-op metrics build one key per op kind and device, so what is left per
//! event is its own name and args vector, its share of the graph node, and
//! what the run records to capture it (flow log entries, DAG edges).
//!
//! A compiled generator scenario resolves its trace on its first run, so a
//! later run allocates for the runtimes and the ops it issues, not for
//! record ids, dependency lists or indexes over them.
//!
//! The global allocator counts the allocations of the calling thread only,
//! so other tests (and the harness) on other threads do not show up.

use ifsim::{BenchConfig, Capture, RunOpts};
use ifsim_scenario::Scenario;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator also runs while thread locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to the system allocator unchanged; counting
// touches only a const-initialised thread local, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (and reallocations) made on this thread by `f`.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// The bound on allocations per captured event, beyond the uncaptured run.
/// Shared texts and a DAG builder that keeps each op's nodes as a run of
/// ids measure 6.7 on this run (7.4 with a fresh `Vec` per node's
/// predecessors and per op's nodes), and a bridge that renders a `String`
/// per event field measures 16.4. All include what each captured
/// runtime allocates once, which a run this short (two runtimes, 945
/// events) spreads over few events.
const PER_EVENT: f64 = 10.0;

#[test]
fn capture_allocates_a_few_times_per_event() {
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/golden/scenarios/moe-alltoall.json"
    ))
    .expect("golden scenario");
    let exp =
        ifsim_scenario::compile(&Scenario::from_str(&text).expect("parses")).expect("compiles");
    let cfg = BenchConfig::quick();
    let plain = RunOpts::default();
    let dag = RunOpts::capture(Capture::Dag);
    // Warm up: lazily built tables (topology, routes, labels) allocate once
    // per process, whichever run comes first.
    for opts in [&plain, &dag] {
        drop(exp.run_with(&cfg, opts).expect("runs"));
    }
    let (uncaptured, _) = allocations(|| exp.run_with(&cfg, &plain).expect("runs"));
    let (captured, (_, telemetry)) = allocations(|| exp.run_with(&cfg, &dag).expect("runs"));
    let events = telemetry.events().len();
    assert!(events > 500, "the capture has a timeline: {events} events");
    assert!(!telemetry.dags().is_empty(), "and a DAG");
    let per_event = captured.saturating_sub(uncaptured) as f64 / events as f64;
    eprintln!(
        "captured {captured}, uncaptured {uncaptured}, {events} events: {per_event:.2} per event"
    );
    assert!(
        per_event <= PER_EVENT,
        "capture made {per_event:.2} allocations per event (bound {PER_EVENT}): \
         {captured} captured vs {uncaptured} uncaptured over {events} events"
    );
}

/// The bound on allocations per replayed record of a compiled generator
/// scenario's second run, 10% above the 4.46 it measures (the HIP
/// runtime's dispatch and construction). Validating each API call with a
/// full plan it then dropped, and boxing each timed wake-up, measured
/// 10.8; re-expanding, ordering and indexing the string records on every
/// run measured 15.4.
const PER_RECORD: f64 = 4.9;

#[test]
fn a_second_run_replays_without_resolving_the_trace_again() {
    let scenario = Scenario::from_str(
        r#"{"schema": "ifsim-scenario-v1", "name": "moe8-alloc-guard",
            "config": {"reps": 1, "warmup": 0},
            "workload": {"type": "moe-alltoall", "ranks": 8, "bytes_per_pair": 65536,
                         "steps": 2, "compute_bytes": 1048576},
            "sweep": [{"param": "bytes_per_pair", "values": [65536, 262144]}]}"#,
    )
    .expect("parses");
    let exp = ifsim_scenario::compile(&scenario).expect("compiles");
    let cfg = BenchConfig::quick();
    let first = exp.run(&cfg);
    assert!(first.all_passed(), "{}", first.report());
    let (n, second) = allocations(|| exp.run(&cfg));
    assert_eq!(first.rendered, second.rendered);
    // Two sweep points of 2 steps x (8 gates + 56 dispatch copies + 8
    // experts + 56 combine copies), one rep each.
    let records = 2 * 2 * (8 + 56 + 8 + 56);
    assert!(second.rendered.contains(" 256 "), "{}", second.rendered);
    let per_record = n as f64 / records as f64;
    eprintln!("second run: {n} allocations, {records} records: {per_record:.2} per record");
    assert!(
        per_record <= PER_RECORD,
        "a second run made {per_record:.2} allocations per record (bound {PER_RECORD}): \
         {n} over {records} records"
    );
}
