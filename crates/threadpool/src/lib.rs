#![warn(missing_docs)]

//! In-tree offline stand-in for the `threadpool` crate.
//!
//! The build sandbox has no registry access, so — like the vendored
//! `proptest` and `serde_json` shims — this crate implements
//! just the API subset the workspace uses: a fixed-size pool of worker
//! threads, [`ThreadPool::execute`] for fire-and-forget closures,
//! [`ThreadPool::join`] to wait for quiescence, and
//! [`ThreadPool::panicked_jobs`] for post-mortem accounting.
//!
//! Panicking jobs do not shrink the pool. Jobs run without a
//! `catch_unwind` wrapper (so the panic payload unwinds and drops
//! normally, exactly as in the real crate); instead each worker thread
//! holds a `Sentinel` guard whose `Drop`, when the thread is unwinding,
//! books the lost job, spawns a replacement worker, and registers the
//! replacement's handle so `Drop for ThreadPool` still reaps every thread.
//!
//! Callers that need results back (the parallel experiment driver in
//! `ifsim-bench`) pair `execute` with an `mpsc` channel of
//! `(index, result)` and reorder on the receiving side; the pool itself
//! promises nothing about completion order.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// State shared between the pool handle and its workers: the job queue
/// receiver, the count of jobs accepted but not yet finished (queued or
/// running), a condvar signalled when that count hits zero, the number of
/// jobs that panicked, and the registry of live worker handles (a
/// replacement spawned after a panic registers itself here so the pool's
/// `Drop` can reap it).
struct Shared {
    receiver: Mutex<mpsc::Receiver<Job>>,
    outstanding: Mutex<usize>,
    quiescent: Condvar,
    panicked: AtomicUsize,
    workers: Mutex<Vec<thread::JoinHandle<()>>>,
}

impl Shared {
    /// Book one finished (or abandoned) job and wake `join`ers at zero.
    fn finish_job(&self) {
        let mut n = self.outstanding.lock().unwrap();
        *n -= 1;
        if *n == 0 {
            self.quiescent.notify_all();
        }
    }
}

/// Unwind guard owned by each worker thread. While a job is running the
/// sentinel is `armed`; if the job panics, the worker's stack unwinds
/// through the sentinel's `Drop`, which records the panicked job, keeps
/// the outstanding count honest, and spawns a replacement worker so pool
/// capacity is preserved. A worker exiting cleanly (queue closed)
/// disarms the sentinel first, making the `Drop` a no-op.
struct Sentinel {
    shared: Arc<Shared>,
    /// True from just before a job runs until just after it returns.
    job_in_flight: bool,
    /// Cleared on clean worker exit.
    respawn_on_drop: bool,
}

impl Drop for Sentinel {
    fn drop(&mut self) {
        if !self.respawn_on_drop || !thread::panicking() {
            return;
        }
        self.shared.panicked.fetch_add(1, Ordering::SeqCst);
        if self.job_in_flight {
            self.shared.finish_job();
        }
        spawn_worker(Arc::clone(&self.shared));
    }
}

/// Start one worker and register its handle in the shared registry.
fn spawn_worker(shared: Arc<Shared>) {
    let registry = Arc::clone(&shared);
    let handle = thread::spawn(move || {
        let mut sentinel = Sentinel {
            shared: Arc::clone(&shared),
            job_in_flight: false,
            respawn_on_drop: true,
        };
        loop {
            // Workers take turns holding the lock while blocked on
            // `recv`, so job *pickup* is serialized but execution is
            // fully parallel.
            let job = sentinel.shared.receiver.lock().unwrap().recv();
            let Ok(job) = job else {
                // Channel closed: the pool handle was dropped.
                sentinel.respawn_on_drop = false;
                break;
            };
            sentinel.job_in_flight = true;
            job();
            sentinel.job_in_flight = false;
            sentinel.shared.finish_job();
        }
    });
    registry.workers.lock().unwrap().push(handle);
}

/// A fixed-size pool of worker threads executing queued closures.
pub struct ThreadPool {
    sender: Option<mpsc::Sender<Job>>,
    shared: Arc<Shared>,
    threads: usize,
}

impl ThreadPool {
    /// Spawn a pool with `threads` workers (clamped to at least one).
    pub fn new(threads: usize) -> ThreadPool {
        let threads = threads.max(1);
        let (sender, receiver) = mpsc::channel::<Job>();
        let shared = Arc::new(Shared {
            receiver: Mutex::new(receiver),
            outstanding: Mutex::new(0),
            quiescent: Condvar::new(),
            panicked: AtomicUsize::new(0),
            workers: Mutex::new(Vec::with_capacity(threads)),
        });
        for _ in 0..threads {
            spawn_worker(Arc::clone(&shared));
        }
        ThreadPool {
            sender: Some(sender),
            shared,
            threads,
        }
    }

    /// Number of worker threads in the pool.
    pub fn max_count(&self) -> usize {
        self.threads
    }

    /// Queue a closure for execution on some worker thread.
    pub fn execute<F>(&self, job: F)
    where
        F: FnOnce() + Send + 'static,
    {
        *self.shared.outstanding.lock().unwrap() += 1;
        self.sender
            .as_ref()
            .expect("pool sender lives until drop")
            .send(Box::new(job))
            .expect("workers outlive the pool handle");
    }

    /// Block until every queued job has finished (including jobs queued by
    /// other threads while waiting). The pool remains usable afterwards.
    pub fn join(&self) {
        let mut n = self.shared.outstanding.lock().unwrap();
        while *n > 0 {
            n = self.shared.quiescent.wait(n).unwrap();
        }
    }

    /// How many executed jobs have panicked since the pool was built.
    /// Each one cost a worker thread, and each worker was respawned.
    pub fn panicked_jobs(&self) -> usize {
        self.shared.panicked.load(Ordering::SeqCst)
    }

    /// Alias for [`ThreadPool::panicked_jobs`] matching the real crate's
    /// accessor name.
    pub fn panic_count(&self) -> usize {
        self.panicked_jobs()
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Closing the channel lets each worker's `recv` fail once the
        // queue drains; then reap them so no thread outlives the pool.
        // Handles are popped one at a time — a panicking worker's
        // sentinel pushes its replacement into the same registry, and
        // holding the lock across `join` would deadlock against it.
        self.sender.take();
        loop {
            let handle = self.shared.workers.lock().unwrap().pop();
            match handle {
                Some(h) => {
                    let _ = h.join();
                }
                None => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;

    #[test]
    fn executes_every_job_and_join_waits() {
        let pool = ThreadPool::new(4);
        let hits = Arc::new(AtomicUsize::new(0));
        for _ in 0..100 {
            let hits = Arc::clone(&hits);
            pool.execute(move || {
                hits.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.join();
        assert_eq!(hits.load(Ordering::SeqCst), 100);
        assert_eq!(pool.panicked_jobs(), 0);
        assert_eq!(pool.max_count(), 4);
    }

    #[test]
    fn jobs_actually_run_concurrently() {
        // All four jobs must be in flight at once for the barrier to open;
        // a pool secretly running jobs serially would deadlock here.
        let pool = ThreadPool::new(4);
        let barrier = Arc::new(Barrier::new(4));
        for _ in 0..4 {
            let barrier = Arc::clone(&barrier);
            pool.execute(move || {
                barrier.wait();
            });
        }
        pool.join();
    }

    #[test]
    fn workers_survive_panicking_jobs() {
        let pool = ThreadPool::new(2);
        for _ in 0..3 {
            pool.execute(|| panic!("job blew up"));
        }
        pool.join();
        assert_eq!(pool.panicked_jobs(), 3);
        assert_eq!(pool.panic_count(), 3);
        // The pool still works afterwards.
        let ok = Arc::new(AtomicUsize::new(0));
        let ok2 = Arc::clone(&ok);
        pool.execute(move || {
            ok2.fetch_add(1, Ordering::SeqCst);
        });
        pool.join();
        assert_eq!(ok.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn panicked_workers_are_respawned_to_full_capacity() {
        // Regression test for the respawn path: kill every original
        // worker with a panicking job, then demand full parallelism. If
        // replacements were not spawned, fewer than N workers remain and
        // the N-way barrier can never open.
        const N: usize = 4;
        let pool = ThreadPool::new(N);
        for _ in 0..N {
            pool.execute(|| panic!("each original worker eats one of these"));
        }
        pool.join();
        assert_eq!(pool.panicked_jobs(), N);
        let barrier = Arc::new(Barrier::new(N));
        let met = Arc::new(AtomicUsize::new(0));
        for _ in 0..N {
            let barrier = Arc::clone(&barrier);
            let met = Arc::clone(&met);
            pool.execute(move || {
                barrier.wait();
                met.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.join();
        assert_eq!(met.load(Ordering::SeqCst), N);
    }

    #[test]
    fn indexed_results_reorder_to_submission_order() {
        // The usage pattern the bench driver relies on: fan out with
        // indices, collect over a channel, reorder on the receiver.
        let pool = ThreadPool::new(3);
        let (tx, rx) = mpsc::channel();
        for i in 0..16usize {
            let tx = tx.clone();
            pool.execute(move || {
                tx.send((i, i * i)).unwrap();
            });
        }
        drop(tx);
        let mut out = vec![0usize; 16];
        for (i, sq) in rx {
            out[i] = sq;
        }
        pool.join();
        assert_eq!(out, (0..16).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let pool = ThreadPool::new(0);
        assert_eq!(pool.max_count(), 1);
        let hit = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hit);
        pool.execute(move || {
            h.fetch_add(1, Ordering::SeqCst);
        });
        pool.join();
        assert_eq!(hit.load(Ordering::SeqCst), 1);
    }
}
