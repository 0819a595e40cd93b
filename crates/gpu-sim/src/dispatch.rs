//! Host-side parallel block dispatch: the thread pool the native backend
//! ([`crate::backend::NativeGpu`]) uses to execute the blocks of one launch
//! concurrently. The simulator ([`crate::Gpu`]) never uses it: it runs every
//! launch's blocks serially, in block-index order, on the calling thread.
//!
//! Blocks are the natural unit of host parallelism in the CUDA execution
//! model: barriers (`__syncthreads`) are *intra*-block, blocks share no
//! synchronization, and the paper's SA/DPSO chains are thread-independent.
//! The native backend therefore runs each block to completion on one host
//! thread and distributes blocks over a persistent [`WorkerPool`] —
//! persistent, because the pipelines launch thousands of small kernels per
//! run and a per-launch `thread::spawn` would cost more than the kernels
//! themselves.
//!
//! Determinism is a hard contract, not best-effort (DESIGN.md §11): the
//! native backend stages atomics per block and merges them in block-index
//! order, so its results are byte-identical at every thread count and to
//! the serial simulator. Its thread count is
//! [`crate::DeviceSpec::native_threads`].

use std::any::Any;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread::JoinHandle;

/// Name of the environment variable that used to set the simulator's host
/// thread count. Nothing reads it: the simulator always dispatches
/// serially. The constant stays exported only because the end-to-end
/// benchmark (`benchmark/src/main.rs`) names it when it clears the variable
/// for its workload processes; it goes in the next change that edits the
/// benchmark.
pub const SIM_THREADS_ENV: &str = "CDD_SIM_THREADS";

type PanicPayload = Box<dyn Any + Send + 'static>;

/// One dispatched launch: a lifetime-erased pointer to the block closure
/// plus the shared block counter. The pointers stay valid because
/// [`WorkerPool::run`] never returns (or unwinds) before every worker has
/// acknowledged the job through `done`.
struct Job {
    task: *const (dyn Fn(usize) + Sync),
    next: *const AtomicUsize,
    total: usize,
    done: mpsc::Sender<Option<PanicPayload>>,
}

// SAFETY: the raw pointers reference stack data of the `run` frame, which
// blocks until every worker has reported back on `done`; the pointees are
// `Sync` (the task) and `AtomicUsize` (the counter).
unsafe impl Send for Job {}

impl Clone for Job {
    fn clone(&self) -> Self {
        Job { task: self.task, next: self.next, total: self.total, done: self.done.clone() }
    }
}

struct Worker {
    tx: Option<mpsc::Sender<Job>>,
    handle: Option<JoinHandle<()>>,
}

/// A persistent pool of block-execution threads owned by one
/// [`crate::backend::NativeGpu`]. `threads` counts the host thread too: a
/// pool of size `k` spawns `k − 1` workers and the launching thread
/// executes blocks alongside them.
pub(crate) struct WorkerPool {
    workers: Vec<Worker>,
}

impl fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkerPool").field("threads", &self.threads()).finish()
    }
}

impl WorkerPool {
    /// Build a pool that executes blocks on `threads` host threads
    /// (spawning `threads − 1` workers).
    pub(crate) fn new(threads: usize) -> Self {
        let workers = (1..threads.max(1))
            .map(|i| {
                let (tx, rx) = mpsc::channel::<Job>();
                let handle = std::thread::Builder::new()
                    .name(format!("native-block-{i}"))
                    .spawn(move || worker_main(rx))
                    .expect("spawn native block worker");
                Worker { tx: Some(tx), handle: Some(handle) }
            })
            .collect();
        WorkerPool { workers }
    }

    /// Host threads this pool executes blocks on (workers + the caller).
    pub(crate) fn threads(&self) -> usize {
        self.workers.len() + 1
    }

    /// Execute `task(b)` for every `b in 0..total`, distributing blocks
    /// dynamically over the workers and the calling thread. Blocks until
    /// every block has run. If any block panics, the remaining blocks are
    /// drained (not executed) and the first panic payload is re-raised on
    /// the calling thread — after all workers have stopped touching the
    /// job, so the borrow erasure stays sound.
    pub(crate) fn run(&self, total: usize, task: &(dyn Fn(usize) + Sync)) {
        let next = AtomicUsize::new(0);
        let (done_tx, done_rx) = mpsc::channel();
        // SAFETY: erasing the borrow lifetime to 'static is sound because
        // this frame blocks on `done_rx` until every worker has finished
        // with the job, and the host's own use ends before that.
        let task: *const (dyn Fn(usize) + Sync) =
            unsafe { std::mem::transmute::<_, &'static (dyn Fn(usize) + Sync)>(task) };
        let job = Job { task, next: &next, total, done: done_tx };
        for w in &self.workers {
            w.tx.as_ref()
                .expect("pool workers hold senders until drop")
                .send(job.clone())
                .expect("native block worker terminated unexpectedly");
        }
        drop(job); // host keeps no `done` sender: recv ends with the workers

        // The host participates as the pool's extra thread.
        // SAFETY: `task` was a live borrow one statement ago and this frame
        // has not returned.
        let mut first_panic = run_job_loop(unsafe { &*task }, &next, total);

        // Wait for *every* worker before returning or unwinding: they hold
        // raw pointers into this frame.
        for _ in 0..self.workers.len() {
            match done_rx.recv() {
                Ok(Some(payload)) if first_panic.is_none() => first_panic = Some(payload),
                Ok(_) => {}
                Err(_) => {
                    if first_panic.is_none() {
                        first_panic =
                            Some(Box::new("native block worker died mid-launch".to_string()));
                    }
                }
            }
        }
        if let Some(payload) = first_panic {
            resume_unwind(payload);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        for w in &mut self.workers {
            w.tx = None; // closing the channel ends the worker loop
        }
        for w in &mut self.workers {
            if let Some(handle) = w.handle.take() {
                let _ = handle.join();
            }
        }
    }
}

/// Claim and run blocks until the counter is exhausted. On panic the
/// counter is drained so other threads stop claiming, and the payload is
/// returned for the host to re-raise (preserving the original panic
/// message — e.g. the engine's out-of-bounds diagnostics).
fn run_job_loop(
    task: &(dyn Fn(usize) + Sync),
    next: &AtomicUsize,
    total: usize,
) -> Option<PanicPayload> {
    let result = catch_unwind(AssertUnwindSafe(|| loop {
        let b = next.fetch_add(1, Ordering::Relaxed);
        if b >= total {
            break;
        }
        task(b);
    }));
    match result {
        Ok(()) => None,
        Err(payload) => {
            next.store(total, Ordering::Relaxed);
            Some(payload)
        }
    }
}

fn worker_main(rx: mpsc::Receiver<Job>) {
    while let Ok(job) = rx.recv() {
        // SAFETY: the dispatching `run` frame is blocked on our `done` send;
        // the pointers are live until then.
        let task = unsafe { &*job.task };
        let next = unsafe { &*job.next };
        let report = run_job_loop(task, next, job.total);
        let _ = job.done.send(report);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn pool_runs_every_block_exactly_once() {
        let pool = WorkerPool::new(4);
        for total in [0usize, 1, 3, 64, 257] {
            let counts: Vec<AtomicU64> = (0..total).map(|_| AtomicU64::new(0)).collect();
            pool.run(total, &|b| {
                counts[b].fetch_add(1, Ordering::Relaxed);
            });
            assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1), "total {total}");
        }
    }

    #[test]
    fn pool_is_reusable_across_jobs() {
        let pool = WorkerPool::new(3);
        let sum = AtomicU64::new(0);
        for _ in 0..50 {
            pool.run(10, &|b| {
                sum.fetch_add(b as u64, Ordering::Relaxed);
            });
        }
        assert_eq!(sum.load(Ordering::Relaxed), 50 * 45);
    }

    #[test]
    fn block_panics_propagate_with_their_message() {
        let pool = WorkerPool::new(4);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.run(16, &|b| {
                if b == 7 {
                    panic!("block seven exploded");
                }
            });
        }))
        .expect_err("panic must propagate");
        let msg = caught
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| caught.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("block seven exploded"), "got {msg:?}");
        // The pool survives a panicking job.
        let ran = AtomicU64::new(0);
        pool.run(4, &|_| {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn single_thread_pool_degenerates_to_inline_execution() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.threads(), 1);
        let sum = AtomicU64::new(0);
        pool.run(8, &|b| {
            sum.fetch_add(b as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 28);
    }
}
