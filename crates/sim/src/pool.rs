//! Scoped worker pool for deterministic fan-out of independent simulations.
//!
//! The registry is unreachable in this build environment, so the pool is
//! hand-rolled on [`std::thread::scope`] instead of pulling in rayon. It is
//! deliberately minimal: a shared atomic work index hands out job indices to
//! `jobs` worker threads, every worker buffers `(index, result)` pairs
//! locally, and the buffers are merged and sorted by index after the scope
//! joins. Because each job is a pure function of its index and results are
//! returned in input order, the output is **bit-identical for every `jobs`
//! value** — OS scheduling decides only *when* a job runs, never what it
//! computes or where its result lands.
//!
//! Service threads that are not a fixed batch — the `hdpat-sim serve`
//! daemon's simulation workers, connection readers and per-connection
//! writers — are started one by one with [`spawn_detached`]; the daemon
//! owns their scheduling.
//!
//! This file is the one sanctioned thread-spawning site in the workspace:
//! clippy's `disallowed_methods` (rule d2, DESIGN.md §8.1) flags
//! `thread::spawn` / `thread::scope` / `available_parallelism` everywhere
//! else, because ad-hoc concurrency is the easiest way to let scheduling
//! nondeterminism leak into model state. See DESIGN.md §9.
//!
//! # Example
//!
//! ```
//! use wsg_sim::pool;
//!
//! let squares = pool::run_indexed_with(4, 8, |i| i * i, |_| {});
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! // Input order is preserved regardless of the worker count:
//! assert_eq!(squares, pool::run_indexed_with(1, 8, |i| i * i, |_| {}));
//! ```

#![expect(
    clippy::disallowed_methods,
    reason = "the sweep pool is the one sanctioned thread site; results return in input order, so scheduling never reaches them"
)]

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// The default worker count: the host's available parallelism, or 1 when it
/// cannot be determined. This is the only machine-dependent input to the
/// pool, and it only ever changes wall-clock time, never results.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs `f(0), f(1), …, f(n - 1)` across up to `jobs` worker threads and
/// returns the results **in index order**.
///
/// With `jobs <= 1` (or fewer than two items) everything runs on the calling
/// thread in index order — byte-for-byte the serial path, with no threads
/// spawned at all. `f` must be safe to call concurrently from multiple
/// threads; each index is handed to exactly one worker.
///
/// `on_done(i)` runs after job `i` finishes (on the worker thread that ran
/// it, in completion — not index — order). The observer exists for live
/// progress reporting; it must not influence results. Pass `|_| {}` for
/// none.
///
/// # Panics
///
/// Propagates the first panic raised by `f`. A panicking job aborts the
/// pool promptly: the other workers stop at their next job boundary
/// instead of draining the remaining indices, so a failure in run 2 of a
/// 500-run sweep does not surface minutes later.
pub fn run_indexed_with<T, F, O>(jobs: usize, n: usize, f: F, on_done: O) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
    O: Fn(usize) + Sync,
{
    if jobs <= 1 || n <= 1 {
        return (0..n)
            .map(|i| {
                let r = f(i);
                on_done(i);
                r
            })
            .collect();
    }
    let next = AtomicUsize::new(0);
    let aborted = AtomicBool::new(false);
    let first_panic: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
    let merged: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..jobs.min(n))
            .map(|_| {
                scope.spawn(|| {
                    let mut local: Vec<(usize, T)> = Vec::new();
                    while !aborted.load(Ordering::Relaxed) {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        // Catch the payload here rather than letting it
                        // unwind the worker, so the abort flag is raised the
                        // moment the panic happens and the other workers cut
                        // their job loops short.
                        match catch_unwind(AssertUnwindSafe(|| f(i))) {
                            Ok(r) => {
                                local.push((i, r));
                                on_done(i);
                            }
                            Err(payload) => {
                                aborted.store(true, Ordering::Relaxed);
                                if let Ok(mut slot) = first_panic.lock() {
                                    slot.get_or_insert(payload);
                                }
                                break;
                            }
                        }
                    }
                    // A poisoned mutex means another worker panicked while
                    // merging; that panic is about to be propagated below,
                    // so this worker's results are moot.
                    if let Ok(mut out) = merged.lock() {
                        out.extend(local);
                    }
                })
            })
            .collect();
        // Join every worker before re-raising, so the scope never has to
        // auto-join a panicked thread (which would mask the payload). Only
        // an observer panic can reach join() now; keep its payload too.
        for worker in workers {
            if let Err(payload) = worker.join() {
                aborted.store(true, Ordering::Relaxed);
                if let Ok(mut slot) = first_panic.lock() {
                    slot.get_or_insert(payload);
                }
            }
        }
    });
    let payload = match first_panic.into_inner() {
        Ok(slot) => slot,
        Err(poisoned) => poisoned.into_inner(),
    };
    if let Some(payload) = payload {
        resume_unwind(payload);
    }
    let mut pairs = match merged.into_inner() {
        Ok(pairs) => pairs,
        Err(poisoned) => poisoned.into_inner(),
    };
    pairs.sort_by_key(|&(i, _)| i);
    assert_eq!(pairs.len(), n, "worker pool lost results");
    pairs.into_iter().map(|(_, r)| r).collect()
}

/// Spawns one named detached harness thread. This is the sanctioned wrapper
/// for service-side threads that do not fit the indexed-batch model — the
/// simulation workers, connection readers and per-connection writers of the
/// `hdpat-sim serve` daemon. The handle may be joined or dropped; the thread
/// must never touch simulator model state (the same contract as
/// [`run_indexed_with`]).
pub fn spawn_detached<F>(name: &str, f: F) -> std::thread::JoinHandle<()>
where
    F: FnOnce() + Send + 'static,
{
    std::thread::Builder::new()
        .name(name.to_string())
        .spawn(f)
        .unwrap_or_else(|e| panic!("cannot spawn harness thread `{name}`: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_parallel_agree() {
        let serial = run_indexed_with(1, 100, |i| i as u64 * 3 + 1, |_| {});
        for jobs in [2, 4, 7] {
            let parallel = run_indexed_with(jobs, 100, |i| i as u64 * 3 + 1, |_| {});
            assert_eq!(serial, parallel);
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<u32> = run_indexed_with(4, 0, |_| 1, |_| {});
        assert!(empty.is_empty());
        assert_eq!(run_indexed_with(4, 1, |i| i + 10, |_| {}), vec![10]);
    }

    #[test]
    fn more_jobs_than_items() {
        assert_eq!(run_indexed_with(16, 3, |i| i, |_| {}), vec![0, 1, 2]);
    }

    #[test]
    fn results_keep_input_order_under_skew() {
        // Early indices do the most work, so late indices finish first on a
        // multi-core host; order must still be by index.
        let skewed = |i: usize| {
            let spin = (32 - i) * 10_000;
            let mut acc = 0u64;
            for k in 0..spin {
                acc = acc.wrapping_add(k as u64);
            }
            (i, acc)
        };
        let out = run_indexed_with(4, 32, skewed, |_| {});
        for (idx, (i, _)) in out.iter().enumerate() {
            assert_eq!(idx, *i);
        }
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panic_propagates() {
        let job = |i| {
            if i == 5 {
                panic!("boom");
            }
            i
        };
        let _ = run_indexed_with(2, 8, job, |_| {});
    }

    #[test]
    fn worker_panic_aborts_remaining_jobs_promptly() {
        use std::sync::atomic::AtomicUsize;
        // Job 0 panics immediately; every other job takes ~2 ms. Without
        // the abort flag the surviving worker would drain all remaining
        // indices before the panic resurfaces; with it, only the handful of
        // jobs already in flight run to completion.
        let executed = AtomicUsize::new(0);
        let n = 256;
        let result = catch_unwind(AssertUnwindSafe(|| {
            let job = |i| {
                if i == 0 {
                    panic!("early failure");
                }
                std::thread::sleep(std::time::Duration::from_millis(2));
                executed.fetch_add(1, Ordering::Relaxed);
                i
            };
            run_indexed_with(2, n, job, |_| {})
        }));
        let payload = result.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "early failure");
        assert!(
            executed.load(Ordering::Relaxed) < n / 2,
            "pool drained {} of {n} jobs after a panic",
            executed.load(Ordering::Relaxed)
        );
    }

    #[test]
    fn observer_sees_every_completed_job() {
        use std::sync::atomic::AtomicUsize;
        for jobs in [1, 4] {
            let done = AtomicUsize::new(0);
            let out = run_indexed_with(
                jobs,
                50,
                |i| i * 2,
                |_| {
                    done.fetch_add(1, Ordering::Relaxed);
                },
            );
            assert_eq!(out.len(), 50);
            assert_eq!(done.load(Ordering::Relaxed), 50);
        }
    }

    #[test]
    fn spawn_detached_runs_and_joins() {
        use std::sync::Arc;
        let hit = Arc::new(AtomicBool::new(false));
        let handle = spawn_detached("pool-test", {
            let hit = hit.clone();
            move || hit.store(true, Ordering::Relaxed)
        });
        handle.join().expect("detached thread panicked");
        assert!(hit.load(Ordering::Relaxed));
    }
}
