//! The one host-side fan-out: whole replica devices stepped on threads.
//!
//! The paper's parallelism is LUN-level and lives on the *simulated*
//! clock (§V, Fig. 8): a round charges the slowest LUN, whichever host
//! thread evaluated it. On the host, a single device's round — one beam
//! hop per in-flight session, then the per-LUN units of the merged work —
//! is tens to hundreds of microseconds, and every attempt to cut it into
//! per-hop or per-LUN jobs cost more in hand-off than it saved. So a
//! single-device engine ([`crate::serve::ServeEngine`],
//! [`crate::engine::NdsEngine`]) runs its rounds inline on the calling
//! thread and never touches this module.
//!
//! The one unit of host work coarse enough to ship to a thread is the one
//! sharded deployments already treat as independent: a whole replica
//! device. [`crate::cluster::ClusterEngine`] runs inside [`with_pool`] and
//! hands every alive replica engine to [`Pool::run`] once per round; each
//! engine takes one `step_round()` wherever it lands and comes back in
//! job order.
//!
//! The pool is *persistent*: [`with_pool`] spawns the scoped workers once
//! (`std::thread::scope` — no added dependencies) and every
//! [`Pool::run`] ships chunks to the already-running workers over
//! channels; spawning threads per round would cost more than the round.
//! `threads = N` means N threads **including the caller**: N − 1 workers
//! are spawned and the calling thread evaluates the first chunk itself
//! instead of blocking on the others.
//!
//! Determinism argument:
//!
//! 1. a job owns everything it mutates (an engine travels into the job by
//!    value and back out in the result) and replica engines share no
//!    mutable state, so no job observes another job's effects;
//! 2. [`Pool::run`] returns results **in job order** (contiguous chunks,
//!    the caller's first, then each worker's in worker order), so whatever
//!    the caller folds over the results sees the same operand sequence at
//!    any thread count.
//!
//! Hence cluster reports are bit-identical for
//! [`NdsConfig::exec_threads`](crate::config::NdsConfig::exec_threads)
//! ∈ {1, 2, …}; `exec_threads = 1` spawns nothing and evaluates every job
//! on the caller.

use std::sync::mpsc::{channel, Receiver, Sender};

/// Default thread count for
/// [`NdsConfig::exec_threads`](crate::config::NdsConfig::exec_threads):
/// the `NDSEARCH_EXEC_THREADS` environment variable when set to a
/// positive integer, otherwise the host's available parallelism.
///
/// The override rule is the workspace-wide
/// [`ndsearch_vector::env::env_usize`] rule: **only** a value that parses
/// (after trimming whitespace) as an integer ≥ 1 overrides. `0`, a
/// negative or non-numeric value, and an empty string are all treated as
/// "no override" and fall back to the host's available parallelism —
/// never to a zero-thread pool (`with_pool` would interpret 0 as the
/// inline path, silently serializing a run that asked for parallelism).
pub fn default_threads() -> usize {
    ndsearch_vector::env::env_usize("NDSEARCH_EXEC_THREADS")
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Iterations a worker spin-polls its job channel before falling back to
/// a blocking receive. Rounds are tens-to-hundreds of microseconds apart,
/// so a short spin catches the next dispatch without paying the futex
/// wake-up (~5–20 µs) that would otherwise dominate small rounds.
/// Spinning is only enabled when the host has a core for every worker
/// *and* the caller ([`spin_allowed`]) — on an oversubscribed machine a
/// spinning worker steals the exact cycles the caller needs to produce
/// the next round.
const SPIN_POLLS: u32 = 20_000;

/// Whether `workers` spin-polling threads plus the caller fit the host
/// without oversubscription.
fn spin_allowed(workers: usize) -> bool {
    std::thread::available_parallelism().is_ok_and(|n| workers < n.get())
}

/// One worker's end of the pool, seen from the caller: chunks of jobs go
/// in and, for each chunk, its results come back. The worker owns the
/// other two ends, so if the job function panics on it they drop as it
/// unwinds and the caller's `recv` fails instead of waiting forever.
struct Worker<J, R> {
    jobs: Sender<Vec<J>>,
    results: Receiver<Vec<R>>,
}

/// A persistent pool of scoped threads evaluating `fn(J) -> R` jobs by
/// value. Created by [`with_pool`]; one [`run`](Self::run) call per
/// round. Jobs travel into threads and results travel back, so a job may
/// carry owned state (a whole replica engine) that the caller reclaims
/// from the result.
///
/// With no workers (`threads <= 1`) every `run` evaluates on the caller
/// thread.
pub struct Pool<'f, J: Send, R: Send> {
    f: &'f (dyn Fn(J) -> R + Sync),
    /// The `threads − 1` spawned workers; empty for `threads <= 1`.
    workers: Vec<Worker<J, R>>,
}

impl<J: Send, R: Send> Pool<'_, J, R> {
    /// Evaluates every job and returns the results **in job order**.
    /// With workers and at least two jobs, the jobs are split into
    /// balanced contiguous chunks, one per thread: the caller evaluates
    /// the first while the workers evaluate the rest.
    ///
    /// # Panics
    /// Panics if the job function panicked, on this thread or on a
    /// worker.
    pub fn run(&mut self, mut jobs: Vec<J>) -> Vec<R> {
        let n = jobs.len();
        let k = (self.workers.len() + 1).min(n);
        if k < 2 {
            return jobs.into_iter().map(self.f).collect();
        }
        // Balanced contiguous chunks: the first `n % k` get one extra
        // job. Split from the tail so each split is O(chunk); chunk `i`
        // (1-based) goes to worker `i − 1`, chunk 0 stays here.
        for i in (1..k).rev() {
            let start = i * (n / k) + i.min(n % k);
            self.workers[i - 1]
                .jobs
                .send(jobs.split_off(start))
                .expect("exec pool worker died");
        }
        let mut out: Vec<R> = Vec::with_capacity(n);
        out.extend(jobs.into_iter().map(self.f));
        for worker in &self.workers[..k - 1] {
            out.extend(
                worker
                    .results
                    .recv()
                    .expect("exec pool job panicked on a worker"),
            );
        }
        debug_assert_eq!(out.len(), n, "every chunk was reassembled");
        out
    }
}

/// Receives the next chunk: optionally spin-poll first (the next round
/// usually arrives within microseconds), then block. Returns `None` when
/// the pool has been dropped.
fn next_chunk<J>(rx: &Receiver<Vec<J>>, spin: bool) -> Option<Vec<J>> {
    use std::sync::mpsc::TryRecvError;
    if spin {
        for _ in 0..SPIN_POLLS {
            match rx.try_recv() {
                Ok(chunk) => return Some(chunk),
                Err(TryRecvError::Empty) => std::hint::spin_loop(),
                Err(TryRecvError::Disconnected) => return None,
            }
        }
    }
    rx.recv().ok()
}

/// Runs `body` with a [`Pool`] of `threads` threads evaluating `f` — the
/// calling thread plus `threads − 1` scoped workers. Workers are spawned
/// once, serve every [`Pool::run`] call made inside `body`, and join when
/// `body` returns (or unwinds). `threads <= 1` spawns nothing.
///
/// # Panics
/// Propagates panics from `body` and from `f` on any thread.
pub fn with_pool<J, R, T>(
    threads: usize,
    f: impl Fn(J) -> R + Sync,
    body: impl FnOnce(&mut Pool<'_, J, R>) -> T,
) -> T
where
    J: Send,
    R: Send,
{
    let spawned = threads.saturating_sub(1);
    std::thread::scope(|scope| {
        let spin = spin_allowed(spawned);
        let f = &f;
        let workers = (0..spawned)
            .map(|_| {
                let (jobs_tx, jobs_rx) = channel::<Vec<J>>();
                let (results_tx, results_rx) = channel();
                scope.spawn(move || {
                    while let Some(jobs) = next_chunk(&jobs_rx, spin) {
                        let results: Vec<R> = jobs.into_iter().map(f).collect();
                        if results_tx.send(results).is_err() {
                            break;
                        }
                    }
                });
                Worker {
                    jobs: jobs_tx,
                    results: results_rx,
                }
            })
            .collect();
        // `body` owns the pool through this frame: when it returns — or
        // unwinds, e.g. from a panic in the caller's own chunk — the pool
        // drops, the job channels close, the workers drain and exit, and
        // the scope joins them.
        body(&mut Pool { f, workers })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::thread::{current, ThreadId};

    #[test]
    fn preserves_job_order() {
        // n = 0, 1, fewer jobs than threads, an uneven cut, a large batch.
        for n in [0u64, 1, 2, 5, 7, 257] {
            let jobs: Vec<u64> = (0..n).collect();
            let want: Vec<u64> = jobs.iter().map(|&u| u * 3 + 1).collect();
            for threads in [1usize, 2, 3, 8, 64] {
                let got = with_pool(threads, |u: u64| u * 3 + 1, |pool| pool.run(jobs.clone()));
                assert_eq!(got, want, "n = {n}, threads = {threads}");
            }
        }
    }

    #[test]
    fn pool_survives_many_rounds() {
        // The whole point: one spawn, many `run` calls — of varying size,
        // so consecutive rounds cut differently and use different subsets
        // of the workers.
        with_pool(
            4,
            |u: u32| u + 1,
            |pool| {
                for round in 0..200u32 {
                    let n = [64u32, 3, 257, 1, 5, 16, 0, 33][round as usize % 8];
                    let jobs: Vec<u32> = (0..n).map(|i| round * 257 + i).collect();
                    let want: Vec<u32> = jobs.iter().map(|&u| u + 1).collect();
                    assert_eq!(pool.run(jobs), want, "round {round}");
                }
            },
        );
    }

    /// Runs `n <= threads` jobs that all wait at one barrier, and returns
    /// the thread each ran on, in job order. Returning at all proves every
    /// job had a thread of its own.
    fn one_job_per_thread(threads: usize, n: usize) -> Vec<ThreadId> {
        let gate = std::sync::Barrier::new(n);
        with_pool(
            threads,
            |()| {
                gate.wait();
                current().id()
            },
            |pool| pool.run(vec![(); n]),
        )
    }

    #[test]
    fn two_threads_are_the_caller_and_one_worker() {
        let ids = one_job_per_thread(2, 2);
        assert_eq!(ids[0], current().id(), "the caller takes the first chunk");
        assert_ne!(ids[1], current().id());
        // Also with three and eight threads, and with fewer jobs than
        // threads.
        for (threads, n) in [(3usize, 3usize), (8, 8), (8, 3)] {
            let ids = one_job_per_thread(threads, n);
            let distinct: HashSet<ThreadId> = ids.iter().copied().collect();
            assert_eq!(distinct.len(), n, "{threads} threads, {n} jobs");
            assert_eq!(ids[0], current().id());
        }
    }

    #[test]
    fn small_batches_run_inline() {
        // A single job has nothing to run beside: nothing crosses a
        // channel, whatever the thread count.
        with_pool(
            16,
            |u: u32| (u + 1, current().id()),
            |pool| {
                assert_eq!(pool.run(vec![10]), vec![(11, current().id())]);
                assert!(pool.run(Vec::new()).is_empty());
            },
        );
    }

    #[test]
    fn inline_pool_has_no_workers() {
        for threads in [0usize, 1] {
            let ids = with_pool(
                threads,
                |_: u32| current().id(),
                |pool| pool.run((0..100).collect()),
            );
            assert!(ids.iter().all(|&id| id == current().id()));
        }
    }

    #[test]
    fn uneven_chunks_reassemble() {
        // 257 jobs over 7 threads: chunk sizes differ by one.
        let jobs: Vec<usize> = (0..257).collect();
        let got = with_pool(7, |u: usize| u, |pool| pool.run(jobs.clone()));
        assert_eq!(got, jobs);
    }

    /// Runs 256 jobs on 4 threads (chunks of 64) with job `bad` panicking.
    fn run_with_a_panicking_job(bad: u32) -> std::thread::Result<Vec<u32>> {
        std::panic::catch_unwind(|| {
            with_pool(
                4,
                |u: u32| {
                    assert!(u != bad, "boom");
                    u
                },
                |pool| pool.run((0..256).collect::<Vec<u32>>()),
            )
        })
    }

    #[test]
    fn worker_panic_propagates_without_deadlock() {
        assert!(run_with_a_panicking_job(170).is_err());
    }

    #[test]
    fn caller_chunk_panic_propagates_without_deadlock() {
        // Job 10 is in the first chunk — the caller's own. The unwind
        // must drop the pool (closing the job channels) so the scope can
        // join the workers, which are mid-chunk or about to reply.
        assert!(run_with_a_panicking_job(10).is_err());
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn env_override_accepts_only_positive_integers() {
        use ndsearch_vector::env::parse_usize;
        assert_eq!(parse_usize(Some("4")), Some(4));
        assert_eq!(parse_usize(Some(" 8 ")), Some(8), "whitespace trims");
        assert_eq!(parse_usize(Some("1")), Some(1));
    }

    #[test]
    fn env_override_zero_falls_back_to_host_parallelism() {
        // `NDSEARCH_EXEC_THREADS=0` must not produce a zero-thread pool:
        // the shared parse rule reports "no override" and
        // `default_threads` falls back to available parallelism (≥ 1).
        assert_eq!(ndsearch_vector::env::parse_usize(Some("0")), None);
    }

    #[test]
    fn env_override_non_numeric_falls_back_to_host_parallelism() {
        use ndsearch_vector::env::parse_usize;
        for junk in ["abc", "", "  ", "-3", "4.5", "1e3", "0x10"] {
            assert_eq!(parse_usize(Some(junk)), None, "input {junk:?}");
        }
        assert_eq!(parse_usize(None), None);
    }
}
