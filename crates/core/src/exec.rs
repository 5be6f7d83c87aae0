//! Deterministic data-parallel executor for per-LUN work units.
//!
//! The paper's premise is hardware concurrency — a SiN accelerator in
//! every LUN working simultaneously (§V, Fig. 8) — and the simulator
//! exploits the matching *host* concurrency: each round's per-LUN work
//! units are pure functions ([`crate::sin::process_lun_work`] takes no
//! `&mut` state and returns a [`crate::sin::LunOutcome`] delta), so they
//! can be evaluated on a worker pool and merged afterwards.
//!
//! An engine run executes thousands of rounds of ~10–500 µs each, so the
//! pool is *persistent*: [`with_pool`] spawns the scoped workers once
//! (`std::thread::scope` — no added dependencies), the engine loop runs
//! inside the closure, and every round ships its work units to the
//! already-running workers over channels ([`Pool::run`]). Spawning
//! threads per round would cost more than the round itself.
//!
//! Determinism argument:
//!
//! 1. every work unit reads only immutable snapshots (LUNCSR, config,
//!    the ECC engine's counter cursors) — no unit observes another
//!    unit's effects within a round;
//! 2. ECC fault injection is counter-indexed per plane
//!    ([`ndsearch_flash::ecc::EccEngine`]), and each plane belongs to
//!    exactly one LUN, so the decisions a unit draws are independent of
//!    which thread runs it and when;
//! 3. [`Pool::run`] returns results **in job order** (workers tag their
//!    contiguous chunk with its base index and the coordinator
//!    reassembles) — and a round's LUN stage is cut into one job per
//!    worker, each a contiguous range of the LUN-ordered task arena — so
//!    every reduction — sums, maxima with first-wins tie-breaking, delta
//!    application — sees the same operand sequence at any thread count.
//!
//! Hence reports are bit-identical for
//! [`NdsConfig::exec_threads`](crate::config::NdsConfig::exec_threads)
//! ∈ {1, 2, …}, and `exec_threads = 1` short-circuits to the exact
//! legacy inline loop (no pool, no snapshots).

use std::panic::AssertUnwindSafe;
use std::sync::mpsc::{channel, Receiver, Sender};

/// Below this many jobs a round is executed inline even when workers are
/// available: waking the pool costs a few microseconds per worker, which
/// only pays off once a round fans out over enough units. (Callers that
/// must build jobs before calling [`Pool::run`] check it first to skip
/// the construction cost too.)
pub(crate) const PARALLEL_THRESHOLD: usize = 16;

/// Default worker-thread count for
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
/// Spinning is only enabled when the host has a spare core for every
/// worker *and* the coordinator ([`spin_allowed`]) — on an oversubscribed
/// machine a spinning worker steals the exact cycles the coordinator
/// needs to produce the next round.
const SPIN_POLLS: u32 = 20_000;

/// Whether `workers` spin-polling threads plus the coordinator fit the
/// host without oversubscription.
fn spin_allowed(workers: usize) -> bool {
    std::thread::available_parallelism().is_ok_and(|n| workers < n.get())
}

/// One worker's reply: the chunk's base index and its results, or `Err`
/// if the job function panicked (the worker re-raises the payload, which
/// `std::thread::scope` propagates at join).
type Reply<R> = (usize, Result<Vec<R>, ()>);

/// A persistent pool of scoped worker threads evaluating `fn(J) -> R`
/// jobs by value. Created by [`with_pool`]; one [`run`](Self::run) call
/// per round. Jobs travel into workers and results travel back, so a job
/// may carry owned state (e.g. a live beam searcher) that the caller
/// reclaims from the result.
///
/// With zero workers (`threads <= 1`) every `run` evaluates inline on
/// the caller thread — the exact legacy sequential path.
pub struct Pool<'f, J: Send, R: Send> {
    f: &'f (dyn Fn(J) -> R + Sync),
    /// Per-worker job channels; empty in inline mode.
    workers: Vec<Sender<(usize, Vec<J>)>>,
    /// Shared reply channel; `None` in inline mode.
    back: Option<Receiver<Reply<R>>>,
    /// Reused reply-reassembly buffer (one entry per worker chunk), so a
    /// round's reassembly allocates only the output vector instead of an
    /// `n`-slot `Option` table per run.
    replies: Vec<(usize, Vec<R>)>,
}

impl<J: Send, R: Send> Pool<'_, J, R> {
    /// Whether `run` may actually fan out over worker threads.
    pub fn is_parallel(&self) -> bool {
        !self.workers.is_empty()
    }

    /// Worker threads behind the pool (0 for an inline pool). A caller
    /// that cuts a round into one coarse job per worker sizes the cut
    /// with this.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// [`run_with_min`](Self::run_with_min) with the default fan-out
    /// threshold (16 jobs).
    pub fn run(&mut self, jobs: Vec<J>) -> Vec<R> {
        self.run_with_min(jobs, PARALLEL_THRESHOLD)
    }

    /// Evaluates every job and returns the results **in job order**.
    /// Batches smaller than `min_jobs` (and inline pools) are evaluated
    /// on the caller thread; otherwise the jobs are split into balanced
    /// contiguous chunks, one per worker, and reassembled by base index.
    /// Pick `min_jobs` by job weight: heavier jobs amortize the hand-off
    /// sooner.
    ///
    /// # Panics
    /// Panics if a worker died or the job function panicked on a worker
    /// (the original payload is re-raised when the pool's scope joins).
    pub fn run_with_min(&mut self, jobs: Vec<J>, min_jobs: usize) -> Vec<R> {
        let n = jobs.len();
        if self.workers.is_empty() || n < min_jobs.max(2) {
            return jobs.into_iter().map(self.f).collect();
        }
        let k = self.workers.len().min(n);
        // Balanced contiguous chunks: the first `n % k` chunks get one
        // extra job. Split from the tail so each split is O(chunk).
        let mut jobs = jobs;
        for i in (0..k).rev() {
            let start = i * (n / k) + i.min(n % k);
            let chunk = jobs.split_off(start);
            self.workers[i]
                .send((start, chunk))
                .expect("exec pool worker died");
        }
        let back = self
            .back
            .as_ref()
            .expect("parallel pool has a reply channel");
        // Inline reply aggregation: collect the k chunk replies into the
        // reused buffer, restore job order by base index (chunks are
        // contiguous and disjoint, so a k-entry sort suffices), and move
        // the chunks into the output.
        self.replies.clear();
        for _ in 0..k {
            let (base, reply) = back.recv().expect("exec pool worker died");
            let results = reply.expect("exec pool job panicked on a worker");
            self.replies.push((base, results));
        }
        self.replies.sort_unstable_by_key(|&(base, _)| base);
        let mut out: Vec<R> = Vec::with_capacity(n);
        for (_, chunk) in self.replies.drain(..) {
            out.extend(chunk);
        }
        debug_assert_eq!(out.len(), n, "every chunk was reassembled");
        out
    }
}

/// Receives the next job batch: optionally spin-poll first (the next
/// round usually arrives within microseconds), then block. Returns
/// `None` when the pool has been dropped.
fn next_batch<J>(rx: &Receiver<(usize, Vec<J>)>, spin: bool) -> Option<(usize, Vec<J>)> {
    use std::sync::mpsc::TryRecvError;
    if spin {
        for _ in 0..SPIN_POLLS {
            match rx.try_recv() {
                Ok(batch) => return Some(batch),
                Err(TryRecvError::Empty) => std::hint::spin_loop(),
                Err(TryRecvError::Disconnected) => return None,
            }
        }
    }
    rx.recv().ok()
}

/// Runs `body` with a [`Pool`] of up to `threads` scoped worker threads
/// evaluating `f`. Workers are spawned once, serve every
/// [`Pool::run`] call made inside `body`, and join when `body` returns
/// (or unwinds). `threads <= 1` skips spawning entirely and yields an
/// inline pool.
///
/// # Panics
/// Propagates panics from `body` and from `f` on worker threads.
pub fn with_pool<J, R, T>(
    threads: usize,
    f: impl Fn(J) -> R + Sync,
    body: impl FnOnce(&mut Pool<'_, J, R>) -> T,
) -> T
where
    J: Send,
    R: Send,
{
    if threads <= 1 {
        return body(&mut Pool {
            f: &f,
            workers: Vec::new(),
            back: None,
            replies: Vec::new(),
        });
    }
    std::thread::scope(|scope| {
        let (back_tx, back_rx) = channel::<Reply<R>>();
        let spin = spin_allowed(threads);
        let mut workers = Vec::with_capacity(threads);
        for _ in 0..threads {
            let (tx, rx) = channel::<(usize, Vec<J>)>();
            workers.push(tx);
            let back_tx = back_tx.clone();
            let f = &f;
            scope.spawn(move || {
                while let Some((base, jobs)) = next_batch(&rx, spin) {
                    // Catch panics so the coordinator never deadlocks
                    // waiting for a chunk that will not arrive; the
                    // payload is re-raised and propagated by the scope.
                    let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                        jobs.into_iter().map(f).collect::<Vec<R>>()
                    }));
                    match result {
                        Ok(results) => {
                            if back_tx.send((base, Ok(results))).is_err() {
                                break;
                            }
                        }
                        Err(payload) => {
                            let _ = back_tx.send((base, Err(())));
                            std::panic::resume_unwind(payload);
                        }
                    }
                }
            });
        }
        let mut pool = Pool {
            f: &f,
            workers,
            back: Some(back_rx),
            replies: Vec::with_capacity(threads),
        };
        let out = body(&mut pool);
        // Dropping the pool closes the job channels; workers drain and
        // exit, and the scope joins them.
        drop(pool);
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_job_order() {
        let jobs: Vec<u64> = (0..257).collect();
        let want: Vec<u64> = jobs.iter().map(|&u| u * 3 + 1).collect();
        for threads in [1usize, 2, 3, 8, 64] {
            let got = with_pool(threads, |u: u64| u * 3 + 1, |pool| pool.run(jobs.clone()));
            assert_eq!(got, want, "threads = {threads}");
        }
    }

    #[test]
    fn pool_survives_many_rounds() {
        // The whole point: one spawn, many `run` calls.
        with_pool(
            4,
            |u: u32| u + 1,
            |pool| {
                assert!(pool.is_parallel());
                for round in 0..200u32 {
                    let jobs: Vec<u32> = (0..64).map(|i| round * 64 + i).collect();
                    let want: Vec<u32> = jobs.iter().map(|&u| u + 1).collect();
                    assert_eq!(pool.run(jobs), want);
                }
            },
        );
    }

    #[test]
    fn small_batches_run_inline() {
        with_pool(
            16,
            |u: u32| u + 1,
            |pool| {
                // Below the threshold nothing crosses a channel.
                assert_eq!(pool.run(vec![10, 20]), vec![11, 21]);
                assert!(pool.run(Vec::<u32>::new()).is_empty());
            },
        );
    }

    #[test]
    fn inline_pool_has_no_workers() {
        with_pool(
            1,
            |u: u32| u * 2,
            |pool| {
                assert!(!pool.is_parallel());
                let jobs: Vec<u32> = (0..100).collect();
                let want: Vec<u32> = jobs.iter().map(|&u| u * 2).collect();
                assert_eq!(pool.run(jobs), want);
            },
        );
    }

    #[test]
    fn uneven_chunks_reassemble() {
        // 257 jobs over 7 workers: chunk sizes differ by one.
        let jobs: Vec<usize> = (0..257).collect();
        let got = with_pool(7, |u: usize| u, |pool| pool.run(jobs.clone()));
        assert_eq!(got, jobs);
    }

    #[test]
    fn reply_buffer_reuse_keeps_job_order_across_rounds() {
        // The reply buffer persists across `run` calls; rounds of varying
        // size (different k, different chunkings, inline small rounds in
        // between) must each reassemble in job order.
        with_pool(
            5,
            |u: usize| u.wrapping_mul(7),
            |pool| {
                for n in [257usize, 16, 3, 100, 5, 64, 1, 33] {
                    let jobs: Vec<usize> = (0..n).collect();
                    let want: Vec<usize> = jobs.iter().map(|&u| u.wrapping_mul(7)).collect();
                    assert_eq!(pool.run_with_min(jobs, 4), want, "n = {n}");
                }
            },
        );
    }

    #[test]
    fn worker_panic_propagates_without_deadlock() {
        let res = std::panic::catch_unwind(|| {
            with_pool(
                4,
                |u: u32| {
                    assert!(u != 170, "boom");
                    u
                },
                |pool| pool.run((0..256).collect::<Vec<u32>>()),
            )
        });
        assert!(res.is_err());
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
