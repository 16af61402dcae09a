//! Deterministic parallel execution layer.
//!
//! Every experiment in this workspace is a loop over *independent,
//! pre-seeded* work items (sampling repetitions, `(operator, repetition)`
//! profile cells, mutants in a population). This module shards such
//! loops across OS threads with [`std::thread::scope`] — the container
//! has no external crates, so no rayon — under one invariant:
//!
//! > **The result is bit-identical to the serial loop, whatever the
//! > thread count.**
//!
//! Two properties make that hold:
//!
//! 1. **Seeds are assigned before any thread starts.** Callers draw
//!    every item's seeds from their PRNG stream in serial order first,
//!    then hand the fully seeded items over; no worker ever touches a
//!    shared PRNG.
//! 2. **Merging is index-ordered.** Workers pull items off a shared
//!    atomic counter (dynamic load balancing — item costs vary wildly
//!    between mutants/circuits) and record `(index, result)` pairs; the
//!    caller's thread re-assembles the output by item index, so
//!    reduction order never depends on scheduling.
//!
//! Floating-point reductions built on top (e.g. the sampling-repetition
//! averages) stay deterministic because they always fold in index
//! order, never arrival order.
//!
//! The work queue itself is [`musa_trace::try_fork_map`], which the
//! mutation crate's mutant and lane-group shards share (that crate sits
//! *below* this one in the dependency graph).

pub use musa_trace::{available_jobs, resolve_jobs};

/// Maps `f` over `items` on up to `jobs` threads, returning results in
/// item order.
///
/// `jobs` is resolved via [`resolve_jobs`]; a resolved count of 1 (or
/// fewer than 2 items) runs inline with no thread spawned. `f` receives
/// `(index, &item)` so callers can pick up pre-assigned seeds.
///
/// # Panics
///
/// Propagates a panic from `f` (the scope joins all workers first).
pub fn par_map<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    match try_par_map(jobs, items, |i, t| Ok::<R, Never>(f(i, t))) {
        Ok(results) => results,
        Err(never) => match never {},
    }
}

/// Uninhabited error type backing the infallible [`par_map`] wrapper.
enum Never {}

/// Fallible version of [`par_map`]: maps `f` over `items` and returns
/// either every result in item order, or the error of the *lowest
/// failing index* — the same error the serial loop would have surfaced
/// first — regardless of which worker hit an error when.
///
/// # Errors
///
/// Returns the lowest-index error produced by `f`.
pub fn try_par_map<T, R, E, F>(jobs: usize, items: &[T], f: F) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(usize, &T) -> Result<R, E> + Sync,
{
    musa_trace::try_fork_map(jobs, items.len(), |i| f(i, &items[i]))
}

/// Splits `jobs` threads between an outer loop of `outer_items` and the
/// loops nested inside each item: the outer level gets
/// `min(jobs, outer_items)` and each inner loop shares the remainder,
/// so total concurrency never exceeds `jobs`.
///
/// Returns `(outer_jobs, inner_jobs)`, both ≥ 1. `jobs` is resolved via
/// [`resolve_jobs`] first.
pub fn split_jobs(jobs: usize, outer_items: usize) -> (usize, usize) {
    let jobs = resolve_jobs(jobs).max(1);
    let outer = jobs.min(outer_items.max(1));
    (outer, (jobs / outer).max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_item_order() {
        let items: Vec<usize> = (0..1000).collect();
        for jobs in [1, 2, 3, 8] {
            let out = par_map(jobs, &items, |i, &x| {
                assert_eq!(i, x);
                x * 2
            });
            assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn par_map_matches_serial_for_any_job_count() {
        let items: Vec<u64> = (0..257).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(0x9E37).rotate_left(7)).collect();
        for jobs in [0, 1, 2, 5, 16, 1000] {
            let parallel = par_map(jobs, &items, |_, &x| x.wrapping_mul(0x9E37).rotate_left(7));
            assert_eq!(parallel, serial, "jobs={jobs}");
        }
    }

    #[test]
    fn try_par_map_reports_lowest_index_error() {
        let items: Vec<usize> = (0..100).collect();
        for jobs in [1, 4, 16] {
            let err = try_par_map(jobs, &items, |_, &x| {
                if x % 7 == 3 {
                    Err(x) // fails at 3, 10, 17, ...
                } else {
                    Ok(x)
                }
            })
            .unwrap_err();
            assert_eq!(err, 3, "jobs={jobs}");
        }
    }

    #[test]
    fn empty_and_single_item_inputs_work() {
        let empty: Vec<u8> = vec![];
        assert!(par_map(8, &empty, |_, &x| x).is_empty());
        assert_eq!(par_map(8, &[42u8], |_, &x| x), vec![42]);
    }

    #[test]
    fn resolve_jobs_zero_is_auto() {
        assert!(resolve_jobs(0) >= 1);
        assert_eq!(resolve_jobs(3), 3);
    }

    #[test]
    fn split_jobs_never_oversubscribes() {
        for jobs in 1..=16usize {
            for outer in 1..=20usize {
                let (o, i) = split_jobs(jobs, outer);
                assert!(o >= 1 && i >= 1);
                assert!(o * i <= jobs.max(1), "jobs={jobs} outer={outer}: {o}x{i}");
                assert!(o <= outer.max(1));
            }
        }
        assert_eq!(split_jobs(8, 2), (2, 4));
        assert_eq!(split_jobs(8, 100), (8, 1));
    }
}
