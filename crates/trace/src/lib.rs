//! # musa-trace — structured spans, counters and progress
//!
//! A deliberately small observability layer for the campaign stack:
//!
//! - a [`Tracer`] collects **spans** (named, nested wall-time intervals,
//!   opened with [`span`] and closed by RAII guard drop) and monotonic
//!   **counters** (named `u64` sums, bumped with [`count`]);
//! - the currently installed tracer is a *thread-local*, so the
//!   instrumented crates at the bottom of the dependency graph
//!   (`musa_mutation`, `musa_netlist`, …) need no plumbing through
//!   their signatures — a caller installs a tracer once and every
//!   [`span`]/[`count`] below it lands in the same collector;
//! - worker threads join the trace through explicit **fork tokens**
//!   ([`ForkScope`]): the parallel layers capture a scope *before*
//!   spawning and enter child context `i` around work item `i`, so the
//!   recorded structure depends only on the item index, never on which
//!   worker ran the item or when. Merging sorts by `(path, seq)`,
//!   making the span list **bit-identical for every `--jobs` count**.
//!   [`try_fork_map_init`] is the workspace's one work queue built on
//!   that contract ([`try_fork_map`] is its stateless form);
//! - with no tracer installed every helper is a no-op that **never
//!   reads the clock**, so instrumented code paths stay bit-identical
//!   to their un-instrumented selves when observability is disabled.
//!
//! This crate is `std`-only and sits at the bottom of the workspace
//! dependency graph; rendering the collected data (the `musa.trace.v1`
//! JSON document, the Chrome `trace_event` export and the `--profile`
//! table) lives in `musa_core::trace_report`.
//!
//! # Identity model
//!
//! Every span belongs to a *context*. The context installed by
//! [`Tracer::install`] is the root (path `[]`); each
//! [`ForkScope::enter`] derives a child context whose path is the
//! parent path extended by `[fork_id, item_index]`, where `fork_id` is
//! drawn serially from the parent context's sequence counter at
//! [`ForkScope::capture`] time. Within a context, spans are numbered
//! by a serial `seq` in open order. `(path, seq)` therefore identifies
//! a span globally and deterministically, and each span records its
//! parent under that key ([`SpanRecord::parent`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One closed span, as deposited into the tracer when its guard drops.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Static phase name (`"lane_interpret"`, `"fault_simulate"`, …).
    pub name: &'static str,
    /// Optional free-form qualifier (e.g. the bench name), built lazily
    /// and only when tracing is enabled.
    pub detail: Option<String>,
    /// Context path: `[]` for the root context, parent path extended by
    /// `[fork_id, item_index]` for each [`ForkScope::enter`] level.
    pub path: Vec<u32>,
    /// Serial number within the context, assigned in open order.
    pub seq: u32,
    /// Nesting depth within the context (`0` = context top level).
    pub depth: u32,
    /// `(path, seq)` of the enclosing span. For `depth > 0` the parent
    /// lives in the *same* context; for `depth == 0` in a forked context
    /// it is the span that enclosed the fork when it was captured, which
    /// may sit several fork levels up when the forking context had no
    /// span of its own open. `None` only for spans no span encloses.
    pub parent: Option<(Vec<u32>, u32)>,
    /// Nanoseconds since the tracer's epoch at span open.
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub dur_ns: u64,
}

/// Everything a [`Tracer`] collected, merged deterministically:
/// spans sorted by `(path, seq)`, counters sorted by name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceData {
    /// All closed spans, in `(path, seq)` order.
    pub spans: Vec<SpanRecord>,
    /// Counter totals, in name order.
    pub counters: Vec<(&'static str, u64)>,
}

/// Shared collector state behind an enabled [`Tracer`].
struct Shared {
    epoch: Instant,
    spans: Mutex<Vec<SpanRecord>>,
    counters: Mutex<BTreeMap<&'static str, u64>>,
}

/// A span + counter collector. Cheap to clone (an `Arc` handle).
#[derive(Clone)]
pub struct Tracer {
    shared: Arc<Shared>,
}

impl Tracer {
    /// A live tracer; its epoch (span timestamp zero) is now.
    #[must_use]
    pub fn new() -> Self {
        Tracer {
            shared: Arc::new(Shared {
                epoch: Instant::now(),
                spans: Mutex::new(Vec::new()),
                counters: Mutex::new(BTreeMap::new()),
            }),
        }
    }

    /// Installs this tracer as the current thread's root context until
    /// the returned guard drops (the previous context is restored).
    #[must_use]
    pub fn install(&self) -> InstallGuard {
        let prev = CURRENT.with(|c| {
            c.borrow_mut().replace(Context {
                shared: Arc::clone(&self.shared),
                path: Vec::new(),
                parent: None,
                next_seq: 0,
                open: Vec::new(),
            })
        });
        InstallGuard {
            prev,
            _not_send: PhantomData,
        }
    }

    /// The merged collection: spans sorted by `(path, seq)`, counters
    /// by name.
    #[must_use]
    pub fn finish(&self) -> TraceData {
        let mut spans = self
            .shared
            .spans
            .lock()
            .expect("no panics while depositing spans")
            .clone();
        spans.sort_by(|a, b| a.path.cmp(&b.path).then(a.seq.cmp(&b.seq)));
        let counters = self
            .shared
            .counters
            .lock()
            .expect("no panics while bumping counters")
            .iter()
            .map(|(&k, &v)| (k, v))
            .collect();
        TraceData { spans, counters }
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

/// The per-thread tracing context a [`span`]/[`count`] call lands in.
struct Context {
    shared: Arc<Shared>,
    path: Vec<u32>,
    /// `(path, seq)` of the span enclosing the fork that created this
    /// context (forked contexts only).
    parent: Option<(Vec<u32>, u32)>,
    next_seq: u32,
    /// Stack of `seq`s of currently open spans.
    open: Vec<u32>,
}

impl Context {
    /// `(path, seq)` of the innermost open span, or else of the span
    /// enclosing this context's own fork.
    fn enclosing(&self) -> Option<(Vec<u32>, u32)> {
        match self.open.last() {
            Some(&seq) => Some((self.path.clone(), seq)),
            None => self.parent.clone(),
        }
    }
}

thread_local! {
    static CURRENT: RefCell<Option<Context>> = const { RefCell::new(None) };
}

/// Restores the previously installed context when dropped. Returned by
/// [`Tracer::install`] and [`ForkScope::enter`]; deliberately `!Send` —
/// a context belongs to the thread it was installed on.
pub struct InstallGuard {
    prev: Option<Context>,
    _not_send: PhantomData<*const ()>,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        CURRENT.with(|c| *c.borrow_mut() = prev);
    }
}

/// Opens a span named `name` in the current context; the span closes
/// (and is recorded) when the returned guard drops. A no-op that never
/// reads the clock when no tracer is installed.
#[must_use]
pub fn span(name: &'static str) -> SpanGuard {
    open_span(name, None)
}

/// [`span`], with a lazily built detail string: `detail()` is only
/// invoked when a tracer is actually recording.
#[must_use]
pub fn span_detail(name: &'static str, detail: impl FnOnce() -> String) -> SpanGuard {
    if !tracing() {
        return SpanGuard(None);
    }
    open_span(name, Some(detail()))
}

/// Whether the current thread has a live (recording) context.
#[must_use]
pub fn tracing() -> bool {
    CURRENT.with(|c| c.borrow().is_some())
}

fn open_span(name: &'static str, detail: Option<String>) -> SpanGuard {
    CURRENT.with(|c| {
        let mut borrow = c.borrow_mut();
        let Some(ctx) = borrow.as_mut() else {
            return SpanGuard(None);
        };
        let seq = ctx.next_seq;
        ctx.next_seq += 1;
        let depth = u32::try_from(ctx.open.len()).expect("span nesting fits u32");
        let parent = ctx.enclosing();
        ctx.open.push(seq);
        let start_ns = elapsed_ns(&ctx.shared.epoch);
        SpanGuard(Some(OpenSpan {
            name,
            detail,
            seq,
            depth,
            parent,
            start_ns,
        }))
    })
}

fn elapsed_ns(epoch: &Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// An open span; records itself into the current context on drop.
pub struct OpenSpan {
    name: &'static str,
    detail: Option<String>,
    seq: u32,
    depth: u32,
    parent: Option<(Vec<u32>, u32)>,
    start_ns: u64,
}

/// RAII guard returned by [`span`]; `None` inside means tracing was
/// off at open time and drop does nothing (and reads no clock).
pub struct SpanGuard(Option<OpenSpan>);

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(open) = self.0.take() else { return };
        CURRENT.with(|c| {
            let mut borrow = c.borrow_mut();
            // The context can only be gone if a guard outlived its
            // InstallGuard — drop the record rather than panic in Drop.
            let Some(ctx) = borrow.as_mut() else { return };
            match ctx.open.iter().rposition(|&s| s == open.seq) {
                Some(pos) => {
                    ctx.open.truncate(pos);
                }
                None => return,
            }
            let dur_ns = elapsed_ns(&ctx.shared.epoch).saturating_sub(open.start_ns);
            let record = SpanRecord {
                name: open.name,
                detail: open.detail,
                path: ctx.path.clone(),
                seq: open.seq,
                depth: open.depth,
                parent: open.parent,
                start_ns: open.start_ns,
                dur_ns,
            };
            ctx.shared
                .spans
                .lock()
                .expect("no panics while depositing spans")
                .push(record);
        });
    }
}

/// Adds `n` to the counter named `name` in the current context's
/// registry. A no-op when no tracer is installed.
pub fn count(name: &'static str, n: u64) {
    CURRENT.with(|c| {
        if let Some(ctx) = c.borrow().as_ref() {
            *ctx.shared
                .counters
                .lock()
                .expect("no panics while bumping counters")
                .entry(name)
                .or_insert(0) += n;
        }
    });
}

/// A fork point captured on the spawning thread, to be entered once per
/// work item by whichever worker runs it.
///
/// Capture draws a fresh `fork_id` from the parent context serially —
/// *before* any worker starts — so two forks from the same context get
/// distinct child paths, and [`ForkScope::enter`]`(i)` always produces
/// the context path `parent ++ [fork_id, i]` no matter which thread
/// calls it. `ForkScope` is `Sync`: share it by reference across
/// scoped worker threads.
pub struct ForkScope {
    inner: Option<ForkInner>,
}

struct ForkInner {
    shared: Arc<Shared>,
    path: Vec<u32>,
    parent: Option<(Vec<u32>, u32)>,
}

impl ForkScope {
    /// Captures the current thread's context (or an inert scope when
    /// tracing is off). The innermost open span becomes the parent of
    /// every entered child context; with no span open, the span that
    /// encloses the current context does.
    #[must_use]
    pub fn capture() -> Self {
        CURRENT.with(|c| {
            let mut borrow = c.borrow_mut();
            let Some(ctx) = borrow.as_mut() else {
                return ForkScope { inner: None };
            };
            let fork_id = ctx.next_seq;
            ctx.next_seq += 1;
            let mut path = ctx.path.clone();
            path.push(fork_id);
            ForkScope {
                inner: Some(ForkInner {
                    shared: Arc::clone(&ctx.shared),
                    path,
                    parent: ctx.enclosing(),
                }),
            }
        })
    }

    /// Installs child context `index` on the **current** thread until
    /// the guard drops. Call exactly once per work item, around the
    /// item's execution, on whichever thread runs it.
    #[must_use]
    pub fn enter(&self, index: usize) -> InstallGuard {
        let prev = CURRENT.with(|c| c.borrow_mut().take());
        if let Some(inner) = &self.inner {
            let mut path = inner.path.clone();
            path.push(u32::try_from(index).unwrap_or(u32::MAX));
            CURRENT.with(|c| {
                *c.borrow_mut() = Some(Context {
                    shared: Arc::clone(&inner.shared),
                    path,
                    parent: inner.parent.clone(),
                    next_seq: 0,
                    open: Vec::new(),
                });
            });
        }
        InstallGuard {
            prev,
            _not_send: PhantomData,
        }
    }
}

/// Number of worker threads the machine supports, used when a job count
/// of `0` (= "auto") is requested.
///
/// Falls back to 1 when the platform cannot report its parallelism.
pub fn available_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Resolves a requested job count: `0` means "use [`available_jobs`]",
/// anything else is taken literally.
pub fn resolve_jobs(requested: usize) -> usize {
    if requested == 0 {
        available_jobs()
    } else {
        requested
    }
}

/// Runs work items `0..count` on up to `jobs` threads and returns their
/// results in index order, or the error of the *lowest failing index* —
/// the one the serial loop would have hit first — whichever worker hit
/// an error when.
///
/// `jobs` is resolved via [`resolve_jobs`]; a resolved count of 1 (or
/// fewer than 2 items) runs inline with no thread spawned. Otherwise
/// workers pull indices off an atomic counter (item costs vary widely,
/// so the balancing is dynamic) and deposit each result in its own
/// slot. A [`ForkScope`] is captured before any worker starts and
/// entered once per item index, so the recorded trace is identical for
/// every job count.
///
/// # Errors
///
/// Returns the lowest-index error produced by `run`.
///
/// # Panics
///
/// Propagates a panic from `run` (the scope joins all workers first).
pub fn try_fork_map<T: Send, E: Send>(
    jobs: usize,
    count: usize,
    run: impl Fn(usize) -> Result<T, E> + Sync,
) -> Result<Vec<T>, E> {
    try_fork_map_init(jobs, count, || (), |(), i| run(i))
}

/// [`try_fork_map`] with per-worker state, in the shape of rayon's
/// `map_init`: each worker calls `init` once, before its first item,
/// and hands that state to `run` for every item it takes. The serial
/// path is one worker, so it calls `init` once for all `count` items.
///
/// Which items share a state depends on scheduling, so `run`'s result
/// must not depend on what earlier items left in it.
///
/// # Errors
///
/// Returns the lowest-index error produced by `run`.
///
/// # Panics
///
/// Propagates a panic from `init` or `run` (the scope joins all workers
/// first).
pub fn try_fork_map_init<S, T: Send, E: Send>(
    jobs: usize,
    count: usize,
    init: impl Fn() -> S + Sync,
    run: impl Fn(&mut S, usize) -> Result<T, E> + Sync,
) -> Result<Vec<T>, E> {
    let jobs = resolve_jobs(jobs).min(count.max(1));
    let fork = ForkScope::capture();
    if jobs <= 1 {
        let mut state = init();
        return (0..count)
            .map(|i| {
                let _trace = fork.enter(i);
                run(&mut state, i)
            })
            .collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<T, E>>>> = (0..count).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| {
                let mut state = init();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= count {
                        break;
                    }
                    let result = {
                        let _trace = fork.enter(i);
                        run(&mut state, i)
                    };
                    *slots[i].lock().expect("worker deposits its own slot") = Some(result);
                }
            });
        }
    });
    let mut merged = Vec::with_capacity(count);
    for slot in slots {
        match slot.into_inner().expect("scope joined all workers") {
            Some(Ok(value)) => merged.push(value),
            Some(Err(e)) => return Err(e),
            None => unreachable!("every slot is filled before the scope exits"),
        }
    }
    Ok(merged)
}

/// Whether coarse progress lines (stderr) are enabled for this process.
static PROGRESS: AtomicBool = AtomicBool::new(false);

/// Turns `--progress` stderr reporting on or off process-wide.
pub fn set_progress(on: bool) {
    PROGRESS.store(on, Ordering::Relaxed);
}

/// Whether [`progress`] currently prints anything.
#[must_use]
pub fn progress_enabled() -> bool {
    PROGRESS.load(Ordering::Relaxed)
}

/// Prints one coarse progress line to **stderr** (never stdout, so all
/// golden text/JSON outputs stay byte-identical) when enabled; the
/// message closure is only invoked when it will actually be printed.
pub fn progress(message: impl FnOnce() -> String) {
    if progress_enabled() {
        eprintln!("musa: {}", message());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(data: &TraceData) -> Vec<(&'static str, Vec<u32>, u32, u32)> {
        data.spans
            .iter()
            .map(|s| (s.name, s.path.clone(), s.seq, s.depth))
            .collect()
    }

    #[test]
    fn no_tracer_means_no_records_and_no_cost() {
        // No install: every helper is inert.
        assert!(!tracing());
        {
            let _s = span("root");
            count("hits", 3);
        }
        assert!(!tracing());
    }

    #[test]
    fn spans_nest_and_record_in_open_order() {
        let tracer = Tracer::new();
        {
            let _g = tracer.install();
            let _a = span("outer");
            {
                let _b = span("inner");
                count("hits", 2);
            }
            count("hits", 1);
        }
        let data = tracer.finish();
        assert_eq!(
            names(&data),
            vec![("outer", vec![], 0, 0), ("inner", vec![], 1, 1)]
        );
        assert_eq!(data.spans[1].parent, Some((vec![], 0)));
        assert_eq!(data.spans[0].parent, None);
        assert!(data.spans[0].dur_ns >= data.spans[1].dur_ns);
        assert_eq!(data.counters, vec![("hits", 3)]);
    }

    /// The deterministic-structure contract: same work, any job count,
    /// identical `(name, path, seq, depth, parent)` stream.
    #[test]
    fn fork_structure_is_identical_for_every_job_count() {
        type Shape = (&'static str, Vec<u32>, u32, u32, Option<(Vec<u32>, u32)>);
        fn run(jobs: usize) -> Vec<Shape> {
            let tracer = Tracer::new();
            {
                let _g = tracer.install();
                let _root = span("campaign");
                let fork = ForkScope::capture();
                let items: Vec<usize> = (0..7).collect();
                if jobs <= 1 {
                    for &i in &items {
                        let _item = fork.enter(i);
                        let _s = span("work");
                        count("items", 1);
                    }
                } else {
                    let next = std::sync::atomic::AtomicUsize::new(0);
                    std::thread::scope(|scope| {
                        for _ in 0..jobs {
                            scope.spawn(|| loop {
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                if i >= items.len() {
                                    break;
                                }
                                let _item = fork.enter(i);
                                let _s = span("work");
                                count("items", 1);
                            });
                        }
                    });
                }
            }
            tracer
                .finish()
                .spans
                .iter()
                .map(|s| (s.name, s.path.clone(), s.seq, s.depth, s.parent.clone()))
                .collect()
        }
        let serial = run(1);
        assert_eq!(serial.len(), 8); // campaign + 7 work items
        // Child paths are [fork_id=1, item]: seq 0 went to "campaign".
        assert_eq!(serial[1], ("work", vec![1, 0], 0, 0, Some((vec![], 0))));
        for jobs in [2, 3, 8] {
            assert_eq!(run(jobs), serial, "jobs={jobs}");
        }
    }

    #[test]
    fn two_forks_from_one_context_get_distinct_paths() {
        let tracer = Tracer::new();
        {
            let _g = tracer.install();
            for _ in 0..2 {
                let fork = ForkScope::capture();
                let _item = fork.enter(0);
                let _s = span("work");
            }
        }
        let data = tracer.finish();
        let paths: Vec<Vec<u32>> = data.spans.iter().map(|s| s.path.clone()).collect();
        assert_eq!(paths, vec![vec![0, 0], vec![1, 0]]);
    }

    #[test]
    fn nested_forks_extend_the_path() {
        let tracer = Tracer::new();
        {
            let _g = tracer.install();
            let _outer_span = span("outer");
            let fork = ForkScope::capture();
            let _outer = fork.enter(3);
            let _mid = span("mid");
            let inner = ForkScope::capture();
            let _leaf = inner.enter(1);
            let _s = span("leaf");
        }
        let data = tracer.finish();
        let leaf = data.spans.iter().find(|s| s.name == "leaf").unwrap();
        // outer fork id 1 (seq 0 = "outer" span), inner fork id 1
        // (child context seq 0 = "mid" span).
        assert_eq!(leaf.path, vec![1, 3, 1, 1]);
        assert_eq!(leaf.parent, Some((vec![1, 3], 0)), "parented on mid");
        let mid = data.spans.iter().find(|s| s.name == "mid").unwrap();
        assert_eq!(mid.parent, Some((vec![], 0)), "parented on outer across the fork");
    }

    #[test]
    fn a_fork_from_a_context_without_open_spans_parents_on_the_outer_span() {
        // The middle context opens no span of its own before forking
        // again: the leaf's parent is the outer span, two fork levels up.
        let tracer = Tracer::new();
        {
            let _g = tracer.install();
            let _outer_span = span("outer");
            let fork = ForkScope::capture();
            let _middle = fork.enter(0);
            let inner = ForkScope::capture();
            let _leaf = inner.enter(2);
            let _s = span("leaf");
        }
        let data = tracer.finish();
        let leaf = data.spans.iter().find(|s| s.name == "leaf").unwrap();
        assert_eq!(leaf.path, vec![1, 0, 0, 2]);
        assert_eq!(leaf.parent, Some((vec![], 0)), "parented on outer");
    }

    #[test]
    fn counters_sum_across_threads() {
        let tracer = Tracer::new();
        {
            let _g = tracer.install();
            let fork = ForkScope::capture();
            std::thread::scope(|scope| {
                for t in 0..4 {
                    let fork = &fork;
                    scope.spawn(move || {
                        let _ctx = fork.enter(t);
                        count("per_thread", 10);
                    });
                }
            });
            count("per_thread", 2);
        }
        let data = tracer.finish();
        assert_eq!(data.counters, vec![("per_thread", 42)]);
    }

    #[test]
    fn fork_map_init_hands_each_worker_one_state_for_all_its_items() {
        use std::sync::atomic::AtomicUsize;
        for jobs in [1, 2, 4] {
            let inits = AtomicUsize::new(0);
            let squares = try_fork_map_init(
                jobs,
                9,
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                    Vec::new()
                },
                |seen: &mut Vec<usize>, i| {
                    seen.push(i);
                    Ok::<_, ()>((i * i, seen.len()))
                },
            )
            .unwrap();
            let inits = inits.into_inner();
            assert!(1 <= inits && inits <= jobs, "jobs={jobs}: {inits} states");
            assert_eq!(
                squares.iter().map(|&(sq, _)| sq).collect::<Vec<_>>(),
                (0..9).map(|i| i * i).collect::<Vec<_>>()
            );
            // A state's first item sees one entry; every later item on
            // that state sees more. So the items that saw one entry are
            // the states that ran anything, at most one per worker.
            let states_used = squares.iter().filter(|&&(_, n)| n == 1).count();
            assert!(1 <= states_used && states_used <= inits, "jobs={jobs}");
            if jobs == 1 {
                assert_eq!(inits, 1, "the serial path builds one state");
            }
        }
        let err = try_fork_map_init(2, 5, || (), |(), i| if i >= 3 { Err(i) } else { Ok(i) });
        assert_eq!(err, Err(3), "the lowest failing index wins");
    }

    #[test]
    fn progress_toggle_round_trips() {
        assert!(!progress_enabled());
        set_progress(true);
        assert!(progress_enabled());
        let mut built = false;
        progress(|| {
            built = true;
            String::from("tick")
        });
        assert!(built);
        set_progress(false);
        let mut built_off = false;
        progress(|| {
            built_off = true;
            String::new()
        });
        assert!(!built_off, "message must not be built when disabled");
    }
}
