//! Scoped worker pool with a chunked work queue and order-restoring
//! result merge.
//!
//! [`par_map_stream`] is the one entry point. Every item runs under
//! `catch_unwind`, so a panicking item becomes an [`ItemOutcome`] rather
//! than an unwinding worker. The [`FailurePolicy`] decides what a failed
//! item does to the rest of the run: [`FailurePolicy::Abort`] stops the
//! pool handing out work (the fault-free exploration path), while
//! [`FailurePolicy::Quarantine`] marks the item and keeps the remaining
//! work alive, which is what a chaos run needs.

use dr_obs::EventSink;
use dr_trace::{Lane, SpanId, Tracer};
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::thread;

/// Items pulled from the shared iterator per queue lock acquisition.
/// Large enough to amortize the mutex, small enough to keep the tail of
/// an uneven workload balanced.
const CHUNK: usize = 8;

/// Emits the `worker-start` event of worker `worker` (workers are
/// indexed `0..threads`). Shared by the pool and by every other engine
/// that runs a fixed set of workers, so the lifecycle events look alike.
pub fn worker_start(events: Option<&EventSink>, worker: usize) {
    if let Some(sink) = events {
        sink.emit("worker-start", &[("worker", worker.into())]);
    }
}

/// Emits the `worker-end` event of a worker that mapped `items` items.
pub fn worker_end(events: Option<&EventSink>, worker: usize, items: usize) {
    if let Some(sink) = events {
        sink.emit(
            "worker-end",
            &[("worker", worker.into()), ("items", items.into())],
        );
    }
}

/// What a failed item (an error or a caught panic) does to the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FailurePolicy {
    /// Stop handing out work at the first failure; the caller reports
    /// the lowest-index failure observed.
    #[default]
    Abort,
    /// Record the failure against its item and keep going: every input
    /// item is mapped.
    Quarantine,
}

/// How [`par_map_stream`] runs: worker count, failure policy, and
/// observation.
#[derive(Clone, Copy)]
pub struct PoolConfig<'a> {
    /// Worker threads (`0` is treated as `1`).
    pub threads: usize,
    /// What a failed item does to the rest of the run.
    pub policy: FailurePolicy,
    /// Each worker records a `worker` span on lane `par-worker-{w}` and
    /// one `chunk` span per batch pulled from the queue (no-ops when the
    /// tracer is disabled).
    pub tracer: &'a Tracer,
    /// The caller's span every worker span `follows_from`, if any.
    pub dispatch: Option<SpanId>,
    /// Each worker emits [`worker_start`] and [`worker_end`] events here,
    /// on its own thread, next to its `worker` span.
    pub events: Option<&'a EventSink>,
}

/// Splits an iteration budget into `parts` per-worker budgets that sum to
/// `total`, earlier workers taking the remainder (deterministic).
pub fn split_budget(total: usize, parts: usize) -> Vec<usize> {
    let parts = parts.max(1);
    let base = total / parts;
    let rem = total % parts;
    (0..parts).map(|w| base + usize::from(w < rem)).collect()
}

/// Turns a caught panic payload into displayable text.
pub fn panic_text(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// What happened to one input item under [`par_map_stream`].
#[derive(Debug, Clone, PartialEq)]
pub enum ItemOutcome<R, Err> {
    /// The item mapped successfully.
    Ok(R),
    /// The mapping function returned an error.
    Failed(Err),
    /// The mapping function panicked; the payload is preserved as text.
    Panicked(String),
}

/// Mapped items tagged with their input index, in completion order.
type Tagged<T, R, Err> = Vec<(usize, T, ItemOutcome<R, Err>)>;

/// Aggregate result of [`par_map_stream`].
#[derive(Debug)]
pub struct PoolOutcome<T, R, S, Err> {
    /// Every mapped item with its outcome, **in input order**. Under
    /// [`FailurePolicy::Quarantine`] every input item appears exactly
    /// once. Under [`FailurePolicy::Abort`] a failure stops the pool
    /// early, so later items may be missing; the first non-`Ok` entry is
    /// then the lowest-index failure observed.
    pub items: Vec<(T, ItemOutcome<R, Err>)>,
    /// Every worker's final state, in worker-index order.
    pub states: Vec<S>,
}

/// Streams `items` through `cfg.threads` scoped workers, applying `f` to
/// each and returning every mapped item with its outcome **in input
/// order**, together with every worker's final state (in worker-index
/// order).
///
/// Each worker owns one state value built by `init(worker_index)` — this
/// is how callers give every thread its own evaluator while the pool
/// merges their accumulated statistics deterministically afterwards.
/// Items are handed out in small chunks from the shared iterator, so a
/// lazy enumeration is consumed as it is produced and never materialized
/// wholesale. One worker runs on the calling thread; more are spawned.
/// Either way each item runs under the same `catch_unwind`, so outcomes
/// are thread-count-invariant for a deterministic `f`.
pub fn par_map_stream<T, R, S, Err, I, Init, F>(
    items: I,
    cfg: &PoolConfig<'_>,
    init: Init,
    f: F,
) -> PoolOutcome<T, R, S, Err>
where
    I: Iterator<Item = T> + Send,
    T: Send,
    R: Send,
    S: Send,
    Err: Send,
    Init: Fn(usize) -> S + Sync,
    F: Fn(&mut S, usize, &T) -> Result<R, Err> + Sync,
{
    let threads = cfg.threads.max(1);
    let queue = Mutex::new(items.enumerate());
    let stop = AtomicBool::new(false);
    let mut tagged: Tagged<T, R, Err> = Vec::new();
    let mut states: Vec<S> = Vec::new();
    if threads == 1 {
        let lane = cfg.tracer.lane("par-worker-0");
        let (out, state) = work(0, lane, &queue, &stop, cfg, &init, &f);
        tagged = out;
        states.push(state);
    } else {
        thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|w| {
                    // Lanes are registered here, in worker order, so the
                    // trace's lane layout does not depend on scheduling.
                    let lane = cfg.tracer.lane(&format!("par-worker-{w}"));
                    let (queue, stop, init, f) = (&queue, &stop, &init, &f);
                    scope.spawn(move || work(w, lane, queue, stop, cfg, init, f))
                })
                .collect();
            for h in handles {
                let (out, state) = h.join().expect("pool worker panicked outside an item");
                tagged.extend(out);
                states.push(state);
            }
        });
    }
    tagged.sort_unstable_by_key(|&(i, _, _)| i);
    PoolOutcome {
        items: tagged.into_iter().map(|(_, t, o)| (t, o)).collect(),
        states,
    }
}

/// One worker: pulls chunks until the queue drains (or an aborting
/// failure raises `stop`), mapping each item under `catch_unwind`.
fn work<T, R, S, Err, I, Init, F>(
    w: usize,
    mut lane: Lane,
    queue: &Mutex<std::iter::Enumerate<I>>,
    stop: &AtomicBool,
    cfg: &PoolConfig<'_>,
    init: &Init,
    f: &F,
) -> (Tagged<T, R, Err>, S)
where
    I: Iterator<Item = T>,
    Init: Fn(usize) -> S,
    F: Fn(&mut S, usize, &T) -> Result<R, Err>,
{
    lane.enter("worker");
    if let Some(d) = cfg.dispatch {
        lane.follows_from(d);
    }
    worker_start(cfg.events, w);
    let mut state = init(w);
    let mut out: Tagged<T, R, Err> = Vec::new();
    'work: while !stop.load(Ordering::Relaxed) {
        let batch: Vec<(usize, T)> = {
            let mut q = queue.lock().expect("queue lock poisoned");
            q.by_ref().take(CHUNK).collect()
        };
        if batch.is_empty() {
            break;
        }
        lane.enter("chunk");
        lane.annotate("first", batch[0].0);
        lane.annotate("len", batch.len());
        for (i, item) in batch {
            let outcome = match catch_unwind(AssertUnwindSafe(|| f(&mut state, i, &item))) {
                Ok(Ok(r)) => ItemOutcome::Ok(r),
                Ok(Err(e)) => ItemOutcome::Failed(e),
                Err(payload) => ItemOutcome::Panicked(panic_text(payload)),
            };
            let failed = !matches!(outcome, ItemOutcome::Ok(_));
            out.push((i, item, outcome));
            if failed && cfg.policy == FailurePolicy::Abort {
                stop.store(true, Ordering::Relaxed);
                lane.annotate("stopped_at", i);
                lane.exit();
                break 'work;
            }
        }
        lane.exit();
    }
    lane.annotate("items", out.len());
    lane.exit();
    worker_end(cfg.events, w, out.len());
    (out, state)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A silent pool configuration at `threads` workers.
    fn pool(tracer: &Tracer, threads: usize, policy: FailurePolicy) -> PoolConfig<'_> {
        PoolConfig {
            threads,
            policy,
            tracer,
            dispatch: None,
            events: None,
        }
    }

    /// The successful results, in input order (panics on any failure).
    fn oks<T, R: std::fmt::Debug, S, Err: std::fmt::Debug>(
        out: PoolOutcome<T, R, S, Err>,
    ) -> Vec<R> {
        out.items
            .into_iter()
            .map(|(_, o)| match o {
                ItemOutcome::Ok(r) => r,
                other => panic!("unexpected failure {other:?}"),
            })
            .collect()
    }

    #[test]
    fn split_budget_sums_and_balances() {
        assert_eq!(split_budget(10, 4), vec![3, 3, 2, 2]);
        assert_eq!(split_budget(3, 8).iter().sum::<usize>(), 3);
        assert_eq!(split_budget(0, 3), vec![0, 0, 0]);
        assert_eq!(split_budget(7, 1), vec![7]);
        for (total, parts) in [(100, 7), (5, 5), (1, 2)] {
            let b = split_budget(total, parts);
            assert_eq!(b.len(), parts);
            assert_eq!(b.iter().sum::<usize>(), total);
            assert!(b.iter().all(|&x| x.abs_diff(total / parts) <= 1));
        }
    }

    #[test]
    fn panic_text_reads_str_and_string_payloads() {
        assert_eq!(panic_text(Box::new("static")), "static");
        assert_eq!(panic_text(Box::new(String::from("owned"))), "owned");
        assert_eq!(panic_text(Box::new(7u8)), "non-string panic payload");
    }

    #[test]
    fn results_are_in_input_order_for_every_thread_count() {
        let tracer = Tracer::disabled();
        let run = |threads| {
            oks(par_map_stream(
                0..100u64,
                &pool(&tracer, threads, FailurePolicy::Abort),
                |_| (),
                |(), i, &x| {
                    // Uneven per-item work so chunks finish out of order.
                    if x % 7 == 0 {
                        std::thread::yield_now();
                    }
                    Ok::<_, ()>(x * 2 + i as u64)
                },
            ))
        };
        let serial = run(1);
        assert_eq!(serial.len(), 100);
        for threads in [2, 3, 4, 8] {
            assert_eq!(run(threads), serial, "threads={threads}");
        }
    }

    #[test]
    fn lazy_sources_are_consumed_without_materialization() {
        // An iterator that counts how far it has been driven: the pool
        // must pull everything exactly once, through the shared queue.
        let pulled = std::sync::atomic::AtomicUsize::new(0);
        let src = (0..57).inspect(|_| {
            pulled.fetch_add(1, Ordering::Relaxed);
        });
        let tracer = Tracer::disabled();
        let out = par_map_stream(
            src,
            &pool(&tracer, 4, FailurePolicy::Abort),
            |_| (),
            |(), _, &x| Ok::<_, ()>(x),
        );
        assert_eq!(oks(out), (0..57).collect::<Vec<_>>());
        assert_eq!(pulled.load(Ordering::Relaxed), 57);
    }

    #[test]
    fn abort_stops_early_and_surfaces_the_first_failure() {
        let tracer = Tracer::disabled();
        for threads in [1, 4] {
            let out = par_map_stream(
                0..1000u32,
                &pool(&tracer, threads, FailurePolicy::Abort),
                |_| (),
                |(), i, &x| {
                    if i == 13 {
                        Err(format!("boom at {i}"))
                    } else {
                        Ok(x)
                    }
                },
            );
            let first = out
                .items
                .iter()
                .find(|(_, o)| !matches!(o, ItemOutcome::Ok(_)));
            assert_eq!(
                first.map(|(x, o)| (*x, o.clone())),
                Some((13, ItemOutcome::Failed("boom at 13".to_string()))),
                "threads={threads}"
            );
            assert!(out.items.len() < 1000, "the pool stopped handing out work");
        }
    }

    #[test]
    fn abort_contains_panics_as_outcomes() {
        let tracer = Tracer::disabled();
        for threads in [1, 3] {
            let out = par_map_stream(
                0..50u32,
                &pool(&tracer, threads, FailurePolicy::Abort),
                |_| (),
                |(), _, &x| {
                    if x == 9 {
                        panic!("injected panic at {x}");
                    }
                    Ok::<_, ()>(x)
                },
            );
            let (x, o) = out
                .items
                .iter()
                .find(|(_, o)| !matches!(o, ItemOutcome::Ok(_)))
                .expect("the panic is reported");
            assert_eq!(*x, 9);
            assert_eq!(*o, ItemOutcome::Panicked("injected panic at 9".into()));
        }
    }

    #[test]
    fn worker_states_come_back_in_worker_order() {
        let tracer = Tracer::disabled();
        let out = par_map_stream(
            0..40i32,
            &pool(&tracer, 4, FailurePolicy::Abort),
            |w| (w, 0usize),
            |state, _, &x| {
                state.1 += 1;
                Ok::<_, ()>(x)
            },
        );
        assert_eq!(out.items.len(), 40);
        assert_eq!(
            out.states.iter().map(|s| s.0).collect::<Vec<_>>(),
            vec![0, 1, 2, 3],
            "states are returned in worker-index order"
        );
        assert_eq!(out.states.iter().map(|s| s.1).sum::<usize>(), 40);
    }

    #[test]
    fn traced_pool_records_worker_and_chunk_spans() {
        let tracer = Tracer::new();
        let mut main = tracer.lane("main");
        let dispatch = main.enter("dispatch");
        let out = par_map_stream(
            0..40i32,
            &PoolConfig {
                dispatch,
                ..pool(&tracer, 4, FailurePolicy::Abort)
            },
            |_| (),
            |(), _, &x| Ok::<_, ()>(x * 2),
        );
        main.exit();
        assert_eq!(out.items.len(), 40);
        let snap = tracer.snapshot();
        let workers = snap.spans.iter().filter(|s| s.name == "worker").count();
        let chunks = snap.spans.iter().filter(|s| s.name == "chunk").count();
        assert_eq!(workers, 4);
        assert_eq!(chunks, 40 / CHUNK, "every batch got a chunk span");
        // Every worker span follows the dispatch span.
        assert_eq!(
            snap.follows
                .iter()
                .filter(|(from, _)| Some(*from) == dispatch)
                .count(),
            4
        );
        // Chunk spans nest under their worker span and cover real work.
        for c in snap.spans.iter().filter(|s| s.name == "chunk") {
            let parent = &snap.spans[c.parent.expect("chunk has parent").0 as usize];
            assert_eq!(parent.name, "worker");
            assert_eq!(parent.lane, c.lane);
        }
        // The per-chunk item accounting sums to the input size.
        let accounted: usize = snap
            .spans
            .iter()
            .filter(|s| s.name == "chunk")
            .map(|s| {
                s.notes
                    .iter()
                    .find(|(k, _)| k == "len")
                    .and_then(|(_, v)| v.parse::<usize>().ok())
                    .unwrap()
            })
            .sum();
        assert_eq!(accounted, 40);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::disabled();
        let out = par_map_stream(
            0..30i32,
            &pool(&tracer, 3, FailurePolicy::Abort),
            |_| (),
            |(), _, &x| Ok::<_, ()>(x + 1),
        );
        assert_eq!(oks(out), (1..31).collect::<Vec<_>>());
        assert_eq!(tracer.span_count(), 0);
    }

    #[test]
    fn workers_emit_paired_lifecycle_events_covering_all_items() {
        use dr_obs::{json, SharedBuf};
        let tracer = Tracer::disabled();
        for threads in [1, 4] {
            let buf = SharedBuf::new();
            let sink = EventSink::new("pool").with_writer(Box::new(buf.clone()));
            let out = par_map_stream(
                0..40i32,
                &PoolConfig {
                    events: Some(&sink),
                    ..pool(&tracer, threads, FailurePolicy::Quarantine)
                },
                |_| (),
                |(), _, &x| Ok::<_, ()>(x + 1),
            );
            assert_eq!(out.items.len(), 40);
            let (mut starts, mut ends, mut items) = (0, 0, 0);
            for line in buf.contents().lines() {
                let v = json::parse(line).unwrap();
                match v.get("kind").and_then(json::Value::as_str) {
                    Some("worker-start") => starts += 1,
                    Some("worker-end") => {
                        ends += 1;
                        items += v.get("items").and_then(json::Value::as_u64).unwrap();
                    }
                    other => panic!("unexpected event {other:?}"),
                }
            }
            assert_eq!((starts, ends), (threads, threads));
            assert_eq!(items, 40, "threads={threads}");
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let tracer = Tracer::disabled();
        let out = par_map_stream(
            std::iter::empty::<u8>(),
            &pool(&tracer, 4, FailurePolicy::Abort),
            |_| (),
            |(), _, &x| Ok::<_, ()>(x),
        );
        assert!(out.items.is_empty());
        assert_eq!(out.states.len(), 4);
    }

    /// Runs the pool under quarantine over 0..40 where item 7 panics and
    /// items divisible by 10 fail.
    fn chaos_outcome(threads: usize) -> PoolOutcome<i32, i32, usize, String> {
        let tracer = Tracer::disabled();
        par_map_stream(
            0..40i32,
            &pool(&tracer, threads, FailurePolicy::Quarantine),
            |_| 0usize,
            |count, _, &x| {
                *count += 1;
                if x == 7 {
                    panic!("injected panic at {x}");
                }
                if x % 10 == 0 {
                    Err(format!("failed at {x}"))
                } else {
                    Ok(x * 2)
                }
            },
        )
    }

    #[test]
    fn quarantine_keeps_panics_and_failures_against_their_items() {
        for threads in [1, 4] {
            let out = chaos_outcome(threads);
            assert_eq!(out.items.len(), 40, "threads={threads}");
            let count = |want: fn(&ItemOutcome<i32, String>) -> bool| {
                out.items.iter().filter(|(_, o)| want(o)).count()
            };
            assert_eq!(count(|o| matches!(o, ItemOutcome::Panicked(_))), 1);
            assert_eq!(
                count(|o| matches!(o, ItemOutcome::Failed(_))),
                4,
                "0, 10, 20, 30 fail"
            );
            assert_eq!(
                out.items[7],
                (7, ItemOutcome::Panicked("injected panic at 7".into()))
            );
            assert_eq!(
                out.items[10],
                (10, ItemOutcome::Failed("failed at 10".into()))
            );
            assert_eq!(out.items[3], (3, ItemOutcome::Ok(6)));
            // Every item was pulled exactly once across all workers.
            assert_eq!(out.states.iter().sum::<usize>(), 40);
        }
    }

    #[test]
    fn quarantine_outcomes_are_thread_count_invariant() {
        let serial = chaos_outcome(1);
        for threads in [2, 3, 8] {
            assert_eq!(
                chaos_outcome(threads).items,
                serial.items,
                "threads={threads}"
            );
        }
    }
}
