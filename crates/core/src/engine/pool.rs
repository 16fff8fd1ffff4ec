//! A scoped work pool for independent analysis items.
//!
//! The engine's parallelism is a flat bag of independent work items —
//! per-reference reuse + solve plans and per-`(reference, reuse-vector)`
//! window scans. Workers claim items from one shared cursor, so an expensive item
//! never serializes the cheap ones behind it. Results land in their item's
//! slot, keeping the output order deterministic regardless of scheduling,
//! and every worker is timed — [`PoolStats`] reports the per-shard busy
//! time and the critical path that the perf artifacts and `EngineStats`
//! surface.
//!
//! The pool is also the engine's **panic boundary**: every `work` call
//! runs under `catch_unwind`, so a panicking item (inline or pooled)
//! surfaces as a structured [`WorkerPanic`] instead of unwinding through
//! — or aborting — the whole process. On the first panic the remaining
//! workers stop claiming items; the caller loses only this query.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A caught panic from one work item: the first panic's payload, rendered
/// as text when it was a string (the overwhelmingly common case).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct WorkerPanic(pub(crate) String);

fn payload_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Scheduling telemetry from one pooled run: how many shards (workers)
/// actually ran, how much wall time they spent inside work items in total,
/// and the busiest single shard (the run's critical path).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct PoolStats {
    pub(crate) shards: usize,
    pub(crate) busy: Duration,
    pub(crate) longest: Duration,
}

/// Runs `work(index, item)` over every item and returns the results in
/// item order, plus [`PoolStats`] describing how the run was scheduled.
/// With `threads <= 1` (or one item) everything runs inline on the
/// caller's thread — no pool, no synchronization — and the stats report a
/// single shard. A panic in any item (first one wins) yields
/// `Err(WorkerPanic)` instead of unwinding.
pub(crate) fn run_pool_stats<T, R, F>(
    items: Vec<T>,
    threads: usize,
    work: F,
) -> Result<(Vec<R>, PoolStats), WorkerPanic>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    // `AssertUnwindSafe` is sound here: on panic the engine discards every
    // in-flight result for the query, so no broken invariant escapes.
    let guarded = |i: usize, t: T| catch_unwind(AssertUnwindSafe(|| work(i, t)));
    if threads <= 1 || items.len() <= 1 {
        let start = Instant::now();
        let mut out = Vec::with_capacity(items.len());
        for (i, t) in items.into_iter().enumerate() {
            match guarded(i, t) {
                Ok(r) => out.push(r),
                Err(payload) => return Err(WorkerPanic(payload_message(payload))),
            }
        }
        let busy = start.elapsed();
        let stats = PoolStats {
            shards: usize::from(!out.is_empty()),
            busy,
            longest: busy,
        };
        return Ok((out, stats));
    }
    let n = items.len();
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let workers = threads.min(n);
    let next = AtomicUsize::new(0);
    let aborted = AtomicBool::new(false);
    let first_panic: Mutex<Option<String>> = Mutex::new(None);
    // Each worker returns its busy time and the `(index, result)` pairs it
    // produced; the caller scatters them back into item order.
    let shards: Vec<(Duration, Vec<(usize, R)>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let start = Instant::now();
                    let mut done = Vec::new();
                    while !aborted.load(Ordering::Relaxed) {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        if idx >= n {
                            break;
                        }
                        // A poisoned slot can only mean another worker
                        // panicked while holding it; treat its item as consumed.
                        let item = slots[idx].lock().unwrap_or_else(|e| e.into_inner()).take();
                        let Some(item) = item else { continue };
                        match guarded(idx, item) {
                            Ok(out) => done.push((idx, out)),
                            Err(payload) => {
                                aborted.store(true, Ordering::Relaxed);
                                first_panic
                                    .lock()
                                    .unwrap_or_else(|e| e.into_inner())
                                    .get_or_insert_with(|| payload_message(payload));
                                break;
                            }
                        }
                    }
                    (start.elapsed(), done)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| (Duration::ZERO, Vec::new())))
            .collect()
    });
    if let Some(message) = first_panic.into_inner().unwrap_or_else(|e| e.into_inner()) {
        return Err(WorkerPanic(message));
    }
    let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let mut stats = PoolStats {
        shards: workers,
        ..PoolStats::default()
    };
    for (busy, done) in shards {
        stats.busy += busy;
        stats.longest = stats.longest.max(busy);
        for (idx, r) in done {
            results[idx] = Some(r);
        }
    }
    // A missing result is unreachable without a recorded panic, but stay
    // panic-free.
    let out = results
        .into_iter()
        .map(|r| r.ok_or_else(|| WorkerPanic("worker skipped an item".to_string())))
        .collect::<Result<Vec<R>, _>>()?;
    Ok((out, stats))
}

/// [`run_pool_stats`] without the telemetry, for call sites that only need
/// the results.
pub(crate) fn run_pool<T, R, F>(
    items: Vec<T>,
    threads: usize,
    work: F,
) -> Result<Vec<R>, WorkerPanic>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    run_pool_stats(items, threads, work).map(|(out, _)| out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_and_pooled_agree_and_preserve_order() {
        let items: Vec<u64> = (0..100).collect();
        let inline = run_pool(items.clone(), 1, |i, x| x * 2 + i as u64).unwrap();
        let pooled = run_pool(items, 4, |i, x| x * 2 + i as u64).unwrap();
        assert_eq!(inline, pooled);
        assert_eq!(inline[10], 30);
    }

    #[test]
    fn empty_and_singleton() {
        assert_eq!(
            run_pool(Vec::<u8>::new(), 8, |_, x| x).unwrap(),
            Vec::<u8>::new()
        );
        assert_eq!(run_pool(vec![7], 8, |_, x| x + 1).unwrap(), vec![8]);
    }

    #[test]
    fn inline_panic_is_caught() {
        let err = run_pool(vec![1u8, 2, 3], 1, |_, x| {
            if x == 2 {
                panic!("item {x} exploded");
            }
            x
        })
        .unwrap_err();
        assert!(err.0.contains("item 2 exploded"), "{}", err.0);
    }

    #[test]
    fn pooled_panic_aborts_and_reports() {
        let items: Vec<u64> = (0..64).collect();
        let err = run_pool(items, 4, |_, x| {
            if x == 13 {
                panic!("unlucky");
            }
            x
        })
        .unwrap_err();
        assert!(err.0.contains("unlucky"), "{}", err.0);
    }

    #[test]
    fn stats_cover_every_item_once() {
        use std::sync::atomic::AtomicU64;
        let hits = AtomicU64::new(0);
        let items: Vec<u64> = (0..1000).collect();
        let (out, stats) = run_pool_stats(items, 4, |i, x| {
            hits.fetch_add(1, Ordering::Relaxed);
            x + i as u64
        })
        .unwrap();
        assert_eq!(hits.load(Ordering::Relaxed), 1000);
        assert_eq!(out, (0..1000).map(|x| 2 * x).collect::<Vec<_>>());
        assert!(stats.shards >= 1 && stats.shards <= 4);
        assert!(stats.longest <= stats.busy);
    }

    #[test]
    fn inline_stats_report_single_shard() {
        let (out, stats) = run_pool_stats(vec![1u8, 2, 3], 1, |_, x| x).unwrap();
        assert_eq!(out, vec![1, 2, 3]);
        assert_eq!(stats.shards, 1);
        assert_eq!(stats.busy, stats.longest);
    }

    #[test]
    fn non_string_payload_is_described() {
        let err =
            run_pool(vec![0u8], 1, |_, _| -> u8 { std::panic::panic_any(42i32) }).unwrap_err();
        assert_eq!(err.0, "non-string panic payload");
    }
}
