//! The contract of `par_map`: input order at any thread count, nested
//! calls inline, panics raised only after every sibling item ran,
//! quarantine with counts, and request IDs carried across threads.
//!
//! Every test sets the process-wide thread count, so they take one lock.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

use isum_exec::{par_map, par_map_indexed, set_global_threads, try_par_map};

fn threads(n: usize) -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    let guard = LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    set_global_threads(n);
    guard
}

#[test]
fn input_order_is_kept_at_one_two_and_eight_threads() {
    let items: Vec<f64> = (1..2_000).map(|i| 1.0 / f64::from(i)).collect();
    let work = |&x: &f64| (1..50).map(|k| (x * f64::from(k)).sin()).sum::<f64>();
    let sequential: Vec<u64> = items.iter().map(|x| work(x).to_bits()).collect();
    for n in [1, 2, 8] {
        let _g = threads(n);
        let got: Vec<u64> = par_map(&items, |x| work(x).to_bits());
        assert_eq!(got, sequential, "{n} threads");
        let indexed = par_map_indexed(&items, |i, _| i);
        assert_eq!(indexed, (0..items.len()).collect::<Vec<_>>(), "{n} threads");
    }
    let _g = threads(8);
    assert!(par_map(&[] as &[u32], |&x| x).is_empty());
    assert_eq!(par_map(&[7u32], |&x| x + 1), vec![8]);
}

#[test]
fn one_thread_and_nested_calls_run_inline() {
    let _g = threads(1);
    let caller = std::thread::current().id();
    assert!(par_map(&[1, 2, 3], |_| std::thread::current().id()).iter().all(|&t| t == caller));

    drop(_g);
    let _g = threads(4);
    let outer: Vec<(std::thread::ThreadId, Vec<std::thread::ThreadId>)> =
        par_map(&[0u32; 16], |_| {
            let me = std::thread::current().id();
            (me, par_map(&[0u32; 8], |_| std::thread::current().id()))
        });
    for (me, inner) in &outer {
        assert_ne!(*me, caller, "the outer call fans out");
        assert!(inner.iter().all(|t| t == me), "a nested call stays on its outer thread");
    }
}

#[test]
fn a_panic_surfaces_after_every_sibling_item_ran() {
    let _g = threads(4);
    for _ in 0..3 {
        let ran = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            par_map(&(0..64).collect::<Vec<u32>>(), |&x| {
                assert!(x != 3, "planted failure");
                std::thread::sleep(std::time::Duration::from_micros(200));
                ran.fetch_add(1, Ordering::SeqCst);
            })
        }));
        let payload = result.expect_err("the planted panic propagates");
        assert_eq!(payload.downcast_ref::<&str>().copied(), Some("planted failure"));
        assert_eq!(ran.load(Ordering::SeqCst), 63, "every other item ran first");
    }
    assert_eq!(par_map(&[1u32, 2], |&x| x), vec![1, 2], "usable after a panic");
}

#[test]
fn try_par_map_quarantines_and_counts() {
    use isum_common::telemetry;
    let poisoned = |&x: &u32| {
        if x % 7 == 0 {
            panic!("poisoned query {x}");
        }
        x * 2
    };
    let items: Vec<u32> = (0..100).collect();
    let _g = threads(1);
    let sequential = try_par_map(&items, poisoned);
    drop(_g);
    let _g = threads(4);
    telemetry::set_enabled(true);
    telemetry::reset();
    let out = try_par_map(&items, poisoned);
    let quarantined = telemetry::counter("faults.quarantined").get();
    let panics = telemetry::counter("exec.task_panics").get();
    telemetry::set_enabled(false);

    assert_eq!(out, sequential, "quarantine slots do not depend on the thread count");
    for (i, slot) in out.iter().enumerate() {
        match slot {
            Err(p) => {
                assert_eq!(i % 7, 0);
                assert_eq!(p.message, format!("poisoned query {i}"));
            }
            Ok(v) => assert_eq!(*v, i as u32 * 2),
        }
    }
    assert_eq!(quarantined, 15);
    assert_eq!(panics, 15);
}

#[test]
fn request_id_crosses_into_par_map_threads() {
    // Events emitted inside a par_map (core compression under a /tune
    // handler) stay attributed to the caller's request, on spawned
    // threads and inline alike.
    for n in [1, 4] {
        let _g = threads(n);
        let rid = isum_common::trace::with_request_id("rid-par-map-42");
        let ids = par_map(&[0u32; 16], |_| isum_common::trace::current_request_id());
        assert!(
            ids.iter().all(|id| id.as_deref() == Some("rid-par-map-42")),
            "{n} threads: every item carries the caller's request ID: {ids:?}"
        );
        drop(rid);
        let ids = par_map(&[0u32; 4], |_| isum_common::trace::current_request_id());
        assert!(ids.iter().all(Option::is_none), "{n} threads: no ID leaks later: {ids:?}");
    }
}
