//! The contract of `par_chunks_mut`: every item written in place once, in
//! contiguous chunks with the caller taking the first, nested calls
//! inline, a panic raised only after every sibling chunk ran, request IDs
//! carried across threads, and nothing spawned at one thread.
//!
//! Every test sets the process-wide thread count, so they take one lock.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::thread::ThreadId;

use isum_common::telemetry;
use isum_exec::{par_chunks_mut, par_map, set_global_threads};

fn threads(n: usize) -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    let guard = LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    set_global_threads(n);
    guard
}

/// Each item's index, as `par_chunks_mut` reports it, and the thread that
/// wrote it.
fn run(n: usize) -> Vec<(usize, Option<ThreadId>)> {
    let mut items = vec![(usize::MAX, None); n];
    par_chunks_mut(&mut items, |start, chunk| {
        for (i, item) in (start..).zip(chunk) {
            *item = (i, Some(std::thread::current().id()));
        }
    });
    items
}

#[test]
fn every_item_is_written_once_in_order_with_the_caller_on_the_first_chunk() {
    let caller = std::thread::current().id();
    for n in [1, 2, 8] {
        let _g = threads(n);
        for len in [0, 1, 2, 3, 7, 8, 9, 100, 1001] {
            let items = run(len);
            let indices: Vec<usize> = items.iter().map(|(i, _)| *i).collect();
            assert_eq!(indices, (0..len).collect::<Vec<_>>(), "{n} threads, {len} items");
            // Contiguous chunks: a thread's items form one run.
            let mut runs: Vec<ThreadId> = Vec::new();
            for (_, t) in &items {
                let t = t.expect("written");
                if runs.last() != Some(&t) {
                    assert!(!runs.contains(&t), "{n} threads, {len} items: a thread came back");
                    runs.push(t);
                }
            }
            assert!(runs.len() <= n.min(len), "{n} threads, {len} items: {} chunks", runs.len());
            if len > 0 {
                assert_eq!(runs[0], caller, "the caller takes the first chunk");
            }
        }
    }
}

#[test]
fn one_thread_spawns_nothing() {
    let _g = threads(1);
    telemetry::set_enabled(true);
    let spawned = || telemetry::counter("exec.par_map.threads").get();
    let before = spawned();
    let caller = std::thread::current().id();
    assert!(run(500).iter().all(|(_, t)| *t == Some(caller)));
    assert_eq!(spawned(), before);
    drop(_g);

    let _g = threads(4);
    assert!(run(500).iter().any(|(_, t)| *t != Some(caller)));
    assert_eq!(spawned(), before + 3, "the caller is the fourth");
    telemetry::set_enabled(false);
}

#[test]
fn nested_calls_run_inline() {
    let _g = threads(4);
    // Inside a chunk, on the caller and on spawned threads alike.
    let mut outer = vec![(None, Vec::new()); 16];
    par_chunks_mut(&mut outer, |_, chunk| {
        for item in chunk {
            let me = std::thread::current().id();
            let mut inner = vec![None; 8];
            par_chunks_mut(&mut inner, |_, c| {
                c.fill(Some(std::thread::current().id()));
            });
            let mapped = par_map(&[0u8; 8], |_| Some(std::thread::current().id()));
            inner.extend(mapped);
            *item = (Some(me), inner);
        }
    });
    for (me, inner) in &outer {
        assert!(inner.iter().all(|t| t == me), "a nested call stays on its outer thread");
    }
    // Inside a par_map thread.
    let caller = std::thread::current().id();
    let nested = par_map(&[0u8; 8], |_| {
        let me = std::thread::current().id();
        let written = run(50);
        (me, written.iter().all(|(_, t)| *t == Some(me)))
    });
    assert!(nested.iter().all(|(me, inline)| *inline && *me != caller));
}

#[test]
fn a_panic_surfaces_after_every_sibling_chunk_ran() {
    let _g = threads(4);
    // The planted panic sits in each chunk in turn, the caller's included.
    for planted in [3, 30, 63] {
        let ran = AtomicUsize::new(0);
        let mut items: Vec<u32> = (0..64).collect();
        let result = catch_unwind(AssertUnwindSafe(|| {
            par_chunks_mut(&mut items, |_, chunk| {
                for &mut x in chunk {
                    if x == planted {
                        panic!("planted failure");
                    }
                    std::thread::sleep(std::time::Duration::from_micros(200));
                    ran.fetch_add(1, Ordering::SeqCst);
                }
            })
        }));
        let payload = result.expect_err("the planted panic propagates");
        assert_eq!(payload.downcast_ref::<&str>().copied(), Some("planted failure"));
        // Chunks of 16: the panicking chunk stops at its item, the three
        // others run to their end first.
        assert_eq!(ran.load(Ordering::SeqCst) as u32, 48 + planted % 16, "planted at {planted}");
    }
    let mut items = [1u32, 2];
    par_chunks_mut(&mut items, |_, c| c.iter_mut().for_each(|x| *x *= 10));
    assert_eq!(items, [10, 20], "usable after a panic");
}

#[test]
fn request_id_crosses_into_chunk_threads() {
    for n in [1, 4] {
        let _g = threads(n);
        let rid = isum_common::trace::with_request_id("rid-chunks-7");
        let mut ids = vec![None; 16];
        par_chunks_mut(&mut ids, |_, c| c.fill(isum_common::trace::current_request_id()));
        assert!(
            ids.iter().all(|id| id.as_deref() == Some("rid-chunks-7")),
            "{n} threads: every chunk carries the caller's request ID: {ids:?}"
        );
        drop(rid);
    }
}
