//! Panic-isolation contract: `try_par_map` quarantines poisoned items
//! without killing siblings, and scopes drain before propagating. (That
//! every panic's label lands in telemetry is `quarantine_telemetry.rs`.)

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use isum_exec::ThreadPool;

#[test]
fn try_par_map_quarantines_poisoned_items() {
    let pool = ThreadPool::new(4);
    let items: Vec<u32> = (0..100).collect();
    let out = pool.try_par_map(&items, |&x| {
        if x % 7 == 0 {
            panic!("poisoned query {x}");
        }
        x * 2
    });
    assert_eq!(out.len(), items.len());
    for (i, slot) in out.iter().enumerate() {
        if i % 7 == 0 {
            let p = slot.as_ref().expect_err("multiples of 7 are poisoned");
            assert_eq!(p.message, format!("poisoned query {i}"));
        } else {
            assert_eq!(*slot.as_ref().expect("healthy items succeed"), (i as u32) * 2);
        }
    }
    // Deterministic across thread counts, including the quarantine slots.
    let seq = ThreadPool::new(1).try_par_map(&items, |&x| {
        if x % 7 == 0 {
            panic!("poisoned query {x}");
        }
        x * 2
    });
    assert_eq!(out, seq);
}

#[test]
fn siblings_complete_before_scope_propagates() {
    let pool = ThreadPool::new(4);
    let completed = AtomicUsize::new(0);
    let result = catch_unwind(AssertUnwindSafe(|| {
        pool.scope(|s| {
            s.spawn(|| panic!("early poison"));
            for _ in 0..64 {
                let completed = &completed;
                s.spawn(move || {
                    std::thread::sleep(std::time::Duration::from_micros(100));
                    completed.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
    }));
    assert!(result.is_err(), "scope re-raises the panic");
    assert_eq!(
        completed.load(Ordering::SeqCst),
        64,
        "every sibling task must run to completion before the panic propagates"
    );
}
