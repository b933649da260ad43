//! Panic-isolation contract, telemetry half: every panic's label lands in
//! telemetry (not only the first payload), next to the quarantine count.
//!
//! Alone in its test binary: it asserts exact values of process-global
//! counters, which the panicking tasks of `quarantine.rs` would race if
//! they shared a process (they did, and this test flaked at
//! `ISUM_THREADS=4`).

use std::panic::{catch_unwind, AssertUnwindSafe};

use isum_exec::ThreadPool;

#[test]
fn panic_labels_and_quarantine_counters_reach_telemetry() {
    use isum_common::telemetry;
    telemetry::set_enabled(true);
    telemetry::reset();

    let pool = ThreadPool::new(2);
    let result = catch_unwind(AssertUnwindSafe(|| {
        pool.scope(|s| {
            s.spawn_labeled("stage_a", || panic!("first"));
            s.spawn_labeled("stage_b", || panic!("second"));
        });
    }));
    assert!(result.is_err());

    let _ = pool.try_par_map(&[1u32, 2, 3], |&x| {
        if x == 2 {
            panic!("bad item");
        }
        x
    });

    // Both labels recorded — not only the first panic — plus quarantine.
    assert_eq!(telemetry::counter("exec.panic.stage_a").get(), 1);
    assert_eq!(telemetry::counter("exec.panic.stage_b").get(), 1);
    assert_eq!(telemetry::counter("faults.quarantined").get(), 1);
    assert!(telemetry::counter("exec.task_panics").get() >= 3);

    telemetry::set_enabled(false);
}
