//! What `load_script` allocates and keeps, per statement, on a generated
//! TPC-H script: a memory gate that reads an allocator, not a clock.
//!
//! Every statement of a template-generated log repeats the token shape of
//! an earlier one, so an instance should cost little more than its text,
//! its filters and its row of the workload: the lists its shape fixes
//! (tables, joins, group/order/projection columns) are shared, not
//! copied, and the split text moves into the query.
//!
//! The load runs at one thread and at two, where the statements are
//! analyzed on the calling thread and a worker; the allocations of every
//! thread count.
//!
//! Alone in its test binary, with one test: it installs a counting global
//! allocator that counts every thread while the load runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicUsize, Ordering};

use isum_common::rng::DetRng;
use isum_sql::BoundQuery;
use isum_workload::gen::tpch::instantiate_template;
use isum_workload::gen::tpch_catalog;
use isum_workload::load_script;

#[allow(dead_code)] // the generator families go unused here
mod common;
use common::{shape, shares_lists};

/// Counts the allocations and live bytes of every thread while on, and
/// apart the allocations made off the thread that turned it on.
struct Counting;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static WORKER_ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);

thread_local! {
    static CALLER: Cell<bool> = const { Cell::new(false) };
}

fn charge(allocations: usize, bytes: isize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCATIONS.fetch_add(allocations, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed);
        if !CALLER.with(Cell::get) {
            WORKER_ALLOCATIONS.fetch_add(allocations, Ordering::Relaxed);
        }
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        charge(1, layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        charge(1, layout.size() as isize);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        charge(0, -(layout.size() as isize));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        charge(1, new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn load_script_keeps_little_more_than_each_statement_text() {
    let n = 4000;
    let mut rng = DetRng::seeded(42);
    let mut script = String::new();
    for i in 0..n {
        script.push_str(instantiate_template(i % 22 + 1, &mut rng).trim_end_matches(';'));
        script.push_str(";\n");
    }
    let catalog = tpch_catalog(10);
    CALLER.with(|c| c.set(true));

    for threads in [1, 2] {
        isum_exec::set_global_threads(threads);
        ALLOCATIONS.store(0, Ordering::Relaxed);
        WORKER_ALLOCATIONS.store(0, Ordering::Relaxed);
        LIVE_BYTES.store(0, Ordering::Relaxed);
        let catalog = catalog.clone();
        COUNTING.store(true, Ordering::Relaxed);
        let w = load_script(catalog, &script).expect("generated script loads");
        COUNTING.store(false, Ordering::Relaxed);
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) as f64 / n as f64;
        let live = LIVE_BYTES.load(Ordering::Relaxed) as f64 / n as f64;
        let text = w.queries.iter().map(|q| q.sql.len()).sum::<usize>() as f64 / n as f64;
        let on_workers = WORKER_ALLOCATIONS.load(Ordering::Relaxed);

        assert_eq!(w.len(), n);
        if threads == 1 {
            assert_eq!(on_workers, 0, "one thread loads on the caller alone");
        } else {
            assert!(on_workers as f64 > n as f64 / 4.0, "{on_workers} allocations on the worker");
        }
        assert!(
            allocations <= 4.0,
            "{threads} threads: {allocations:.2} allocations per statement"
        );
        assert!(
            live <= 800.0,
            "{threads} threads: {live:.0} live bytes per statement, {text:.0} of them text"
        );
        assert_shares_lists(&w);
    }
}

/// Every statement that repeats an earlier one's shape points at that
/// statement's lists, across chunk edges too.
fn assert_shares_lists(w: &isum_workload::Workload) {
    let n = w.len();
    let mut first: HashMap<String, &BoundQuery> = HashMap::new();
    let mut repeats = 0;
    for q in &w.queries {
        match first.get(&shape(&q.sql)) {
            Some(earlier) => {
                assert!(
                    shares_lists(earlier, &q.bound),
                    "query {} copies its shape's lists",
                    q.id.index()
                );
                repeats += 1;
            }
            None => {
                first.insert(shape(&q.sql), &q.bound);
            }
        }
    }
    assert!(repeats > n * 9 / 10, "{repeats} repeats of {} shapes", first.len());
}
