//! `isum_exec` — the one parallel map of the ISUM reproduction.
//!
//! [`par_map`] and [`par_map_indexed`] run a function over a slice on
//! `min(global_threads(), n)` scoped threads ([`std::thread::scope`]). The
//! threads take indices from one shared cursor and the results come back
//! in input order, so for a pure function the output is the sequential
//! map's, bit for bit, at any thread count (pinned by `tests/par_map.rs`,
//! and for the experiment harness by its `fault_smoke.rs`).
//!
//! * A call made from inside a `par_map` thread runs inline on that
//!   thread: one level of parallelism, never more threads than configured.
//! * If an item panics, the other items still run; the first panic is
//!   re-raised after every thread has joined. [`try_par_map`] instead turns
//!   each panicking item into an `Err(TaskPanic)` slot.
//! * Each thread carries the caller's request ID and the trace label
//!   `exec-<i>`, so events emitted inside stay attributed.
//!
//! DESIGN.md §8 lists the call sites and the measurement that kept each.
//!
//! # Configuration
//!
//! The thread count defaults to the machine's available parallelism,
//! overridden by the `ISUM_THREADS` environment variable or by
//! [`set_global_threads`] (the CLI's `--threads`). One thread is the
//! sequential program: nothing is spawned.
//!
//! # Telemetry
//!
//! `exec.par_map.calls` counts calls and `exec.par_map.threads` the
//! threads they spawned (none for a call that ran inline). [`try_par_map`]
//! counts each quarantined item as `exec.task_panics` and
//! `faults.quarantined`.
//!
//! # Example
//!
//! ```
//! let squares = isum_exec::par_map(&[1u64, 2, 3, 4], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]); // always in input order
//! ```

#![forbid(unsafe_code)]

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use isum_common::count;
use isum_common::trace;

/// The configured thread count; 0 until first read or set.
static THREADS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// True on a thread spawned by [`par_map_indexed`].
    static INSIDE: Cell<bool> = const { Cell::new(false) };
}

/// `ISUM_THREADS` when set to a positive integer, otherwise the machine's
/// available parallelism.
fn default_threads() -> usize {
    std::env::var("ISUM_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        })
}

/// Sets the thread count of every later call (clamped to at least 1).
pub fn set_global_threads(n: usize) {
    THREADS.store(n.max(1), Ordering::Relaxed);
}

/// The thread count a call fans out to (read from the environment on
/// first use unless [`set_global_threads`] came first).
pub fn global_threads() -> usize {
    if THREADS.load(Ordering::Relaxed) == 0 {
        let _ =
            THREADS.compare_exchange(0, default_threads(), Ordering::Relaxed, Ordering::Relaxed);
    }
    THREADS.load(Ordering::Relaxed)
}

/// Parallel map in input order: `items.iter().map(f).collect()`.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_indexed(items, |_, t| f(t))
}

/// [`par_map`] whose function also receives the input index.
pub fn par_map_indexed<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    count!("exec.par_map.calls");
    let threads = global_threads().min(items.len());
    if threads <= 1 || INSIDE.with(Cell::get) {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    count!("exec.par_map.threads", threads);
    let cursor = AtomicUsize::new(0);
    let request_id = trace::current_request_id();
    let work = |label: usize| {
        INSIDE.with(|inside| inside.set(true));
        trace::set_thread_label(&format!("exec-{label}"));
        let _rid = request_id.as_deref().map(trace::with_request_id);
        let mut done = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else { return done };
            done.push((i, f(i, item)));
        }
    };
    let joined: Vec<std::thread::Result<Vec<(usize, R)>>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let work = &work;
                std::thread::Builder::new()
                    .name(format!("exec-{t}"))
                    .spawn_scoped(s, move || work(t))
                    .expect("spawn par_map thread")
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(items.len()).collect();
    for part in joined {
        match part {
            Ok(done) => done.into_iter().for_each(|(i, r)| slots[i] = Some(r)),
            Err(payload) => resume_unwind(payload),
        }
    }
    slots.into_iter().map(|r| r.expect("every index mapped")).collect()
}

/// [`par_map`] with per-item panic quarantine: a panicking item yields
/// `Err(TaskPanic)` in its slot, counted as `exec.task_panics` and
/// `faults.quarantined`, and every other item still completes.
pub fn try_par_map<T, R, F>(items: &[T], f: F) -> Vec<Result<R, TaskPanic>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map(items, |t| {
        catch_unwind(AssertUnwindSafe(|| f(t))).map_err(|payload| {
            count!("exec.task_panics");
            count!("faults.quarantined");
            TaskPanic::from_payload(payload.as_ref())
        })
    })
}

/// A panic captured by [`try_par_map`] in place of the item's result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskPanic {
    /// The panic payload as text (`&str`/`String` payloads verbatim).
    pub message: String,
}

impl TaskPanic {
    fn from_payload(payload: &(dyn std::any::Any + Send)) -> Self {
        let message = if let Some(s) = payload.downcast_ref::<&'static str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "<non-string panic payload>".to_string()
        };
        Self { message }
    }
}

impl std::fmt::Display for TaskPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task panicked: {}", self.message)
    }
}

impl std::error::Error for TaskPanic {}
