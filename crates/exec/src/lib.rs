//! `isum_exec` — the parallel loops of the ISUM reproduction.
//!
//! [`par_map`] and [`par_map_indexed`] run a function over a slice on
//! `min(global_threads(), n)` scoped threads ([`std::thread::scope`]). The
//! threads take indices from one shared cursor and the results come back
//! in input order, so for a pure function the output is the sequential
//! map's, bit for bit, at any thread count (pinned by `tests/par_map.rs`,
//! and for the experiment harness by its `thread_invariance.rs`).
//!
//! [`par_chunks_mut`] cuts a mutable slice into `min(global_threads(), n)`
//! contiguous chunks and runs a function over each in place: the calling
//! thread takes the first chunk itself while spawned threads take the
//! rest (pinned by `tests/par_chunks.rs`).
//!
//! * A call made from inside either primitive's work runs inline on that
//!   thread: one level of parallelism, never more threads than configured.
//! * If an item (or a chunk) panics, the others still run; the first panic
//!   is re-raised after every thread has joined.
//! * Each thread carries the caller's request ID and the trace label
//!   `exec-<i>`, so events emitted inside stay attributed.
//!
//! DESIGN.md §8 lists the call sites and the measurement that kept each.
//!
//! # Configuration
//!
//! The thread count defaults to the machine's available parallelism,
//! overridden by the `ISUM_THREADS` environment variable or by
//! [`set_global_threads`] (the CLI's `--threads`). An `ISUM_THREADS` that
//! is not a positive integer is ignored with one `warn!` naming it. One
//! thread is the sequential program: nothing is spawned.
//!
//! # Telemetry
//!
//! `exec.par_map.calls` counts calls of both primitives and
//! `exec.par_map.threads` the threads they spawned (none for a call that
//! ran inline; a chunked call's caller is not counted).
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
use std::sync::OnceLock;

use isum_common::count;
use isum_common::trace;

/// The configured thread count; 0 until first read or set.
static THREADS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// True on a thread spawned by [`par_map_indexed`] or
    /// [`par_chunks_mut`], and on a caller while it runs its own chunk.
    static INSIDE: Cell<bool> = const { Cell::new(false) };
}

/// `ISUM_THREADS` (read once per process) when set to a positive integer,
/// otherwise the machine's available parallelism.
fn default_threads() -> usize {
    static ENV: OnceLock<Option<usize>> = OnceLock::new();
    ENV.get_or_init(|| threads_from(|var| std::env::var(var).ok())).unwrap_or_else(|| {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    })
}

/// The thread count `ISUM_THREADS` asks for, read through `lookup`:
/// `None` when unset, and also when it is not a positive integer, which
/// is reported with one `warn!` naming the value.
fn threads_from(lookup: impl Fn(&str) -> Option<String>) -> Option<usize> {
    let v = lookup("ISUM_THREADS")?;
    isum_common::trace::parse_env("exec", "ISUM_THREADS", &v, "a positive integer", |v| {
        v.trim().parse::<usize>().ok().filter(|&n| n >= 1)
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

/// Runs `f(start, chunk)` over `items` cut into `min(global_threads(), n)`
/// contiguous chunks, where `start` is the index of the chunk's first
/// item. The calling thread runs the first chunk while one spawned thread
/// runs each other chunk, so every item is written in place and the
/// caller never sits idle waiting. Inside a [`par_map`] thread, inside
/// another call's chunk, or at one thread, the whole slice is one chunk
/// on the calling thread and nothing is spawned.
pub fn par_chunks_mut<T, F>(items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    count!("exec.par_map.calls");
    let parts = global_threads().min(items.len());
    if parts <= 1 || INSIDE.with(Cell::get) {
        return f(0, items);
    }
    let len = items.len().div_ceil(parts);
    let mut chunks = items.chunks_mut(len);
    let first = chunks.next().expect("a non-empty slice has a first chunk");
    count!("exec.par_map.threads", chunks.len());
    let request_id = trace::current_request_id();
    let f = &f;
    let (mine, joined) = std::thread::scope(|s| {
        let handles: Vec<_> = chunks
            .enumerate()
            .map(|(c, chunk)| {
                let request_id = request_id.clone();
                std::thread::Builder::new()
                    .name(format!("exec-{}", c + 1))
                    .spawn_scoped(s, move || {
                        INSIDE.with(|inside| inside.set(true));
                        trace::set_thread_label(&format!("exec-{}", c + 1));
                        let _rid = request_id.as_deref().map(trace::with_request_id);
                        f((c + 1) * len, chunk);
                    })
                    .expect("spawn par_chunks_mut thread")
            })
            .collect();
        INSIDE.with(|inside| inside.set(true));
        let mine = catch_unwind(AssertUnwindSafe(|| f(0, first)));
        INSIDE.with(|inside| inside.set(false));
        (mine, handles.into_iter().map(|h| h.join()).collect::<Vec<_>>())
    });
    if let Some(payload) = std::iter::once(mine).chain(joined).find_map(Result::err) {
        resume_unwind(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isum_common::trace::{self, Level};

    #[test]
    fn isum_threads_takes_a_positive_integer_and_warns_about_anything_else() {
        let _g = trace::test_lock();
        trace::reset_for_tests();
        trace::set_filter_spec("off");
        trace::enable_ring(Level::Warn);
        let env = |v: &'static str| move |var: &str| (var == "ISUM_THREADS").then(|| v.into());
        let warnings = || {
            let events = trace::ring_tail(usize::MAX);
            events.into_iter().map(|e| e.message).filter(|m| m.contains("ISUM_THREADS"))
        };
        assert_eq!(threads_from(|_| None), None);
        assert_eq!(threads_from(env("3")), Some(3));
        assert_eq!(threads_from(env(" 16 ")), Some(16));
        assert_eq!(warnings().count(), 0, "well-formed values warn nothing");
        for (i, bad) in ["0", "-2", "four", "", "2.5"].into_iter().enumerate() {
            assert_eq!(threads_from(env(bad)), None, "`{bad}` falls back");
            let warned: Vec<String> = warnings().collect();
            assert_eq!(warned.len(), i + 1, "one warning per value: {warned:?}");
            assert!(warned[i].contains(&format!("`{bad}`")), "{}", warned[i]);
        }
        trace::reset_for_tests();
    }
}
