//! Crash-safe checkpoint/resume for the experiments harness.
//!
//! Long evaluation runs (the paper-scale grids are hours of what-if
//! costing) must survive a SIGKILL: the harness records the outcome of
//! every completed method×workload cell in
//! `results/checkpoint_<run>.json`, rewritten atomically (temp file +
//! rename) after each cell completes. A rerun with `--resume` replays
//! recorded cells from the file — bit-exactly, including failed cells —
//! and computes only what is missing, so a killed-then-resumed run
//! reproduces the uninterrupted run's quality results byte-for-byte.
//!
//! # File format (DESIGN.md §9)
//!
//! ```json
//! {
//!   "run": "fig9a",
//!   "cells": {
//!     "<cell key>": {
//!       "improvement_bits": "405b8a4d70a3d70a",
//!       "compression_secs_bits": "3f50624dd2f1a9fc",
//!       "tuning_calls": 1234,
//!       "tuning_secs_bits": "3fb999999999999a"
//!     },
//!     "<failed cell key>": { "error": "invalid configuration: k must be positive" }
//!   }
//! }
//! ```
//!
//! `f64` fields are stored as hexadecimal IEEE-754 bit patterns — JSON
//! decimal round-tripping is not bit-exact, and the determinism contract
//! is. Cell keys are `<run>|<workload>|<method>|k<k>|<advisor>|<constraints>`
//! (built by [`crate::harness::evaluate_methods`]); the map is sorted, so
//! the file itself is deterministic given the same completed cell set.
//!
//! Timing fields are replayed as recorded: quality metrics (improvement,
//! tuning calls) are deterministic and therefore byte-identical on
//! resume, while wall-clock fields of cells computed *after* the resume
//! necessarily differ — which is why the resume test
//! (`tests/process.rs`) compares a quality-only figure.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use isum_common::{count, hex_bits, unhex_bits, Json};

use crate::harness::MethodEval;

/// One recorded outcome: a completed evaluation or a skipped cell's error
/// message, which is all a replay needs to report the cell again.
pub type CellOutcome = Result<MethodEval, String>;

struct Store {
    run: String,
    path: PathBuf,
    cells: BTreeMap<String, CellOutcome>,
}

impl Store {
    fn to_json(&self) -> Json {
        let cells = self
            .cells
            .iter()
            .map(|(k, v)| (k.clone(), outcome_to_json(v)))
            .collect::<Vec<(String, Json)>>();
        Json::Obj(vec![
            ("run".into(), Json::from(self.run.as_str())),
            ("cells".into(), Json::Obj(cells)),
        ])
    }

    /// Atomic write-through: serialize everything, write a temp file in
    /// the same directory, rename over the target. A SIGKILL at any
    /// instant leaves either the previous complete checkpoint or the new
    /// one — never a torn file.
    fn persist(&self) -> std::io::Result<()> {
        let tmp = self.path.with_extension("json.tmp");
        std::fs::write(&tmp, self.to_json().to_pretty())?;
        std::fs::rename(&tmp, &self.path)
    }
}

fn outcome_to_json(outcome: &CellOutcome) -> Json {
    match outcome {
        Ok(eval) => Json::Obj(vec![
            ("improvement_bits".into(), Json::from(hex_bits(eval.improvement_pct))),
            ("compression_secs_bits".into(), Json::from(hex_bits(eval.compression_secs))),
            ("tuning_calls".into(), Json::from(eval.tuning_calls)),
            ("tuning_secs_bits".into(), Json::from(hex_bits(eval.tuning_secs))),
            ("coverage_bits".into(), Json::from(hex_bits(eval.coverage))),
        ]),
        Err(e) => Json::Obj(vec![("error".into(), Json::from(e.as_str()))]),
    }
}

fn outcome_from_json(j: &Json) -> Option<CellOutcome> {
    if let Some(msg) = j.get("error").and_then(Json::as_str) {
        return Some(Err(msg.to_string()));
    }
    Some(Ok(MethodEval {
        improvement_pct: unhex_bits(j.get("improvement_bits")?.as_str()?)?,
        compression_secs: unhex_bits(j.get("compression_secs_bits")?.as_str()?)?,
        tuning_calls: j.get("tuning_calls")?.as_u64()?,
        tuning_secs: unhex_bits(j.get("tuning_secs_bits")?.as_str()?)?,
        coverage: unhex_bits(j.get("coverage_bits")?.as_str()?)?,
    }))
}

static ACTIVE: Mutex<Option<Store>> = Mutex::new(None);

fn active() -> std::sync::MutexGuard<'static, Option<Store>> {
    ACTIVE.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Activates checkpointing for run `run`, persisting to
/// `<dir>/checkpoint_<run>.json`. With `resume`, previously recorded
/// cells are loaded from an existing file (a missing file is an empty
/// checkpoint, not an error) and replayed by [`cell`]. Returns the number
/// of cells loaded.
///
/// # Errors
/// Propagates IO failures; a present-but-corrupt checkpoint file is
/// rejected rather than silently recomputed.
pub fn begin(run: &str, dir: &Path, resume: bool) -> std::io::Result<usize> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("checkpoint_{run}.json"));
    let mut cells = BTreeMap::new();
    if resume && path.exists() {
        let text = std::fs::read_to_string(&path)?;
        let parsed = Json::parse(&text).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("corrupt checkpoint {}: {e}", path.display()),
            )
        })?;
        if let Some(obj) = parsed.get("cells").and_then(Json::as_object) {
            for (key, value) in obj {
                let outcome = outcome_from_json(value).ok_or_else(|| {
                    std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("corrupt checkpoint cell `{key}` in {}", path.display()),
                    )
                })?;
                cells.insert(key.clone(), outcome);
            }
        }
    }
    let loaded = cells.len();
    *active() = Some(Store { run: run.to_string(), path, cells });
    Ok(loaded)
}

/// Deactivates checkpointing. The checkpoint file stays on disk so a
/// later `--resume` can replay the run.
pub fn finish() {
    *active() = None;
}

/// True when a checkpoint run is active.
pub fn is_active() -> bool {
    active().is_some()
}

/// Runs one checkpointable cell: if `key` was recorded (this run or a
/// resumed one), the recorded outcome is returned without recomputing
/// (counted as `harness.checkpoint.hits`); otherwise `compute` runs and
/// its outcome — success or failure — is recorded and persisted before
/// being returned. Without an active checkpoint this is just `compute()`.
///
/// The store lock is *not* held across `compute`, so parallel cells
/// proceed concurrently; two racing computations of the same key both
/// run and record identical values (the computation is deterministic).
pub fn cell(key: &str, compute: impl FnOnce() -> CellOutcome) -> CellOutcome {
    {
        let guard = active();
        match guard.as_ref() {
            None => {
                drop(guard);
                return compute();
            }
            Some(store) => {
                if let Some(hit) = store.cells.get(key) {
                    count!("harness.checkpoint.hits");
                    return hit.clone();
                }
            }
        }
    }
    let outcome = compute();
    let mut guard = active();
    if let Some(store) = guard.as_mut() {
        store.cells.insert(key.to_string(), outcome.clone());
        count!("harness.checkpoint.cells");
        if let Err(e) = store.persist() {
            isum_common::error!(
                "harness.checkpoint",
                format!("failed to persist checkpoint {}: {e}", store.path.display())
            );
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_patterns_round_trip_exactly() {
        for v in [0.0, -0.0, 1.0 / 3.0, f64::MAX, f64::MIN_POSITIVE, 1e9 + 1.0 / 7.0] {
            let eval = MethodEval {
                improvement_pct: v,
                compression_secs: v * 0.5,
                tuning_calls: 987654321,
                tuning_secs: v * 2.0,
                coverage: v * 0.25,
            };
            let back = outcome_from_json(&outcome_to_json(&Ok(eval))).unwrap().unwrap();
            assert_eq!(back.improvement_pct.to_bits(), eval.improvement_pct.to_bits());
            assert_eq!(back.compression_secs.to_bits(), eval.compression_secs.to_bits());
            assert_eq!(back.tuning_calls, eval.tuning_calls);
            assert_eq!(back.tuning_secs.to_bits(), eval.tuning_secs.to_bits());
            assert_eq!(back.coverage.to_bits(), eval.coverage.to_bits());
        }
        let nan = outcome_from_json(&outcome_to_json(&Ok(MethodEval {
            improvement_pct: f64::NAN,
            compression_secs: 0.0,
            tuning_calls: 0,
            tuning_secs: 0.0,
            coverage: 0.0,
        })))
        .unwrap()
        .unwrap();
        assert!(nan.improvement_pct.is_nan(), "even NaN survives the hex encoding");
    }

    #[test]
    fn error_outcomes_round_trip() {
        let err = isum_common::Error::InvalidConfig("k must be positive".into());
        let back = outcome_from_json(&outcome_to_json(&Err(err.to_string()))).unwrap();
        assert_eq!(back.unwrap_err(), "invalid configuration: k must be positive");
    }

    #[test]
    fn a_classed_failed_cell_still_replays() {
        // Earlier checkpoints also wrote the failure's class; it is ignored.
        let cell = Json::parse(r#"{"error": "optimizer flaked", "class": "transient"}"#).unwrap();
        assert_eq!(outcome_from_json(&cell).unwrap().unwrap_err(), "optimizer flaked");
    }
}
