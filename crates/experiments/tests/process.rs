//! The `experiments` binary as a process, at quick scale on 4 threads: a
//! run SIGKILLed mid-way and then `--resume`d writes the uninterrupted
//! run's tables byte for byte, the timing figures start no thread, and a
//! bad `ISUM_SCALE` is refused before anything is written.

#[path = "../../cli/tests/support/mod.rs"]
mod support;

use std::path::Path;
use std::process::{Command, Stdio};

use isum_common::Json;

fn experiments(dir: &Path, extra_env: &[(&str, &str)], args: &[&str]) -> Command {
    let mut env = vec![("ISUM_SCALE", "quick"), ("ISUM_THREADS", "4")];
    env.extend_from_slice(extra_env);
    let mut cmd = support::command(env!("CARGO_BIN_EXE_experiments"), dir, &env);
    cmd.args(args).stdout(Stdio::null());
    cmd
}

fn json(path: &Path) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Cells recorded in `dir`'s fig9a checkpoint so far.
fn cells(dir: &Path) -> usize {
    let path = dir.join("results/checkpoint_fig9a.json");
    if !path.exists() {
        return 0;
    }
    json(&path).get("cells").and_then(Json::as_object).map_or(0, <[_]>::len)
}

fn counter(dir: &Path, run: &str, name: &str) -> u64 {
    let report = json(&dir.join(format!("results/telemetry_{run}.json")));
    let counters = report.get("telemetry").and_then(|t| t.get("counters")).expect("counters");
    counters.get(name).and_then(Json::as_u64).unwrap_or(0)
}

/// `fig9a.json` and every `fig9a_*.csv`, by name.
fn tables(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let files = std::fs::read_dir(dir.join("results")).expect("results").map(|e| e.expect("entry"));
    let mut tables: Vec<_> = files
        .map(|e| (e.file_name().to_string_lossy().into_owned(), e.path()))
        .filter(|(name, _)| name.starts_with("fig9a"))
        .map(|(name, path)| (name, std::fs::read(path).expect("readable")))
        .collect();
    tables.sort();
    tables
}

#[test]
fn a_killed_run_resumes_byte_identically() {
    let root = support::temp_dir("experiments_fig9a");
    let [reference, killed] = ["reference", "killed"].map(|d| {
        std::fs::create_dir(root.join(d)).expect("run dir");
        root.join(d)
    });
    support::run(&mut experiments(&reference, &[], &["fig9a"]));
    let total = cells(&reference);
    let count = |name| counter(&reference, "fig9a", name);
    let (calls, threads) = (count("exec.par_map.calls"), count("exec.par_map.threads"));
    assert!(calls > 0 && 0 < threads && threads <= 4 * calls, "{threads} threads, {calls} calls");

    // SIGKILL once the checkpoint holds a cell, then resume.
    let mut child = experiments(&killed, &[], &["fig9a"]).spawn().expect("spawns");
    while cells(&killed) == 0 {
        assert!(child.try_wait().expect("polls").is_none(), "the run ended before any cell");
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    child.kill().expect("SIGKILL");
    child.wait().expect("reaps");
    let recorded = cells(&killed);
    assert!((1..total).contains(&recorded), "killed after {recorded} of {total} cells");
    support::run(&mut experiments(&killed, &[], &["--resume", "fig9a"]));
    assert!(tables(&reference).len() > 1);
    assert!(tables(&killed) == tables(&reference), "resumed tables differ from the reference");
    assert!(counter(&killed, "fig9a", "harness.checkpoint.hits") >= 1, "cells were replayed");
    assert!(counter(&killed, "fig9a", "harness.checkpoint.cells") >= 1, "cells were recomputed");

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn timing_figures_start_no_thread() {
    let dir = support::temp_dir("experiments_timing");
    support::run(&mut experiments(&dir, &[], &["fig6", "fig13"]));
    for run in ["fig6", "fig13"] {
        assert_eq!(counter(&dir, run, "exec.par_map.threads"), 0, "{run} ran a parallel loop");
        let report = json(&dir.join(format!("results/telemetry_{run}.json")));
        let whatif = |key| report.get("whatif").and_then(|w| w.get(key)?.as_f64());
        assert!(whatif("calls").is_some_and(|c| c > 0.0), "{run} costs queries");
        let hit_rate = whatif("cache_hit_rate").expect("cache_hit_rate");
        assert!((0.0..=1.0).contains(&hit_rate), "{run}: cache hit rate {hit_rate}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_bad_scale_exits_2_and_writes_nothing() {
    let dir = support::temp_dir("experiments_refused");
    let out = experiments(&dir, &[("ISUM_SCALE", "papr")], &["fig6"])
        .stderr(Stdio::piped())
        .output()
        .expect("runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("quick|medium|large|paper"), "{stderr}");
    let written: Vec<_> = std::fs::read_dir(&dir).expect("dir").collect();
    assert!(written.is_empty(), "wrote {written:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
