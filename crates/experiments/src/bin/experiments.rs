//! Experiment runner CLI.
//!
//! ```text
//! cargo run -p isum-experiments --release -- [--resume] <id>... | all
//! ISUM_SCALE=quick|medium|large|paper   selects workload sizes
//! ```
//!
//! Telemetry is always on here: each run resets the registry, and a
//! per-run report lands in `results/telemetry_<id>.json` next to the
//! result tables (see README.md § Observability for the schema).
//!
//! Every run checkpoints each completed method×workload cell to
//! `results/checkpoint_<id>.json` (atomic rewrite after each cell).
//! `--resume` replays cells recorded by an earlier — possibly killed —
//! run instead of recomputing them, reproducing the uninterrupted run's
//! quality results byte-for-byte.
#![allow(clippy::disallowed_macros)] // CLI usage and errors are plain stderr

use std::path::PathBuf;
use std::time::Instant;

use isum_common::telemetry;
use isum_experiments::checkpoint;
use isum_experiments::figs::{self, ALL_IDS};
use isum_experiments::harness::write_telemetry_report;
use isum_experiments::report;
use isum_experiments::Scale;

fn usage(code: i32) -> ! {
    eprintln!("usage: experiments [--resume] <id>... | all");
    eprintln!("ids: {}", ALL_IDS.join(" "));
    eprintln!("env: ISUM_SCALE=quick|medium|large|paper (default medium)");
    std::process::exit(code);
}

fn main() {
    isum_common::trace::init_from_env();
    let mut resume = false;
    let mut ids_raw: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--help" | "-h" => usage(0),
            "--resume" => resume = true,
            other => ids_raw.push(other.to_string()),
        }
    }
    if ids_raw.is_empty() {
        usage(2);
    }
    let ids: Vec<&str> = if ids_raw.iter().any(|a| a == "all") {
        ALL_IDS.to_vec()
    } else {
        ids_raw.iter().map(String::as_str).collect()
    };
    for id in &ids {
        if !ALL_IDS.contains(id) {
            eprintln!("unknown experiment `{id}`; known: {}", ALL_IDS.join(" "));
            std::process::exit(2);
        }
    }
    let scale = Scale::from_env().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let out = PathBuf::from("results");
    telemetry::set_enabled(true);
    for id in ids {
        let t0 = Instant::now();
        println!("\n### running {id} ...");
        telemetry::reset();
        match checkpoint::begin(id, &out, resume) {
            Ok(loaded) if resume && loaded > 0 => {
                println!("### resume: replaying {loaded} checkpointed cell(s)");
            }
            Ok(_) => {}
            Err(e) => {
                eprintln!("cannot open checkpoint for {id}: {e}");
                std::process::exit(1);
            }
        }
        let tables = figs::run(id, &scale);
        checkpoint::finish();
        if let Err(e) = report::emit(&tables, &out) {
            eprintln!("cannot write results for {id}: {e}");
            std::process::exit(1);
        }
        match write_telemetry_report(id, &out) {
            Ok(path) => println!("### telemetry: {}", path.display()),
            Err(e) => {
                eprintln!("cannot write telemetry report for {id}: {e}");
                std::process::exit(1);
            }
        }
        println!("### {id} done in {:.1}s", t0.elapsed().as_secs_f64());
    }
}
