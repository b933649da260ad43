//! `isum-benchmark` — the repo's one benchmark.
//!
//! ```text
//! isum-benchmark run [--workload <name>] [--seed <n>] [--seconds <s>] [--trace <0|1>]
//!                    [--smoke] [--out <result.json>]
//! isum-benchmark compare <a.json> <b.json>
//! ```
//!
//! `run` measures one workload (or, without `--workload`, all four in
//! turn), checks the outputs, prints every metric by name with its unit,
//! and ends with one JSON line `{"correct", "attempted", "failed",
//! "metrics"}` holding the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics (`--trace 1`). `compare` judges two `--out` files
//! against the bounds in `BENCHMARK.json`. See README.md.

pub mod batch;
pub mod compare;
pub mod pipeline;
pub mod serve;
pub mod spec;
pub mod util;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use isum_common::Json;

use spec::{Kind, Metric, END_TO_END, PER_LAYER};
use util::Values;

/// What every workload run is given.
pub struct RunOpts {
    pub seed: u64,
    /// Seconds of timed work after which no further unit/round starts.
    pub seconds: f64,
    pub trace: bool,
    /// Smoke sizes: one unit/round of about a fiftieth of the work.
    pub smoke: bool,
    /// Directory (inside the checkout) the run may write to.
    pub scratch: PathBuf,
    /// The `isum` executable serve workloads start as their daemon.
    pub daemon: PathBuf,
}

/// What a workload run produces.
pub struct Outcome {
    pub e2e: Values,
    /// Present on traced runs.
    pub layers: Option<Values>,
    /// Operations attempted: units, ingest batches, summary polls, checks.
    pub attempted: u64,
    /// Of those, the ones that failed.
    pub failed: u64,
    pub failures: Vec<String>,
    pub samples: Vec<(&'static str, usize)>,
    pub notes: Vec<(&'static str, String)>,
    /// Worker-pool size of the process under test.
    pub threads: usize,
    pub wall_s: f64,
}

impl Outcome {
    fn new(threads: usize) -> Outcome {
        Outcome {
            e2e: Values::new(),
            layers: None,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            samples: Vec::new(),
            notes: Vec::new(),
            threads,
            wall_s: 0.0,
        }
    }

    /// Counts one output check; a failed one is reported and makes the
    /// run incorrect.
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    fn sample(&mut self, name: &'static str, count: usize) {
        self.samples.push((name, count));
    }

    fn note(&mut self, name: &'static str, value: String) {
        self.notes.push((name, value));
    }
}

/// The binary's entry point: dispatches `run` / `compare` and maps the
/// result to the exit code (0 = all checks passed / within bounds, 2 =
/// a check failed / out of bounds, 1 = the benchmark itself failed).
pub fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("compare") => compare::compare(&args[1..]),
        _ => Err("usage: isum-benchmark run [--workload <name>] [--seed <n>] [--seconds <s>] \
                  [--trace <0|1>] [--smoke] [--out <file>] | compare <a.json> <b.json>"
            .into()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(2),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

/// The repo root: this package lives one level below it.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn run(args: &[String]) -> Result<bool, String> {
    let mut workload: Option<String> = None;
    let mut opts = RunOpts {
        seed: 42,
        seconds: 20.0,
        trace: false,
        smoke: false,
        scratch: repo_root().join("benchmark/scratch"),
        daemon: PathBuf::new(),
    };
    let mut out_file: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => opts.seed = value()?.parse().map_err(|_| "--seed must be an integer")?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|_| "--seconds must be a number")?;
                if !(opts.seconds > 0.0 && opts.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                }
            }
            "--smoke" => opts.smoke = true,
            "--out" => out_file = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let all = spec::workloads(opts.smoke);
    let selected: Vec<_> = match &workload {
        None => all.to_vec(),
        Some(name) => {
            let w = all.iter().find(|w| w.name == name).ok_or_else(|| {
                let names: Vec<_> = all.iter().map(|w| w.name).collect();
                format!("unknown workload `{name}` (one of {})", names.join(", "))
            })?;
            vec![*w]
        }
    };
    // Built on every run, whichever workload it measures: the first run in
    // a checkout then does all the building, and later ones pay the same
    // fraction of a second for cargo to find nothing to do.
    opts.daemon = serve::build_daemon()?;
    // Each run works in its own directory, so concurrent runs (the test
    // suite's) never share a file.
    opts.scratch = opts.scratch.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&opts.scratch)
        .map_err(|e| format!("{}: {e}", opts.scratch.display()))?;
    let env = environment(&opts);
    println!("environment: {}", env.to_compact());

    let measured: Result<Vec<_>, String> = selected
        .iter()
        .map(|w| {
            let t = Instant::now();
            let mut o = match &w.kind {
                Kind::Batch(spec) => batch::run(spec, &opts),
                Kind::Serve(spec) => serve::run(spec, &opts),
            }
            .map_err(|e| format!("{}: {e}", w.name))?;
            o.wall_s = t.elapsed().as_secs_f64();
            print_outcome(w.name, &o);
            Ok((w.name, o))
        })
        .collect();
    let _ = std::fs::remove_dir_all(&opts.scratch);
    let outcomes = measured?;

    if let Some(path) = &out_file {
        let doc = result_document(&env, &outcomes);
        std::fs::write(path, format!("{}\n", doc.to_pretty()))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{}", result_line(&outcomes, opts.trace)?.to_compact());
    Ok(outcomes.iter().all(|(_, o)| o.failed == 0))
}

/// Where and on what the numbers were taken.
fn environment(opts: &RunOpts) -> Json {
    let line = |program: &str, args: &[&str]| -> String {
        Command::new(program)
            .args(args)
            .current_dir(repo_root())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".into())
    };
    let fs = util::fs_type(&opts.scratch);
    let fsync = if fs == "tmpfs" || fs == "ramfs" {
        "scratch is memory-backed: fsync is free here, WAL numbers flatter a real disk"
    } else {
        "fsync goes to the scratch filesystem's device"
    };
    isum_common::json::obj([
        ("cpus", Json::from(std::thread::available_parallelism().map_or(1, |n| n.get()))),
        ("rustc", Json::from(line("rustc", &["--version"]))),
        ("commit", Json::from(line("git", &["rev-parse", "--short", "HEAD"]))),
        ("seed", Json::from(opts.seed)),
        ("seconds", Json::Num(opts.seconds)),
        ("smoke", Json::Bool(opts.smoke)),
        ("scratch_fs", Json::from(fs.as_str())),
        ("fsync", Json::from(fsync)),
    ])
}

fn print_metrics(title: &str, declared: &[Metric], values: &Values) {
    println!("  {title}:");
    for m in declared {
        match values.get(m.name) {
            Some(v) => println!("    {:<40} {:>16.4} {}", m.name, v, m.unit),
            None => println!("    {:<40} {:>16} {}", m.name, "0 (bypassed)", m.unit),
        }
    }
}

fn print_outcome(name: &str, o: &Outcome) {
    println!(
        "workload {name}: threads={} wall_s={:.2} ops_attempted={} ops_failed={}",
        o.threads, o.wall_s, o.attempted, o.failed
    );
    for (k, v) in &o.samples {
        println!("  samples.{k} = {v}");
    }
    for (k, v) in &o.notes {
        println!("  {k} = {v}");
    }
    for f in &o.failures {
        println!("  FAILED CHECK: {f}");
    }
    print_metrics("end to end", END_TO_END, &o.e2e);
    if let Some(layers) = &o.layers {
        print_metrics("per layer", PER_LAYER, layers);
    }
}

fn values_json(
    declared: &[Metric],
    values: &Values,
    prefix: &str,
) -> Result<Vec<(String, Json)>, String> {
    declared
        .iter()
        .map(|m| {
            // A per-layer metric nobody reported belongs to a layer the
            // workload bypasses.
            let v = values.get(m.name).copied().unwrap_or(0.0);
            if !v.is_finite() {
                return Err(format!("metric {} is not finite ({v})", m.name));
            }
            let entry =
                isum_common::json::obj([("value", Json::Num(v)), ("unit", Json::from(m.unit))]);
            Ok((format!("{prefix}{}", m.name), entry))
        })
        .collect()
}

/// The last stdout line. One workload: its metrics by their declared
/// names. All workloads: each metric prefixed with `<workload>.`.
fn result_line(outcomes: &[(&str, Outcome)], trace: bool) -> Result<Json, String> {
    let mut metrics = Vec::new();
    for (name, o) in outcomes {
        let prefix = if outcomes.len() == 1 { String::new() } else { format!("{name}.") };
        let (declared, values) = if trace {
            (PER_LAYER, o.layers.as_ref().expect("a traced run reports layers"))
        } else {
            for m in END_TO_END {
                if !o.e2e.contains_key(m.name) {
                    return Err(format!("{name} did not report {}", m.name));
                }
            }
            (END_TO_END, &o.e2e)
        };
        metrics.extend(values_json(declared, values, &prefix)?);
    }
    let failed: u64 = outcomes.iter().map(|(_, o)| o.failed).sum();
    Ok(Json::Obj(vec![
        ("correct".into(), Json::Bool(failed == 0)),
        ("attempted".into(), Json::from(outcomes.iter().map(|(_, o)| o.attempted).sum::<u64>())),
        ("failed".into(), Json::from(failed)),
        ("metrics".into(), Json::Obj(metrics)),
    ]))
}

/// The `--out` document `compare` reads.
fn result_document(env: &Json, outcomes: &[(&str, Outcome)]) -> Json {
    let plain = |values: &Values| {
        Json::Obj(values.iter().map(|(k, v)| (k.clone(), Json::Num(*v))).collect())
    };
    let workloads = outcomes
        .iter()
        .map(|(name, o)| {
            let mut fields = vec![
                ("threads".to_string(), Json::from(o.threads)),
                ("wall_s".into(), Json::Num(o.wall_s)),
                ("ops_attempted".into(), Json::from(o.attempted)),
                ("ops_failed".into(), Json::from(o.failed)),
                (
                    "samples".into(),
                    Json::Obj(
                        o.samples.iter().map(|(k, v)| (k.to_string(), Json::from(*v))).collect(),
                    ),
                ),
            ];
            fields.extend(o.notes.iter().map(|(k, v)| (k.to_string(), Json::from(v.as_str()))));
            fields.push(("end_to_end".into(), plain(&o.e2e)));
            if let Some(layers) = &o.layers {
                fields.push(("per_layer".into(), plain(layers)));
            }
            (name.to_string(), Json::Obj(fields))
        })
        .collect();
    Json::Obj(vec![("environment".into(), env.clone()), ("workloads".into(), Json::Obj(workloads))])
}
