//! `isum` — command-line workload compression and index tuning.
//!
//! ```text
//! isum compress --schema schema.json --workload workload.sql -k 20 [--variant isum|isum-s|all-pairs] [--json]
//! isum tune     --schema schema.json --workload workload.sql -k 20 -m 16 [--advisor dta|dexter] [--report]
//! isum explain  --schema schema.json --workload workload.sql --query 3 [--tuned]
//! isum dump     --workload gen:tpch:1:200:42 [--out workload.sql]
//! isum serve    --schema tpch:1 --listen 127.0.0.1:7071 [--checkpoint state.json] [--queue-cap 64]
//! isum client   <ingest|summary|explain|status|tune|healthz|shutdown> --server 127.0.0.1:7071 [--tenant acme] ...
//! isum load     --server 127.0.0.1:7071 [--seed 42] [--connections 4] [--tenants 4] [--templates 12] [--rate 2.5]
//! ```
//!
//! The schema is a JSON statistics document (see `schema.rs`) or a builtin
//! spec (`tpch:<sf>`, `tpcds:<sf>`); the workload is a `;`-separated SQL
//! script, optionally with `-- cost: <value>` annotations carrying logged
//! costs (missing costs are filled by the bundled what-if optimizer), or a
//! generator spec (`gen:tpch:<sf>:<n>:<seed>`, `gen:dsb:<sf>:<n>:<seed>`).
//! `isum serve` runs the online compression daemon of DESIGN.md §10; `isum
//! client` talks to it over its HTTP API. `isum load` drives a running
//! daemon with the deterministic seeded load generator of DESIGN.md §15:
//! a Zipf-skewed multi-tenant TPC-H mix over N concurrent keep-alive
//! connections, with an optional mid-run mix shift to provoke drift.
//!
//! Passing `--stats` (or setting `ISUM_TELEMETRY=1`) enables the
//! [`isum_common::telemetry`] registry and prints a phase/counter table
//! after the command finishes. Passing `--threads <n>` (or setting
//! `ISUM_THREADS=<n>`) sets how many threads load a `--workload` script
//! (DESIGN.md §8); every thread count gives the same results.
#![allow(clippy::disallowed_macros)] // CLI usage and errors are plain stderr

mod schema;

use std::process::ExitCode;

use isum_advisor::{IndexAdvisor, TuningConstraints, TuningReport};
use isum_catalog::Catalog;
use isum_common::telemetry;
use isum_common::{Error, Result};
use isum_core::{Compressor, Isum, IsumConfig};
use isum_loadgen::{LoadPlan, Mode, PlanConfig, RunConfig};
use isum_optimizer::{fill_missing_costs, CostModel, IndexConfig, WhatIfOptimizer};
use isum_server::{install_signal_handlers, summary_to_json, Client, Server, ServerConfig};
use isum_workload::{load_script_lenient, split_script, Workload};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

fn run(args: &[String]) -> Result<()> {
    let Some(command) = args.first() else {
        print_usage();
        return Err(Error::InvalidConfig("missing command".into()));
    };
    // `client` takes a verb before its flags: `isum client summary ...`.
    let (verb, flags) = if command == "client" {
        match args.get(1) {
            Some(v) if !v.starts_with('-') => (Some(v.as_str()), &args[2..]),
            _ => (None, &args[1..]),
        }
    } else {
        (None, &args[1..])
    };
    let opts = Options::parse(flags)?;
    opts.refuse_foreign_flags(command)?;
    telemetry::init_from_env();
    isum_common::trace::init_from_env();
    if let Some(path) = &opts.log_file {
        isum_common::trace::set_log_file(std::path::Path::new(path))
            .map_err(|e| Error::InvalidConfig(format!("cannot open --log-file `{path}`: {e}")))?;
    }
    if opts.stats {
        telemetry::set_enabled(true);
    }
    if let Some(n) = opts.threads {
        isum_exec::set_global_threads(n);
    }
    let result = match command.as_str() {
        "compress" => compress(&opts),
        "tune" => tune(&opts),
        "explain" => explain(&opts),
        "dump" => dump(&opts),
        "serve" => serve(&opts),
        "client" => client_cmd(verb, &opts),
        "load" => load_cmd(&opts),
        "--help" | "-h" | "help" => {
            print_usage();
            Ok(())
        }
        other => {
            print_usage();
            Err(Error::InvalidConfig(format!("unknown command `{other}`")))
        }
    };
    if result.is_ok() && telemetry::enabled() {
        let snap = telemetry::snapshot();
        if !snap.is_empty() {
            println!("\n{}", snap.render_table());
        }
    }
    result
}

fn print_usage() {
    eprintln!("{}", usage());
}

fn usage() -> String {
    // The serve tunables come from the server's own table, so this text
    // cannot drift from what `isum serve` actually reads.
    let serve_flags: Vec<String> = ServerConfig::tunables()
        .filter_map(|(_, flag, _)| flag.map(|f| format!("[{f} <n>]")))
        .collect();
    let tunables: String = ServerConfig::tunables()
        .map(|(env, flag, want)| {
            format!("  {:<24}{:<22}{want}\n", env.unwrap_or(""), flag.unwrap_or(""))
        })
        .collect();
    format!(
        "usage:\n  \
         isum compress --schema <json> --workload <sql> -k <n> [--variant isum|isum-s|all-pairs]\n  \
         isum tune     --schema <json> --workload <sql> -k <n> [-m <indexes>] [--advisor dta|dexter] [--budget-bytes <n>] [--report]\n  \
         isum explain  --schema <json> --workload <sql> --query <idx> [--tuned]\n  \
         isum dump     --workload gen:<kind>:<sf>:<n>:<seed> [--out <file>]\n  \
         isum serve    --schema <json|tpch:sf|tpcds:sf|dsb:sf> [--listen <addr>]\n                \
         [--checkpoint <file>] [--variant <v>]\n                \
         {}\n  \
         isum client   <ingest|summary|explain|status|tune|healthz|shutdown> --server <addr>\n                \
         [--workload <sql|gen:spec>] [-k <n>] [-m <n>] [--batch <n>] [--tenant <name>]\n  \
         isum load     --server <addr> [--seed <n>] [--connections <n>] [--tenants <n>]\n                \
         [--templates <1..22>] [--batch <n>] [--warmup <n>] [--measure <n>] [--soak <n>]\n                \
         [--shift-at <batch|off>] [--rate <batches/s per conn>] [-k <n>] [--out <file>]\n\
         isum serve reads these tunables (environment variable, flag, accepted values; a flag\n\
         beats its variable, a malformed variable is ignored with a warning):\n\
         {tunables}\
         isum serve keeps one shard per X-Isum-Tenant header value (DESIGN.md \u{a7}13); the\n\
         ISUM_DRIFT_* variables configure workload-drift tracking (DESIGN.md \u{a7}12); with\n\
         --checkpoint <file> as the stem each acknowledged batch is fsynced to a per-shard\n\
         write-ahead log (<stem>.wal.<n> segments, the only files the daemon writes) before the\n\
         ack, and ISUM_WAL_SEGMENT_BYTES sets the size at which a segment is closed\n\
         (DESIGN.md \u{a7}14),\n\
         isum client --tenant <name> pins every request to one tenant\n\
         (names: \u{2264}64 bytes, visible ASCII, no `/`),\n\
         isum load replays a seeded Zipf-skewed multi-tenant plan over concurrent keep-alive\n\
         connections (closed loop by default; --rate paces each connection open-loop,\n\
         --shift-at off disables the drift-provoking mix shift) and prints a JSON report,\n\
         any command accepts --stats (or ISUM_TELEMETRY=1) to print a telemetry table,\n\
         --threads <n> (or ISUM_THREADS=<n>) for the threads of parallel loops (1 = sequential),\n\
         and ISUM_LOG=<filter> (e.g. info,server=debug) with --log-file <path>\n\
         (or ISUM_LOG_FILE) for structured JSONL event logs",
        serve_flags.join(" ")
    )
}

/// Parsed flag set shared by all commands.
struct Options {
    schema: Option<String>,
    workload: Option<String>,
    k: usize,
    m: usize,
    query: usize,
    variant: String,
    advisor: String,
    budget_bytes: Option<u64>,
    report: bool,
    tuned: bool,
    stats: bool,
    threads: Option<usize>,
    log_file: Option<String>,
    json: bool,
    out: Option<String>,
    listen: String,
    checkpoint: Option<String>,
    server: Option<String>,
    batch: usize,
    tenant: Option<String>,
    /// `isum serve` tunable flags as given; `ServerConfig::apply_env`
    /// validates and applies them over the environment.
    serve_flags: Vec<(String, String)>,
    /// `isum load`'s plan; `load_cmd` adds `--batch`.
    plan: PlanConfig,
    /// `isum load`'s run; `load_cmd` adds `--server` and `-k`.
    run: RunConfig,
    /// Every flag given, in order, for [`Options::refuse_foreign_flags`].
    given: Vec<String>,
}

/// The flags every command takes.
const COMMON_FLAGS: &str = "--stats --threads --log-file";

/// The flags `command` reads besides [`COMMON_FLAGS`]; `serve` also
/// reads its tunables' flags. `None` for `help` and unknown commands.
fn own_flags(command: &str) -> Option<&'static str> {
    Some(match command {
        "compress" => "--schema --workload -k --variant --json",
        "tune" => "--schema --workload -k -m --variant --advisor --budget-bytes --report",
        "explain" => "--schema --workload --query --tuned -k -m --variant --advisor",
        "dump" => "--schema --workload --out",
        "serve" => "--schema --listen --checkpoint --variant",
        "client" => "--server --tenant --workload --batch -k -m --advisor --budget-bytes",
        "load" => {
            "--server --seed --connections --tenants --templates --batch --warmup --measure \
             --soak --shift-at --rate -k --out"
        }
        _ => return None,
    })
}

/// The one shape of a refused flag value: `<flag> must be <want>`.
fn refuse(flag: &str, want: &str) -> Error {
    Error::InvalidConfig(format!("{flag} must be {want}"))
}

/// `v` as an integer value of `flag`.
fn integer<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T> {
    v.parse().map_err(|_| refuse(flag, "an integer"))
}

/// [`integer`], refused as `<flag> must be <want>` unless `ok` holds.
fn integer_where<T: std::str::FromStr>(
    flag: &str,
    v: &str,
    want: &str,
    ok: impl FnOnce(&T) -> bool,
) -> Result<T> {
    Some(integer(flag, v)?).filter(ok).ok_or_else(|| refuse(flag, want))
}

fn at_least_one(flag: &str, v: &str) -> Result<usize> {
    integer_where(flag, v, "at least 1", |&n| n >= 1)
}

impl Options {
    fn parse(args: &[String]) -> Result<Self> {
        let mut o = Options {
            schema: None,
            workload: None,
            k: 10,
            m: 16,
            query: 0,
            variant: "isum".into(),
            advisor: "dta".into(),
            budget_bytes: None,
            report: false,
            tuned: false,
            stats: false,
            threads: None,
            log_file: None,
            json: false,
            out: None,
            listen: "127.0.0.1:7071".into(),
            checkpoint: None,
            server: None,
            batch: 32,
            tenant: None,
            serve_flags: Vec::new(),
            plan: PlanConfig::new(42),
            run: RunConfig::new(String::new()),
            given: Vec::new(),
        };
        let mut it = args.iter().map(String::as_str);
        while let Some(flag) = it.next() {
            o.given.push(flag.into());
            let mut value =
                || it.next().ok_or_else(|| Error::InvalidConfig(format!("{flag} needs a value")));
            match flag {
                "--schema" => o.schema = Some(value()?.into()),
                "--workload" => o.workload = Some(value()?.into()),
                "-k" => o.k = integer(flag, value()?)?,
                "-m" => o.m = integer(flag, value()?)?,
                "--query" => o.query = value()?.parse().map_err(|_| refuse(flag, "an index"))?,
                "--variant" => o.variant = value()?.into(),
                "--advisor" => o.advisor = value()?.into(),
                "--budget-bytes" => o.budget_bytes = Some(integer(flag, value()?)?),
                "--threads" => o.threads = Some(at_least_one(flag, value()?)?),
                "--log-file" => o.log_file = Some(value()?.into()),
                "--out" => o.out = Some(value()?.into()),
                "--listen" => o.listen = value()?.into(),
                "--checkpoint" => o.checkpoint = Some(value()?.into()),
                "--server" => o.server = Some(value()?.into()),
                "--tenant" => {
                    // Same rule the server enforces, checked before any
                    // network I/O so a bad name never reaches the wire.
                    let t = value()?;
                    isum_server::validate_tenant(t)
                        .map_err(|why| Error::InvalidConfig(format!("--tenant name {why}")))?;
                    o.tenant = Some(t.into());
                }
                flag if ServerConfig::tunables().any(|(_, f, _)| f == Some(flag)) => {
                    o.serve_flags.push((flag.into(), value()?.into()));
                }
                "--batch" => o.batch = at_least_one(flag, value()?)?,
                "--seed" => o.plan.seed = integer(flag, value()?)?,
                "--connections" => o.run.connections = at_least_one(flag, value()?)?,
                "--tenants" => o.plan.tenants = at_least_one(flag, value()?)?,
                "--templates" => {
                    let want = "1..=22 (TPC-H has 22 templates)";
                    o.plan.templates =
                        integer_where(flag, value()?, want, |n| (1..=22).contains(n))?
                }
                "--warmup" => o.plan.warmup_batches = integer(flag, value()?)?,
                "--measure" => o.plan.measure_batches = at_least_one(flag, value()?)?,
                "--soak" => o.plan.soak_batches = integer(flag, value()?)?,
                "--shift-at" => {
                    o.plan.mix_shift_at = match value()? {
                        "off" => None,
                        v => Some(v.parse().map_err(|_| refuse(flag, "a batch index or `off`"))?),
                    }
                }
                "--rate" => {
                    let r: f64 = value()?.parse().map_err(|_| refuse(flag, "a number"))?;
                    if !(r > 0.0 && r.is_finite()) {
                        return Err(refuse(flag, "positive"));
                    }
                    o.run.mode = Mode::Open { batches_per_sec: r };
                }
                "--json" => o.json = true,
                "--report" => o.report = true,
                "--tuned" => o.tuned = true,
                "--stats" => o.stats = true,
                other => {
                    return Err(Error::InvalidConfig(format!("unknown flag `{other}`")));
                }
            }
        }
        Ok(o)
    }

    /// Refuses the first flag given that `command` would not read.
    fn refuse_foreign_flags(&self, command: &str) -> Result<()> {
        let Some(own) = own_flags(command) else { return Ok(()) };
        let reads = |flag: &str| {
            COMMON_FLAGS.split_whitespace().chain(own.split_whitespace()).any(|f| f == flag)
                || command == "serve" && ServerConfig::tunables().any(|(_, f, _)| f == Some(flag))
        };
        match self.given.iter().find(|flag| !reads(flag)) {
            Some(flag) => Err(Error::InvalidConfig(format!("isum {command} does not take {flag}"))),
            None => Ok(()),
        }
    }

    fn load(&self) -> Result<Workload> {
        let workload_spec = self
            .workload
            .as_ref()
            .ok_or_else(|| Error::InvalidConfig("--workload is required".into()))?;
        let mut w = if let Some(spec) = workload_spec.strip_prefix("gen:") {
            gen_workload(spec)?
        } else {
            let schema_spec = self
                .schema
                .as_ref()
                .ok_or_else(|| Error::InvalidConfig("--schema is required".into()))?;
            let script = std::fs::read_to_string(workload_spec)?;
            let catalog = resolve_catalog(schema_spec)?;
            // Lenient like the daemon's ingest: a statement that does not
            // parse or bind is reported and skipped, the rest compress.
            let (w, skipped) = load_script_lenient(catalog, &script);
            for (i, why) in &skipped {
                eprintln!("warning: statement {i} skipped: {why}");
            }
            if let Some((_, first)) = skipped.into_iter().next().filter(|_| w.is_empty()) {
                return Err(first);
            }
            w
        };
        if w.is_empty() {
            return Err(Error::InvalidConfig("workload script has no statements".into()));
        }
        // Fill costs the script didn't annotate, as the daemon's ingest does.
        fill_missing_costs(&mut w, 0);
        Ok(w)
    }

    fn compressor(&self) -> Result<Isum> {
        Ok(Isum::with_config(IsumConfig::named(&self.variant)?))
    }

    fn advisor(&self) -> Result<Box<dyn IndexAdvisor>> {
        isum_advisor::advisor_named(&self.advisor)
    }
}

fn compress(opts: &Options) -> Result<()> {
    let w = opts.load()?;
    let compressed = opts.compressor()?.compress(&w, opts.k)?;
    if opts.json {
        // The canonical summary document — identical to what a live
        // `GET /summary?k=N` returns for the same statements, so batch
        // and served output can be compared byte for byte.
        println!(
            "{}",
            summary_to_json(opts.k, w.len(), w.template_count(), &compressed.entries).to_pretty()
        );
        return Ok(());
    }
    println!(
        "selected {} of {} queries ({} templates):",
        compressed.len(),
        w.len(),
        w.template_count()
    );
    for (id, weight) in &compressed.entries {
        let sql = &w.query(*id).sql;
        println!("  {:>6.3}  [{}] {}", weight, id, &sql[..sql.len().min(90)]);
    }
    Ok(())
}

fn tune(opts: &Options) -> Result<()> {
    let w = opts.load()?;
    let compressed = opts.compressor()?.compress(&w, opts.k)?;
    let advisor = opts.advisor()?;
    let constraints =
        TuningConstraints { max_indexes: opts.m, storage_budget_bytes: opts.budget_bytes };
    let opt = WhatIfOptimizer::new(&w.catalog);
    let config = advisor.recommend(&opt, &w, &compressed, &constraints);
    println!("recommended {} indexes (advisor {}):", config.len(), advisor.name());
    for ix in config.indexes() {
        println!("  CREATE INDEX ON {};", ix.display(&w.catalog));
    }
    println!("\nestimated workload improvement: {:.1}%", opt.improvement_pct(&w, &config));
    if opts.report {
        let report = TuningReport::exact(&opt, &w, &config);
        println!("\nper-query drill-down:");
        for e in &report.entries {
            if e.improvement() > 0.005 {
                let used: Vec<String> =
                    e.indexes_used.iter().map(|ix| ix.display(&w.catalog)).collect();
                println!(
                    "  {}: {:.0} -> {:.0} ({:.0}%) via [{}]",
                    e.query,
                    e.cost_before,
                    e.cost_after,
                    e.improvement() * 100.0,
                    used.join(", ")
                );
            }
        }
    }
    Ok(())
}

fn explain(opts: &Options) -> Result<()> {
    let w = opts.load()?;
    if opts.query >= w.len() {
        return Err(Error::InvalidConfig(format!(
            "--query {} out of range (workload has {})",
            opts.query,
            w.len()
        )));
    }
    let q = &w.queries[opts.query];
    let model = CostModel::new(&w.catalog);
    let config = if opts.tuned {
        let compressed = opts.compressor()?.compress(&w, opts.k.min(w.len()))?;
        let opt = WhatIfOptimizer::new(&w.catalog);
        opts.advisor()?.recommend(
            &opt,
            &w,
            &compressed,
            &TuningConstraints::with_max_indexes(opts.m),
        )
    } else {
        IndexConfig::empty()
    };
    println!("-- {}", q.sql);
    match model.plan(&q.bound, &config) {
        Some(plan) => {
            println!("(total cost {:.0})", plan.total_cost());
            print!("{}", plan.render(&w.catalog));
        }
        None => println!("(no tables referenced)"),
    }
    Ok(())
}

/// Resolves a `--schema` spec: a builtin catalog (`tpch:<sf>`,
/// `tpcds:<sf>`, `dsb:<sf>`) or a JSON statistics document on disk.
fn resolve_catalog(spec: &str) -> Result<Catalog> {
    let sf = |rest: &str| -> Result<u64> {
        rest.parse()
            .map_err(|_| Error::InvalidConfig(format!("scale factor `{rest}` must be an integer")))
    };
    if let Some(rest) = spec.strip_prefix("tpch:") {
        return Ok(isum_workload::gen::tpch_catalog(sf(rest)?));
    }
    if let Some(rest) = spec.strip_prefix("tpcds:") {
        return Ok(isum_workload::gen::tpcds_catalog(sf(rest)?, 0.0));
    }
    if let Some(rest) = spec.strip_prefix("dsb:") {
        return Ok(isum_workload::gen::dsb::dsb_catalog(sf(rest)?));
    }
    schema::parse_schema(&std::fs::read_to_string(spec)?)
}

/// Instantiates a `gen:` workload spec: `<kind>:<sf>:<n>:<seed>` for
/// `tpch`/`tpcds`/`dsb`, or `realm:<n>:<seed>` (Real-M has no scale knob).
fn gen_workload(spec: &str) -> Result<Workload> {
    let bad = || {
        Error::InvalidConfig(format!(
            "bad generator spec `gen:{spec}` \
             (expected gen:tpch|tpcds|dsb:<sf>:<n>:<seed> or gen:realm:<n>:<seed>)"
        ))
    };
    let parts: Vec<&str> = spec.split(':').collect();
    let num = |s: &str| s.parse::<u64>().map_err(|_| bad());
    match parts.as_slice() {
        ["realm", n, seed] => {
            isum_workload::gen::realm_workload_sized(num(n)? as usize, num(seed)?)
        }
        [kind, sf, n, seed] => {
            let (sf, n, seed) = (num(sf)?, num(n)? as usize, num(seed)?);
            match *kind {
                "tpch" => isum_workload::gen::tpch_workload(sf, n, seed),
                "tpcds" => isum_workload::gen::tpcds_workload(sf, n, seed),
                "dsb" => isum_workload::gen::dsb_workload(sf, n, seed),
                _ => Err(bad()),
            }
        }
        _ => Err(bad()),
    }
}

/// Renders a workload back to a `;`-separated script with `-- cost:`
/// annotations. Rust's shortest-round-trip float formatting makes the
/// annotations lossless, so loading the dump reproduces the costs exactly.
fn render_script(w: &Workload) -> String {
    let mut out = String::new();
    for q in &w.queries {
        if q.cost > 0.0 {
            out.push_str(&format!("-- cost: {}\n", q.cost));
        }
        out.push_str(q.sql.trim_end_matches(';'));
        out.push_str(";\n");
    }
    out
}

fn dump(opts: &Options) -> Result<()> {
    let w = opts.load()?;
    let script = render_script(&w);
    match &opts.out {
        Some(path) => {
            std::fs::write(path, &script)?;
            eprintln!("wrote {} statements to {path}", w.len());
        }
        None => print!("{script}"),
    }
    Ok(())
}

/// The daemon configuration `isum serve` binds: defaults, then the
/// environment (through `env`), then flags.
fn serve_config(opts: &Options, env: impl Fn(&str) -> Option<String>) -> Result<ServerConfig> {
    let schema_spec = opts
        .schema
        .as_ref()
        .ok_or_else(|| Error::InvalidConfig("serve requires --schema".into()))?;
    let mut config = ServerConfig::new(resolve_catalog(schema_spec)?);
    config.isum = IsumConfig::named(&opts.variant)?;
    config.checkpoint = opts.checkpoint.as_ref().map(std::path::PathBuf::from);
    config.apply_env(env, &opts.serve_flags).map_err(Error::InvalidConfig)
}

fn serve(opts: &Options) -> Result<()> {
    let config = serve_config(opts, |name| std::env::var(name).ok())?;
    install_signal_handlers();
    let server = Server::bind(&opts.listen, config)?;
    eprintln!("isum-serve listening on {}", server.addr());
    server.join(); // until SIGTERM/SIGINT or POST /shutdown
    eprintln!("isum-serve drained and exited cleanly");
    Ok(())
}

fn client_cmd(verb: Option<&str>, opts: &Options) -> Result<()> {
    let addr = opts
        .server
        .as_ref()
        .ok_or_else(|| Error::InvalidConfig("client requires --server <addr>".into()))?;
    let mut client = Client::new(addr.clone());
    if let Some(tenant) = &opts.tenant {
        client = client.with_tenant(tenant).map_err(Error::InvalidConfig)?;
    }
    let client = client;
    let show = |resp: isum_server::ApiResponse| -> Result<()> {
        print!("{}", resp.body);
        if resp.status >= 400 {
            return Err(Error::InvalidConfig(format!("server answered {}", resp.status)));
        }
        Ok(())
    };
    let send = |r: std::io::Result<isum_server::ApiResponse>| -> Result<()> { show(r?) };
    match verb {
        Some("healthz") => send(client.healthz()),
        Some("shutdown") => send(client.shutdown()),
        Some("summary") => send(client.summary(opts.k)),
        Some("explain") => send(client.explain(opts.k)),
        // `status` reports at the server's default coverage size; the
        // daemon picks k = min(observed, 10) so the probe stays cheap.
        Some("status") => send(client.status(None)),
        Some("tune") => {
            let mut target = format!("/tune?k={}&m={}&advisor={}", opts.k, opts.m, opts.advisor);
            if let Some(b) = opts.budget_bytes {
                target.push_str(&format!("&budget_bytes={b}"));
            }
            send(client.post(&target, ""))
        }
        Some("ingest") => client_ingest(&client, opts),
        other => Err(Error::InvalidConfig(format!(
            "client verb {} (expected ingest | summary | explain | status | tune | healthz | shutdown)",
            other.map_or("missing".into(), |v| format!("`{v}`"))
        ))),
    }
}

/// Streams a workload to the server as sequenced batches of `--batch`
/// statements, retrying through backpressure; prints one ack per batch.
fn client_ingest(client: &Client, opts: &Options) -> Result<()> {
    let spec = opts
        .workload
        .as_ref()
        .ok_or_else(|| Error::InvalidConfig("client ingest requires --workload".into()))?;
    let script = if let Some(gen) = spec.strip_prefix("gen:") {
        render_script(&gen_workload(gen)?)
    } else {
        std::fs::read_to_string(spec)?
    };
    let (sqls, costs) = split_script(&script);
    if sqls.is_empty() {
        return Err(Error::InvalidConfig("workload script has no statements".into()));
    }
    let mut applied = 0u64;
    let mut rejected = 0u64;
    for (seq, chunk) in sqls.chunks(opts.batch).enumerate() {
        let mut batch = String::new();
        for (j, sql) in chunk.iter().enumerate() {
            if let Some(c) = costs[seq * opts.batch + j] {
                batch.push_str(&format!("-- cost: {c}\n"));
            }
            batch.push_str(sql.trim_end_matches(';'));
            batch.push_str(";\n");
        }
        let resp = client
            .ingest_with_retry(&batch, Some(seq as u64), 600)
            .map_err(|e| Error::Io(format!("ingest seq {seq}: {e}")))?;
        if resp.status != 200 {
            return Err(Error::Io(format!(
                "ingest seq {seq} failed ({}): {}",
                resp.status, resp.body
            )));
        }
        applied += resp.field("applied").and_then(|v| v.as_u64()).unwrap_or(0);
        rejected += resp.field("rejected").and_then(|v| v.as_array()).map_or(0, |r| r.len() as u64);
    }
    println!(
        "ingested {} statements in {} batches ({applied} applied, {rejected} rejected)",
        sqls.len(),
        sqls.len().div_ceil(opts.batch),
    );
    Ok(())
}

/// Drives a running daemon with the deterministic load generator and
/// prints the client-side report as JSON (to `--out` when given).
fn load_cmd(opts: &Options) -> Result<()> {
    let addr = opts
        .server
        .as_ref()
        .ok_or_else(|| Error::InvalidConfig("load requires --server <addr>".into()))?;
    let plan = LoadPlan::generate(&PlanConfig { batch_size: opts.batch, ..opts.plan });
    let run_config = RunConfig { addr: addr.clone(), summary_k: opts.k, ..opts.run };
    eprintln!(
        "driving {addr}: {} batches ({} statements) over {} connection(s), \
         plan fingerprint {:016x}",
        plan.batches.len(),
        plan.total_statements(),
        run_config.connections,
        plan.fingerprint(),
    );
    let report = isum_loadgen::run(&plan, &run_config).map_err(Error::Io)?;
    let doc = report.to_json();
    match &opts.out {
        Some(path) => {
            std::fs::write(path, format!("{}\n", doc.to_pretty()))?;
            eprintln!("wrote load report to {path}");
        }
        None => println!("{}", doc.to_pretty()),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const README: &str = include_str!("../../../README.md");

    /// Written once per process: tests run on parallel threads, and a
    /// rewrite under a concurrent reader hands it a truncated file.
    fn write_fixtures() -> (std::path::PathBuf, std::path::PathBuf) {
        static FIXTURES: std::sync::OnceLock<(std::path::PathBuf, std::path::PathBuf)> =
            std::sync::OnceLock::new();
        FIXTURES.get_or_init(write_fixtures_once).clone()
    }

    fn write_fixtures_once() -> (std::path::PathBuf, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("isum_cli_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let schema = dir.join("schema.json");
        std::fs::write(
            &schema,
            r#"{"tables":[{"name":"t","rows":100000,"columns":[
                {"name":"id","type":"key"},
                {"name":"grp","type":"int","distinct":500,"min":0,"max":500},
                {"name":"ts","type":"date","min":19000,"max":20000}
            ]}]}"#,
        )
        .expect("write schema");
        let workload = dir.join("workload.sql");
        std::fs::write(
            &workload,
            "-- cost: 250\nSELECT id FROM t WHERE grp = 7;\n\
             SELECT id FROM t WHERE grp = 9;\n\
             SELECT count(*) FROM t WHERE ts > DATE '2024-01-01' GROUP BY grp;",
        )
        .expect("write workload");
        (schema, workload)
    }

    fn opts(extra: &[&str]) -> Options {
        let (schema, workload) = write_fixtures();
        let mut args = vec![
            "--schema".to_string(),
            schema.to_string_lossy().into_owned(),
            "--workload".to_string(),
            workload.to_string_lossy().into_owned(),
        ];
        args.extend(extra.iter().map(|s| s.to_string()));
        Options::parse(&args).expect("flags parse")
    }

    #[test]
    fn load_fills_missing_costs_keeps_annotated() {
        let o = opts(&[]);
        let w = o.load().expect("loads");
        assert_eq!(w.len(), 3);
        assert_eq!(w.queries[0].cost, 250.0, "annotated cost preserved");
        assert!(w.queries[1].cost > 0.0, "missing cost filled");
    }

    #[test]
    fn statements_that_do_not_parse_are_skipped_not_fatal() {
        let (schema, workload) = write_fixtures();
        let script = workload.with_file_name("deep.sql");
        // Each of these once overflowed the stack (exit 134).
        let deep = format!(
            "SELECT id FROM t WHERE {}grp = 1{};\nSELECT id FROM t WHERE {}grp = 1;\n\
             SELECT id FROM t WHERE grp = 1{};\nSELECT id FROM t WHERE grp = 1{};\n\
             SELECT id FROM t WHERE grp = 7;\n",
            "(".repeat(200_000),
            ")".repeat(200_000),
            "NOT ".repeat(200_000),
            " AND grp = 1".repeat(200_000),
            " + 1".repeat(200_000),
        );
        std::fs::write(&script, deep).expect("write script");
        let args = ["--schema", &schema.to_string_lossy(), "--workload", &script.to_string_lossy()]
            .map(String::from);
        let o = Options::parse(&args).expect("flags parse");
        assert_eq!(o.load().expect("the valid statement loads").len(), 1);
        compress(&o).expect("and compresses");
        // Nothing valid at all is still an error, carrying the first reason.
        std::fs::write(&script, "SELECT FROM;\nSELECT id FROM nowhere;\n").expect("write script");
        assert!(o.load().unwrap_err().to_string().contains("parse error"));
    }

    #[test]
    fn commands_run_end_to_end() {
        let o = opts(&["-k", "2", "-m", "4", "--report"]);
        compress(&o).expect("compress runs");
        tune(&o).expect("tune runs");
        let o = opts(&["--query", "2", "--tuned", "-k", "2"]);
        explain(&o).expect("explain runs");
    }

    #[test]
    fn flag_errors_are_reported() {
        assert!(Options::parse(&["--bogus".into()]).is_err());
        assert!(Options::parse(&["-k".into()]).is_err());
        assert!(Options::parse(&["-k".into(), "abc".into()]).is_err());
        let o = opts(&["--variant", "nope"]);
        assert!(o.compressor().is_err());
        let o = opts(&["--advisor", "nope"]);
        assert!(o.advisor().is_err());
        let o = opts(&["--query", "99"]);
        assert!(explain(&o).is_err());
    }

    #[test]
    fn stats_flag_parses() {
        let o = opts(&["--stats"]);
        assert!(o.stats);
        let o = opts(&[]);
        assert!(!o.stats);
    }

    #[test]
    fn threads_flag_parses_and_rejects_bad_values() {
        let o = opts(&["--threads", "4"]);
        assert_eq!(o.threads, Some(4));
        let o = opts(&[]);
        assert_eq!(o.threads, None);
        assert!(Options::parse(&["--threads".into()]).is_err());
        assert!(Options::parse(&["--threads".into(), "abc".into()]).is_err());
        assert!(Options::parse(&["--threads".into(), "0".into()]).is_err());
    }

    #[test]
    fn tenant_flag_validates_like_the_server() {
        let o = opts(&["--tenant", "acme-prod"]);
        assert_eq!(o.tenant.as_deref(), Some("acme-prod"));
        let o = opts(&[]);
        assert!(o.tenant.is_none());
        assert!(Options::parse(&["--tenant".into()]).is_err());
        // The same three rejections the server's typed 400 covers:
        // empty, over 64 bytes, and characters outside visible ASCII / `/`.
        assert!(Options::parse(&["--tenant".into(), String::new()]).is_err());
        assert!(Options::parse(&["--tenant".into(), "x".repeat(65)]).is_err());
        assert!(Options::parse(&["--tenant".into(), "a/b".into()]).is_err());
        assert!(Options::parse(&["--tenant".into(), "sp ace".into()]).is_err());
    }

    /// `serve_config` with no ambient environment.
    fn serve_config_for(extra: &[&str]) -> Result<ServerConfig> {
        serve_config(&opts(extra), |_| None)
    }

    #[test]
    fn wal_flags_parse_and_reject_bad_values() {
        let c = serve_config_for(&["--wal-segment-bytes", "4096"]).expect("valid");
        assert_eq!(c.wal_segment_bytes, 4096);
        assert!(opts(&[]).serve_flags.is_empty(), "unset flags defer to env/defaults");
        let from_env = |name: &str| (name == "ISUM_WAL_SEGMENT_BYTES").then(|| "9".to_string());
        assert_eq!(serve_config(&opts(&[]), from_env).expect("valid").wal_segment_bytes, 9);
        assert!(Options::parse(&["--wal-segment-bytes".into()]).is_err());
        assert!(serve_config_for(&["--wal-segment-bytes", "-1"]).is_err());
        assert!(serve_config_for(&["--wal-segment-bytes", "0"]).is_err());
        let retired = ["--wal-compact-every".to_string(), "3".to_string()];
        assert!(Options::parse(&retired).is_err(), "went with the snapshot");
        // `--shards` went with hashed mode: the parser does not know it,
        // and the serve table would refuse it by name.
        assert!(Options::parse(&["--shards".to_string(), "2".to_string()]).is_err());
        let shards = [("--shards".to_string(), "2".to_string())];
        let refused = serve_config_for(&[]).expect("valid").apply_env(|_| None, &shards);
        assert_eq!(refused.err().as_deref(), Some("--shards is not a serve flag"));
    }

    #[test]
    fn retired_client_verbs_are_unknown() {
        // `/metrics` is the registry's one wire format, so there is no JSON
        // verb for it. Refused before any connection is attempted.
        let o = opts(&["--server", "127.0.0.1:1"]);
        let err = client_cmd(Some("telemetry"), &o).expect_err("not a verb").to_string();
        assert!(err.contains("client verb `telemetry`") && !err.contains("| telemetry"), "{err}");
    }

    #[test]
    fn help_and_readme_list_every_serve_tunable() {
        // `usage()` is generated from the table; the README is prose, so
        // it is checked: a knob added to the table without documentation
        // fails here.
        let (help, readme) = (usage(), README);
        for (env, flag, _) in ServerConfig::tunables() {
            for name in env.into_iter().chain(flag) {
                assert!(help.contains(name), "`isum --help` does not mention {name}");
                assert!(readme.contains(name), "README.md does not mention {name}");
            }
        }
    }

    #[test]
    fn load_flags_parse_and_reject_bad_values() {
        let o = opts(&[
            "--seed",
            "7",
            "--connections",
            "8",
            "--tenants",
            "3",
            "--templates",
            "10",
            "--warmup",
            "2",
            "--measure",
            "20",
            "--soak",
            "2",
            "--shift-at",
            "12",
            "--rate",
            "2.5",
        ]);
        assert_eq!(o.plan.seed, 7);
        assert_eq!(o.run.connections, 8);
        assert_eq!(o.plan.tenants, 3);
        assert_eq!(o.plan.templates, 10);
        assert_eq!(o.plan.warmup_batches, 2);
        assert_eq!(o.plan.measure_batches, 20);
        assert_eq!(o.plan.soak_batches, 2);
        assert_eq!(o.plan.mix_shift_at, Some(12));
        assert!(matches!(o.run.mode, Mode::Open { batches_per_sec } if batches_per_sec == 2.5));
        let o = opts(&["--shift-at", "off"]);
        assert_eq!(o.plan.mix_shift_at, None, "`off` disables the mix shift");
        let o = opts(&[]);
        assert_eq!(o.plan.seed, 42, "defaults match the benchmark plan");
        assert_eq!(o.run.connections, 4);
        assert_eq!((o.batch, o.k), (32, 10), "--batch overrides the plan's 8; -k is summary_k");
        let plan = PlanConfig::new(42);
        assert_eq!(
            o.plan.mix_shift_at, plan.mix_shift_at,
            "absent flag defers to the plan default"
        );
        assert!(Options::parse(&["--connections".into(), "0".into()]).is_err());
        assert!(Options::parse(&["--tenants".into(), "0".into()]).is_err());
        assert!(Options::parse(&["--templates".into(), "23".into()]).is_err());
        assert!(Options::parse(&["--templates".into(), "0".into()]).is_err());
        assert!(Options::parse(&["--measure".into(), "0".into()]).is_err());
        assert!(Options::parse(&["--shift-at".into(), "abc".into()]).is_err());
        assert!(Options::parse(&["--rate".into(), "0".into()]).is_err());
        assert!(Options::parse(&["--rate".into(), "-1".into()]).is_err());
        assert!(Options::parse(&["--rate".into(), "nan".into()]).is_err());
        // Without --server the command fails before any network I/O.
        assert!(load_cmd(&opts(&[])).is_err());
    }

    #[test]
    fn every_flag_refusal_keeps_its_text() {
        // One bad value per row, through the parser and then, for the
        // serve tunables, through `serve_config`; the exact text is pinned.
        let rows: &[(&[&str], &str)] = &[
            (&["-k"], "-k needs a value"),
            (&["-k", "abc"], "-k must be an integer"),
            (&["-m", "-1"], "-m must be an integer"),
            (&["--query", "first"], "--query must be an index"),
            (&["--budget-bytes", "1e9"], "--budget-bytes must be an integer"),
            (&["--threads", "four"], "--threads must be an integer"),
            (&["--threads", "0"], "--threads must be at least 1"),
            (&["--queue-cap", "lots"], "--queue-cap must be an integer >= 1"),
            (&["--queue-cap", "0"], "--queue-cap must be an integer >= 1"),
            (&["--batch", "x"], "--batch must be an integer"),
            (&["--batch", "0"], "--batch must be at least 1"),
            (&["--seed", "-7"], "--seed must be an integer"),
            (&["--connections", "x"], "--connections must be an integer"),
            (&["--connections", "0"], "--connections must be at least 1"),
            (&["--tenants", "x"], "--tenants must be an integer"),
            (&["--tenants", "0"], "--tenants must be at least 1"),
            (&["--templates", "x"], "--templates must be an integer"),
            (&["--templates", "0"], "--templates must be 1..=22 (TPC-H has 22 templates)"),
            (&["--templates", "23"], "--templates must be 1..=22 (TPC-H has 22 templates)"),
            (&["--warmup", "x"], "--warmup must be an integer"),
            (&["--measure", "x"], "--measure must be an integer"),
            (&["--measure", "0"], "--measure must be at least 1"),
            (&["--soak", "x"], "--soak must be an integer"),
            (&["--shift-at", "never"], "--shift-at must be a batch index or `off`"),
            (&["--rate", "fast"], "--rate must be a number"),
            (&["--rate", "0"], "--rate must be positive"),
            (&["--rate", "inf"], "--rate must be positive"),
            (&["--tenant", ""], "--tenant name must be non-empty"),
            (&["--tenant", "a/b"], "--tenant name must not contain `/`"),
            (&["--wal-segment-bytes", "0"], "--wal-segment-bytes must be an integer >= 1"),
            (&["--variant", "nope"], "unknown variant `nope` (isum | isum-s | all-pairs)"),
            (&["--bogus"], "unknown flag `--bogus`"),
        ];
        for (extra, want) in rows {
            let (schema, workload) = write_fixtures();
            let mut args = vec![
                "--schema".to_string(),
                schema.to_string_lossy().into_owned(),
                "--workload".to_string(),
                workload.to_string_lossy().into_owned(),
            ];
            args.extend(extra.iter().map(|s| s.to_string()));
            let refused = Options::parse(&args).and_then(|o| serve_config(&o, |_| None));
            let got = refused.err().map(|e| e.to_string());
            assert_eq!(got, Some(format!("invalid configuration: {want}")), "{extra:?}");
        }
        // A flag the command does not read is refused by name, after
        // its value parsed.
        let foreign: &[(&str, &[&str], &str)] = &[
            ("compress", &["--connections", "9"], "isum compress does not take --connections"),
            (
                "compress",
                &["--wal-segment-bytes", "0"],
                "isum compress does not take --wal-segment-bytes",
            ),
            ("compress", &["--seed", "5"], "isum compress does not take --seed"),
            ("tune", &["--queue-cap", "16"], "isum tune does not take --queue-cap"),
            ("explain", &["--out", "x.sql"], "isum explain does not take --out"),
            ("dump", &["-k", "3"], "isum dump does not take -k"),
            ("serve", &["--json"], "isum serve does not take --json"),
            ("client", &["--schema", "tpch:1"], "isum client does not take --schema"),
            ("load", &["--workload", "w.sql"], "isum load does not take --workload"),
        ];
        for (command, flags, want) in foreign {
            let args: Vec<String> = flags.iter().map(|s| s.to_string()).collect();
            let refused = Options::parse(&args).and_then(|o| o.refuse_foreign_flags(command));
            let got = refused.err().map(|e| e.to_string());
            assert_eq!(got, Some(format!("invalid configuration: {want}")), "{command} {flags:?}");
        }
        let args = "compress --schema tpch:1 --workload w.sql -k 3 --connections 9 \
                    --wal-segment-bytes 0 --seed 5";
        let args: Vec<String> = args.split_whitespace().map(String::from).collect();
        assert_eq!(
            run(&args).err().map(|e| e.to_string()).as_deref(),
            Some("invalid configuration: isum compress does not take --connections")
        );
        let err = |r: Result<()>| r.err().map(|e| e.to_string());
        let o = opts(&["--variant", "nope"]);
        assert_eq!(
            err(o.compressor().map(drop)).as_deref(),
            Some("invalid configuration: unknown variant `nope` (isum | isum-s | all-pairs)")
        );
        let o = opts(&["--advisor", "nope"]);
        assert_eq!(
            err(o.advisor().map(drop)).as_deref(),
            Some("invalid configuration: unknown advisor `nope` (dta | dexter)")
        );
    }

    #[test]
    fn every_command_takes_the_common_flags_and_its_own() {
        for command in ["compress", "tune", "explain", "dump", "serve", "client", "load"] {
            let own = own_flags(command).expect("a command");
            let mut o = opts(&[]);
            o.given = COMMON_FLAGS
                .split_whitespace()
                .chain(own.split_whitespace())
                .map(String::from)
                .collect();
            assert!(o.refuse_foreign_flags(command).is_ok(), "{command}");
        }
        let mut o = opts(&[]);
        o.given = ServerConfig::tunables().filter_map(|(_, f, _)| f.map(String::from)).collect();
        assert!(o.refuse_foreign_flags("serve").is_ok());
        assert!(o.refuse_foreign_flags("load").is_err());
        assert!(opts(&["--json"]).refuse_foreign_flags("help").is_ok(), "help reads no flag");
    }

    #[test]
    fn run_dispatches() {
        assert!(run(&[]).is_err());
        assert!(run(&["help".into()]).is_ok());
        assert!(run(&["bogus".into()]).is_err());
    }
}
