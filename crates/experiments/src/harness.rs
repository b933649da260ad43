//! Shared experiment pipeline: build workload → compress → tune → evaluate.
//!
//! Phase accounting runs through [`isum_common::telemetry`]: the pipeline
//! opens spans (`prepare`, `compress`, `tune`, `evaluate`) around each
//! stage, the layers below contribute their own nested spans and counters,
//! and [`telemetry_report`] folds the whole registry into one JSON document
//! per run.

use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::time::Instant;

use isum_advisor::{DtaAdvisor, IndexAdvisor, TuningConstraints};
use isum_baselines::{CostTopK, Gsum, KMedoid, Stratified, UniformSampling};
use isum_common::telemetry;
use isum_common::{count, Json, Result};
use isum_core::{Compressor, Isum, IsumConfig};
use isum_optimizer::WhatIfOptimizer;
use isum_workload::gen::{dsb_workload, realm_workload_sized, tpcds_workload, tpch_workload};
use isum_workload::Workload;

use crate::checkpoint;

/// Workload sizes for the evaluation, selectable via `ISUM_SCALE`.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// TPC-H query count (paper: 2200).
    pub tpch: usize,
    /// TPC-DS query count (paper: 9100).
    pub tpcds: usize,
    /// DSB query count (paper: 520).
    pub dsb: usize,
    /// Real-M query count (paper: 473).
    pub realm: usize,
    /// Scale factor for the benchmark catalogs.
    pub sf: u64,
}

impl Scale {
    /// Fast sizes for CI / smoke runs.
    pub fn quick() -> Self {
        Self { tpch: 66, tpcds: 91, dsb: 52, realm: 100, sf: 1 }
    }

    /// Default sizes: every template instantiated multiple times, runs in
    /// minutes on a laptop.
    pub fn medium() -> Self {
        Self { tpch: 220, tpcds: 273, dsb: 156, realm: 473, sf: 10 }
    }

    /// Large sizes: DSB and Real-M at the paper's Table 2 sizes; TPC-H and
    /// TPC-DS at 50%/10% of theirs (their full sizes exist mainly to stress
    /// the commercial tuner; see EXPERIMENTS.md).
    pub fn large() -> Self {
        Self { tpch: 1100, tpcds: 910, dsb: 520, realm: 473, sf: 10 }
    }

    /// The paper's Table 2 sizes (slow).
    pub fn paper() -> Self {
        Self { tpch: 2200, tpcds: 9100, dsb: 520, realm: 473, sf: 10 }
    }

    /// Reads `ISUM_SCALE` (`quick` / `medium` / `large` / `paper`),
    /// defaulting to medium when unset or empty.
    ///
    /// # Errors
    /// Any other value, named in a message that lists the four scales.
    pub fn from_env() -> Result<Self, String> {
        Self::from_lookup(|var| std::env::var(var).ok())
    }

    /// [`Self::from_env`] over `lookup` instead of the process environment.
    fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> Result<Self, String> {
        let value = lookup("ISUM_SCALE").unwrap_or_default();
        match value.trim() {
            "quick" => Ok(Self::quick()),
            "" | "medium" => Ok(Self::medium()),
            "large" => Ok(Self::large()),
            "paper" => Ok(Self::paper()),
            _ => Err(format!("unknown ISUM_SCALE `{value}` (want quick|medium|large|paper)")),
        }
    }
}

/// A prepared workload: queries with populated costs.
#[derive(Debug)]
pub struct ExperimentCtx {
    /// Workload with `C(q)` filled in.
    pub workload: Workload,
    /// Display name (e.g. `TPC-H`).
    pub name: &'static str,
}

impl ExperimentCtx {
    /// Wraps a generated workload, populating costs
    /// ([`isum_optimizer::populate_costs`]).
    pub fn prepare(name: &'static str, mut workload: Workload) -> Self {
        let _s = telemetry::span("prepare");
        isum_optimizer::populate_costs(&mut workload);
        Self { workload, name }
    }

    /// TPC-H context.
    ///
    /// # Errors
    /// Propagates workload generation/bind failures.
    pub fn tpch(scale: &Scale, seed: u64) -> Result<Self> {
        Ok(Self::prepare("TPC-H", tpch_workload(scale.sf, scale.tpch, seed)?))
    }

    /// TPC-DS context.
    ///
    /// # Errors
    /// Propagates workload generation/bind failures.
    pub fn tpcds(scale: &Scale, seed: u64) -> Result<Self> {
        Ok(Self::prepare("TPC-DS", tpcds_workload(scale.sf, scale.tpcds, seed)?))
    }

    /// DSB context.
    ///
    /// # Errors
    /// Propagates workload generation/bind failures.
    pub fn dsb(scale: &Scale, seed: u64) -> Result<Self> {
        Ok(Self::prepare("DSB", dsb_workload(scale.sf, scale.dsb, seed)?))
    }

    /// Real-M context.
    ///
    /// # Errors
    /// Propagates workload generation/bind failures.
    pub fn realm(scale: &Scale, seed: u64) -> Result<Self> {
        Ok(Self::prepare("Real-M", realm_workload_sized(scale.realm, seed)?))
    }

    /// Fresh what-if optimizer over this context's catalog.
    pub fn optimizer(&self) -> WhatIfOptimizer<'_> {
        WhatIfOptimizer::new(&self.workload.catalog)
    }
}

/// Unwraps a context construction, reporting and skipping on failure
/// (counted as `harness.workloads_skipped`): one failing workload costs
/// its own cells, never the whole figure.
pub fn ctx_or_skip(result: Result<ExperimentCtx>, what: &str) -> Option<ExperimentCtx> {
    match result {
        Ok(ctx) => Some(ctx),
        Err(e) => {
            count!("harness.workloads_skipped");
            isum_common::warn!("harness", format!("skipping workload {what}: {e}"));
            None
        }
    }
}

/// Outcome of compressing with one method and tuning the result.
#[derive(Debug, Clone, Copy)]
pub struct MethodEval {
    /// Improvement (%) over the full workload.
    pub improvement_pct: f64,
    /// Wall-clock seconds spent inside the compressor.
    pub compression_secs: f64,
    /// Optimizer calls made while tuning the compressed workload.
    pub tuning_calls: u64,
    /// Wall-clock seconds spent tuning.
    pub tuning_secs: f64,
    /// Coverage of the compressed selection over the full workload
    /// ([`isum_core::workload_coverage`]): one gauge comparable across
    /// methods, reported alongside the quality figures.
    pub coverage: f64,
}

/// Compresses with `method`, tunes the result with `advisor`, and measures
/// the improvement over the entire workload.
///
/// # Errors
/// Compression failures (invalid configuration, an empty or too-small
/// workload) are returned as typed errors instead of panicking, so
/// callers skip and report the cell.
pub fn evaluate_method(
    method: &dyn Compressor,
    ctx: &ExperimentCtx,
    k: usize,
    advisor: &dyn IndexAdvisor,
    constraints: &TuningConstraints,
) -> Result<MethodEval> {
    // Spans carry the phase breakdown into the telemetry registry; the
    // Instant reads feed the `MethodEval` the caller renders into result
    // tables, which must work with telemetry off.
    let t0 = Instant::now();
    let cw = {
        let _s = telemetry::span("compress");
        method.compress(&ctx.workload, k)?
    };
    let compression_secs = t0.elapsed().as_secs_f64();
    // Observation only: coverage reads the finished selection, after the
    // compression clock stops, and never feeds back into tuning.
    let coverage = isum_core::workload_coverage(&ctx.workload, &cw.ids());
    let opt = ctx.optimizer();
    let t1 = Instant::now();
    let cfg = advisor.recommend(&opt, &ctx.workload, &cw, constraints);
    let tuning_secs = t1.elapsed().as_secs_f64();
    let tuning_calls = opt.optimizer_calls();
    let improvement_pct = {
        let _e = telemetry::span("evaluate");
        opt.improvement_pct(&ctx.workload, &cfg)
    };
    Ok(MethodEval { improvement_pct, compression_secs, tuning_calls, tuning_secs, coverage })
}

/// Evaluates several independent methods concurrently (one
/// [`isum_exec::par_map_indexed`] item per method), returning per-method
/// outcomes in method order — a failed method occupies its own `Err` slot
/// instead of aborting the figure.
///
/// Each evaluation builds its own [`WhatIfOptimizer`], so methods share
/// nothing but the read-only context. Use this for quality-comparison
/// figures only: concurrent methods contend for cores, so the per-method
/// wall-clock fields of [`MethodEval`] are *not* comparable across
/// methods here — timing figures (e.g. Fig 13 scalability) must keep
/// calling [`evaluate_method`] sequentially.
///
/// When a checkpoint run is active (see [`crate::checkpoint`]), each
/// method×context cell is recorded after it completes and replayed on
/// `--resume` instead of recomputed.
pub fn evaluate_methods(
    methods: &[Box<dyn Compressor>],
    ctx: &ExperimentCtx,
    k: usize,
    advisor: &(dyn IndexAdvisor + Sync),
    constraints: &TuningConstraints,
) -> Vec<checkpoint::CellOutcome> {
    isum_exec::par_map_indexed(methods, |i, m| {
        let key = cell_key(ctx, i, &m.name(), k, advisor.name(), constraints);
        checkpoint::cell(&key, || {
            evaluate_method(m.as_ref(), ctx, k, advisor, constraints).map_err(|e| e.to_string())
        })
    })
}

/// Checkpoint key for one method×context cell. Includes the workload's
/// size and total-cost bit pattern (which discriminate seeds and scaling
/// variants sharing a display name) plus the method's position and name,
/// `k`, the advisor, and the tuning constraints — everything the cell's
/// value depends on. Deterministic across runs and thread counts.
fn cell_key(
    ctx: &ExperimentCtx,
    method_index: usize,
    method_name: &str,
    k: usize,
    advisor_name: &str,
    constraints: &TuningConstraints,
) -> String {
    let budget = match constraints.storage_budget_bytes {
        Some(b) => format!("b{b}"),
        None => "b-".to_string(),
    };
    format!(
        "{}|n{}|c{:016x}|m{method_index}:{method_name}|k{k}|{advisor_name}|x{}|{budget}",
        ctx.name,
        ctx.workload.len(),
        ctx.workload.total_cost().to_bits(),
        constraints.max_indexes,
    )
}

/// Renders one evaluation outcome as an improvement-percent table cell;
/// a failed cell is reported (`harness.cells_skipped`) and rendered `-`.
pub fn improvement_cell(eval: &Result<MethodEval, impl Display>) -> String {
    match eval {
        Ok(e) => crate::report::f1(e.improvement_pct),
        Err(e) => {
            count!("harness.cells_skipped");
            isum_common::warn!("harness", format!("cell skipped: {e}"));
            "-".to_string()
        }
    }
}

/// Renders one evaluation outcome as a coverage table cell (three decimal
/// places — coverage lives in `[0, 1]`); a failed cell renders `-`
/// without re-counting the skip ([`improvement_cell`] already did).
pub fn coverage_cell(eval: &Result<MethodEval, impl Display>) -> String {
    match eval {
        Ok(e) => format!("{:.3}", e.coverage),
        Err(_) => "-".to_string(),
    }
}

/// The standard comparison set of Sec 8.1: Uniform, Cost, Stratified,
/// GSUM, ISUM, ISUM-S.
pub fn standard_methods(seed: u64) -> Vec<Box<dyn Compressor>> {
    vec![
        Box::new(UniformSampling::new(seed)),
        Box::new(CostTopK),
        Box::new(Stratified::new(seed)),
        Box::new(Gsum::new()),
        Box::new(Isum::new()),
        Box::new(Isum::with_config(IsumConfig::isum_s())),
    ]
}

/// The scalability comparison set of Fig 11: all-pairs, k-medoid, summary
/// features.
pub fn fig11_methods(seed: u64) -> Vec<Box<dyn Compressor>> {
    vec![
        Box::new(Isum::with_config(IsumConfig::all_pairs())),
        Box::new(KMedoid::new(seed)),
        Box::new(Isum::new()),
    ]
}

/// Default DTA advisor.
pub fn dta() -> DtaAdvisor {
    DtaAdvisor::new()
}

/// Folds the current telemetry registry into the per-run JSON report.
///
/// Schema (see README.md § Observability):
///
/// ```json
/// {
///   "run": "<id>",
///   "phases": {"featurize_ns": 0, "weight_ns": 0,
///              "select_ns": 0, "incremental_ns": 0},
///   "whatif": {"calls": 0, "cache_hits": 0, "cache_hit_rate": 0.0},
///   "telemetry": { ...full snapshot (counters/gauges/histograms/spans)... }
/// }
/// ```
///
/// The four phase keys are always present — zero when that phase never
/// ran — so downstream consumers can rely on the shape. Phase totals
/// aggregate the matching span *leaf* across every nesting (`compress/
/// isum/featurize` and a bare `featurize` both count).
pub fn telemetry_report(run: &str) -> Json {
    let snap = telemetry::snapshot();
    let calls = snap.counter("optimizer.whatif.calls").unwrap_or(0);
    let hits = snap.counter("optimizer.whatif.cache_hits").unwrap_or(0);
    let lookups = calls + hits;
    let hit_rate = if lookups == 0 { 0.0 } else { hits as f64 / lookups as f64 };
    Json::Obj(vec![
        ("run".into(), Json::from(run)),
        (
            "phases".into(),
            Json::Obj(
                [
                    ("featurize_ns", "featurize"),
                    ("weight_ns", "weight"),
                    ("select_ns", "select"),
                    ("incremental_ns", "incremental"),
                ]
                .into_iter()
                .map(|(key, leaf)| (key.to_string(), Json::from(snap.leaf_total_ns(leaf))))
                .collect(),
            ),
        ),
        (
            "whatif".into(),
            Json::Obj(vec![
                ("calls".into(), Json::from(calls)),
                ("cache_hits".into(), Json::from(hits)),
                ("cache_hit_rate".into(), Json::Num(hit_rate)),
            ]),
        ),
        ("telemetry".into(), snap.to_json()),
    ])
}

/// Writes [`telemetry_report`] to `<dir>/telemetry_<run>.json` and returns
/// the path.
///
/// # Errors
/// Propagates IO errors.
pub fn write_telemetry_report(run: &str, dir: &Path) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("telemetry_{run}.json"));
    std::fs::write(&path, telemetry_report(run).to_pretty())?;
    Ok(path)
}

/// Compressed-size sweep `{2, 4, ..., 2√n}` used across Fig 9a/12/15.
pub fn k_sweep(n: usize) -> Vec<usize> {
    let max = (2.0 * (n as f64).sqrt()).ceil() as usize;
    let mut ks = Vec::new();
    let mut k = 2usize;
    while k < max {
        ks.push(k);
        k *= 2;
    }
    ks.push(max.max(2));
    ks.dedup();
    ks
}

/// The paper's `0.5√n` default compressed size (Fig 9b, Fig 10).
pub fn half_sqrt_n(n: usize) -> usize {
    ((n as f64).sqrt() * 0.5).round().max(2.0) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isum_scale_names_one_of_four_scales_or_is_refused() {
        let scale = |v: Option<&'static str>| {
            Scale::from_lookup(move |var| v.filter(|_| var == "ISUM_SCALE").map(String::from))
        };
        let tpch = |v| scale(v).map(|s| s.tpch);
        assert_eq!(tpch(None), Ok(Scale::medium().tpch));
        assert_eq!(tpch(Some("")), Ok(Scale::medium().tpch));
        assert_eq!(tpch(Some("quick")), Ok(Scale::quick().tpch));
        assert_eq!(tpch(Some("medium")), Ok(Scale::medium().tpch));
        assert_eq!(tpch(Some("large")), Ok(Scale::large().tpch));
        assert_eq!(tpch(Some(" paper ")), Ok(Scale::paper().tpch));
        for bad in ["Paper", "papr", "full", "1"] {
            let err = tpch(Some(bad)).expect_err(bad);
            assert!(err.contains(&format!("`{bad}`")), "{err}");
            assert!(err.contains("quick|medium|large|paper"), "{err}");
        }
    }

    #[test]
    fn k_sweep_is_increasing_and_capped() {
        let ks = k_sweep(100);
        assert_eq!(*ks.last().unwrap(), 20);
        assert!(ks.windows(2).all(|w| w[0] < w[1]));
        assert!(ks[0] == 2);
    }

    #[test]
    fn half_sqrt_n_floor() {
        assert_eq!(half_sqrt_n(4), 2);
        assert_eq!(half_sqrt_n(400), 10);
    }

    #[test]
    fn quick_ctx_prepares_costs() {
        let scale = Scale::quick();
        let ctx = ExperimentCtx::tpch(&scale, 1).expect("tpch binds");
        assert!(ctx.workload.total_cost() > 0.0);
        assert_eq!(ctx.workload.len(), scale.tpch);
    }

    #[test]
    fn evaluate_method_end_to_end() {
        let scale = Scale::quick();
        let ctx = ExperimentCtx::tpch(&scale, 1).expect("tpch binds");
        let isum = Isum::new();
        let eval = evaluate_method(&isum, &ctx, 6, &dta(), &TuningConstraints::with_max_indexes(8))
            .expect("valid inputs evaluate");
        assert!(eval.improvement_pct >= 0.0 && eval.improvement_pct <= 100.0);
        assert!(eval.tuning_calls > 0);
    }

    #[test]
    fn evaluate_method_reports_errors_instead_of_panicking() {
        let scale = Scale::quick();
        let ctx = ExperimentCtx::tpch(&scale, 1).expect("tpch binds");
        let isum = Isum::new();
        // k = 0 is an invalid configuration: the old harness panicked
        // here; now it is a typed, skippable error.
        let err = evaluate_method(&isum, &ctx, 0, &dta(), &TuningConstraints::with_max_indexes(8))
            .expect_err("k = 0 must fail");
        assert!(matches!(err, isum_common::Error::InvalidConfig(_)), "{err}");
        assert_eq!(improvement_cell(&Err(err)), "-");
    }

    #[test]
    fn cell_keys_discriminate_every_input() {
        let scale = Scale::quick();
        let ctx = ExperimentCtx::tpch(&scale, 1).expect("tpch binds");
        let other = ExperimentCtx::tpch(&scale, 2).expect("tpch binds");
        let c16 = TuningConstraints::with_max_indexes(16);
        let base = super::cell_key(&ctx, 0, "ISUM", 8, "DTA", &c16);
        for (key, want_ne) in [
            (super::cell_key(&ctx, 0, "ISUM", 8, "DTA", &c16), false),
            (super::cell_key(&other, 0, "ISUM", 8, "DTA", &c16), true),
            (super::cell_key(&ctx, 1, "ISUM", 8, "DTA", &c16), true),
            (super::cell_key(&ctx, 0, "GSUM", 8, "DTA", &c16), true),
            (super::cell_key(&ctx, 0, "ISUM", 9, "DTA", &c16), true),
            (super::cell_key(&ctx, 0, "ISUM", 8, "Dexter", &c16), true),
            (
                super::cell_key(&ctx, 0, "ISUM", 8, "DTA", &TuningConstraints::with_budget(16, 9)),
                true,
            ),
        ] {
            assert_eq!(key != base, want_ne, "{key} vs {base}");
        }
    }

    #[test]
    fn standard_methods_have_unique_names() {
        let ms = standard_methods(1);
        let names: Vec<String> = ms.iter().map(|m| m.name()).collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "{names:?}");
        assert_eq!(names.len(), 6);
    }
}
