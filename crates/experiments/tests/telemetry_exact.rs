//! Telemetry ground-truth test: the global `optimizer.whatif.calls`
//! counter must match the optimizer's own per-instance call counter
//! *exactly* — not approximately — across a full compress → tune →
//! evaluate pipeline.
//!
//! Lives in its own integration-test binary: the counters and the enabled
//! flag are process-global, so any concurrently running instrumented test
//! would perturb the equality. Keep this file to a single `#[test]`.

use isum_advisor::{IndexAdvisor, TuningConstraints};
use isum_common::telemetry;
use isum_core::{Compressor, Isum};
use isum_experiments::harness::{dta, telemetry_report, write_telemetry_report};
use isum_experiments::{ExperimentCtx, Scale};

#[test]
fn whatif_call_counter_matches_optimizer_exactly() {
    // Prepare the workload BEFORE enabling telemetry: prepare() runs its
    // own throwaway optimizer whose calls would otherwise land in the
    // global counter but not in `opt` below.
    let ctx = ExperimentCtx::tpch(&Scale::quick(), 1).expect("tpch binds");
    telemetry::set_enabled(true);
    telemetry::reset();

    let opt = ctx.optimizer();
    let cw = Isum::new().compress(&ctx.workload, 6).expect("quick workload compresses");
    let cfg = dta().recommend(&opt, &ctx.workload, &cw, &TuningConstraints::with_max_indexes(4));
    let _ = opt.improvement_pct(&ctx.workload, &cfg);

    let snap = telemetry::snapshot();
    assert_eq!(
        snap.counter("optimizer.whatif.calls"),
        Some(opt.optimizer_calls()),
        "global counter must equal WhatIfOptimizer::optimizer_calls() exactly"
    );
    assert_eq!(
        snap.counter("optimizer.whatif.cache_hits"),
        Some(opt.cache_hits()),
        "global cache-hit counter must match the instance"
    );
    // Beneath the call counter, the memo's evaluations are counted the
    // same way, and its entries are the signatures gauge.
    assert_eq!(snap.counter("optimizer.cost.evaluations"), Some(opt.cost_evaluations()));
    assert!(opt.cost_evaluations() <= opt.optimizer_calls());
    assert_eq!(snap.gauge("optimizer.cost.signatures"), Some(opt.cost_signatures() as i64));

    // The per-run report reflects the same ground truth and always carries
    // the four phase keys.
    let report = telemetry_report("exact");
    let text = report.to_pretty();
    let parsed = isum_common::Json::parse(&text).expect("report JSON reparses");
    let Some(whatif) = parsed.get("whatif") else { panic!("report lacks whatif: {text}") };
    assert_eq!(
        whatif.get("calls").and_then(isum_common::Json::as_f64),
        Some(opt.optimizer_calls() as f64)
    );
    let Some(phases) = parsed.get("phases") else { panic!("report lacks phases: {text}") };
    for key in ["featurize_ns", "weight_ns", "select_ns", "incremental_ns"] {
        assert!(phases.get(key).is_some(), "phase key {key} missing: {text}");
    }
    // ISUM ran, so featurization and selection spans must carry time; the
    // incremental algorithm did not run, so its key is present but zero.
    let ns = |k: &str| phases.get(k).and_then(isum_common::Json::as_f64).unwrap();
    assert!(ns("featurize_ns") > 0.0, "featurize span recorded");
    assert!(ns("select_ns") > 0.0, "select span recorded");
    assert_eq!(ns("incremental_ns"), 0.0, "incremental never ran");

    // write_telemetry_report lands the same document on disk, parseable.
    let dir = std::env::temp_dir().join(format!("isum_telemetry_test_{}", std::process::id()));
    let path = write_telemetry_report("exact", &dir).expect("report writes");
    let on_disk = std::fs::read_to_string(&path).expect("report readable");
    isum_common::Json::parse(&on_disk).expect("on-disk report reparses");
    std::fs::remove_dir_all(&dir).ok();

    telemetry::set_enabled(false);
}
