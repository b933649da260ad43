//! Sensitivity studies: Fig 12 (workload characteristics), Fig 13 (update
//! strategies), Fig 14 (weighting strategies).

use isum_advisor::TuningConstraints;
use isum_core::{Algorithm, Isum, IsumConfig, UpdateStrategy, WeightingStrategy};
use isum_workload::gen::dsb::{dsb_workload_classed, dsb_workload_instances};
use isum_workload::QueryClass;

use crate::harness::{
    ctx_or_skip, dta, evaluate_method, improvement_cell, k_sweep, standard_methods, ExperimentCtx,
    Scale,
};
use crate::report::Table;

/// Fig 12a: instances per template (DSB); 12b–d: per-class workloads.
pub fn fig12(scale: &Scale) -> Vec<Table> {
    let mut tables = Vec::new();
    // 12a: fixed template count, growing instance count.
    let mut t = Table::new(
        "fig12a_instances",
        "Fig 12a (DSB): improvement (%) vs instances per template (k=16)",
        &["instances", "Uniform", "Cost", "Stratified", "GSUM", "ISUM", "ISUM-S"],
    );
    for instances in [1usize, 2, 4, 8] {
        let Some(ctx) = ctx_or_skip(
            dsb_workload_instances(scale.sf, 26, instances, 120)
                .map(|w| ExperimentCtx::prepare("DSB", w)),
            "DSB",
        ) else {
            continue;
        };
        let methods = standard_methods(120);
        let constraints = TuningConstraints::with_max_indexes(16);
        let mut row = vec![instances.to_string()];
        for m in &methods {
            row.push(improvement_cell(&evaluate_method(
                m.as_ref(),
                &ctx,
                16,
                &dta(),
                &constraints,
            )));
        }
        t.row(row);
    }
    tables.push(t);
    // 12b-d: class-restricted workloads, k sweep.
    for (label, class) in [
        ("spj", QueryClass::Spj),
        ("aggregate", QueryClass::Aggregate),
        ("complex", QueryClass::Complex),
    ] {
        let Some(ctx) = ctx_or_skip(
            dsb_workload_classed(scale.sf, class, scale.dsb, 121)
                .map(|w| ExperimentCtx::prepare("DSB", w)),
            "DSB",
        ) else {
            continue;
        };
        let methods = standard_methods(121);
        let constraints = TuningConstraints::with_max_indexes(16);
        let mut t = Table::new(
            format!("fig12_{label}"),
            format!("Fig 12 (DSB {label}): improvement (%) vs compressed size"),
            &["k", "Uniform", "Cost", "Stratified", "GSUM", "ISUM", "ISUM-S"],
        );
        for k in k_sweep(ctx.workload.len()) {
            let mut row = vec![k.to_string()];
            for m in &methods {
                row.push(improvement_cell(&evaluate_method(
                    m.as_ref(),
                    &ctx,
                    k,
                    &dta(),
                    &constraints,
                )));
            }
            t.row(row);
        }
        tables.push(t);
    }
    tables
}

/// Fig 13: update strategies under the all-pairs greedy (TPC-H, TPC-DS).
pub fn fig13(scale: &Scale) -> Vec<Table> {
    let strategies = [
        ("no_update", UpdateStrategy::NoUpdate),
        ("utility_only", UpdateStrategy::UtilityOnly),
        ("utility+subtract", UpdateStrategy::SubtractWeights),
        ("utility+zero", UpdateStrategy::ZeroFeatures),
    ];
    let mut tables = Vec::new();
    for mut ctx in [
        ctx_or_skip(ExperimentCtx::tpch(scale, 130), "TPC-H"),
        ctx_or_skip(ExperimentCtx::tpcds(scale, 130), "TPC-DS"),
    ]
    .into_iter()
    .flatten()
    {
        // The all-pairs greedy is O(k n^2); cap the input so paper-scale
        // runs stay tractable (the paper's own Fig 11 shows why).
        if ctx.workload.len() > 1000 {
            let ids: Vec<isum_common::QueryId> =
                (0..1000).map(isum_common::QueryId::from_index).collect();
            ctx = ExperimentCtx { workload: ctx.workload.restricted_to(&ids), name: ctx.name };
        }
        let constraints = TuningConstraints::with_max_indexes(16);
        let mut t = Table::new(
            format!("fig13_{}", ctx.name.to_ascii_lowercase().replace('-', "")),
            format!("Fig 13 ({}): update strategies, all-pairs greedy", ctx.name),
            &["k", "no_update", "utility_only", "utility+subtract", "utility+zero"],
        );
        for k in [1usize, 2, 4, 8] {
            let mut row = vec![k.to_string()];
            for (_, s) in &strategies {
                let isum = Isum::with_config(IsumConfig {
                    algorithm: Algorithm::AllPairs,
                    update: *s,
                    ..IsumConfig::isum()
                });
                row.push(improvement_cell(&evaluate_method(&isum, &ctx, k, &dta(), &constraints)));
            }
            t.row(row);
        }
        tables.push(t);
    }
    tables
}

/// Fig 14: weighting strategies (TPC-H).
pub fn fig14(scale: &Scale) -> Vec<Table> {
    let strategies = [
        ("no_weighing", WeightingStrategy::Uniform),
        ("benefit_selection", WeightingStrategy::SelectionBenefit),
        ("recalibrated", WeightingStrategy::Recalibrated),
        ("recalib+template", WeightingStrategy::RecalibratedTemplate),
    ];
    let Some(ctx) = ctx_or_skip(ExperimentCtx::tpch(scale, 140), "TPC-H") else {
        return Vec::new();
    };
    let constraints = TuningConstraints::with_max_indexes(16);
    let mut t = Table::new(
        "fig14_weighing",
        "Fig 14 (TPC-H): weighting strategies",
        &["k", "no_weighing", "benefit_selection", "recalibrated", "recalib+template"],
    );
    for k in [2usize, 4, 8, 16, 32] {
        if k > ctx.workload.len() {
            break;
        }
        let mut row = vec![k.to_string()];
        for (_, s) in &strategies {
            let isum = Isum::with_config(IsumConfig { weighting: *s, ..IsumConfig::isum() });
            row.push(improvement_cell(&evaluate_method(&isum, &ctx, k, &dta(), &constraints)));
        }
        t.row(row);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;
    use isum_core::Compressor;

    #[test]
    fn update_strategies_all_produce_valid_selections() {
        let scale = Scale::quick();
        let ctx = ExperimentCtx::tpch(&scale, 130).expect("tpch binds");
        for s in [
            UpdateStrategy::NoUpdate,
            UpdateStrategy::UtilityOnly,
            UpdateStrategy::SubtractWeights,
            UpdateStrategy::ZeroFeatures,
        ] {
            let isum = Isum::with_config(IsumConfig {
                algorithm: Algorithm::AllPairs,
                update: s,
                ..IsumConfig::isum()
            });
            let cw = isum.compress(&ctx.workload, 4).unwrap();
            assert_eq!(cw.len(), 4, "{s:?}");
        }
    }
}
