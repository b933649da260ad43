//! The batch compression pipeline, twice: once exactly as `isum compress
//! --json` runs it (the thing that is measured), and once step by step
//! with a timer around each public call (the traced run that attributes
//! the time to layers). Both must render byte-identical summaries.

use std::hint::black_box;
use std::time::Instant;

use isum_advisor::{DtaAdvisor, IndexAdvisor, TuningConstraints};
use isum_catalog::Catalog;
use isum_common::rng::DetRng;
use isum_common::QueryId;
use isum_core::summary::select_summary;
use isum_core::utility::utilities;
use isum_core::weighting::weigh_selected;
use isum_core::{Compressor, Featurizer, Isum, IsumConfig, WorkloadFeatures};
use isum_optimizer::{IndexConfig, WhatIfOptimizer};
use isum_server::summary_to_json;
use isum_sql::{parse, Binder};
use isum_workload::gen::tpcds::{tpcds_templates, N_TEMPLATES};
use isum_workload::gen::tpcds_templates::{instantiate as tpcds_hand_written, N_HAND_WRITTEN};
use isum_workload::gen::tpch::instantiate_template;
use isum_workload::gen::{tpcds_catalog, tpch_catalog};
use isum_workload::{
    indexable_columns, load_script, split_script, CompressedWorkload, QueryClass, QueryInfo,
    Workload,
};

use crate::spec::{Gen, TUNE_M};
use crate::util::Values;

/// The builtin catalog a generator's statements bind against (what
/// `--schema tpch:<sf>` / `tpcds:<sf>` resolve to in the CLI).
pub fn catalog(gen: Gen, sf: u64) -> Catalog {
    match gen {
        Gen::Tpch => tpch_catalog(sf),
        Gen::Tpcds => tpcds_catalog(sf, 0.0),
    }
}

/// Renders `n` statements as a `;`-separated script, round-robin over the
/// generator's templates with parameters drawn from `seed` — the same
/// statement stream `isum dump --workload gen:<kind>:<sf>:<n>:<seed>`
/// produces, without binding them first.
pub fn generate_script(gen: Gen, sf: u64, n: usize, seed: u64) -> String {
    let mut rng = DetRng::seeded(seed);
    let synthetic = match gen {
        Gen::Tpch => Vec::new(),
        Gen::Tpcds => tpcds_templates(&tpcds_catalog(sf, 0.0), N_TEMPLATES - N_HAND_WRITTEN),
    };
    let mut script = String::new();
    for i in 0..n {
        let sql = match gen {
            Gen::Tpch => instantiate_template(i % 22 + 1, &mut rng),
            Gen::Tpcds => match i % N_TEMPLATES {
                t if t < N_HAND_WRITTEN => tpcds_hand_written(t, &mut rng),
                t => synthetic[t - N_HAND_WRITTEN].instantiate(&mut rng),
            },
        };
        script.push_str(sql.trim_end_matches(';'));
        script.push_str(";\n");
    }
    script
}

/// One finished pipeline run.
pub struct Compressed {
    pub workload: Workload,
    pub summary: CompressedWorkload,
    /// The rendered summary document, as `isum compress --json` prints it.
    pub json: String,
    /// Seconds from the script text to a costed workload.
    pub load_s: f64,
    /// Seconds from the costed workload to the rendered summary.
    pub compress_s: f64,
}

fn render(k: usize, w: &Workload, summary: &CompressedWorkload) -> String {
    summary_to_json(k, w.len(), w.template_count(), &summary.entries).to_pretty()
}

/// The sequence `isum compress --json` executes after reading the script:
/// `load_script`, cost fill through `WhatIfOptimizer::cost_bound`,
/// `Isum::compress`, `summary_to_json`.
pub fn compress(script: &str, catalog: Catalog, k: usize) -> Result<Compressed, String> {
    let t = Instant::now();
    let mut w = load_script(catalog, script).map_err(|e| format!("load_script: {e}"))?;
    if w.is_empty() {
        return Err("script has no statements".into());
    }
    if w.queries.iter().any(|q| q.cost <= 0.0) {
        let costs: Vec<f64> = {
            let opt = WhatIfOptimizer::new(&w.catalog);
            let empty = IndexConfig::empty();
            w.queries
                .iter()
                .map(|q| if q.cost > 0.0 { q.cost } else { opt.cost_bound(&q.bound, &empty) })
                .collect()
        };
        w.set_costs(&costs);
    }
    let load_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let summary = Isum::new().compress(&w, k).map_err(|e| format!("compress: {e}"))?;
    let json = render(k, &w, &summary);
    let compress_s = t.elapsed().as_secs_f64();
    Ok(Compressed { workload: w, summary, json, load_s, compress_s })
}

/// Nanoseconds charged to each layer by one traced run.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerNs {
    pub statements: usize,
    pub split: u64,
    pub parse: u64,
    pub bind: u64,
    pub template: u64,
    pub indexable: u64,
    pub cost: u64,
    pub featurize: u64,
    pub utility: u64,
    pub select: u64,
    pub weigh: u64,
    /// Wall time of the whole traced sequence, probes excluded — the
    /// numerator of the tracing-overhead ratio.
    pub total: u64,
}

impl LayerNs {
    /// Adds another run's times (serve workloads trace one run per tenant).
    pub fn add(&mut self, o: &LayerNs) {
        self.statements += o.statements;
        self.split += o.split;
        self.parse += o.parse;
        self.bind += o.bind;
        self.template += o.template;
        self.indexable += o.indexable;
        self.cost += o.cost;
        self.featurize += o.featurize;
        self.utility += o.utility;
        self.select += o.select;
        self.weigh += o.weigh;
        self.total += o.total;
    }

    /// The per-layer metrics this run accounts for.
    pub fn report(&self, out: &mut Values) {
        let n = self.statements.max(1) as f64;
        let mut per = |name: &str, ns: u64| {
            out.insert(name.to_string(), ns as f64 / n);
        };
        per("workload.split_ns_per_stmt", self.split);
        per("sql.parse_ns_per_stmt", self.parse);
        per("sql.bind_ns_per_stmt", self.bind);
        per("sql.template_ns_per_stmt", self.template);
        per("workload.indexable_ns_per_stmt", self.indexable);
        per("optimizer.cost_ns_per_stmt", self.cost);
        per("core.featurize_ns_per_stmt", self.featurize);
        per("core.utility_ns_per_stmt", self.utility);
        per("core.select_ns_per_stmt", self.select);
        per("core.weigh_ns_per_stmt", self.weigh);
        out.insert("core.select_share".into(), self.select as f64 / self.total.max(1) as f64);
    }
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// [`compress`] unrolled into the public calls it is made of, each timed.
/// `workload.indexable_ns_per_stmt` is a probe: featurization extracts
/// indexable columns internally, so the probe repeats that call on its
/// own and is kept out of `total`.
pub fn compress_traced(
    script: &str,
    catalog: Catalog,
    k: usize,
) -> Result<(Compressed, LayerNs), String> {
    let mut ns = LayerNs::default();
    let whole = Instant::now();

    let t = Instant::now();
    let (sqls, costs) = split_script(script);
    ns.split = ns_since(t);
    ns.statements = sqls.len();
    if sqls.is_empty() {
        return Err("script has no statements".into());
    }

    let mut w = Workload::empty(catalog);
    w.queries.reserve(sqls.len());
    let binder = Binder::new(&w.catalog);
    for (i, (sql, cost)) in sqls.iter().zip(&costs).enumerate() {
        let t = Instant::now();
        let stmt = parse(sql).map_err(|e| format!("statement {i}: {e}"))?;
        ns.parse += ns_since(t);
        let t = Instant::now();
        let bound = binder.bind(&stmt).map_err(|e| format!("statement {i}: {e}"))?;
        ns.bind += ns_since(t);
        let t = Instant::now();
        let template = w.templates.intern(&stmt);
        ns.template += ns_since(t);
        let class = QueryClass::classify(&bound);
        w.queries.push(QueryInfo {
            id: QueryId::from_index(i),
            sql: sql.clone(),
            bound,
            template,
            cost: cost.unwrap_or(0.0),
            class,
        });
    }

    let t = Instant::now();
    let filled: Vec<f64> = {
        let opt = WhatIfOptimizer::new(&w.catalog);
        let empty = IndexConfig::empty();
        w.queries
            .iter()
            .map(|q| if q.cost > 0.0 { q.cost } else { opt.cost_bound(&q.bound, &empty) })
            .collect()
    };
    w.set_costs(&filled);
    ns.cost = ns_since(t);
    let load_s = whole.elapsed().as_secs_f64();

    let config = IsumConfig::isum();
    let featurizer =
        Featurizer { scheme: config.scheme, use_table_weight: config.use_table_weight };
    let t = Instant::now();
    let wf = WorkloadFeatures::build(&w, &featurizer);
    ns.featurize = ns_since(t);
    let t = Instant::now();
    let u = utilities(&w, config.utility);
    ns.utility = ns_since(t);
    let t = Instant::now();
    let selection = select_summary(wf.features.clone(), &wf.original, u.clone(), k, config.update);
    ns.select = ns_since(t);
    let t = Instant::now();
    let templates: Vec<_> = w.queries.iter().map(|q| q.template).collect();
    let weights = weigh_selected(config.weighting, &templates, &selection, &wf.original, &u);
    let mut summary = CompressedWorkload {
        entries: selection
            .order
            .iter()
            .zip(weights)
            .map(|(&i, weight)| (QueryId::from_index(i), weight))
            .collect(),
    };
    summary.normalize_weights();
    ns.weigh = ns_since(t);
    let json = render(k, &w, &summary);
    ns.total = ns_since(whole);
    let compress_s = whole.elapsed().as_secs_f64() - load_s;

    let t = Instant::now();
    for q in &w.queries {
        black_box(indexable_columns(black_box(&q.bound), &w.catalog));
    }
    ns.indexable = ns_since(t);

    Ok((Compressed { workload: w, summary, json, load_s, compress_s }, ns))
}

/// What tuning on the summary is worth on the full workload.
pub struct Quality {
    /// `(C(W) − C_cfg(W)) / C(W) × 100` for the DTA configuration
    /// recommended from the summary.
    pub improvement_pct: f64,
    pub tune_ms: f64,
    pub whatif_calls: u64,
    pub cache_hit_ratio: f64,
}

impl Quality {
    pub fn report(&self, out: &mut Values) {
        out.insert("advisor.tune_ms".into(), self.tune_ms);
        out.insert("optimizer.whatif_calls".into(), self.whatif_calls as f64);
        out.insert("optimizer.cache_hit_ratio".into(), self.cache_hit_ratio);
    }
}

/// Runs DTA (`m =` [`TUNE_M`]) on the summary and evaluates the
/// recommendation on every statement of the workload.
pub fn quality(w: &Workload, summary: &CompressedWorkload) -> Quality {
    let opt = WhatIfOptimizer::new(&w.catalog);
    let t = Instant::now();
    let config =
        DtaAdvisor::new().recommend(&opt, w, summary, &TuningConstraints::with_max_indexes(TUNE_M));
    let tune_ms = t.elapsed().as_secs_f64() * 1e3;
    let (calls, hits) = (opt.optimizer_calls(), opt.cache_hits());
    let improvement_pct = opt.improvement_pct(w, &config);
    Quality {
        improvement_pct,
        tune_ms,
        whatif_calls: calls,
        cache_hit_ratio: hits as f64 / (calls + hits).max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_and_plain_pipelines_render_the_same_bytes() {
        for (gen, k) in [(Gen::Tpch, 5), (Gen::Tpcds, 12)] {
            let script = generate_script(gen, 1, 150, 9);
            let plain = compress(&script, catalog(gen, 1), k).expect("plain");
            let (traced, ns) = compress_traced(&script, catalog(gen, 1), k).expect("traced");
            assert_eq!(plain.json, traced.json);
            assert_eq!(ns.statements, 150);
            assert!(ns.parse > 0 && ns.select > 0 && ns.total >= ns.select);
        }
    }

    #[test]
    fn scripts_are_a_pure_function_of_the_seed() {
        let a = generate_script(Gen::Tpcds, 1, 200, 3);
        assert_eq!(a, generate_script(Gen::Tpcds, 1, 200, 3));
        assert_ne!(a, generate_script(Gen::Tpcds, 1, 200, 4));
        assert_eq!(split_script(&a).0.len(), 200);
    }
}
