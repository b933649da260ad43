//! Real-M-shaped workload generator.
//!
//! Real-M is a proprietary customer workload the paper characterizes only by
//! shape: 473 queries, 456 templates, 474 tables, 26 GB; "queries are more
//! similar to each other, and the cost of queries is a more dominant factor"
//! (Sec 8.1). We synthesize that shape: a schema with a few very large *hub*
//! tables that most queries touch (driving both the cost skew and the
//! inter-query similarity) plus hundreds of small satellite tables, and
//! near-unique templates (456 distinct structures over 473 instances).

use isum_catalog::{Catalog, CatalogBuilder};
use isum_common::rng::{DetRng, Zipf};
use isum_common::Result;

use crate::gen::synth::{FactMeta, FkEdge, SyntheticTemplate, TemplateGenerator};
use crate::query::{QueryClass, Workload};

/// Seed fixing the schema and template structures.
const SCHEMA_SEED: u64 = 0x4EA1;

/// Number of hub (large fact-like) tables.
const N_HUBS: usize = 12;
/// Total tables (Table 2 of the paper: 474).
pub const N_TABLES: usize = 474;
/// Distinct templates (Table 2: 456).
pub const N_TEMPLATES: usize = 456;
/// Queries (Table 2: 473).
pub const N_QUERIES: usize = 473;

/// Builds the Real-M-shaped catalog: `N_HUBS` hub tables with Zipf-skewed
/// sizes up to ~50M rows and small satellite tables, 474 tables total.
pub fn realm_catalog() -> Catalog {
    let mut rng = DetRng::seeded(SCHEMA_SEED);
    let mut b = CatalogBuilder::new();
    let n_sats = N_TABLES - N_HUBS;
    // Satellites first so hubs can reference them.
    for s in 0..n_sats {
        let rows = 100 + rng.below(100_000) as u64;
        let ndv_attr = (rows / 10).max(2);
        b = b
            .table(format!("sat{s:03}"), rows)
            .col_key(&format!("sat{s:03}_id"))
            .col_int(&format!("sat{s:03}_attr"), ndv_attr, 0, ndv_attr as i64)
            .col_int(&format!("sat{s:03}_code"), 20, 0, 19)
            .finish()
            .expect("unique tables");
    }
    // Hub sizes follow a power law: hub0 is huge, later hubs shrink.
    for h in 0..N_HUBS {
        let rows = (50_000_000.0 / (h as f64 + 1.0).powf(1.4)) as u64;
        let mut tb = b
            .table(format!("hub{h:02}"), rows.max(500_000))
            .col_key(&format!("hub{h:02}_id"))
            .col_int_skewed(&format!("hub{h:02}_status"), 8, 0, 7, 1.2)
            .col_int_skewed(&format!("hub{h:02}_type"), 50, 0, 49, 1.0)
            .col_date(&format!("hub{h:02}_created"), 14_000, 16_000)
            .col_float(&format!("hub{h:02}_amount"), 100_000, 0.0, 1e6);
        // 6 foreign keys to satellites each. The satellite index draw must
        // stay in the stream so `realm_fact_meta` can replay it.
        for k in 0..6 {
            let _sat = rng.below(n_sats);
            let ndv = 100 + rng.below(50_000) as u64;
            tb = tb.col_int(&format!("hub{h:02}_fk{k}"), ndv, 1, ndv as i64);
        }
        b = tb.finish().expect("unique tables");
    }
    b.build()
}

/// Fact metadata for the hubs (recomputed deterministically to mirror the
/// FK choices made by [`realm_catalog`]).
fn realm_fact_meta(catalog: &Catalog) -> Vec<FactMeta> {
    let mut rng = DetRng::seeded(SCHEMA_SEED);
    let n_sats = N_TABLES - N_HUBS;
    // Replay the satellite-row draws so the FK stream aligns.
    for _ in 0..n_sats {
        let _rows = rng.below(100_000);
    }
    let mut out = Vec::with_capacity(N_HUBS);
    for h in 0..N_HUBS {
        let table = format!("hub{h:02}");
        let mut fks = Vec::with_capacity(6);
        for k in 0..6 {
            let sat = rng.below(n_sats);
            let _ndv = rng.below(50_000);
            fks.push(FkEdge {
                fk_col: format!("hub{h:02}_fk{k}"),
                dim: format!("sat{sat:03}"),
                pk_col: format!("sat{sat:03}_id"),
            });
        }
        debug_assert!(catalog.table_id(&table).is_some());
        out.push(FactMeta { table, fks, measures: vec![format!("hub{h:02}_amount")] });
    }
    out
}

/// The first `n` Real-M template structures over [`realm_catalog`]
/// (deterministic: a prefix of the same seeded stream for every `n`).
pub fn realm_templates(catalog: &Catalog, n: usize) -> Vec<SyntheticTemplate> {
    let gen = TemplateGenerator::new(catalog, realm_fact_meta(catalog));
    let mut template_rng = DetRng::seeded(SCHEMA_SEED ^ 0x7E);
    (0..n)
        .map(|i| {
            let class = match i % 10 {
                0..=4 => QueryClass::Spj,
                5..=7 => QueryClass::Aggregate,
                _ => QueryClass::Complex,
            };
            gen.generate(class, &mut template_rng)
        })
        .collect()
}

/// Generates the Real-M workload: [`N_QUERIES`] queries over
/// [`N_TEMPLATES`] templates; template *usage* is Zipf-skewed over the hubs
/// so a few huge tables dominate cost, and the class mix leans simple
/// (operational queries).
///
/// # Errors
/// Propagates parse/bind errors (generator bugs, not user error).
pub fn realm_workload(seed: u64) -> Result<Workload> {
    realm_workload_sized(N_QUERIES, seed)
}

/// Real-M workload scaled to `n_queries` (used by Fig 11's input-size
/// sweep). Templates remain near-unique: `min(n, N_TEMPLATES)` distinct
/// structures.
///
/// # Errors
/// Propagates parse/bind errors.
pub fn realm_workload_sized(n_queries: usize, seed: u64) -> Result<Workload> {
    let catalog = realm_catalog();
    let n_templates = n_queries.min(N_TEMPLATES);
    let templates = realm_templates(&catalog, n_templates);
    // Instance i uses template i while templates last, then re-draws
    // Zipf-skewed (hot templates repeat) — preserving near-uniqueness.
    let zipf = Zipf::new(n_templates, 1.0);
    let mut rng = DetRng::seeded(seed);
    let sqls: Vec<String> = (0..n_queries)
        .map(|i| {
            let t = if i < n_templates { i } else { zipf.sample(&mut rng) };
            templates[t].instantiate(&mut rng)
        })
        .collect();
    Workload::from_sql(catalog, &sqls)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_matches_published_shape() {
        let c = realm_catalog();
        assert_eq!(c.len(), N_TABLES);
        let hub0 = c.table(c.table_id("hub00").unwrap());
        assert!(hub0.row_count >= 10_000_000);
        let hub11 = c.table(c.table_id("hub11").unwrap());
        assert!(hub11.row_count < hub0.row_count, "hub sizes are skewed");
    }

    #[test]
    fn workload_matches_published_shape() {
        let w = realm_workload(1).unwrap();
        assert_eq!(w.len(), N_QUERIES);
        // Templates are near-unique (456 target; tiny collision slack).
        assert!(w.template_count() >= 440, "got {}", w.template_count());
    }

    #[test]
    fn fact_meta_fks_align_with_catalog() {
        let c = realm_catalog();
        for f in realm_fact_meta(&c) {
            let t = c.table(c.table_id(&f.table).unwrap());
            for e in &f.fks {
                assert!(t.column_id(&e.fk_col).is_some(), "{}.{}", f.table, e.fk_col);
                let dim = c.table(c.table_id(&e.dim).unwrap());
                assert!(dim.column_id(&e.pk_col).is_some(), "{}.{}", e.dim, e.pk_col);
            }
        }
    }

    #[test]
    fn scaled_workload_sizes() {
        let w = realm_workload_sized(64, 2).unwrap();
        assert_eq!(w.len(), 64);
        assert_eq!(w.template_count(), 64, "below 456, every query is its own template");
    }

    #[test]
    fn hub_queries_dominate() {
        let w = realm_workload_sized(100, 3).unwrap();
        let hub_queries = w
            .queries
            .iter()
            .filter(|q| {
                q.bound.tables.iter().any(|t| w.catalog.table(t.table).name.starts_with("hub"))
            })
            .count();
        assert_eq!(hub_queries, w.len(), "every template drives from a hub");
    }
}
