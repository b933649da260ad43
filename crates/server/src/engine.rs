//! The serving engine: an incrementally grown [`Workload`] paired with an
//! [`IncrementalIsum`] observer.
//!
//! # Bit-identity contract
//!
//! Every statement accepted here goes through exactly the pipeline the
//! batch CLI uses: [`split_script`] carves up the script, `push_sql`
//! parses/binds/interns, missing costs are filled by the one function
//! the CLI calls too ([`isum_optimizer::fill_missing_costs`]), and the
//! query is handed to [`IncrementalIsum::observe_as`]. Because the
//! incremental observer shares the batch weighting code (`weigh_grouped`
//! over the observed feature groups), a live `/summary` over ingested
//! statements is bit-identical to `isum compress` over the same script.
//!
//! # Export format
//!
//! An engine's state is a pure function of the statements it accepted, so
//! the daemon's durability is the statement log alone (`crate::wal`,
//! DESIGN.md §14), and the export is that statement list too. The daemon
//! never reads or writes it: [`Engine::snapshot`] / [`Engine::checkpoint_to`]
//! export a state for inspection and tests, and [`Engine::restore_from`]
//! re-binds and re-observes the statements, as log replay does.
//!
//! ```text
//! { "version": 1,
//!   "next_seq": <u64>,                     // sequencer high-water mark
//!   "wal_seq": <u64>,                      // log record watermark
//!   "statements": [[<sql>, <cost bits>]],  // accepted statements in order
//!   "drift": { ... } }                     // drift-tracker state (optional)
//! ```
//!
//! Costs are serialized as 16-hex-digit IEEE-754 bit patterns
//! ([`isum_common::hex_bits`]), so a restore rebuilds the observed
//! workload bit-identically without re-running the what-if optimizer.

use std::path::Path;

use isum_advisor::TuningConstraints;
use isum_catalog::Catalog;
use isum_common::{count, hex_bits, unhex_bits, Error, Json, Result, TemplateId};
use isum_core::{IncrementalIsum, IsumConfig};
use isum_optimizer::WhatIfOptimizer;
use isum_workload::{split_script, Workload};

/// Per-batch ingest outcome: how many statements were applied, which
/// were rejected (with the statement's index within the batch and the
/// rejection reason), and what the observer recorded for the applied
/// ones. A rejected statement never mutates engine state.
#[derive(Debug, Default)]
pub struct IngestOutcome {
    /// Statements parsed, bound, costed, and observed.
    pub accepted: usize,
    /// `(statement index within the batch, reason)` for each reject.
    pub rejected: Vec<(usize, String)>,
    /// Total statements in the batch.
    pub total: usize,
    /// `(template, unnormalized Δ)` of each accepted statement, in order
    /// ([`IncrementalIsum::observe_as`]): what the drift tracker folds.
    pub observations: Vec<(TemplateId, f64)>,
}

/// The observed workload plus its incremental compression state.
pub struct Engine {
    workload: Workload,
    isum: IncrementalIsum,
}

impl Engine {
    /// An engine with no observed queries.
    pub fn new(catalog: Catalog, config: IsumConfig) -> Engine {
        Engine { workload: Workload::empty(catalog), isum: IncrementalIsum::new(config) }
    }

    /// Number of observed queries.
    pub fn observed(&self) -> usize {
        self.workload.len()
    }

    /// Number of distinct templates among observed queries.
    pub fn template_count(&self) -> usize {
        self.isum.template_count()
    }

    /// Applies one `;`-separated script: each statement is parsed, bound,
    /// costed (missing costs filled by the batch CLI's own
    /// [`isum_optimizer::fill_missing_costs`]), and observed.
    /// Statement failures are lenient — recorded per statement, never
    /// aborting the batch — and leave no partial state behind.
    pub fn apply_script(&mut self, script: &str) -> IngestOutcome {
        let (sqls, costs) = split_script(script);
        let stmts: Vec<(String, Option<f64>)> = sqls.into_iter().zip(costs).collect();
        self.apply_statements(&stmts)
    }

    /// Applies pre-split `(sql, explicit cost)` statements — a shard
    /// applies a batch (live, and replaying its log record) without
    /// re-splitting. Identical semantics to [`Engine::apply_script`]: the
    /// batch's statements are appended, their missing costs filled through
    /// one optimizer, and then observed in order.
    pub fn apply_statements(&mut self, stmts: &[(String, Option<f64>)]) -> IngestOutcome {
        let mut outcome = IngestOutcome { total: stmts.len(), ..IngestOutcome::default() };
        let first = self.workload.len();
        for (i, (sql, cost)) in stmts.iter().enumerate() {
            match self.workload.push_sql(sql, cost.unwrap_or(0.0)) {
                Ok(_) => {
                    outcome.accepted += 1;
                    count!("server.ingest.statements");
                }
                Err(e) => {
                    count!("server.ingest.rejected_statements");
                    outcome.rejected.push((i, e.to_string()));
                }
            }
        }
        isum_optimizer::fill_missing_costs(&mut self.workload, first);
        outcome.observations = (first..self.workload.len()).map(|i| self.observe(i)).collect();
        outcome
    }

    /// This engine's contribution to a cross-shard merge; see
    /// [`isum_core::IncrementalIsum::shard_partial`].
    pub fn shard_partial(&self) -> isum_core::ShardPartial {
        self.isum.shard_partial()
    }

    /// Hands statement `i` to the observer, under the template fingerprint
    /// the workload interned for it (a statement is lexed once on its way
    /// in), and returns what the observer recorded.
    fn observe(&mut self, i: usize) -> (TemplateId, f64) {
        let Engine { workload, isum } = self;
        let q = &workload.queries[i];
        isum.observe_as(q, &workload.catalog, workload.templates.fingerprint_of(q.template))
    }

    /// Compresses the observed workload to `k` queries and renders the
    /// `/summary` response body — the same JSON `isum compress --json`
    /// prints, so live and batch output can be compared byte for byte.
    pub fn summary_json(&self, k: usize) -> Result<Json> {
        let compressed = self.isum.select(k)?;
        Ok(summary_to_json(k, self.observed(), self.template_count(), &compressed.entries))
    }

    /// Selects `k` queries and derives attribution + coverage for the
    /// result (observation-only; see [`IncrementalIsum::explain`]).
    ///
    /// # Errors
    /// Same failure modes as [`Engine::summary_json`].
    pub fn explain(&self, k: usize) -> Result<isum_core::SummaryExplanation> {
        self.isum.explain(k)
    }

    /// Renders the `/summary/explain` response body: the summary members
    /// with per-template attribution and the coverage gauges. Weights and
    /// shares carry exact IEEE-754 bit patterns next to their decimal
    /// renderings, like `/summary`.
    pub fn explain_json(&self, k: usize) -> Result<Json> {
        let e = self.explain(k)?;
        let selected: Vec<Json> = e
            .members
            .iter()
            .map(|m| {
                Json::Obj(vec![
                    ("query".into(), Json::from(m.query.index())),
                    ("weight".into(), Json::from(m.weight)),
                    ("weight_bits".into(), Json::from(hex_bits(m.weight))),
                    ("template".into(), Json::from(m.template.index())),
                    ("instances".into(), Json::from(m.instances)),
                    ("selected_instances".into(), Json::from(m.selected_instances)),
                    ("utility_share".into(), Json::from(m.utility_share)),
                    ("fingerprint".into(), Json::from(self.isum.template_fingerprint(m.template))),
                ])
            })
            .collect();
        Ok(Json::Obj(vec![
            ("k".into(), Json::from(e.k)),
            ("observed".into(), Json::from(e.observed)),
            ("templates".into(), Json::from(e.templates)),
            ("coverage".into(), Json::from(e.coverage)),
            ("coverage_bits".into(), Json::from(hex_bits(e.coverage))),
            ("represented".into(), Json::from(e.represented)),
            ("represented_fraction".into(), Json::from(e.represented_fraction())),
            ("selected".into(), Json::Arr(selected)),
        ]))
    }

    /// Runs an index advisor on the compressed workload and renders the
    /// `/tune` response body.
    pub fn tune_json(
        &self,
        k: usize,
        advisor_name: &str,
        constraints: &TuningConstraints,
    ) -> Result<Json> {
        let compressed = self.isum.select(k)?;
        let advisor = isum_advisor::advisor_named(advisor_name)?;
        let opt = WhatIfOptimizer::new(&self.workload.catalog);
        let config = advisor.recommend(&opt, &self.workload, &compressed, constraints);
        let indexes: Vec<Json> = config
            .indexes()
            .iter()
            .map(|ix| Json::from(ix.display(&self.workload.catalog)))
            .collect();
        Ok(Json::Obj(vec![
            ("advisor".into(), Json::from(advisor.name())),
            ("k".into(), Json::from(k)),
            ("observed".into(), Json::from(self.observed())),
            ("indexes".into(), Json::Arr(indexes)),
            ("improvement_pct".into(), Json::from(opt.improvement_pct(&self.workload, &config))),
        ]))
    }

    /// The most recent `n` observed statements with their costs, oldest
    /// first — what a re-summarization over the recent window retains, in
    /// the shape of a log record's statement list.
    pub fn last_statements(&self, n: usize) -> Vec<(String, Option<f64>)> {
        let start = self.workload.len().saturating_sub(n);
        self.workload.queries[start..].iter().map(|q| (q.sql.clone(), Some(q.cost))).collect()
    }

    /// Replaces the engine's state with exactly `stmts` — the whole effect
    /// of a rebase record (`crate::wal`), live and on replay. Costs were
    /// populated when the statements were first ingested, so the rebuild
    /// re-parses and re-binds with them and never calls the what-if
    /// optimizer: the result is a pure function of `stmts`, exactly like a
    /// fresh engine that ingested them. The outcome counts the statements
    /// retained and carries their observations.
    pub fn rebase(&mut self, stmts: &[(String, Option<f64>)]) -> IngestOutcome {
        let catalog = self.workload.catalog.clone();
        let config = self.isum.config();
        self.workload = Workload::empty(catalog);
        self.isum = IncrementalIsum::new(config);
        let mut outcome = IngestOutcome { total: stmts.len(), ..IngestOutcome::default() };
        for (sql, cost) in stmts {
            // Each statement already parsed and bound once, so a failure
            // is unreachable — but stay lenient like ingest.
            if let Ok(id) = self.workload.push_sql(sql, cost.unwrap_or(0.0)) {
                outcome.observations.push(self.observe(id.index()));
            }
        }
        outcome.accepted = outcome.observations.len();
        outcome
    }

    /// Exports the accepted statements plus the sequencer high-water
    /// mark, the WAL record watermark, and (when given) drift-tracker
    /// state; see the module docs for the format.
    pub fn snapshot(&self, next_seq: u64, wal_seq: u64, drift: Option<&Json>) -> Json {
        let statements: Vec<Json> = self
            .workload
            .queries
            .iter()
            .map(|q| Json::Arr(vec![Json::from(q.sql.as_str()), Json::from(hex_bits(q.cost))]))
            .collect();
        let mut fields = vec![
            ("version".into(), Json::from(1u64)),
            ("next_seq".into(), Json::from(next_seq)),
            ("wal_seq".into(), Json::from(wal_seq)),
            ("statements".into(), Json::Arr(statements)),
        ];
        if let Some(d) = drift {
            fields.push(("drift".into(), d.clone()));
        }
        Json::Obj(fields)
    }

    /// Rebuilds an engine (plus the sequencer high-water mark, the WAL
    /// record watermark, and the drift state, if any) from a
    /// [`Engine::snapshot`] document: its statements are re-parsed,
    /// re-bound and re-observed in order with their exported cost bits,
    /// exactly as [`Engine::rebase`] and log replay rebuild a shard. A
    /// statement that no longer binds is an error, not a skip.
    pub fn restore(
        catalog: Catalog,
        config: IsumConfig,
        snap: &Json,
    ) -> Result<(Engine, u64, u64, Option<Json>)> {
        let corrupt = |what: &str| Error::Io(format!("corrupt server checkpoint: {what}"));
        let obj = snap.as_object().ok_or_else(|| corrupt("not an object"))?;
        let field = |name: &str| obj.iter().find(|(k, _)| k == name).map(|(_, v)| v);
        match field("version").and_then(Json::as_u64) {
            Some(1) => {}
            other => return Err(corrupt(&format!("unsupported version {other:?}"))),
        }
        let number = |name: &str| {
            field(name).and_then(Json::as_u64).ok_or_else(|| corrupt(&format!("missing {name}")))
        };
        let (next_seq, wal_seq) = (number("next_seq")?, number("wal_seq")?);
        let statements = field("statements")
            .and_then(Json::as_array)
            .ok_or_else(|| corrupt("missing statements"))?;
        let mut engine = Engine::new(catalog, config);
        for (i, entry) in statements.iter().enumerate() {
            let Some([sql, bits]) = entry.as_array().and_then(|a| <&[Json; 2]>::try_from(a).ok())
            else {
                return Err(corrupt(&format!("statement {i} is not a [sql, cost] pair")));
            };
            let sql = sql.as_str().ok_or_else(|| corrupt("statement sql is not a string"))?;
            let cost = bits
                .as_str()
                .and_then(unhex_bits)
                .ok_or_else(|| corrupt("statement cost is not a bit pattern"))?;
            let id = engine
                .workload
                .push_sql(sql, cost)
                .map_err(|e| corrupt(&format!("statement {i} no longer binds: {e}")))?;
            engine.observe(id.index());
        }
        Ok((engine, next_seq, wal_seq, field("drift").cloned()))
    }

    /// Exports [`Engine::snapshot`] to `path` (temp file + rename, so a
    /// reader never sees half a document). Not a durability mechanism:
    /// nothing is fsynced, and the daemon never calls it.
    pub fn checkpoint_to(
        &self,
        path: &Path,
        next_seq: u64,
        wal_seq: u64,
        drift: Option<&Json>,
    ) -> Result<()> {
        let tmp = path.with_extension("json.tmp");
        std::fs::write(&tmp, self.snapshot(next_seq, wal_seq, drift).to_pretty())?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Loads an engine from a checkpoint file written by
    /// [`Engine::checkpoint_to`].
    pub fn restore_from(
        catalog: Catalog,
        config: IsumConfig,
        path: &Path,
    ) -> Result<(Engine, u64, u64, Option<Json>)> {
        let text = std::fs::read_to_string(path)?;
        let snap =
            Json::parse(&text).map_err(|e| Error::Io(format!("corrupt server checkpoint: {e}")))?;
        Engine::restore(catalog, config, &snap)
    }
}

/// Renders a compressed selection as the canonical summary JSON shared by
/// `GET /summary` and `isum compress --json`: selection order is
/// preserved and each weight carries its exact IEEE-754 bit pattern.
pub fn summary_to_json(
    k: usize,
    observed: usize,
    templates: usize,
    entries: &[(isum_common::QueryId, f64)],
) -> Json {
    let selected: Vec<Json> = entries
        .iter()
        .map(|(id, w)| {
            Json::Obj(vec![
                ("query".into(), Json::from(id.index())),
                ("weight".into(), Json::from(*w)),
                ("weight_bits".into(), Json::from(hex_bits(*w))),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("k".into(), Json::from(k)),
        ("observed".into(), Json::from(observed)),
        ("templates".into(), Json::from(templates)),
        ("selected".into(), Json::Arr(selected)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use isum_catalog::CatalogBuilder;
    use isum_core::Compressor;

    fn catalog() -> Catalog {
        CatalogBuilder::new()
            .table("t", 100_000)
            .col_key("id")
            .col_int("grp", 500, 0, 500)
            .col_int("v", 1000, 0, 10_000)
            .finish()
            .expect("fresh table")
            .build()
    }

    fn script(n: usize) -> String {
        (0..n)
            .map(|i| format!("SELECT id FROM t WHERE grp = {} AND v > {};\n", i % 7, i * 3))
            .collect()
    }

    #[test]
    fn apply_matches_batch_cli_load_path() {
        let mut engine = Engine::new(catalog(), IsumConfig::isum());
        let outcome = engine.apply_script(&script(12));
        assert_eq!(outcome.accepted, 12);
        assert!(outcome.rejected.is_empty());

        // The batch reference: load the same script through the loader and
        // fill costs the way the CLI does.
        let mut w = isum_workload::load_script(catalog(), &script(12)).expect("loads");
        isum_optimizer::populate_costs(&mut w);
        let batch = isum_core::Isum::new().compress(&w, 5).expect("compresses");
        let live = engine.summary_json(5).expect("summarizes");
        let reference = summary_to_json(5, w.len(), w.template_count(), &batch.entries);
        assert_eq!(live.to_pretty(), reference.to_pretty(), "live /summary == batch compress");
    }

    #[test]
    fn bad_statements_are_lenient_and_stateless() {
        let mut engine = Engine::new(catalog(), IsumConfig::isum());
        let outcome = engine.apply_script(
            "SELECT id FROM t WHERE grp = 1;\n\
             SELECT FROM;\n\
             SELECT id FROM no_such_table;\n\
             SELECT id FROM t WHERE grp = 2;",
        );
        assert_eq!(outcome.accepted, 2);
        assert_eq!(outcome.total, 4);
        assert_eq!(outcome.rejected.len(), 2);
        assert_eq!(outcome.rejected[0].0, 1);
        assert_eq!(outcome.rejected[1].0, 2);
        assert_eq!(engine.observed(), 2, "rejected statements leave no state");
        engine.summary_json(2).expect("engine still serves summaries");
    }

    #[test]
    fn checkpoint_round_trip_is_bit_exact() {
        let mut engine = Engine::new(catalog(), IsumConfig::isum());
        engine.apply_script(&script(9));
        let drift_state = Json::Obj(vec![("above".into(), Json::from(true))]);
        let snap = engine.snapshot(4, 17, Some(&drift_state));
        let reparsed = Json::parse(&snap.to_pretty()).expect("snapshot parses");
        let (restored, next_seq, wal_seq, drift) =
            Engine::restore(catalog(), IsumConfig::isum(), &reparsed).expect("restores");
        assert_eq!(next_seq, 4);
        assert_eq!(wal_seq, 17);
        assert_eq!(restored.observed(), 9);
        assert_eq!(drift.as_ref().map(Json::to_pretty), Some(drift_state.to_pretty()));
        assert_eq!(
            restored.summary_json(4).unwrap().to_pretty(),
            engine.summary_json(4).unwrap().to_pretty(),
            "restored engine summarizes bit-identically"
        );
        assert_eq!(restored.isum.distinct_vectors(), engine.isum.distinct_vectors());
        assert_eq!(
            restored.snapshot(4, 17, None).to_pretty(),
            engine.snapshot(4, 17, None).to_pretty(),
            "and exports the same bytes"
        );
        let (.., drift) =
            Engine::restore(catalog(), IsumConfig::isum(), &engine.snapshot(0, 0, None))
                .expect("restores");
        assert!(drift.is_none(), "no drift field restores as None");
    }

    #[test]
    fn corrupt_checkpoints_are_errors() {
        for bad in [
            "[]",
            r#"{"version": 2, "next_seq": 0, "wal_seq": 0, "statements": []}"#,
            r#"{"version": 1, "wal_seq": 0, "statements": []}"#,
            r#"{"version": 1, "next_seq": 0, "wal_seq": 0, "statements": [["SELECT FROM", "0"]]}"#,
        ] {
            let snap = Json::parse(bad).expect("test doc parses");
            let err =
                Engine::restore(catalog(), IsumConfig::isum(), &snap).err().expect("must fail");
            assert!(err.to_string().contains("corrupt"), "{bad} -> {err}");
        }
    }

    #[test]
    fn rebase_over_the_suffix_equals_a_fresh_engine_over_it() {
        let mut engine = Engine::new(catalog(), IsumConfig::isum());
        engine.apply_script(&script(12));
        let kept = engine.rebase(&engine.last_statements(5));
        assert_eq!(kept.accepted, 5);
        assert_eq!(engine.observed(), 5);

        // The rebuilt engine must summarize exactly like an engine that
        // only ever saw the retained suffix (statements 7..12).
        let suffix: String = (7..12)
            .map(|i| format!("SELECT id FROM t WHERE grp = {} AND v > {};\n", i % 7, i * 3))
            .collect();
        let mut reference = Engine::new(catalog(), IsumConfig::isum());
        let fresh = reference.apply_script(&suffix);
        let bits = |o: &IngestOutcome| -> Vec<(TemplateId, u64)> {
            o.observations.iter().map(|&(t, d)| (t, d.to_bits())).collect()
        };
        assert_eq!(bits(&kept), bits(&fresh), "the rebase reports the suffix's observations");
        assert_eq!(
            engine.summary_json(3).unwrap().to_pretty(),
            reference.summary_json(3).unwrap().to_pretty(),
            "resummarized engine == fresh engine over the suffix"
        );
        assert_eq!(
            engine.snapshot(0, 0, None).to_pretty(),
            reference.snapshot(0, 0, None).to_pretty(),
            "and checkpoints the same bytes"
        );
        assert_eq!(
            engine.isum.distinct_vectors(),
            reference.isum.distinct_vectors(),
            "the rebuild interns the same groups"
        );

        // Keeping more than observed keeps everything.
        assert_eq!(engine.rebase(&engine.last_statements(100)).accepted, 5);
    }

    #[test]
    fn tune_runs_on_compressed_workload() {
        let mut engine = Engine::new(catalog(), IsumConfig::isum());
        engine.apply_script(&script(10));
        let out = engine.tune_json(4, "dta", &TuningConstraints::with_max_indexes(2)).unwrap();
        let obj = out.as_object().unwrap();
        assert!(obj.iter().any(|(k, _)| k == "indexes"));
        assert!(engine.tune_json(4, "nope", &TuningConstraints::with_max_indexes(2)).is_err());
    }
}
