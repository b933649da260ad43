//! A statement is lexed exactly once on its way into the daemon's engine:
//! by the workload, whose interned fingerprint the observer then reuses.
//! (The observer used to parse every accepted statement a second time.)
//!
//! Alone in its test binary: it reads process-global counters.

use isum_common::telemetry;
use isum_core::IsumConfig;
use isum_server::Engine;
use isum_workload::gen::tpch_catalog;

#[test]
fn ingest_lexes_each_statement_once() {
    telemetry::set_enabled(true);
    telemetry::reset();

    // Repeats of two shapes, a new shape, a cost annotation, a trailing
    // comment, a statement that does not parse, one that does not lex,
    // one that does not bind, and a literal the parser rejects on a
    // shape that is already cached.
    let script = "\
SELECT o_orderkey FROM orders WHERE o_custkey = 7;
SELECT o_orderkey FROM orders WHERE o_custkey = 8; -- same shape
-- cost: 12.5
SELECT l_orderkey FROM lineitem WHERE l_shipdate < DATE '1995-01-01' LIMIT 5;
SELECT l_orderkey FROM lineitem WHERE l_shipdate < DATE '1996-06-30' LIMIT 9;
SELECT l_orderkey FROM lineitem WHERE l_shipdate < DATE '1996-02-30' LIMIT 9;
SELECT count(*) FROM orders GROUP BY o_orderpriority;
SELECT FROM orders;
SELECT o_orderkey FROM orders WHERE o_custkey = @;
SELECT o_orderkey FROM no_such_table;
SELECT o_orderkey FROM orders WHERE o_comment LIKE 'café; it''s%';
";
    let mut engine = Engine::new(tpch_catalog(1), IsumConfig::isum());
    let outcome = engine.apply_script(script);
    assert_eq!(outcome.total, 10);
    assert_eq!(outcome.accepted, 6, "{:?}", outcome.rejected);
    assert_eq!(engine.observed(), 6);

    let counter = |name: &str| telemetry::counter(name).get();
    assert_eq!(counter("sql.lex.calls"), outcome.total as u64, "one lex per statement ingested");
    assert_eq!(counter("sql.shape.hits"), 2);
    assert_eq!(counter("sql.shape.fallbacks"), 1, "the bad date on a known shape");
    assert_eq!(
        counter("sql.shape.hits") + counter("sql.shape.misses") + counter("sql.shape.fallbacks"),
        9,
        "every statement that lexes probes the shape cache once"
    );
    assert_eq!(counter("core.incremental.observed"), 6);

    // Re-summarization rebuilds from the retained statements: one more
    // lex each, not two.
    telemetry::reset();
    assert_eq!(engine.rebase(&engine.last_statements(4)).accepted, 4);
    assert_eq!(counter("sql.lex.calls"), 4);

    telemetry::set_enabled(false);
}
