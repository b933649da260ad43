//! The shape-cache counters: over a generated script every statement is a
//! hit except the first of each distinct token shape — also when the
//! script is loaded at two threads, which share one shape table.
//!
//! Alone in its test binary: it reads process-global counters.

use std::collections::HashSet;

use isum_common::rng::DetRng;
use isum_common::telemetry;
use isum_workload::gen::tpch::instantiate_template;
use isum_workload::gen::tpch_catalog;
use isum_workload::load_script;

#[allow(dead_code)] // only `shape` is used here
mod common;
use common::shape;

#[test]
fn hits_are_statements_minus_distinct_shapes() {
    let n = 1100;
    let mut rng = DetRng::seeded(42);
    let statements: Vec<String> =
        (0..n).map(|i| instantiate_template(i % 22 + 1, &mut rng)).collect();
    let distinct: HashSet<String> = statements.iter().map(|s| shape(s)).collect();
    let script: String =
        statements.iter().map(|s| format!("{};\n", s.trim_end_matches(';'))).collect();

    isum_exec::set_global_threads(2);
    telemetry::set_enabled(true);
    telemetry::reset();
    let w = load_script(tpch_catalog(1), &script).expect("generated script loads");
    let counter = |name: &str| telemetry::counter(name).get();
    telemetry::set_enabled(false);

    assert_eq!(w.len(), n);
    assert!(distinct.len() >= 22 && distinct.len() < n / 10, "{} shapes", distinct.len());
    assert_eq!(counter("sql.lex.calls"), n as u64);
    assert_eq!(counter("sql.shape.misses"), distinct.len() as u64);
    assert_eq!(counter("sql.shape.hits"), (n - distinct.len()) as u64);
    assert_eq!(counter("sql.shape.fallbacks"), 0);
    assert_eq!(counter("workload.load.threads"), 2, "the load ran on two threads");
}
