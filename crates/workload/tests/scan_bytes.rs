//! The bytes the front end examines, counted: a work gate that reads
//! counters, not a clock.
//!
//! A script is scanned once to split it (`workload.split.bytes` = its
//! bytes) and each statement is lexed once (`sql.lex.bytes` = the bytes
//! of the statements' texts, `sql.lex.calls` = the statements), at one
//! thread and at two. A second pass over the script, or over each
//! statement, fails it.
//!
//! Alone in its test binary: it sets the process-wide thread count and
//! reads process-global counters.

use isum_common::rng::DetRng;
use isum_common::telemetry;
use isum_workload::gen::tpch::instantiate_template;
use isum_workload::gen::tpch_catalog;
use isum_workload::load_script;

#[test]
fn a_load_scans_the_script_once_and_lexes_each_statement_once() {
    let n = 2000;
    let mut rng = DetRng::seeded(42);
    let mut script = String::new();
    for i in 0..n {
        script.push_str(instantiate_template(i % 22 + 1, &mut rng).trim_end_matches(';'));
        script.push_str(";\n");
    }
    let catalog = tpch_catalog(10);
    telemetry::set_enabled(true);
    let mut counts = Vec::new();
    for threads in [1, 2] {
        isum_exec::set_global_threads(threads);
        telemetry::reset();
        let w = load_script(catalog.clone(), &script).expect("generated script loads");
        let [split, lex, calls] = ["workload.split.bytes", "sql.lex.bytes", "sql.lex.calls"]
            .map(|name| telemetry::counter(name).get());
        assert_eq!(w.len(), n);
        assert_eq!(split, script.len() as u64, "{threads} threads: split bytes");
        let text: usize = w.queries.iter().map(|q| q.sql.len()).sum();
        assert_eq!(lex, text as u64, "{threads} threads: lexed bytes");
        assert_eq!(calls, n as u64, "{threads} threads: lex calls");
        counts.push([split, lex, calls]);
    }
    telemetry::set_enabled(false);
    assert_eq!(counts[0], counts[1], "the counts do not depend on the thread count");
}
