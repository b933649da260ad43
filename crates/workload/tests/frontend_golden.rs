//! Pins the SQL front end to the exact AST, `BoundQuery` and template
//! fingerprint of the commit before the allocation-light rewrite.
//!
//! `fixtures/frontend_golden.txt` was written by that parent commit
//! (`0f1995d`): one line per generator template holding the FNV-1a of
//! `{stmt:?}{bound:?}{fingerprint}` over 50 seeded instances. Any change
//! to what `parse`, `Binder::bind` or `fingerprint` return for a
//! generated statement shows up here as a named template, and the cached
//! `Workload::push_sql` path must agree with the uncached calls.

use isum_common::rng::DetRng;
use isum_sql::{fingerprint, parse, Binder};
use isum_workload::Workload;

mod common;
use common::families;

const INSTANCES: usize = 50;
const SEED: u64 = 0x601D;

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x100000001b3);
    }
}

/// One `<generator> <template> <hash>` line per template.
fn golden_lines() -> String {
    let mut out = String::new();
    for family in families() {
        let name = family.name;
        let mut cached = Workload::empty(family.catalog.clone());
        let binder = Binder::new(&family.catalog);
        for t in 0..family.templates {
            let mut rng = DetRng::seeded(SEED ^ ((t as u64) << 16));
            let mut h: u64 = 0xcbf29ce484222325;
            for _ in 0..INSTANCES {
                let sql = family.instantiate(t, &mut rng);
                let stmt = parse(&sql).unwrap_or_else(|e| panic!("{name} {t}: {e}\n{sql}"));
                let bound = binder.bind(&stmt).unwrap_or_else(|e| panic!("{name} {t}: {e}\n{sql}"));
                let fp = fingerprint(&stmt);
                fnv1a(&mut h, format!("{stmt:?}{bound:?}{fp}").as_bytes());
                let id = cached.push_sql(&sql, 0.0).expect("binds through the workload too");
                let q = cached.query(id);
                assert_eq!(q.bound, bound, "{name} {t}: cached path binds differently\n{sql}");
                assert_eq!(cached.templates.fingerprint_of(q.template), fp, "{name} {t}\n{sql}");
            }
            out.push_str(&format!("{name} {t} {h:016x}\n"));
        }
    }
    out
}

#[test]
fn front_end_reproduces_the_parent_commits_ast_bound_query_and_fingerprint() {
    let expected = include_str!("fixtures/frontend_golden.txt");
    let actual = golden_lines();
    for (e, a) in expected.lines().zip(actual.lines()) {
        assert_eq!(e, a, "front-end output changed for this generator template");
    }
    assert_eq!(expected.lines().count(), actual.lines().count());
}
