//! The four workload generators as data, shared by the front-end tests:
//! each family's catalog and a way to instantiate its `t`-th template;
//! and what makes two statements instances of one token shape.

use std::sync::{Arc, OnceLock};

use isum_catalog::Catalog;
use isum_common::rng::DetRng;
use isum_sql::lexer::lex;
use isum_sql::token::TokenKind;
use isum_sql::BoundQuery;
use isum_workload::gen::dsb::{dsb_catalog, dsb_templates};
use isum_workload::gen::realm::{realm_catalog, realm_templates};
use isum_workload::gen::synth::SyntheticTemplate;
use isum_workload::gen::tpcds::{tpcds_templates, N_TEMPLATES as TPCDS_TEMPLATES};
use isum_workload::gen::tpcds_templates::{instantiate as tpcds_hand_written, N_HAND_WRITTEN};
use isum_workload::gen::tpch::instantiate_template;
use isum_workload::gen::{tpcds_catalog, tpch_catalog};

/// One generator: hand-written templates first, synthesized ones after.
pub struct Family {
    pub name: &'static str,
    pub catalog: Catalog,
    pub templates: usize,
    synthetic: Vec<SyntheticTemplate>,
    hand_written: fn(usize, &mut DetRng) -> String,
}

impl Family {
    /// One instance of template `t` (`0..self.templates`).
    pub fn instantiate(&self, t: usize, rng: &mut DetRng) -> String {
        match t.checked_sub(self.templates - self.synthetic.len()) {
            Some(s) => self.synthetic[s].instantiate(rng),
            None => (self.hand_written)(t, rng),
        }
    }
}

/// TPC-H (22 templates), TPC-DS (20 hand-written + 71 synthesized), DSB
/// (52) and Real-M (456), at scale factor 1.
pub fn families() -> &'static [Family] {
    static FAMILIES: OnceLock<Vec<Family>> = OnceLock::new();
    FAMILIES.get_or_init(|| {
        let none: fn(usize, &mut DetRng) -> String =
            |_, _| unreachable!("all templates are synthetic");
        let tpcds = tpcds_catalog(1, 0.0);
        let dsb = dsb_catalog(1);
        let realm = realm_catalog();
        vec![
            Family {
                name: "tpch",
                catalog: tpch_catalog(1),
                templates: 22,
                synthetic: Vec::new(),
                hand_written: |t, rng| instantiate_template(t + 1, rng),
            },
            Family {
                name: "tpcds",
                synthetic: tpcds_templates(&tpcds, TPCDS_TEMPLATES - N_HAND_WRITTEN),
                catalog: tpcds,
                templates: TPCDS_TEMPLATES,
                hand_written: tpcds_hand_written,
            },
            Family {
                name: "dsb",
                synthetic: dsb_templates(&dsb, isum_workload::gen::dsb::N_TEMPLATES, None),
                catalog: dsb,
                templates: isum_workload::gen::dsb::N_TEMPLATES,
                hand_written: none,
            },
            Family {
                name: "realm",
                synthetic: realm_templates(&realm, isum_workload::gen::realm::N_TEMPLATES),
                catalog: realm,
                templates: isum_workload::gen::realm::N_TEMPLATES,
                hand_written: none,
            },
        ]
    })
}

/// The statement's tokens with literal values blanked: an independent
/// rendering of "token shape", under which statements with equal
/// renderings are instances of one shape.
#[allow(dead_code)] // not every test binary compares shapes
pub fn shape(sql: &str) -> String {
    lexed_shape(sql).expect("generated SQL lexes")
}

/// [`shape`] of a statement that may not lex (`None` then).
pub fn lexed_shape(sql: &str) -> Option<String> {
    let shape = lex(sql)
        .ok()?
        .iter()
        .map(|t| match t.kind {
            TokenKind::Number(_) => "#".to_string(),
            TokenKind::String { .. } => "$".to_string(),
            _ => t.text(sql).to_ascii_lowercase(),
        })
        .collect::<Vec<_>>()
        .join(" ");
    Some(shape)
}

/// True when `a` and `b` point at the same five shape-fixed lists.
#[allow(dead_code)] // not every test binary compares shapes
pub fn shares_lists(a: &BoundQuery, b: &BoundQuery) -> bool {
    Arc::ptr_eq(&a.tables, &b.tables)
        && Arc::ptr_eq(&a.joins, &b.joins)
        && Arc::ptr_eq(&a.group_by, &b.group_by)
        && Arc::ptr_eq(&a.order_by, &b.order_by)
        && Arc::ptr_eq(&a.projections, &b.projections)
}
