//! Query-template fingerprinting.
//!
//! Two query *instances* share a template when they are identical up to
//! parameter bindings (Sec 1 of the paper). We compute a fingerprint by
//! rendering the AST with every literal masked (the same renderer as
//! `Display`, [`crate::ast::write_statement`]), then intern fingerprints in
//! a [`TemplateRegistry`] that hands out dense [`TemplateId`]s. Template
//! identity drives the Stratified baseline, the per-template utility
//! redistribution of Alg 4, and the Fig 12a instances-per-template
//! experiment.

use std::collections::HashMap;

use isum_common::TemplateId;

use crate::ast::{write_statement, SelectStatement};

/// Renders a statement with literals masked, producing the template
/// fingerprint text.
pub fn fingerprint(stmt: &SelectStatement) -> String {
    let mut fp = String::new();
    write_fingerprint(&mut fp, stmt);
    fp
}

fn write_fingerprint(out: &mut String, stmt: &SelectStatement) {
    write_statement(out, stmt, true).expect("writing to a String cannot fail");
}

/// Interns template fingerprints, assigning dense [`TemplateId`]s.
#[derive(Debug, Default)]
pub struct TemplateRegistry {
    by_fingerprint: HashMap<String, TemplateId>,
    fingerprints: Vec<String>,
    /// Reused by [`intern`](Self::intern) to render each fingerprint, so
    /// only a template seen for the first time allocates.
    scratch: String,
}

impl TemplateRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the id for a statement's template, creating it if new.
    pub fn intern(&mut self, stmt: &SelectStatement) -> TemplateId {
        let mut fp = std::mem::take(&mut self.scratch);
        fp.clear();
        write_fingerprint(&mut fp, stmt);
        let id = self.intern_fingerprint(&fp);
        self.scratch = fp;
        id
    }

    /// Interns a pre-computed fingerprint text.
    pub fn intern_fingerprint(&mut self, fp: &str) -> TemplateId {
        if let Some(&id) = self.by_fingerprint.get(fp) {
            return id;
        }
        let id = TemplateId::from_index(self.fingerprints.len());
        self.by_fingerprint.insert(fp.to_string(), id);
        self.fingerprints.push(fp.to_string());
        id
    }

    /// Number of distinct templates seen.
    pub fn len(&self) -> usize {
        self.fingerprints.len()
    }

    /// True when no templates were interned.
    pub fn is_empty(&self) -> bool {
        self.fingerprints.is_empty()
    }

    /// Fingerprint text for an id.
    pub fn fingerprint_of(&self, id: TemplateId) -> &str {
        &self.fingerprints[id.index()]
    }

    /// Short human label: the fingerprint truncated for reports.
    pub fn label_of(&self, id: TemplateId) -> String {
        let fp = self.fingerprint_of(id);
        let mut s = fp[..fp.len().min(60)].to_string();
        if fp.len() > 60 {
            s.push('…');
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn same_template_different_parameters() {
        let a = parse("SELECT a FROM t WHERE b = 1 AND c LIKE 'x%'").unwrap();
        let b = parse("SELECT a FROM t WHERE b = 999 AND c LIKE 'completely-different%'").unwrap();
        assert_eq!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn different_structure_different_template() {
        let a = parse("SELECT a FROM t WHERE b = 1").unwrap();
        let b = parse("SELECT a FROM t WHERE c = 1").unwrap();
        let c = parse("SELECT a FROM t WHERE b = 1 ORDER BY a").unwrap();
        assert_ne!(fingerprint(&a), fingerprint(&b));
        assert_ne!(fingerprint(&a), fingerprint(&c));
    }

    #[test]
    fn in_lists_of_different_lengths_share_template() {
        let a = parse("SELECT a FROM t WHERE b IN (1, 2)").unwrap();
        let b = parse("SELECT a FROM t WHERE b IN (3, 4, 5, 6)").unwrap();
        assert_eq!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn limit_values_are_parameters() {
        let a = parse("SELECT a FROM t LIMIT 10").unwrap();
        let b = parse("SELECT a FROM t LIMIT 99").unwrap();
        assert_eq!(fingerprint(&a), fingerprint(&b));
        let c = parse("SELECT a FROM t").unwrap();
        assert_ne!(fingerprint(&a), fingerprint(&c));
    }

    #[test]
    fn subquery_parameters_masked() {
        let a = parse("SELECT a FROM t WHERE b IN (SELECT x FROM u WHERE y > 5)").unwrap();
        let b = parse("SELECT a FROM t WHERE b IN (SELECT x FROM u WHERE y > 50)").unwrap();
        assert_eq!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn registry_interns_densely() {
        let mut reg = TemplateRegistry::new();
        let a = parse("SELECT a FROM t WHERE b = 1").unwrap();
        let b = parse("SELECT a FROM t WHERE b = 2").unwrap();
        let c = parse("SELECT a FROM t WHERE c = 2").unwrap();
        let ta = reg.intern(&a);
        let tb = reg.intern(&b);
        let tc = reg.intern(&c);
        assert_eq!(ta, tb);
        assert_ne!(ta, tc);
        assert_eq!(reg.len(), 2);
        assert!(reg.fingerprint_of(ta).contains("?"));
    }

    #[test]
    fn label_truncates_long_fingerprints() {
        let mut reg = TemplateRegistry::new();
        let q = parse(
            "SELECT a_very_long_column_name_one, a_very_long_column_name_two FROM a_long_table_name WHERE x = 1",
        )
        .unwrap();
        let id = reg.intern(&q);
        let label = reg.label_of(id);
        assert!(label.chars().count() <= 61);
    }
}
