//! SQL front-end: lexer, parser, AST, binder, and template fingerprinting.
//!
//! The ISUM pipeline starts from SQL text (Fig 1 of the paper: "syntactically
//! relevant index generation" requires *parsing* the query). This crate
//! implements a from-scratch SQL front-end for the analytic subset the
//! evaluation workloads need:
//!
//! * `SELECT` lists with aggregates and arithmetic,
//! * `FROM` with comma joins and `[INNER|LEFT] JOIN ... ON`,
//! * `WHERE` trees over `=`, `<>`, `<`, `<=`, `>`, `>=`, `BETWEEN`, `IN`
//!   (lists and subqueries), `LIKE`, `IS [NOT] NULL`, `EXISTS`, `AND/OR/NOT`,
//! * `GROUP BY`, `HAVING`, `ORDER BY`, `LIMIT`,
//! * scalar/`IN`/`EXISTS` subqueries (flattened by the binder).
//!
//! The [`binder`] resolves names against an [`isum_catalog::Catalog`] and
//! lowers the AST to a flat [`binder::BoundQuery`] holding exactly the
//! information ISUM and the what-if optimizer consume: referenced tables,
//! filter predicates with selectivities, equi-join edges, group-by and
//! order-by columns. [`template`] computes the parameter-insensitive
//! fingerprint that defines query templates (Sec 1, Sec 7, Alg 4).

pub mod ast;
pub mod binder;
pub mod dates;
pub mod lexer;
pub mod parser;
pub mod prepared;
pub mod template;
pub mod token;

pub use ast::{
    AggFunc, BinaryOp, ColumnRef, Expr, JoinKind, LiteralNode, OrderByItem, SelectItem,
    SelectStatement, TableRef,
};
pub use binder::{Binder, BoundFilter, BoundJoin, BoundQuery, BoundTable, FilterKind};
pub use parser::{parse, MAX_EXPR_DEPTH};
pub use prepared::{Analysis, PreparedCache, ShapeId, ShapeView};
pub use template::{fingerprint, TemplateRegistry};
