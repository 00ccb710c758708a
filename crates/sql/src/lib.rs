//! # polygen-sql — query front ends
//!
//! The two languages the paper's PQP consumes:
//!
//! * [`parser`] / [`ast`] — the SQL polygen-query subset (`SELECT … FROM …
//!   WHERE …` with AND/OR, θ-comparisons and nested, optionally negated
//!   `IN` subqueries), as written in §I and §III.
//! * [`algebra_expr`] — the polygen algebra-expression language the
//!   Syntax Analyzer takes as input, with a parser for the paper's bracket
//!   notation and a pretty-printer that reproduces it.
//! * [`lower`] — the data-driven lowering from SQL to algebra. On the
//!   paper's example query it produces the paper's printed expression
//!   *exactly* (golden-tested), including the single-range-variable
//!   treatment of the duplicated `PALUMNUS`.
//! * [`normalize`] — canonical query text (parse → lower → canonical
//!   printing), the collision-free cache key the serving layer uses.
//! * [`token`] — the shared lexer.
//! * [`app`] — Figure 1's outermost layer: application schemas (views
//!   over the polygen schema) and the Application Query Processor that
//!   rewrites application SQL into polygen SQL over this crate's AST.

pub mod algebra_expr;
pub mod app;
pub mod ast;
pub mod lower;
pub mod normalize;
pub mod parser;
pub mod token;

/// Convenient glob import.
pub mod prelude {
    pub use crate::algebra_expr::{parse_algebra, AlgebraExpr, PAPER_EXPRESSION};
    pub use crate::app::{translate_app_query, AppRelation, AppSchema, AqpError};
    pub use crate::ast::{Condition, Operand, Query, SelectItem};
    pub use crate::lower::{lower, LowerError, LoweringOptions, MapSchemaInfo, SchemaInfo};
    pub use crate::normalize::{
        canonical_text, canonicalize_algebra, canonicalize_sql, NormalizeError,
    };
    pub use crate::parser::parse_query;
    pub use crate::token::SyntaxError;
}

pub use algebra_expr::{parse_algebra, AlgebraExpr};
pub use ast::Query;
pub use parser::parse_query;
