//! Application schemas and the Application Query Processor (Figure 1's
//! outermost layer).
//!
//! "The Application Query Processor translates an end-user query into a
//! polygen query for the Polygen Query Processor based on the user's
//! application schema." An application schema is a user-facing view over
//! the polygen schema: renamed relations and attributes scoped to what
//! one application needs (Sullivan-Trainor's ComputerWorld survey sees
//! `SCHOOLS_CEOS`, not `PORGANIZATION`). [`translate_app_query`]
//! rewrites an application-schema SQL query into polygen vocabulary by
//! substituting view relation and attribute names. The application user
//! never sees polygen scheme names — only their own vocabulary — yet the
//! answer still arrives fully source-tagged.

use crate::ast::{Condition, Operand, Query, SelectItem};
use crate::parser::parse_query;
use std::fmt;

/// One application-level relation: a renaming of (a subset of) a polygen
/// scheme's attributes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppRelation {
    /// Application-facing relation name.
    pub name: String,
    /// The polygen scheme it views.
    pub polygen_scheme: String,
    /// `application attribute → polygen attribute`.
    pub attrs: Vec<(String, String)>,
}

impl AppRelation {
    /// Build a view with positional `(app, polygen)` attribute pairs.
    pub fn new(name: &str, polygen_scheme: &str, attrs: &[(&str, &str)]) -> Self {
        AppRelation {
            name: name.to_string(),
            polygen_scheme: polygen_scheme.to_string(),
            attrs: attrs
                .iter()
                .map(|(a, p)| ((*a).to_string(), (*p).to_string()))
                .collect(),
        }
    }

    /// The polygen attribute behind an application attribute.
    pub fn polygen_attr(&self, app_attr: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(a, _)| a == app_attr)
            .map(|(_, p)| p.as_str())
    }
}

impl fmt::Display for AppRelation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name)?;
        for (i, (a, p)) in self.attrs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            if a == p {
                write!(f, "{a}")?;
            } else {
                write!(f, "{a}→{p}")?;
            }
        }
        write!(f, ") over {}", self.polygen_scheme)
    }
}

/// A user's full application schema.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AppSchema {
    relations: Vec<AppRelation>,
}

impl AppSchema {
    /// An empty schema.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a view relation.
    pub fn push(&mut self, rel: AppRelation) {
        self.relations.push(rel);
    }

    /// Look up a view by application name.
    pub fn relation(&self, name: &str) -> Option<&AppRelation> {
        self.relations.iter().find(|r| r.name == name)
    }
}

/// Rewriting failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AqpError {
    /// The query text failed to parse.
    Syntax(String),
    /// A FROM relation is not in the application schema.
    UnknownAppRelation(String),
    /// An attribute is not defined by any FROM view.
    UnknownAppAttribute(String),
    /// FROM views map the attribute onto different polygen attributes,
    /// so the query does not say which one it means.
    AmbiguousAppAttribute(String),
}

impl fmt::Display for AqpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AqpError::Syntax(m) => write!(f, "application query syntax error: {m}"),
            AqpError::UnknownAppRelation(r) => {
                write!(f, "application schema has no relation `{r}`")
            }
            AqpError::UnknownAppAttribute(a) => {
                write!(f, "application schema defines no attribute `{a}`")
            }
            AqpError::AmbiguousAppAttribute(a) => write!(
                f,
                "application attribute `{a}` names different polygen attributes in the FROM views"
            ),
        }
    }
}

impl std::error::Error for AqpError {}

/// Rewrite an application-level SQL query into polygen vocabulary.
pub fn translate_app_query(sql: &str, schema: &AppSchema) -> Result<Query, AqpError> {
    let query = parse_query(sql).map_err(|e| AqpError::Syntax(e.to_string()))?;
    rewrite_query(&query, schema)
}

fn rewrite_query(query: &Query, schema: &AppSchema) -> Result<Query, AqpError> {
    // Map FROM views to polygen schemes and collect the attribute rename
    // scope for this query level.
    let mut from = Vec::with_capacity(query.from.len());
    let mut scope: Vec<(&str, &str)> = Vec::new();
    for rel in &query.from {
        let view = schema
            .relation(rel)
            .ok_or_else(|| AqpError::UnknownAppRelation(rel.clone()))?;
        from.push(view.polygen_scheme.clone());
        for (a, p) in &view.attrs {
            scope.push((a.as_str(), p.as_str()));
        }
    }
    // Views that map the attribute onto one polygen attribute agree, and
    // the lowerer judges that name; views that disagree leave the query
    // without a meaning.
    let rename = |attr: &str| -> Result<String, AqpError> {
        let mut hits = scope.iter().filter(|(a, _)| *a == attr).map(|(_, p)| *p);
        let first = hits
            .next()
            .ok_or_else(|| AqpError::UnknownAppAttribute(attr.to_string()))?;
        if hits.any(|p| p != first) {
            return Err(AqpError::AmbiguousAppAttribute(attr.to_string()));
        }
        Ok(first.to_string())
    };
    let select = query
        .select
        .iter()
        .map(|item| match item {
            SelectItem::Star => Ok(SelectItem::Star),
            SelectItem::Attr(a) => Ok(SelectItem::Attr(rename(a)?)),
        })
        .collect::<Result<Vec<_>, _>>()?;
    let where_clause = match &query.where_clause {
        Some(c) => Some(rewrite_condition(c, schema, &rename)?),
        None => None,
    };
    Ok(Query {
        select,
        from,
        where_clause,
    })
}

fn rewrite_condition(
    cond: &Condition,
    schema: &AppSchema,
    rename: &dyn Fn(&str) -> Result<String, AqpError>,
) -> Result<Condition, AqpError> {
    Ok(match cond {
        Condition::And(a, b) => Condition::And(
            Box::new(rewrite_condition(a, schema, rename)?),
            Box::new(rewrite_condition(b, schema, rename)?),
        ),
        Condition::Or(a, b) => Condition::Or(
            Box::new(rewrite_condition(a, schema, rename)?),
            Box::new(rewrite_condition(b, schema, rename)?),
        ),
        Condition::Compare { left, cmp, right } => Condition::Compare {
            left: rewrite_operand(left, rename)?,
            cmp: *cmp,
            right: rewrite_operand(right, rename)?,
        },
        Condition::In {
            attr,
            negated,
            query,
        } => Condition::In {
            attr: rename(attr)?,
            negated: *negated,
            // Subqueries range over the application schema too.
            query: Box::new(rewrite_query(query, schema)?),
        },
    })
}

fn rewrite_operand(
    op: &Operand,
    rename: &dyn Fn(&str) -> Result<String, AqpError>,
) -> Result<Operand, AqpError> {
    Ok(match op {
        Operand::Attr(a) => Operand::Attr(rename(a)?),
        Operand::Const(v) => Operand::Const(v.clone()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> AppSchema {
        let mut s = AppSchema::new();
        s.push(AppRelation::new(
            "COMPANIES",
            "PORGANIZATION",
            &[
                ("COMPANY", "ONAME"),
                ("SECTOR", "INDUSTRY"),
                ("BOSS", "CEO"),
            ],
        ));
        s.push(AppRelation::new(
            "GRADS",
            "PALUMNUS",
            &[("NAME", "ANAME"), ("DEGREE", "DEGREE"), ("ID", "AID#")],
        ));
        s.push(AppRelation::new(
            "JOBS",
            "PCAREER",
            &[("ID", "AID#"), ("COMPANY", "ONAME")],
        ));
        s
    }

    #[test]
    fn lookup_and_mapping() {
        let s = schema();
        let c = s.relation("COMPANIES").unwrap();
        assert_eq!(c.polygen_scheme, "PORGANIZATION");
        assert_eq!(c.polygen_attr("BOSS"), Some("CEO"));
        assert_eq!(c.polygen_attr("NOPE"), None);
        assert!(s.relation("NOPE").is_none());
        let grads = s.relation("GRADS").unwrap();
        assert_eq!(grads.polygen_attr("NAME"), Some("ANAME"));
    }

    #[test]
    fn display_shows_renames() {
        let s = schema();
        let shown = s.relation("COMPANIES").unwrap().to_string();
        assert!(shown.contains("COMPANY→ONAME"));
        assert!(shown.contains("over PORGANIZATION"));
        let grads = s.relation("GRADS").unwrap().to_string();
        assert!(grads.contains("DEGREE")); // identical names print bare
    }

    #[test]
    fn rewrites_relations_and_attributes() {
        let q = translate_app_query(
            "SELECT COMPANY, BOSS FROM COMPANIES WHERE SECTOR = \"Banking\"",
            &schema(),
        )
        .unwrap();
        assert_eq!(
            q.to_string(),
            "SELECT ONAME, CEO FROM PORGANIZATION WHERE INDUSTRY = \"Banking\""
        );
    }

    #[test]
    fn rewrites_nested_in_subqueries() {
        let q = translate_app_query(
            "SELECT COMPANY FROM COMPANIES WHERE COMPANY IN \
             (SELECT COMPANY FROM JOBS WHERE ID IN \
             (SELECT ID FROM GRADS WHERE DEGREE = \"MBA\"))",
            &schema(),
        )
        .unwrap();
        let shown = q.to_string();
        assert!(shown.contains("FROM PORGANIZATION"));
        assert!(shown.contains("FROM PCAREER"));
        assert!(shown.contains("FROM PALUMNUS"));
        assert!(shown.contains("AID# IN"));
    }

    #[test]
    fn unknown_names_error() {
        assert!(matches!(
            translate_app_query("SELECT X FROM NOPE", &schema()),
            Err(AqpError::UnknownAppRelation(_))
        ));
        assert!(matches!(
            translate_app_query("SELECT NOPE FROM COMPANIES", &schema()),
            Err(AqpError::UnknownAppAttribute(_))
        ));
        assert!(matches!(
            translate_app_query("garbage", &schema()),
            Err(AqpError::Syntax(_))
        ));
    }

    #[test]
    fn star_passes_through() {
        let q = translate_app_query("SELECT * FROM COMPANIES", &schema()).unwrap();
        assert_eq!(q.to_string(), "SELECT * FROM PORGANIZATION");
    }

    #[test]
    fn an_attribute_two_views_map_differently_is_ambiguous() {
        let mut s = schema();
        s.push(AppRelation::new(
            "FIRMS",
            "PORGANIZATION",
            &[("NAME", "ONAME")],
        ));
        // FIRMS.NAME is ONAME and GRADS.NAME is ANAME: either pick
        // answers a question the user did not ask.
        for sql in [
            "SELECT NAME FROM FIRMS, GRADS",
            "SELECT DEGREE FROM FIRMS, GRADS WHERE NAME = \"John Reed\"",
        ] {
            assert_eq!(
                translate_app_query(sql, &s),
                Err(AqpError::AmbiguousAppAttribute("NAME".to_string())),
                "{sql}"
            );
        }
        // Views that agree on the target pass it through for the lowerer
        // to judge: JOBS.ID and GRADS.ID both name AID#.
        let q = translate_app_query("SELECT ID FROM JOBS, GRADS", &s).unwrap();
        assert_eq!(q.to_string(), "SELECT AID# FROM PCAREER, PALUMNUS");
    }
}
