//! The datum type of the polygen model.
//!
//! §II: "a polygen domain is defined as a set of ordered triplets. Each
//! triplet consists of three elements: the first is a *datum* drawn from a
//! simple domain in an LQP…". This module defines that simple domain. The
//! polygen layer wraps a [`Value`] with origin and intermediate source sets;
//! the flat layer uses it bare.
//!
//! Two different equality notions coexist deliberately:
//!
//! * **Set-semantics identity** (`PartialEq`/`Eq`/`Ord`/`Hash`): `nil` is
//!   equal to `nil`, so duplicate elimination, Union matching and Coalesce's
//!   "equal data" branch behave like the paper's worked tables (merging two
//!   `nil` HEADQUARTERS cells for MIT yields one `nil` cell with unioned
//!   tags, Table 6).
//! * **θ-comparison** ([`Value::theta_compare`]): any comparison involving
//!   `nil` is *unknown*, hence never satisfied — which is why the
//!   `Restrict CEO = ANAME` step (Table 8) drops MIT's row, whose CEO is
//!   `nil`.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// A totally ordered `f64` wrapper so [`Value`] can implement `Eq`, `Ord`
/// and `Hash` (required for set semantics). Ordering follows
/// `f64::total_cmp`; `NaN` is admitted but compares after all numbers and
/// equal to itself, which keeps relation canonicalization deterministic.
#[derive(Debug, Clone, Copy)]
pub struct F64(pub f64);

impl PartialEq for F64 {
    fn eq(&self, other: &Self) -> bool {
        self.0.total_cmp(&other.0) == Ordering::Equal
    }
}
impl Eq for F64 {}

impl PartialOrd for F64 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for F64 {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl std::hash::Hash for F64 {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // `total_cmp` separates -0.0 from 0.0 and one NaN payload from
        // another, so two values are `Eq` exactly when their bits are
        // equal: hashing the bits agrees with `Eq`.
        self.0.to_bits().hash(state);
    }
}

/// A datum drawn from a simple local-database domain.
///
/// `Null` renders as the paper's `nil`; it arises from outer joins (padding
/// of unmatched tuples, Tables A4/A7) and from missing attributes during
/// `Merge`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Value {
    /// The paper's `nil`.
    Null,
    /// Boolean datum.
    Bool(bool),
    /// Integer datum (alumnus ids, years, …).
    Int(i64),
    /// Floating-point datum (GPAs, profit figures, …).
    Float(F64),
    /// String datum. `Arc<str>` keeps clones cheap: polygen operators copy
    /// cells freely while tagging, and the perf guide's advice is to avoid
    /// re-allocating hot strings.
    Str(Arc<str>),
}

impl Value {
    /// Convenience constructor for string data.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Convenience constructor for integer data.
    pub fn int(i: i64) -> Self {
        Value::Int(i)
    }

    /// Convenience constructor for float data.
    pub fn float(f: f64) -> Self {
        Value::Float(F64(f))
    }

    /// Is this the paper's `nil`?
    pub fn is_nil(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// A short label for the value's type, used in error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "nil",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
        }
    }

    /// Three-valued θ-comparison ordering.
    ///
    /// Returns `None` when either side is `nil` (unknown) or when the types
    /// are incomparable (e.g. a string against an int) — a θ-predicate over
    /// such a pair is simply not satisfied, mirroring how the paper's
    /// Restrict keeps only tuples for which `t[x](d) θ t[y](d)` *holds*.
    /// Ints and floats compare numerically.
    pub fn theta_compare(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Float(a), Value::Float(b)) => Some(a.cmp(b)),
            (Value::Int(a), Value::Float(b)) => Some(F64(*a as f64).cmp(b)),
            (Value::Float(a), Value::Int(b)) => Some(a.cmp(&F64(*b as f64))),
            (Value::Str(a), Value::Str(b)) => Some(a.as_ref().cmp(b.as_ref())),
            _ => None,
        }
    }

    /// Evaluate `self θ other` under three-valued semantics (nil ⇒ false).
    pub fn satisfies(&self, cmp: Cmp, other: &Value) -> bool {
        match self.theta_compare(other) {
            None => {
                // `<>` on incomparable-but-known values is a judgement call;
                // we follow SQL: unknown stays unsatisfied even for Ne.
                false
            }
            Some(ord) => cmp.admits(ord),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "nil"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(F64(x)) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::str(s)
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(Arc::from(s.as_str()))
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}
impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i64::from(i))
    }
}
impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::float(x)
    }
}
impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

/// The binary relation θ of the paper's Restrict operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cmp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl Cmp {
    /// Does an ordering outcome satisfy this comparison?
    pub fn admits(self, ord: Ordering) -> bool {
        match self {
            Cmp::Eq => ord == Ordering::Equal,
            Cmp::Ne => ord != Ordering::Equal,
            Cmp::Lt => ord == Ordering::Less,
            Cmp::Le => ord != Ordering::Greater,
            Cmp::Gt => ord == Ordering::Greater,
            Cmp::Ge => ord != Ordering::Less,
        }
    }

    /// The comparison with operand order flipped (`a θ b` ⇔ `b θ' a`).
    pub fn flipped(self) -> Cmp {
        match self {
            Cmp::Eq => Cmp::Eq,
            Cmp::Ne => Cmp::Ne,
            Cmp::Lt => Cmp::Gt,
            Cmp::Le => Cmp::Ge,
            Cmp::Gt => Cmp::Lt,
            Cmp::Ge => Cmp::Le,
        }
    }

    /// The SQL spelling of the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            Cmp::Eq => "=",
            Cmp::Ne => "<>",
            Cmp::Lt => "<",
            Cmp::Le => "<=",
            Cmp::Gt => ">",
            Cmp::Ge => ">=",
        }
    }

    /// Parse an SQL comparison symbol.
    pub fn parse(s: &str) -> Option<Cmp> {
        Some(match s {
            "=" => Cmp::Eq,
            "<>" | "!=" => Cmp::Ne,
            "<" => Cmp::Lt,
            "<=" => Cmp::Le,
            ">" => Cmp::Gt,
            ">=" => Cmp::Ge,
            _ => return None,
        })
    }
}

impl fmt::Display for Cmp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nil_theta_comparisons_are_false() {
        for cmp in [Cmp::Eq, Cmp::Ne, Cmp::Lt, Cmp::Le, Cmp::Gt, Cmp::Ge] {
            assert!(!Value::Null.satisfies(cmp, &Value::Null));
            assert!(!Value::Null.satisfies(cmp, &Value::int(1)));
            assert!(!Value::str("x").satisfies(cmp, &Value::Null));
        }
    }

    #[test]
    fn nil_is_identical_to_nil_for_set_semantics() {
        assert_eq!(Value::Null, Value::Null);
    }

    #[test]
    fn cross_type_numeric_comparison() {
        assert!(Value::int(2).satisfies(Cmp::Lt, &Value::float(2.5)));
        assert!(Value::float(3.0).satisfies(Cmp::Eq, &Value::int(3)));
        assert!(Value::float(3.5).satisfies(Cmp::Ge, &Value::int(3)));
    }

    #[test]
    fn incomparable_types_are_unsatisfied() {
        assert!(!Value::str("3").satisfies(Cmp::Eq, &Value::int(3)));
        assert!(!Value::str("3").satisfies(Cmp::Ne, &Value::int(3)));
        assert!(!Value::Bool(true).satisfies(Cmp::Lt, &Value::int(1)));
    }

    #[test]
    fn string_ordering() {
        assert!(Value::str("Apple").satisfies(Cmp::Lt, &Value::str("IBM")));
        assert!(Value::str("MBA").satisfies(Cmp::Eq, &Value::str("MBA")));
        assert!(Value::str("MBA").satisfies(Cmp::Ne, &Value::str("BS")));
    }

    #[test]
    fn cmp_flipped_roundtrip() {
        for cmp in [Cmp::Eq, Cmp::Ne, Cmp::Lt, Cmp::Le, Cmp::Gt, Cmp::Ge] {
            assert_eq!(cmp.flipped().flipped(), cmp);
        }
        assert!(Value::int(1).satisfies(Cmp::Lt, &Value::int(2)));
        assert!(Value::int(2).satisfies(Cmp::Lt.flipped(), &Value::int(1)));
    }

    #[test]
    fn cmp_parse_and_symbol_roundtrip() {
        for cmp in [Cmp::Eq, Cmp::Ne, Cmp::Lt, Cmp::Le, Cmp::Gt, Cmp::Ge] {
            assert_eq!(Cmp::parse(cmp.symbol()), Some(cmp));
        }
        assert_eq!(Cmp::parse("!="), Some(Cmp::Ne));
        assert_eq!(Cmp::parse("=="), None);
    }

    #[test]
    fn float_total_order_and_hash_consistency() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(Value::float(1.0));
        set.insert(Value::float(1.0));
        assert_eq!(set.len(), 1);
        assert!(Value::float(f64::NAN) == Value::float(f64::NAN));
        // -0.0 and 0.0 are distinct under total_cmp; both insertable.
        set.insert(Value::float(0.0));
        set.insert(Value::float(-0.0));
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Null.to_string(), "nil");
        assert_eq!(Value::str("Citicorp").to_string(), "Citicorp");
        assert_eq!(Value::int(1989).to_string(), "1989");
        assert_eq!(Value::float(3.5).to_string(), "3.5");
    }

    #[test]
    fn from_conversions() {
        assert_eq!(Value::from("x"), Value::str("x"));
        assert_eq!(Value::from(7i32), Value::int(7));
        assert_eq!(Value::from(7i64), Value::int(7));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from(2.5), Value::float(2.5));
        assert_eq!(Value::from(String::from("y")), Value::str("y"));
    }
}
