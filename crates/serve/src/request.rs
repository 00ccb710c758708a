//! The transport-agnostic request/response envelope.
//!
//! One shape in, one shape out, and nothing in either that cannot cross
//! a process boundary:
//!
//! * [`Request`] — query text + [`Lang`] + per-request [`RequestOptions`].
//! * [`Response`] — a serializable enum: [`Response::Rows`] (the tagged
//!   [`Answer`] plus [`ResponseInfo`]), [`Response::Explain`] (the rendered
//!   physical plan), [`Response::Empty`] (blank request text), and
//!   [`Response::Error`] carrying a stable numeric [`ErrorCode`] plus a
//!   human-readable message.
//!
//! The same envelope is served in-process
//! ([`QueryService::execute`](crate::service::QueryService::execute)),
//! over the wire ([`crate::wire`] encodes each response as a schema frame,
//! row batches, and a summary frame, which `polygen-net` sends), and by
//! the examples — which is what
//! lets differential tests assert byte-identical answers across
//! transports. Everything deterministic lives in the payload (schema,
//! rows, tags, plan text, error codes); everything timing-dependent
//! (latency, thread allotment, cache hits under concurrency) lives in
//! [`ResponseInfo`], which the wire protocol carries in a *summary* frame
//! that byte-level comparisons exclude.

use crate::service::ServeError;
use crate::wire::AnswerFrames;
use polygen_core::relation::PolygenRelation;
use polygen_index::IndexError;
use polygen_pqp::error::PqpError;
use polygen_sql::app::AqpError;
use polygen_sql::normalize::NormalizeError;
use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// Which front-end language a request's text is written in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lang {
    /// Polygen-level SQL.
    Sql,
    /// Algebra bracket notation.
    Algebra,
    /// Application-level SQL through the attached application schema.
    App,
}

impl Lang {
    /// Stable wire discriminant.
    pub fn wire_tag(self) -> u8 {
        match self {
            Lang::Sql => 0,
            Lang::Algebra => 1,
            Lang::App => 2,
        }
    }

    /// Inverse of [`Lang::wire_tag`].
    pub fn from_wire_tag(tag: u8) -> Option<Lang> {
        match tag {
            0 => Some(Lang::Sql),
            1 => Some(Lang::Algebra),
            2 => Some(Lang::App),
            _ => None,
        }
    }

    /// Stable lowercase label, shown in the session registry and the
    /// `sys.sessions` LANG column.
    pub fn label(self) -> &'static str {
        match self {
            Lang::Sql => "sql",
            Lang::Algebra => "algebra",
            Lang::App => "app",
        }
    }
}

/// Which EXPLAIN mode a request asked for. SQL text can also select a
/// mode with a leading `EXPLAIN` / `EXPLAIN ANALYZE` keyword — the
/// service peels the prefix into this option so the cache key is the
/// inner query either way.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum ExplainOptions {
    /// Execute normally.
    #[default]
    Off,
    /// Compile (or fetch the cached plan) and return the rendered
    /// physical plan as [`Response::Explain`]; run nothing.
    Plan,
    /// Execute the plan under a span trace and return the physical tree
    /// with each node's measured actuals (`act=…`) as
    /// [`Response::Explain`].
    Analyze,
}

impl ExplainOptions {
    /// Stable wire discriminant.
    pub fn wire_tag(self) -> u8 {
        match self {
            ExplainOptions::Off => 0,
            ExplainOptions::Plan => 1,
            ExplainOptions::Analyze => 2,
        }
    }

    /// Inverse of [`ExplainOptions::wire_tag`].
    pub fn from_wire_tag(tag: u8) -> Option<ExplainOptions> {
        match tag {
            0 => Some(ExplainOptions::Off),
            1 => Some(ExplainOptions::Plan),
            2 => Some(ExplainOptions::Analyze),
            _ => None,
        }
    }
}

/// Per-request execution options.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RequestOptions {
    /// EXPLAIN mode (off / plan-only / analyze).
    pub explain: ExplainOptions,
    /// Record a span waterfall for this request. The service opens
    /// serve-layer spans (queue wait, parse, plan, caches, execute) and
    /// the executor one span per physical node; the trace feeds the
    /// slow-query log and, over the wire, the transport's decode/flush
    /// spans complete the waterfall. Results are byte-identical with
    /// tracing on or off.
    pub trace: bool,
}

/// One query request: text, language, options. The single entry shape
/// every transport speaks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The query text.
    pub text: String,
    /// Which parser the text is for.
    pub lang: Lang,
    /// Per-request options.
    pub options: RequestOptions,
}

impl Request {
    /// A polygen-level SQL request.
    pub fn sql(text: impl Into<String>) -> Self {
        Request {
            text: text.into(),
            lang: Lang::Sql,
            options: RequestOptions::default(),
        }
    }

    /// An algebra-notation request.
    pub fn algebra(text: impl Into<String>) -> Self {
        Request {
            text: text.into(),
            lang: Lang::Algebra,
            options: RequestOptions::default(),
        }
    }

    /// An application-level SQL request.
    pub fn app(text: impl Into<String>) -> Self {
        Request {
            text: text.into(),
            lang: Lang::App,
            options: RequestOptions::default(),
        }
    }

    /// Builder-style EXPLAIN toggle (`true` = plan-only EXPLAIN).
    pub fn with_explain(mut self, explain: bool) -> Self {
        self.options.explain = if explain {
            ExplainOptions::Plan
        } else {
            ExplainOptions::Off
        };
        self
    }

    /// Builder-style EXPLAIN mode selector.
    pub fn with_explain_mode(mut self, mode: ExplainOptions) -> Self {
        self.options.explain = mode;
        self
    }

    /// Builder-style trace toggle.
    pub fn with_trace(mut self, trace: bool) -> Self {
        self.options.trace = trace;
        self
    }
}

/// Stable numeric error codes — the wire-safe taxonomy every
/// [`ServeError`] variant maps onto. Codes are grouped by origin layer
/// and are part of the protocol: once assigned, a code never changes
/// meaning.
///
/// * `1xx` — normalization (parse / SQL lowering).
/// * `2xx` — application-schema rewriting.
/// * `3xx` — compilation / execution (PQP).
/// * `4xx` — secondary-index declaration.
/// * `5xx` — service-level (a contained panic, admission control).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u16)]
pub enum ErrorCode {
    /// Query text failed to parse (SQL or algebra).
    SqlSyntax = 100,
    /// SQL parsed but did not lower against the schema.
    SqlLower = 101,
    /// Application query text failed to parse.
    AppSyntax = 200,
    /// A FROM relation is not in the application schema.
    AppUnknownRelation = 201,
    /// An attribute is not defined by any FROM view.
    AppUnknownAttribute = 202,
    /// FROM views map an attribute onto different polygen attributes.
    AppAmbiguousAttribute = 203,
    /// Compile-time syntax error (canonical text failed to re-parse).
    PqpSyntax = 300,
    /// Compile-time lowering failure.
    PqpLower = 301,
    /// The expression was a bare relation with no operation.
    BareRelation = 302,
    /// A referenced relation is neither a scheme nor a derived result.
    UnknownRelation = 303,
    /// An attribute could not be resolved against a relation.
    UnresolvedAttribute = 304,
    /// An attribute resolved to several columns.
    AmbiguousAttribute = 305,
    /// A forward/dangling `R(n)` reference inside a matrix.
    DanglingReference = 306,
    /// A local query processor failed.
    Lqp = 307,
    /// A polygen algebra operation failed (e.g. a Strict-policy
    /// conflict).
    Algebra = 308,
    /// An interpreter invariant was violated (a malformed row).
    MalformedRow = 309,
    /// Index declaration named an unregistered source.
    IndexUnknownSource = 400,
    /// The local system rejected an index build-time retrieve.
    IndexLqp = 401,
    /// The indexed column does not exist on the relation.
    IndexColumn = 402,
    /// Serving the request panicked, or its answer could not be
    /// delivered; either way the failure was contained to it.
    Internal = 500,
    /// Admission control shed the query: the service is at capacity
    /// with a full wait queue. Retry later — the overload response is
    /// structured, never a dropped connection.
    Overloaded = 503,
}

impl ErrorCode {
    /// The numeric wire form.
    pub fn code(self) -> u16 {
        self as u16
    }

    /// Inverse of [`ErrorCode::code`]; `None` for unassigned numbers.
    pub fn from_code(code: u16) -> Option<ErrorCode> {
        use ErrorCode::*;
        Some(match code {
            100 => SqlSyntax,
            101 => SqlLower,
            200 => AppSyntax,
            201 => AppUnknownRelation,
            202 => AppUnknownAttribute,
            203 => AppAmbiguousAttribute,
            300 => PqpSyntax,
            301 => PqpLower,
            302 => BareRelation,
            303 => UnknownRelation,
            304 => UnresolvedAttribute,
            305 => AmbiguousAttribute,
            306 => DanglingReference,
            307 => Lqp,
            308 => Algebra,
            309 => MalformedRow,
            400 => IndexUnknownSource,
            401 => IndexLqp,
            402 => IndexColumn,
            500 => Internal,
            503 => Overloaded,
            _ => return None,
        })
    }

    /// A short stable mnemonic for dashboards and demo output.
    pub fn mnemonic(self) -> &'static str {
        use ErrorCode::*;
        match self {
            SqlSyntax => "sql-syntax",
            SqlLower => "sql-lower",
            AppSyntax => "app-syntax",
            AppUnknownRelation => "app-unknown-relation",
            AppUnknownAttribute => "app-unknown-attribute",
            AppAmbiguousAttribute => "app-ambiguous-attribute",
            PqpSyntax => "pqp-syntax",
            PqpLower => "pqp-lower",
            BareRelation => "bare-relation",
            UnknownRelation => "unknown-relation",
            UnresolvedAttribute => "unresolved-attribute",
            AmbiguousAttribute => "ambiguous-attribute",
            DanglingReference => "dangling-reference",
            Lqp => "lqp",
            Algebra => "algebra",
            MalformedRow => "malformed-row",
            IndexUnknownSource => "index-unknown-source",
            IndexLqp => "index-lqp",
            IndexColumn => "index-column",
            Internal => "internal",
            Overloaded => "overloaded",
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.code(), self.mnemonic())
    }
}

impl From<&ServeError> for ErrorCode {
    fn from(e: &ServeError) -> Self {
        match e {
            ServeError::Normalize(NormalizeError::Syntax(_)) => ErrorCode::SqlSyntax,
            ServeError::Normalize(NormalizeError::Lower(_)) => ErrorCode::SqlLower,
            ServeError::App(AqpError::Syntax(_)) => ErrorCode::AppSyntax,
            ServeError::App(AqpError::UnknownAppRelation(_)) => ErrorCode::AppUnknownRelation,
            ServeError::App(AqpError::UnknownAppAttribute(_)) => ErrorCode::AppUnknownAttribute,
            ServeError::App(AqpError::AmbiguousAppAttribute(_)) => ErrorCode::AppAmbiguousAttribute,
            ServeError::Pqp(PqpError::Syntax(_)) => ErrorCode::PqpSyntax,
            ServeError::Pqp(PqpError::Lower(_)) => ErrorCode::PqpLower,
            ServeError::Pqp(PqpError::BareRelation(_)) => ErrorCode::BareRelation,
            ServeError::Pqp(PqpError::UnknownRelation(_)) => ErrorCode::UnknownRelation,
            ServeError::Pqp(PqpError::UnresolvedAttribute { .. }) => ErrorCode::UnresolvedAttribute,
            ServeError::Pqp(PqpError::AmbiguousAttribute { .. }) => ErrorCode::AmbiguousAttribute,
            ServeError::Pqp(PqpError::DanglingReference(_)) => ErrorCode::DanglingReference,
            ServeError::Pqp(PqpError::Lqp(_)) => ErrorCode::Lqp,
            ServeError::Pqp(PqpError::Polygen(_)) => ErrorCode::Algebra,
            ServeError::Pqp(PqpError::MalformedRow { .. }) => ErrorCode::MalformedRow,
            ServeError::Index(IndexError::UnknownSource(_)) => ErrorCode::IndexUnknownSource,
            ServeError::Index(IndexError::Lqp(_)) => ErrorCode::IndexLqp,
            ServeError::Index(IndexError::Flat(_)) => ErrorCode::IndexColumn,
            ServeError::Panicked(_) | ServeError::Undeliverable(_) => ErrorCode::Internal,
            ServeError::Overloaded { .. } => ErrorCode::Overloaded,
        }
    }
}

impl ServeError {
    /// The stable numeric code this error maps onto.
    pub fn code(&self) -> ErrorCode {
        ErrorCode::from(self)
    }
}

/// What a served query reported besides its payload: cache/route/metrics
/// info. Deterministic fields (`canonical`, `fingerprint`,
/// `index_routed`) are stable across transports and runs;
/// timing-dependent fields (`plan_hit`/`result_hit` under concurrency,
/// `threads`, `latency_micros`) are not — which is why the wire protocol
/// ships this struct in a summary frame that differential byte
/// comparisons exclude.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResponseInfo {
    /// The canonical query text the caches keyed on.
    pub canonical: String,
    /// The physical plan's structural fingerprint.
    pub fingerprint: u64,
    /// Was the compiled plan reused from the plan cache?
    pub plan_hit: bool,
    /// Was the answer served from the result cache (no execution)?
    pub result_hit: bool,
    /// Did the plan route at least one Scan onto a secondary index?
    pub index_routed: bool,
    /// Worker threads allotted from the shared budget (0 for EXPLAIN).
    pub threads: usize,
    /// Wall-clock service time in microseconds, admission wait included.
    pub latency_micros: u64,
}

/// A rows answer: the tagged relation, or the [`AnswerFrames`] the result
/// cache holds it as, which is how a wire hit carries it. Reading tuples
/// from the frames form decodes them once, on first read (the codec
/// round-trip makes the relation byte-identical to the one encoded);
/// [`Answer::len`] never decodes, nor does sending the frames.
/// Dereferences to the relation.
#[derive(Clone)]
pub struct Answer {
    frames: Option<Arc<AnswerFrames>>,
    relation: OnceLock<Arc<PolygenRelation>>,
}

impl Answer {
    /// The encoded frames, if this answer holds them.
    pub(crate) fn frames(&self) -> Option<&Arc<AnswerFrames>> {
        self.frames.as_ref()
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        match &self.frames {
            Some(frames) => frames.rows(),
            None => self.relation().len(),
        }
    }

    /// Is the answer empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The relation, decoded from the frames on first read.
    ///
    /// Panics if the frames do not decode: frames the wire wrote but
    /// cannot read back, as a client could not either. The service
    /// hands an in-process caller only relations, and a transport writes
    /// frames without reading them.
    pub fn relation(&self) -> &Arc<PolygenRelation> {
        self.relation.get_or_init(|| {
            let frames = self
                .frames
                .as_ref()
                .expect("an answer holds a relation or its frames");
            let decoded = frames.decode();
            Arc::new(decoded.unwrap_or_else(|e| panic!("answer frames do not decode: {e}")))
        })
    }
}

impl From<Arc<PolygenRelation>> for Answer {
    fn from(relation: Arc<PolygenRelation>) -> Self {
        Answer {
            frames: None,
            relation: OnceLock::from(relation),
        }
    }
}

impl From<PolygenRelation> for Answer {
    fn from(relation: PolygenRelation) -> Self {
        Answer::from(Arc::new(relation))
    }
}

impl From<Arc<AnswerFrames>> for Answer {
    fn from(frames: Arc<AnswerFrames>) -> Self {
        Answer {
            frames: Some(frames),
            relation: OnceLock::new(),
        }
    }
}

impl Deref for Answer {
    type Target = PolygenRelation;

    fn deref(&self) -> &PolygenRelation {
        self.relation()
    }
}

impl PartialEq for Answer {
    fn eq(&self, other: &Answer) -> bool {
        self.relation() == other.relation()
    }
}

/// The relation once it is read; unread frames print as themselves,
/// so formatting never decodes.
impl fmt::Debug for Answer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.relation.get(), &self.frames) {
            (Some(relation), _) => fmt::Debug::fmt(relation, f),
            (None, frames) => f.debug_tuple("Answer").field(frames).finish(),
        }
    }
}

/// One served response — the transport-agnostic envelope.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A tagged composite answer.
    Rows {
        /// The answer. A cache hit shares the cached relation or frames.
        answer: Answer,
        /// Cache/route/metrics info.
        info: ResponseInfo,
    },
    /// A rendered physical plan (the request asked for EXPLAIN).
    Explain {
        /// The rendered plan, `render_plan` form.
        plan: String,
        /// Cache/route/metrics info (`threads` is 0 — nothing ran).
        info: ResponseInfo,
    },
    /// The request text was blank.
    Empty,
    /// The query failed; `code` is stable across transports.
    Error {
        /// The stable numeric taxonomy entry.
        code: ErrorCode,
        /// Human-readable detail (not stable; diagnostics only).
        message: String,
    },
}

impl Response {
    /// The error code, if this is an error response.
    pub fn error_code(&self) -> Option<ErrorCode> {
        match self {
            Response::Error { code, .. } => Some(*code),
            _ => None,
        }
    }

    /// The answer relation, if this is a rows response (decoded on
    /// first read when the answer holds frames).
    pub fn rows(&self) -> Option<&Arc<PolygenRelation>> {
        match self {
            Response::Rows { answer, .. } => Some(answer.relation()),
            _ => None,
        }
    }

    /// The info block, if the response carries one.
    pub fn info(&self) -> Option<&ResponseInfo> {
        match self {
            Response::Rows { info, .. } | Response::Explain { info, .. } => Some(info),
            _ => None,
        }
    }

    /// Was this query shed by admission control?
    pub fn is_overloaded(&self) -> bool {
        self.error_code() == Some(ErrorCode::Overloaded)
    }

    /// Deterministic-payload equality: schema, data, tags and tuple
    /// order for rows; plan text for explains; codes for errors —
    /// ignoring the timing-dependent [`ResponseInfo`] fields. This is
    /// the in-process spelling of the wire-level "byte-identical frames
    /// excluding the summary" comparison.
    pub fn payload_eq(&self, other: &Response) -> bool {
        match (self, other) {
            (Response::Rows { answer: a, .. }, Response::Rows { answer: b, .. }) => {
                a.schema() == b.schema() && a.tuples() == b.tuples()
            }
            (Response::Explain { plan: a, .. }, Response::Explain { plan: b, .. }) => a == b,
            (Response::Empty, Response::Empty) => true,
            (Response::Error { code: a, .. }, Response::Error { code: b, .. }) => a == b,
            _ => false,
        }
    }
}

impl From<ServeError> for Response {
    fn from(e: ServeError) -> Self {
        Response::Error {
            code: e.code(),
            message: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_round_trip_and_stay_stable() {
        use ErrorCode::*;
        let all = [
            SqlSyntax,
            SqlLower,
            AppSyntax,
            AppUnknownRelation,
            AppUnknownAttribute,
            AppAmbiguousAttribute,
            PqpSyntax,
            PqpLower,
            BareRelation,
            UnknownRelation,
            UnresolvedAttribute,
            AmbiguousAttribute,
            DanglingReference,
            Lqp,
            Algebra,
            MalformedRow,
            IndexUnknownSource,
            IndexLqp,
            IndexColumn,
            Internal,
            Overloaded,
        ];
        let mut seen = std::collections::BTreeSet::new();
        for c in all {
            assert_eq!(ErrorCode::from_code(c.code()), Some(c));
            assert!(seen.insert(c.code()), "duplicate code {}", c.code());
            assert!(!c.mnemonic().is_empty());
        }
        // The taxonomy is part of the wire protocol: pin the numbers.
        assert_eq!(SqlSyntax.code(), 100);
        assert_eq!(AppSyntax.code(), 200);
        assert_eq!(PqpSyntax.code(), 300);
        assert_eq!(IndexUnknownSource.code(), 400);
        assert_eq!(Internal.code(), 500);
        assert_eq!(Overloaded.code(), 503);
        assert_eq!(ErrorCode::from_code(999), None);
    }

    #[test]
    fn serve_errors_map_to_their_bands() {
        let e = ServeError::Overloaded {
            active: 4,
            queued: 8,
        };
        assert_eq!(e.code(), ErrorCode::Overloaded);
        let r = Response::from(e);
        assert!(r.is_overloaded());
        assert!(matches!(r, Response::Error { ref message, .. } if message.contains("overloaded")));
    }

    #[test]
    fn lang_wire_tags_round_trip() {
        for lang in [Lang::Sql, Lang::Algebra, Lang::App] {
            assert_eq!(Lang::from_wire_tag(lang.wire_tag()), Some(lang));
        }
        assert_eq!(Lang::from_wire_tag(7), None);
    }

    #[test]
    fn request_builders_set_lang_and_options() {
        assert_eq!(Request::sql("S").lang, Lang::Sql);
        assert_eq!(Request::algebra("A").lang, Lang::Algebra);
        assert_eq!(Request::app("P").lang, Lang::App);
        assert_eq!(
            Request::sql("S").with_explain(true).options.explain,
            ExplainOptions::Plan
        );
        assert_eq!(
            Request::sql("S")
                .with_explain_mode(ExplainOptions::Analyze)
                .options
                .explain,
            ExplainOptions::Analyze
        );
        assert!(Request::sql("S").with_trace(true).options.trace);
    }

    #[test]
    fn explain_wire_tags_round_trip() {
        for mode in [
            ExplainOptions::Off,
            ExplainOptions::Plan,
            ExplainOptions::Analyze,
        ] {
            assert_eq!(ExplainOptions::from_wire_tag(mode.wire_tag()), Some(mode));
        }
        assert_eq!(ExplainOptions::from_wire_tag(3), None);
    }
}
