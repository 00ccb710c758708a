//! The two-pass Polygen Operation Interpreter (Figures 3 and 4).
//!
//! "For clarity, a two-pass Polygen Operation Interpreter, pass one
//! dealing with the left-hand side and pass two the right-hand side of
//! polygen operations, is presented" (§III). Pass one expands polygen
//! schemes on the left of each operation into local operations (single
//! local source) or Retrieve+Merge pipelines (multiple local sources);
//! pass two does the same for the right-hand side and fixes up rows whose
//! two operands live in different places.
//!
//! ## Documented deviations from the figures
//!
//! DESIGN.md, "Known discrepancies with the 1990 scan", collects these
//! with the paper's own.
//!
//! 1. The figures key the single/multi decision off `MAi` — the mapping of
//!    the *attribute* being operated on. We key it off the *scheme's*
//!    local-relation set, which coincides for every scheme in the paper
//!    (PALUMNUS/PCAREER/… are single-relation; PORGANIZATION is
//!    multi-relation) and avoids dropping merged attributes when a
//!    multi-source scheme is operated on through one of its
//!    single-source attributes (e.g. `PORGANIZATION[CEO = …]`).
//! 2. Raw single-source retrieves keep *local* attribute names — that is
//!    how the paper prints Table 5 (`BNAME`, `POS`) — so footnote 12's
//!    `PA()` "undo" is unnecessary: an operation on a retrieved raw
//!    relation uses the local names pass one already produced.
//! 3. Figure 4 does not handle a binary row whose left side was mapped to
//!    an LQP while the right side is an `R(#)`; we retrieve the left side
//!    and run the operation at the PQP (robustness extension).

pub mod pass_one;
pub mod pass_two;

pub use pass_one::pass_one;
pub use pass_two::pass_two;

use crate::error::PqpError;
use crate::iom::Iom;
use crate::pom::Pom;
use polygen_catalog::schema::PolygenSchema;

/// Run both passes: POM → half-processed matrix → IOM.
pub fn interpret(pom: &Pom, schema: &PolygenSchema) -> Result<(Iom, Iom), PqpError> {
    let half = pass_one(pom, schema)?;
    let iom = pass_two(&half, schema)?;
    Ok((half, iom))
}
