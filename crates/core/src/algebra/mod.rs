//! The polygen algebra (§II).
//!
//! "The five orthogonal algebraic primitive operators in the polygen model"
//! — [`project()`](project()), [`product()`](product()), [`restrict()`](restrict()) (with [`restrict::select`] as
//! its constant form), [`union()`](union()), [`difference()`](difference()) — plus the sixth
//! orthogonal primitive [`coalesce()`](coalesce()), and the derived operators the paper
//! introduces for polygen query processing: θ-[`join`](theta_join()), [`intersect()`](intersect()),
//! [`outer_join()`](outer_join()), the Outer Natural Primary/Total Joins in [`natural`],
//! and [`merge()`](merge()).
//!
//! Tag discipline, straight from the definitions:
//!
//! | operator | origin tags | intermediate tags |
//! |---|---|---|
//! | Project | union over collapsed duplicates | union over collapsed duplicates |
//! | Cartesian product | untouched | untouched |
//! | Restrict / Select / Join | untouched | every cell gains `t[x](o) ∪ t[y](o)` |
//! | Union | union on matched tuples | union on matched tuples |
//! | Difference | untouched | every cell gains `p2(o)` |
//! | Coalesce | union on equal data, else the non-nil side's | likewise |
//! | Outer joins / Merge | via restrict + coalesce | via restrict + coalesce |

pub mod anti_join;
pub mod coalesce;
pub mod difference;
pub mod intersect;
pub mod join;
pub mod merge;
pub mod natural;
pub mod outer_join;
pub mod product;
pub mod project;
pub mod restrict;
pub mod union;

pub use anti_join::anti_join;
pub use coalesce::{coalesce, coalesce_with_report, ConflictPolicy};
pub use difference::difference;
pub use intersect::intersect;
pub use join::{equi_join_coalesced, hash_equi_join_coalesced, hash_equi_join_project, theta_join};
pub use merge::{hash_merge, hash_merge_partitioned, hash_merge_view, merge, MergedView};
pub use natural::{outer_natural_primary_join, outer_natural_total_join};
pub use outer_join::outer_join;
pub use product::product;
pub use project::project;
pub use restrict::{restrict, select, RowFilter};
pub use union::union;
