//! Differential property tests for the physical-plan executor.
//!
//! The physical engine (fused pipelines over `Arc`-shared tuples,
//! single-pass hash equi-joins, k-way hash Merge) must compute *exactly*
//! the relations the eager row-by-row reference interpreter computes —
//! data, origin tags and intermediate tags — across workload-generated
//! federations and random query shapes. `execute_eager` is the reference
//! semantics; any divergence here is a bug in a physical kernel or in
//! plan lowering. (The partition-parallel engine gets the same treatment
//! across thread counts in `properties_parallel`.)

mod common;

use common::fixtures::{assert_engines_agree, conflicted_config, small_config};
use polygen::catalog::prelude::scenario;
use polygen::core::algebra::coalesce::ConflictPolicy;
use polygen::sql::prelude::PAPER_EXPRESSION;
use polygen::workload;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random expressions over random federations: identical relations.
    #[test]
    fn physical_matches_eager_on_random_federations(
        fed_seed in any::<u64>(),
        query_seed in any::<u64>(),
        depth in 1usize..4,
        sources in 2usize..5,
    ) {
        let config = small_config(fed_seed, sources, 50);
        let sc = workload::generate(&config);
        let expr = workload::queries::random_expression(&config, query_seed, depth);
        assert_engines_agree(&sc, &expr.to_string(), ConflictPolicy::Strict);
    }

    /// Conflicting federations under both resolution policies: the k-way
    /// hash Merge must demote losers to mediators exactly like the ONTJ
    /// fold does.
    #[test]
    fn engines_agree_under_conflict_policies(
        fed_seed in any::<u64>(),
        sources in 2usize..5,
        prefer_left in any::<bool>(),
    ) {
        let sc = workload::generate(&conflicted_config(fed_seed, sources, 40));
        let policy = if prefer_left {
            ConflictPolicy::PreferLeft
        } else {
            ConflictPolicy::PreferRight
        };
        assert_engines_agree(&sc, "PENTITY [ENAME, CATEGORY]", policy);
        assert_engines_agree(&sc, "PENTITY [CATEGORY = \"C0\"]", policy);
    }
}

/// The paper's own pipeline, cell-exact across both engines — the
/// strongest single fixture (it exercises scan, hash join, hash merge,
/// fused restrict+project, and the alias machinery at once).
#[test]
fn paper_query_trace_is_cell_exact_across_engines() {
    let s = scenario::build();
    assert_engines_agree(&s, PAPER_EXPRESSION, ConflictPolicy::Strict);
}

/// Set operations and the θ fallback path.
#[test]
fn set_ops_and_theta_joins_agree() {
    let s = scenario::build();
    for expr in [
        "(PALUMNUS [DEGREE = \"MBA\"]) UNION (PALUMNUS [DEGREE = \"MS\"])",
        "PALUMNUS MINUS (PALUMNUS [DEGREE = \"MBA\"])",
        "(PORGANIZATION ANTIJOIN [ONAME = ONAME] PFINANCE) [ONAME]",
        "PCAREER [AID# < AID#] PCAREER",
        "(PALUMNUS [DEGREE = \"MBA\"]) INTERSECT (PALUMNUS [DEGREE = \"MBA\"])",
    ] {
        assert_engines_agree(&s, expr, ConflictPolicy::Strict);
    }
}
