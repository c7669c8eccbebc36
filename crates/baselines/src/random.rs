//! Random-primitive search: Aceso's loop with Heuristic-2 disabled.
//!
//! Exp#5 (Fig. 12) compares convergence with and without Heuristic-2 by
//! replacing the ranked primitive exploration with a uniformly random
//! order, three seeds per setting.

use aceso_cluster::ClusterSpec;
use aceso_core::{AcesoSearch, SearchError, SearchOptions, SearchResult};
use aceso_model::ModelGraph;
use aceso_profile::ProfileDb;

/// Runs the Aceso loop with random primitive/resource ordering.
pub fn random_search(
    model: &ModelGraph,
    cluster: &ClusterSpec,
    db: &ProfileDb,
    base: &SearchOptions,
    seed: u64,
) -> Result<SearchResult, SearchError> {
    let options = SearchOptions {
        use_heuristic2: false,
        seed,
        ..base.clone()
    };
    AcesoSearch::new(model, cluster, db, options).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use aceso_model::zoo::gpt3_custom;

    #[test]
    fn random_search_runs_and_varies_by_seed() {
        let m = gpt3_custom("t", 4, 512, 8, 256, 8192, 64);
        let c = ClusterSpec::v100(1, 4);
        let db = ProfileDb::build(&m, &c);
        let base = SearchOptions {
            max_iterations: 8,
            stage_counts: Some(vec![2]),
            ..SearchOptions::default()
        };
        let a = random_search(&m, &c, &db, &base, 1).expect("seed 1");
        let b = random_search(&m, &c, &db, &base, 1).expect("seed 1 again");
        assert_eq!(
            a.best_config.semantic_hash(),
            b.best_config.semantic_hash(),
            "same seed must reproduce"
        );
        // Different seeds explore different paths (explored counts differ
        // almost surely; allow equality of configs).
        let c2 = random_search(&m, &c, &db, &base, 2).expect("seed 2");
        assert!(a.explored > 0 && c2.explored > 0);
    }
}
