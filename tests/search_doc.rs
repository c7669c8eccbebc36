//! `docs/SEARCH.md` is a test-enforced contract; its row in the shared
//! table lives in `tests/doc_contracts/mod.rs`.

mod doc_contracts;

use doc_contracts::check;

const DOC: &str = "docs/SEARCH.md";

/// Every counter the document promises is registered and named, and
/// every counter the schema declares non-deterministic is called out.
#[test]
fn doc_names_every_frontier_and_nondeterministic_counter() {
    check(DOC, doc_contracts::names_its_observability_surface);
}

/// The stated checkpoint schema version must be the code's.
#[test]
fn doc_states_current_checkpoint_schema_version() {
    check(DOC, doc_contracts::states_current_versions);
}

/// The core sources and the document cite the same `INV-` anchors.
#[test]
fn invariant_anchors_match_the_code() {
    check(DOC, doc_contracts::invariant_anchors_match_the_code);
}

/// The document points at the tests that actually enforce its claims.
#[test]
fn doc_references_its_enforcement_tests() {
    check(DOC, doc_contracts::references_its_enforcement_surface);
}
