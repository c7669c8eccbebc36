//! `docs/STORE.md` is a test-enforced contract; its row in the shared
//! table lives in `tests/doc_contracts/mod.rs`.

mod doc_contracts;

use doc_contracts::check;

const DOC: &str = "docs/STORE.md";

/// Every store counter is registered as deterministic and named, and
/// the `store_degraded` event carries the fields the document states.
#[test]
fn doc_names_every_store_counter_and_event() {
    check(DOC, doc_contracts::names_its_observability_surface);
}

/// The stated store schema version must be the code's.
#[test]
fn doc_states_the_current_store_schema_version() {
    check(DOC, doc_contracts::states_current_versions);
}

/// The store flags are documented in both the doc and the usage text.
#[test]
fn doc_covers_the_store_flags() {
    check(DOC, doc_contracts::covers_its_cli);
}

/// The store sources and the document cite the same `INV-STORE-`
/// anchors.
#[test]
fn invariant_anchors_match_the_code() {
    check(DOC, doc_contracts::invariant_anchors_match_the_code);
}

/// The document points at the tests and harnesses that actually enforce
/// its claims.
#[test]
fn doc_references_its_enforcement_surface() {
    check(DOC, doc_contracts::references_its_enforcement_surface);
}
