//! `docs/STORE.md` is a test-enforced contract; its row in the shared
//! table lives in `tests/doc_contracts/mod.rs`.

mod doc_contracts;

const DOC: &str = "docs/STORE.md";

/// Every store counter is registered as deterministic and named, and
/// the `store_degraded` event carries the fields the document states.
#[test]
fn doc_names_every_store_counter_and_event() {
    doc_contracts::names_its_observability_surface(DOC);
}

/// The stated store schema version must be the code's.
#[test]
fn doc_states_the_current_store_schema_version() {
    doc_contracts::states_current_versions(DOC);
}

/// The store flags are documented in both the doc and the usage text.
#[test]
fn doc_covers_the_store_flags() {
    doc_contracts::covers_its_cli(DOC);
}

/// The store sources and the document cite the same `INV-STORE-`
/// anchors.
#[test]
fn invariant_anchors_match_the_code() {
    doc_contracts::invariant_anchors_match_the_code(DOC);
}

/// The document points at the tests and harnesses that actually enforce
/// its claims.
#[test]
fn doc_references_its_enforcement_surface() {
    doc_contracts::references_its_enforcement_surface(DOC);
}
