//! `docs/SERVER.md` is a test-enforced contract; its row in the shared
//! table lives in `tests/doc_contracts/mod.rs`.

mod doc_contracts;

const DOC: &str = "docs/SERVER.md";

/// Every reactor counter is registered as non-deterministic and named,
/// and no `serve_` timing counter goes undocumented.
#[test]
fn doc_names_every_reactor_counter() {
    doc_contracts::names_its_observability_surface(DOC);
}

/// The stated protocol, schema, and pipeline-depth constants must be
/// the code's.
#[test]
fn doc_states_current_versions_and_limits() {
    doc_contracts::states_current_versions(DOC);
}

/// The reactor flags are documented in both the doc and the usage text.
#[test]
fn doc_covers_the_reactor_flags() {
    doc_contracts::covers_its_cli(DOC);
}

/// The serve sources and the document cite the same `INV-` anchors.
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
