//! `docs/SERVER.md` is a test-enforced contract; its row in the shared
//! table lives in `tests/doc_contracts/mod.rs`.

mod doc_contracts;

use doc_contracts::check;

const DOC: &str = "docs/SERVER.md";

/// Every serve counter the document names is registered with its
/// determinism class, and no `serve_` timing counter goes undocumented.
#[test]
fn doc_names_every_reactor_counter() {
    check(DOC, doc_contracts::names_its_observability_surface);
}

/// The stated protocol and schema versions must be the code's.
#[test]
fn doc_states_current_versions_and_limits() {
    check(DOC, doc_contracts::states_current_versions);
}

/// The connection-handling flags are documented in both the doc and the
/// usage text.
#[test]
fn doc_covers_the_reactor_flags() {
    check(DOC, doc_contracts::covers_its_cli);
}

/// The serve sources and the document cite the same `INV-` anchors.
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
