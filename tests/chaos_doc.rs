//! `docs/RELIABILITY.md` is a test-enforced contract; its row in the
//! shared table lives in `tests/doc_contracts/mod.rs`.

mod doc_contracts;

const DOC: &str = "docs/RELIABILITY.md";

/// The chaos subcommands and flags are documented in both the doc and
/// the usage text.
#[test]
fn doc_covers_the_chaos_cli() {
    doc_contracts::covers_its_cli(DOC);
}

/// The fault counter family and the chaos events are registered with
/// the documented shape and named.
#[test]
fn doc_names_the_chaos_observability_surface() {
    doc_contracts::names_its_observability_surface(DOC);
}

/// The chaos and util sources and the document cite the same `INV-`
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

/// The sibling documents and the README route readers to the
/// reliability contract.
#[test]
fn sibling_docs_link_to_the_reliability_contract() {
    doc_contracts::sibling_docs_link_to_the_reliability_contract();
}
