//! `docs/RELIABILITY.md` is a test-enforced contract; its row in the
//! shared table lives in `tests/doc_contracts/mod.rs`.

mod doc_contracts;

use doc_contracts::check;

const DOC: &str = "docs/RELIABILITY.md";

/// The chaos subcommands and flags are documented in both the doc and
/// the usage text.
#[test]
fn doc_covers_the_chaos_cli() {
    check(DOC, doc_contracts::covers_its_cli);
}

/// The fault counter family and the chaos events are registered with
/// the documented shape and named.
#[test]
fn doc_names_the_chaos_observability_surface() {
    check(DOC, doc_contracts::names_its_observability_surface);
}

/// The chaos and util sources and the document cite the same `INV-`
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

/// The sibling documents and the README route readers to the
/// reliability contract.
#[test]
fn sibling_docs_link_to_the_reliability_contract() {
    check(DOC, doc_contracts::is_linked_from_its_siblings);
}
