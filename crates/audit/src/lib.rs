//! # aceso-audit — whole-system static verification for the Aceso stack
//!
//! Six analyzers prove, over a deterministic corpus of (model zoo ×
//! cluster preset × configuration) samples, that the moving parts the
//! search and the serve daemon rely on are sound:
//!
//! 1. **Signature conformance** ([`signature`]): every primitive's
//!    observed effect on (compute, communication, memory) respects its
//!    declared Table-1 arrows.
//! 2. **Transform validity** ([`transforms`]): every `generate_with`
//!    candidate passes full validation, conserves GPUs, and is a real,
//!    unique move.
//! 3. **Perf-model consistency** ([`perf_check`]): stage-local estimates
//!    reassemble into the full estimate; all Eq. 1/Eq. 2 roll-up
//!    identities hold.
//! 4. **Search-trace replay** ([`trace_replay`]): monotone best score,
//!    hop-depth bounds, no duplicate acceptances, and every accepted
//!    configuration re-validates.
//! 5. **Plan safety** ([`plan_safety`]): the closed-form Eq. 1 peak
//!    bound is recomputed independently, proven ≥ the simulator's
//!    measured peak under both schedules, and device assignment plus
//!    stage-boundary resharding are checked for legality.
//! 6. **Protocol state machine** ([`protocol`]): the serve session
//!    protocol is explored exhaustively under a bounded crash/resubmit
//!    adversary — no reachable interleaving emits an out-of-order
//!    frame, double-delivers a result, or leaks a spool on a clean path.
//!
//! Every analyzer carries a **mutation gate** ([`Mutation`]): a seeded
//! bug injection that must be caught, proving the check is live. The
//! entry point is [`run`]; the `aceso audit` subcommand and the bench
//! `audit` binary are thin wrappers over it.

#![deny(missing_docs)]

pub mod corpus;
pub mod perf_check;
pub mod plan_safety;
pub mod protocol;
pub mod report;
pub mod signature;
pub mod trace_replay;
pub mod transforms;

pub use corpus::{corpus, CorpusSample};
pub use report::{AuditFinding, AuditReport, Severity};

/// Seeded bug injections for the mutation gates: each analyzer family
/// must catch "its" mutation with a non-zero exit and a typed finding,
/// proving the corresponding check is not vacuous.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Off-by-one in the plan-safety analyzer's Eq. 1 in-flight count
    /// (caught by `PLAN-EQ1`).
    MemBound,
    /// The protocol model emits the result before the final event
    /// (caught by `PROTO-FRAME`).
    ReorderFrame,
}

impl Mutation {
    /// Every defined mutation.
    pub const ALL: [Mutation; 2] = [Mutation::MemBound, Mutation::ReorderFrame];

    /// Stable CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Mutation::MemBound => "mem-bound",
            Mutation::ReorderFrame => "reorder-frame",
        }
    }

    /// Parses a CLI name.
    pub fn parse(s: &str) -> Option<Self> {
        Mutation::ALL.into_iter().find(|m| m.name() == s)
    }

    /// The finding rule this mutation must trigger.
    pub fn expected_rule(self) -> &'static str {
        match self {
            Mutation::MemBound => "PLAN-EQ1",
            Mutation::ReorderFrame => "PROTO-FRAME",
        }
    }
}

/// Audit configuration.
#[derive(Debug, Clone, Copy)]
pub struct AuditOptions {
    /// Audit only a small custom model (CI smoke mode) instead of the
    /// full model zoo.
    pub smoke: bool,
    /// Relative tolerance for floating-point comparisons.
    pub epsilon: f64,
    /// Run the whole-system analyzers (plan safety, protocol state
    /// machine) in addition to the original four. Smoke mode
    /// always includes them at reduced depth.
    pub full: bool,
    /// Seeded bug injection for the mutation gates.
    pub mutation: Option<Mutation>,
}

impl Default for AuditOptions {
    fn default() -> Self {
        Self {
            smoke: false,
            epsilon: 1e-9,
            full: false,
            mutation: None,
        }
    }
}

/// Runs one analyzer pass over one corpus sample.
pub fn audit_sample(sample: &CorpusSample, opts: &AuditOptions, report: &mut AuditReport) {
    report.samples += 1;
    report.configs_checked += sample.configs.len();
    signature::audit_signatures(sample, opts.epsilon, report);
    transforms::audit_transforms(sample, report);
    perf_check::audit_perf_model(sample, opts.epsilon, report);
    trace_replay::audit_search(sample, opts.smoke, opts.epsilon, report);
    if opts.full || opts.smoke {
        plan_safety::audit_plan_safety(sample, opts.smoke, opts.mutation, report);
    }
}

/// Runs the analyzers over the full corpus and merges the findings.
///
/// The corpus-independent protocol analyzer runs once per invocation,
/// after the corpus sweep; it is part of `--full` and smoke runs only,
/// so the default fast path is unchanged.
pub fn run(opts: &AuditOptions) -> AuditReport {
    let mut report = AuditReport::default();
    for sample in corpus(opts.smoke) {
        audit_sample(&sample, opts, &mut report);
    }
    if opts.full || opts.smoke {
        let params = if opts.smoke {
            protocol::ProtocolParams::smoke()
        } else {
            protocol::ProtocolParams::full()
        };
        protocol::audit_protocol(&params, opts.mutation, &mut report);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_audit_is_clean() {
        let report = run(&AuditOptions {
            smoke: true,
            ..AuditOptions::default()
        });
        assert!(report.samples >= 2);
        assert!(report.configs_checked >= 2);
        assert!(report.checks_run > 0);
        assert!(
            report.clean(),
            "smoke audit found violations:\n{}",
            report.render()
        );
    }

    #[test]
    fn every_mutation_is_caught_by_its_rule() {
        for m in Mutation::ALL {
            let report = run(&AuditOptions {
                smoke: true,
                mutation: Some(m),
                ..AuditOptions::default()
            });
            assert!(!report.clean(), "mutation {} slipped through", m.name());
            assert!(
                report.findings.iter().any(|f| f.rule == m.expected_rule()),
                "mutation {} expected rule {}:\n{}",
                m.name(),
                m.expected_rule(),
                report.render()
            );
        }
    }

    #[test]
    fn mutation_names_round_trip() {
        for m in Mutation::ALL {
            assert_eq!(Mutation::parse(m.name()), Some(m));
        }
        assert_eq!(Mutation::parse("nope"), None);
    }
}
