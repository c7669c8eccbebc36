//! Analyzer 6: serve wire-protocol state-machine checking.
//!
//! The serve daemon's session protocol (`aceso_serve::proto`) promises
//! three things to a client: frames arrive in a legal order (statuses,
//! then a contiguous event stream, then exactly one result), no spool
//! file survives a clean completion, and no resumed session starts
//! behind the persisted spool slot. This
//! analyzer models the protocol as an explicit state machine — the
//! emission program of `run_spooled` (status → status → spool writes →
//! events → result → spool delete) plus an adversary that may crash the
//! daemon at any frame boundary and resubmit — and exhaustively
//! enumerates every reachable interleaving up to a bounded crash budget.
//!
//! Rules:
//!
//! * `PROTO-FRAME` — some session emission order violates the client's
//!   acceptance automaton (status after an event, a gap in the event
//!   stream, a result before the final event, or any frame after the
//!   result).
//! * `PROTO-RESULT` — a reachable interaction delivers zero results on a
//!   completed path, or more than one result anywhere.
//! * `PROTO-SPOOL` — a spool file survives a *clean* completion, or a
//!   checkpoint regresses (a resumed session restarts behind the
//!   persisted spool slot). Crash-abandoned spools are expected — they
//!   are exactly what the serve daemon's TTL sweeper reclaims.
//!
//! The model is deterministic, so the reachable-state count is a stable
//! fingerprint of the protocol; a golden test pins it and any protocol
//! change that widens or narrows the reachable space shows up as a diff.

use crate::report::{AuditFinding, AuditReport, Severity};
use crate::Mutation;
use std::collections::BTreeSet;

/// Bounds of the protocol exploration.
#[derive(Debug, Clone, Copy)]
pub struct ProtocolParams {
    /// Spool checkpoint slots a full search writes.
    pub spool_slots: u8,
    /// Progress events a full search emits.
    pub events: u8,
    /// Adversarial crash/resubmit budget.
    pub crashes: u8,
}

impl ProtocolParams {
    /// Reduced bounds for the CI smoke run.
    pub fn smoke() -> Self {
        Self {
            spool_slots: 2,
            events: 3,
            crashes: 1,
        }
    }

    /// Full bounds (the golden reachable-state count is pinned here).
    pub fn full() -> Self {
        Self {
            spool_slots: 3,
            events: 4,
            crashes: 2,
        }
    }
}

/// One frame of a session's emission program. `SpoolWrite`/`SpoolDelete`
/// are server-side persistence effects; the rest are client-visible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Frame {
    /// A `status` frame (`profiling`, `searching`, ...).
    Status,
    /// Checkpoint slot `s` persisted to the spool directory.
    SpoolWrite(u8),
    /// Progress event with stream index `i`.
    Event(u8),
    /// The final `result` frame.
    Result,
    /// Spool file removed after result delivery.
    SpoolDelete,
}

/// The `run_spooled` emission program for a session resuming from spool
/// progress `s0`. `mutation` seeds the [`Mutation::ReorderFrame`] bug:
/// the result frame is emitted before the final event.
fn build_program(params: &ProtocolParams, s0: u8, mutation: Option<Mutation>) -> Vec<Frame> {
    let mut program = vec![Frame::Status, Frame::Status];
    for s in s0 + 1..=params.spool_slots {
        program.push(Frame::SpoolWrite(s));
    }
    for i in 0..params.events {
        program.push(Frame::Event(i));
    }
    program.push(Frame::Result);
    program.push(Frame::SpoolDelete);
    if mutation == Some(Mutation::ReorderFrame) {
        let result = program
            .iter()
            .position(|f| *f == Frame::Result)
            .expect("program has a result");
        program.swap(result - 1, result);
    }
    program
}

/// How an interaction ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Terminal {
    /// Session still in progress.
    Running,
    /// Program ran to completion.
    Completed,
    /// Crash budget exhausted before a result; client gave up.
    Abandoned,
    /// Crash after the result frame but before the spool delete.
    CrashedAfterResult,
}

/// One explored protocol state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct State {
    /// Highest checkpoint slot persisted in the spool file.
    spool: u8,
    /// Whether a spool file currently exists on disk.
    spool_present: bool,
    /// Position in the current session's emission program.
    pos: u8,
    /// Crashes consumed so far.
    crashes: u8,
    /// Results delivered to the client across the whole interaction.
    results: u8,
    /// Interaction status.
    terminal: Terminal,
}

/// Validates one session program against the client acceptance automaton.
fn check_program(params: &ProtocolParams, s0: u8, program: &[Frame], report: &mut AuditReport) {
    let loc = format!("proto/session(s0={s0})");
    let mk = |message: String| AuditFinding {
        rule: "PROTO-FRAME",
        severity: Severity::Error,
        location: loc.clone(),
        message,
        fingerprint: u64::from(s0),
    };
    let mut next_event = 0u8;
    let mut results = 0u8;
    let mut spool = s0;
    for frame in program {
        report.tick(1);
        if results > 0 && *frame != Frame::SpoolDelete {
            report.push(mk(format!("{frame:?} emitted after the result frame")));
        }
        match frame {
            Frame::Status => {
                if next_event > 0 {
                    report.push(mk("status frame after the event stream began".into()));
                }
            }
            Frame::SpoolWrite(s) => {
                if *s != spool + 1 {
                    report.push(mk(format!("spool write {s} skips past slot {spool}")));
                }
                spool = *s;
            }
            Frame::Event(i) => {
                if *i != next_event {
                    report.push(mk(format!("event {i} arrived, expected {next_event}")));
                }
                next_event = i + 1;
            }
            Frame::Result => {
                if next_event != params.events {
                    report.push(mk(format!(
                        "result after {next_event}/{} events",
                        params.events
                    )));
                }
                results += 1;
            }
            Frame::SpoolDelete => {
                if results == 0 {
                    report.push(mk("spool deleted before the result was delivered".into()));
                }
            }
        }
    }
    report.tick(1);
    if results != 1 {
        report.push(mk(format!("session program delivers {results} results")));
    }
}

/// Exhaustively explores the protocol state machine, pushing findings
/// into `report`, and returns the reachable-state count (the golden
/// fingerprint asserted in tests).
pub fn audit_protocol(
    params: &ProtocolParams,
    mutation: Option<Mutation>,
    report: &mut AuditReport,
) -> usize {
    // Frame-order automaton over every distinct resume point.
    for s0 in 0..=params.spool_slots {
        let program = build_program(params, s0, mutation);
        check_program(params, s0, &program, report);
    }

    // Interleaving exploration: advance vs crash at every frame boundary.
    let mk = |state: &State, rule: &'static str, message: String| AuditFinding {
        rule,
        severity: Severity::Error,
        location: format!(
            "proto/state(spool={}, pos={}, crashes={})",
            state.spool, state.pos, state.crashes
        ),
        message,
        fingerprint: u64::from(state.spool) << 16
            | u64::from(state.pos) << 8
            | u64::from(state.crashes),
    };
    let initial = State {
        spool: 0,
        spool_present: false,
        pos: 0,
        crashes: 0,
        results: 0,
        terminal: Terminal::Running,
    };
    let mut seen: BTreeSet<State> = BTreeSet::new();
    let mut queue = vec![initial];
    seen.insert(initial);
    while let Some(state) = queue.pop() {
        report.tick(1);
        if state.results > 1 {
            report.push(mk(
                &state,
                "PROTO-RESULT",
                format!("{} results delivered on one interaction", state.results),
            ));
            continue;
        }
        match state.terminal {
            Terminal::Completed => {
                if state.results != 1 {
                    report.push(mk(
                        &state,
                        "PROTO-RESULT",
                        format!("clean completion with {} results", state.results),
                    ));
                }
                if state.spool_present {
                    report.push(mk(
                        &state,
                        "PROTO-SPOOL",
                        "spool file survived a clean completion".into(),
                    ));
                }
                continue;
            }
            Terminal::Abandoned => {
                if state.results != 0 {
                    report.push(mk(
                        &state,
                        "PROTO-RESULT",
                        "abandoned interaction delivered a result".into(),
                    ));
                }
                continue;
            }
            Terminal::CrashedAfterResult => {
                // Expected leak window: the TTL sweeper's territory.
                continue;
            }
            Terminal::Running => {}
        }
        let program = build_program(params, state.spool, mutation);
        let mut push = |next: State| {
            if seen.insert(next) {
                queue.push(next);
            }
        };

        // Choice 1: the server emits the next frame.
        if usize::from(state.pos) < program.len() {
            let mut next = state;
            match program[usize::from(state.pos)] {
                Frame::Status | Frame::Event(_) => {}
                Frame::SpoolWrite(s) => {
                    if s <= state.spool && state.spool_present {
                        report.push(mk(
                            &state,
                            "PROTO-SPOOL",
                            format!("checkpoint regressed: write {s} over spool {}", state.spool),
                        ));
                    }
                    next.spool = s;
                    next.spool_present = true;
                }
                Frame::Result => next.results += 1,
                Frame::SpoolDelete => next.spool_present = false,
            }
            next.pos += 1;
            if usize::from(next.pos) == program.len() {
                next.terminal = Terminal::Completed;
                next.pos = 0;
            }
            push(next);
        }

        // Choice 2: the daemon crashes here.
        if state.crashes < params.crashes {
            let mut next = state;
            next.crashes += 1;
            next.pos = 0;
            next.terminal = if state.results > 0 {
                // Client already holds the result; it never resubmits.
                Terminal::CrashedAfterResult
            } else if next.crashes == params.crashes {
                Terminal::Abandoned
            } else {
                Terminal::Running // resubmit: fresh session from the spool
            };
            push(next);
        }
    }
    seen.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_exploration_is_clean() {
        let mut report = AuditReport::default();
        audit_protocol(&ProtocolParams::full(), None, &mut report);
        assert!(report.clean(), "protocol violated:\n{}", report.render());
    }

    #[test]
    fn reachable_state_count_is_pinned() {
        // Golden fingerprint of the protocol model: any change to the
        // emission program or the adversary widens or narrows this.
        let mut report = AuditReport::default();
        let full = audit_protocol(&ProtocolParams::full(), None, &mut report);
        let smoke = audit_protocol(&ProtocolParams::smoke(), None, &mut report);
        assert_eq!(full, 39, "full-mode reachable states drifted");
        assert_eq!(smoke, 12, "smoke-mode reachable states drifted");
        assert!(report.clean(), "{}", report.render());
    }

    #[test]
    fn reorder_frame_mutation_is_caught() {
        let mut report = AuditReport::default();
        audit_protocol(
            &ProtocolParams::full(),
            Some(Mutation::ReorderFrame),
            &mut report,
        );
        assert!(!report.clean(), "mutation must be caught");
        assert!(
            report.findings.iter().any(|f| f.rule == "PROTO-FRAME"),
            "expected a PROTO-FRAME finding:\n{}",
            report.render()
        );
    }

    #[test]
    fn exhausted_crash_budget_leaves_a_reclaimable_spool() {
        // Sanity that the model actually reaches the abandoned-spool
        // terminal the TTL sweeper exists for: with a crash budget the
        // exploration must visit at least one Abandoned state with a
        // spool present, and stay clean doing so.
        let mut report = AuditReport::default();
        let states = audit_protocol(&ProtocolParams::full(), None, &mut report);
        assert!(states > 30);
        assert!(report.clean());
    }
}
