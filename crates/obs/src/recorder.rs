//! Thread-scoped recording of events and metrics.
//!
//! A [`Recorder`] is deliberately *not* shared between threads: the
//! parallel stage-count search creates one per spawned thread, records
//! without any synchronisation, and the parent merges the recorders in
//! deterministic order after join (see [`crate::ObsReport::absorb`]).
//! The type is `Send` (so it can cross the `std::thread::scope` join
//! boundary) but not `Sync` — `RefCell` interior mutability lets
//! instrumented code record through a shared `&Recorder` without
//! `&mut` plumbing.

use crate::event::Event;
use crate::metrics::{Counter, Family, HistKind, Metrics};
use std::cell::RefCell;

/// A single-threaded event + metric recorder.
///
/// A disabled recorder ([`Recorder::disabled`]) never constructs event
/// payloads — [`Recorder::emit`] takes a closure that is only invoked
/// when recording is on — and every metric call reduces to one branch
/// on a plain bool.
#[derive(Debug, Default)]
pub struct Recorder {
    enabled: bool,
    events: RefCell<Vec<Event>>,
    metrics: RefCell<Metrics>,
}

impl Recorder {
    /// Creates a recorder; when `enabled` is false every recording call
    /// is a no-op.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            events: RefCell::new(Vec::new()),
            metrics: RefCell::new(Metrics::default()),
        }
    }

    /// A recorder that records nothing.
    pub fn disabled() -> Self {
        Self::new(false)
    }

    /// An enabled recorder pre-loaded with previously recorded events
    /// and metrics; later records append to them.
    pub fn from_parts(events: Vec<Event>, metrics: Metrics) -> Self {
        Self {
            enabled: true,
            events: RefCell::new(events),
            metrics: RefCell::new(metrics),
        }
    }

    /// Whether this recorder is recording.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records the event built by `f`; `f` is not called when disabled.
    #[inline]
    pub fn emit(&self, f: impl FnOnce() -> Event) {
        if self.enabled {
            self.events.borrow_mut().push(f());
        }
    }

    /// Increments a counter by one.
    #[inline]
    pub fn count(&self, c: Counter) {
        self.add(c, 1);
    }

    /// Adds `n` to a counter.
    #[inline]
    pub fn add(&self, c: Counter, n: u64) {
        if self.enabled {
            self.metrics.borrow_mut().add(c, n);
        }
    }

    /// Adds `n` to `key` of a keyed counter family.
    #[inline]
    pub fn count_keyed(&self, f: Family, key: &'static str, n: u64) {
        if self.enabled {
            self.metrics.borrow_mut().add_keyed(f, key, n);
        }
    }

    /// Records a histogram observation.
    #[inline]
    pub fn observe(&self, h: HistKind, v: f64) {
        if self.enabled {
            self.metrics.borrow_mut().observe(h, v);
        }
    }

    /// Consumes the recorder, returning everything it recorded.
    pub fn into_parts(self) -> (Vec<Event>, Metrics) {
        (self.events.into_inner(), self.metrics.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enabled_recorder_captures_everything() {
        let rec = Recorder::new(true);
        rec.emit(|| Event::Backtrack {
            stage_count: 2,
            fingerprint: 7,
            score: 1.5,
        });
        rec.count(Counter::Backtracks);
        rec.add(Counter::PerfEvaluations, 3);
        rec.count_keyed(Family::PrimitivesApplied, "inc-dp", 2);
        rec.observe(HistKind::HopDepth, 2.0);
        let (events, metrics) = rec.into_parts();
        assert_eq!(events.len(), 1);
        assert_eq!(metrics.counter(Counter::Backtracks), 1);
        assert_eq!(metrics.counter(Counter::PerfEvaluations), 3);
        assert_eq!(metrics.keyed(Family::PrimitivesApplied)["inc-dp"], 2);
        assert_eq!(metrics.histogram(HistKind::HopDepth).count(), 1);
    }

    #[test]
    fn disabled_recorder_skips_payload_construction() {
        let rec = Recorder::disabled();
        rec.emit(|| panic!("payload must not be built when disabled"));
        rec.count(Counter::Backtracks);
        rec.observe(HistKind::ScoreDelta, 0.5);
        let (events, metrics) = rec.into_parts();
        assert!(events.is_empty());
        assert_eq!(metrics, Metrics::default());
    }

    #[test]
    fn recorder_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Recorder>();
    }
}
