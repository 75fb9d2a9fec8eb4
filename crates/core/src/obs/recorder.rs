//! Always-on flight recorder for finished query spans.
//!
//! Each engine shard owns a [`FlightRecorder`]: a bounded ring of
//! retained [`QuerySpan`]s with **trigger-based retention**. Spans that
//! ended badly — deadline miss, expired anytime budget, degraded serve,
//! typed failure, contained panic, rejection — always keep their full
//! timeline; healthy spans are head-sampled (the first
//! [`FlightRecorderConfig::healthy_head`] are kept, the rest recycled)
//! so a long healthy run costs nothing but the ring itself.
//!
//! Span shells circulate between the ring and a free list: a retired
//! span that is not retained (or that the full ring evicts) goes back to
//! the free list with its phase buffer intact, and the next
//! [`FlightRecorder::checkout`] reuses it. After warm-up the serve hot
//! path therefore performs **zero** span allocations —
//! [`FlightRecorder::allocation_events`] counts every fresh shell the
//! same way `GraphArena::allocation_events` pins the solver arena
//! contract, and a regression test holds it flat across serve runs.
//!
//! [`Engine::postmortem`](crate::engine::Engine::postmortem) snapshots
//! every shard's recorder (plus the admission-rejection log) into a
//! [`Postmortem`] for export.

use crate::obs::span::QuerySpan;
use std::collections::VecDeque;

/// Retention knobs for one [`FlightRecorder`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlightRecorderConfig {
    /// Maximum retained spans; the oldest is evicted (and its shell
    /// recycled) when a newly retained span overflows the ring.
    pub capacity: usize,
    /// Healthy (non-triggered) spans retained from the start of the run
    /// before head-sampling kicks in and healthy spans are recycled
    /// without retention.
    pub healthy_head: usize,
    /// Phase-buffer capacity pre-allocated per span shell; phases past
    /// this count are dropped (counted), never reallocated.
    pub max_phases: usize,
}

impl Default for FlightRecorderConfig {
    fn default() -> FlightRecorderConfig {
        FlightRecorderConfig {
            capacity: 128,
            healthy_head: 32,
            max_phases: 64,
        }
    }
}

/// Counters describing a recorder's retention behaviour, mergeable
/// across shards.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecorderStats {
    /// Spans retained in the ring (triggered or head-sampled).
    pub retained: u64,
    /// Retained spans later evicted by ring overflow.
    pub evicted: u64,
    /// Healthy spans recycled without retention (past the head sample).
    pub recycled: u64,
    /// Phases dropped because a span's bounded buffer was full.
    pub dropped_phases: u64,
    /// Fresh span shells allocated (checkouts the free list could not
    /// serve). Flat in steady state.
    pub allocation_events: u64,
}

impl RecorderStats {
    /// Adds another recorder's counters into this one.
    pub fn merge(&mut self, other: &RecorderStats) {
        self.retained += other.retained;
        self.evicted += other.evicted;
        self.recycled += other.recycled;
        self.dropped_phases += other.dropped_phases;
        self.allocation_events += other.allocation_events;
    }
}

/// Bounded ring of finished spans with trigger-based retention and
/// shell recycling. See the module docs.
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    config: FlightRecorderConfig,
    ring: VecDeque<QuerySpan>,
    free: Vec<QuerySpan>,
    healthy_seen: u64,
    stats: RecorderStats,
}

impl Default for FlightRecorder {
    fn default() -> FlightRecorder {
        FlightRecorder::new(FlightRecorderConfig::default())
    }
}

impl FlightRecorder {
    /// A recorder with the given retention knobs.
    pub fn new(config: FlightRecorderConfig) -> FlightRecorder {
        FlightRecorder {
            config,
            ring: VecDeque::with_capacity(config.capacity),
            free: Vec::new(),
            healthy_seen: 0,
            stats: RecorderStats::default(),
        }
    }

    /// The retention knobs.
    pub fn config(&self) -> FlightRecorderConfig {
        self.config
    }

    /// Takes a reset span shell — recycled when the free list has one,
    /// freshly allocated (counted) otherwise.
    pub fn checkout(&mut self) -> QuerySpan {
        match self.free.pop() {
            Some(span) => span,
            None => {
                self.stats.allocation_events += 1;
                QuerySpan::with_capacity(self.config.max_phases)
            }
        }
    }

    /// Retires a finished span: retains it when triggered (or within the
    /// healthy head sample), recycles its shell otherwise. A retained
    /// span that overflows the ring evicts (and recycles) the oldest.
    pub fn retire(&mut self, span: QuerySpan) {
        self.stats.dropped_phases += span.dropped_phases as u64;
        if !span.is_triggered() {
            self.healthy_seen += 1;
            if self.healthy_seen > self.config.healthy_head as u64 {
                self.stats.recycled += 1;
                self.recycle(span);
                return;
            }
        }
        self.stats.retained += 1;
        if self.config.capacity == 0 {
            self.recycle(span);
            return;
        }
        if self.ring.len() >= self.config.capacity {
            if let Some(old) = self.ring.pop_front() {
                self.stats.evicted += 1;
                self.recycle(old);
            }
        }
        self.ring.push_back(span);
    }

    fn recycle(&mut self, mut span: QuerySpan) {
        span.reset();
        if self.free.len() <= self.config.capacity {
            self.free.push(span);
        }
    }

    /// Retained spans, oldest first.
    pub fn spans(&self) -> impl Iterator<Item = &QuerySpan> {
        self.ring.iter()
    }

    /// Number of retained spans.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Retention counters.
    pub fn stats(&self) -> RecorderStats {
        self.stats
    }

    /// Fresh span shells ever allocated — the steady-state zero-alloc
    /// contract counter.
    pub fn allocation_events(&self) -> u64 {
        self.stats.allocation_events
    }

    /// Drops retained spans and resets counters; the free list (and its
    /// pre-allocated shells) is kept so steady state survives a clear.
    pub fn clear(&mut self) {
        while let Some(span) = self.ring.pop_front() {
            self.recycle(span);
        }
        self.healthy_seen = 0;
        self.stats = RecorderStats {
            allocation_events: self.stats.allocation_events,
            ..RecorderStats::default()
        };
    }
}

/// A point-in-time snapshot of every retained span, produced by
/// [`Engine::postmortem`](crate::engine::Engine::postmortem).
///
/// Export with [`Postmortem::to_chrome_trace`] (load the JSON into
/// `chrome://tracing` / Perfetto) or [`Postmortem::to_statusz`] (plain
/// text, one indented timeline per span); both live in
/// [`crate::obs::export`].
#[derive(Clone, Debug, Default)]
pub struct Postmortem {
    /// Served spans from every shard's recorder, ordered by shard then
    /// age.
    pub spans: Vec<QuerySpan>,
    /// Admission-rejection spans (no ticket, no shard).
    pub rejections: Vec<QuerySpan>,
    /// Merged retention counters across all recorders.
    pub stats: RecorderStats,
}

impl Postmortem {
    /// Served and rejected spans chained, served first.
    pub fn all_spans(&self) -> impl Iterator<Item = &QuerySpan> {
        self.spans.iter().chain(self.rejections.iter())
    }

    /// Spans retained because they ended badly (deadline miss, budget
    /// expiry, degraded serve, failure or rejection).
    pub fn triggered(&self) -> impl Iterator<Item = &QuerySpan> {
        self.all_spans().filter(|s| s.is_triggered())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::span::SpanOutcome;
    use crate::obs::trace::EventKind;

    fn healthy(r: &mut FlightRecorder) -> QuerySpan {
        let mut s = r.checkout();
        s.outcome = SpanOutcome::Resolved;
        s.record(EventKind::Reply, 0, 0, 0);
        s
    }

    #[test]
    fn triggered_spans_survive_head_sampling() {
        let mut r = FlightRecorder::new(FlightRecorderConfig {
            capacity: 8,
            healthy_head: 2,
            max_phases: 4,
        });
        for _ in 0..5 {
            let s = healthy(&mut r);
            r.retire(s);
        }
        // Head sample keeps 2 healthy spans, 3 are recycled.
        assert_eq!(r.len(), 2);
        assert_eq!(r.stats().recycled, 3);
        let mut bad = r.checkout();
        bad.outcome = SpanOutcome::Failed;
        r.retire(bad);
        assert_eq!(r.len(), 3);
        assert!(r.spans().any(|s| s.is_triggered()));
    }

    #[test]
    fn ring_overflow_evicts_oldest_and_recycles_shells() {
        let mut r = FlightRecorder::new(FlightRecorderConfig {
            capacity: 2,
            healthy_head: 0,
            max_phases: 4,
        });
        for i in 0..4 {
            let mut s = r.checkout();
            s.outcome = SpanOutcome::Failed;
            s.id = crate::obs::span::SpanId(i);
            r.retire(s);
        }
        assert_eq!(r.len(), 2);
        assert_eq!(r.stats().evicted, 2);
        let ids: Vec<u64> = r.spans().map(|s| s.id.0).collect();
        assert_eq!(ids, vec![2, 3]);
    }

    #[test]
    fn steady_state_checkout_never_allocates() {
        let mut r = FlightRecorder::new(FlightRecorderConfig {
            capacity: 4,
            healthy_head: 0,
            max_phases: 8,
        });
        // One span in flight at a time, all healthy past the (empty)
        // head sample: exactly one shell is ever allocated.
        for _ in 0..100 {
            let s = healthy(&mut r);
            r.retire(s);
        }
        assert_eq!(r.allocation_events(), 1);
        assert_eq!(r.stats().recycled, 100);
    }
}
