//! Observability: solver-phase tracing, query spans, the flight
//! recorder, SLO burn rates and engine metrics.
//!
//! The paper's central claim — integrated solvers win by *conserving flow
//! across binary-search probes* — is invisible in end-of-run counters
//! alone. This module makes the probe timeline, per-query causal
//! timeline, per-phase work and tail latency first-class:
//!
//! * [`trace`] — a lightweight typed event tracer and the one event
//!   path. Solvers, sessions and the engine emit [`trace::TraceEvent`]s
//!   through the [`trace::Tracer`] embedded in every
//!   [`crate::workspace::Workspace`]. Every emit is counted by
//!   [`trace::EventKind`] (read with
//!   [`crate::workspace::Workspace::trace_counts`] and
//!   [`crate::engine::Engine::trace_counts`]), recorded on the armed
//!   query span when the kind is span-visible, and retained by the ring
//!   [`trace::Recorder`] when one is installed
//!   ([`crate::workspace::Workspace::install_recorder`]) — an opt-in event
//!   history, not a switch for counting.
//! * [`span`] — per-query causal timelines. The serving loop mints a
//!   [`span::QuerySpan`] at admission; the span channel inside the tracer
//!   records coarse events (solve starts, probe ends, cache hits,
//!   rebuilds, delta patches and fallbacks, refine passes, budget expiry,
//!   faults) on the active span, and the drain adds its lifecycle marks,
//!   so every resolved or rejected submission yields a complete
//!   admission→reply (or admission→rejection) timeline. A phase's kind is
//!   its event's [`trace::EventKind`], so spans and trace counts cannot
//!   disagree.
//! * [`recorder`] — the always-on [`recorder::FlightRecorder`]: a bounded
//!   per-shard ring of finished spans with trigger-based retention
//!   (deadline misses, shed/failed/budget-expired/degraded spans keep
//!   their full timelines; healthy spans are head-sampled) and recycled
//!   span shells, snapshot via
//!   [`crate::engine::Engine::postmortem`].
//! * [`slo`] — per-priority-class latency/availability objectives
//!   ([`slo::SloPolicy`] on [`crate::spec::SolverSpec`]) with
//!   multi-window error-budget burn rates surfaced through
//!   [`crate::serve::ServeStats`] and `rds_slo_*` metrics.
//! * [`export`] — Chrome `trace_event` JSON and a human-readable
//!   `statusz` text dump for span snapshots.
//! * [`metrics`] — monotonic counters, gauges and fixed-bucket (log2)
//!   latency histograms, with optional `{label="value"}` series and
//!   `# HELP` text, assembled into a [`metrics::MetricsRegistry`] that
//!   snapshots to plain structs and exports as Prometheus text or
//!   JSON. The batch [`crate::engine::Engine`] feeds per-query solve
//!   times, probes-per-solve and queue→completion times into histograms
//!   and surfaces p50/p95/p99 through
//!   [`crate::engine::Engine::metrics_snapshot`].
//!
//! ## Overhead contract
//!
//! * No recorder installed (the default): [`trace::Tracer::emit`] costs
//!   one counter increment plus two `Option` branches per event — the
//!   span channel's while no span is armed (the serving loop arms spans
//!   only around its own queries) and the recorder's. No allocation, no
//!   atomic.
//! * Recorder installed: additionally one in-place ring write per event;
//!   the [`trace::Recorder`] never allocates after construction (old
//!   events are overwritten; the tracer's per-kind counts stay exact).
//! * Span armed: span-visible (coarse) events additionally cost one
//!   clock read and one bounded push into a pre-allocated buffer; hot
//!   per-operation events (augments, relabel passes, capacity
//!   increments) never reach a span. The [`recorder::FlightRecorder`]
//!   recycles span shells, so the serving hot path performs zero span
//!   allocations in steady state, and spans only observe — solve
//!   results are bit-identical with spans on or off.

pub mod export;
pub mod metrics;
pub mod recorder;
pub mod slo;
pub mod span;
pub mod trace;
