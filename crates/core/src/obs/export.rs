//! Structured span export: Chrome `trace_event` JSON and a
//! human-readable `statusz` text dump.
//!
//! Both exporters are dependency-free string builders over a
//! [`Postmortem`] snapshot, the span-level counterpart of the metric
//! exporters in [`crate::obs::metrics`]:
//!
//! * [`Postmortem::to_chrome_trace`] emits the JSON object format of the
//!   Chrome Trace Event spec (`{"traceEvents": [...]}`): one complete
//!   (`"ph":"X"`) event per span — `pid` = shard, `tid` = stream, so the
//!   viewer lays shards out as processes and streams as threads — plus
//!   one instant (`"ph":"i"`) event per recorded phase. Load the file in
//!   `chrome://tracing` or Perfetto.
//! * [`Postmortem::to_statusz`] renders the plain-text status page:
//!   a retention summary followed by one indented timeline per span,
//!   worst spans first readable straight off a terminal.

use crate::obs::recorder::Postmortem;
use crate::obs::span::QuerySpan;
use crate::obs::trace::EventKind;
use crate::serve::PriorityClass;

fn class_name(index: usize) -> &'static str {
    PriorityClass::ALL
        .get(index)
        .map(|c| c.name())
        .unwrap_or("unknown")
}

/// Appends one Chrome trace event object. All string payloads here are
/// static identifiers (phase/solver/class names), so no JSON escaping is
/// needed.
#[allow(clippy::too_many_arguments)]
fn push_event(
    out: &mut String,
    first: &mut bool,
    name: &str,
    ph: &str,
    ts: u64,
    dur: Option<u64>,
    pid: usize,
    tid: usize,
    args: &[(&str, String)],
) {
    if !*first {
        out.push_str(",\n");
    }
    *first = false;
    out.push_str(&format!(
        "    {{\"name\": \"{name}\", \"cat\": \"rds\", \"ph\": \"{ph}\", \"ts\": {ts}"
    ));
    if let Some(dur) = dur {
        out.push_str(&format!(", \"dur\": {dur}"));
    }
    out.push_str(&format!(", \"pid\": {pid}, \"tid\": {tid}"));
    if ph == "i" {
        out.push_str(", \"s\": \"t\"");
    }
    if !args.is_empty() {
        out.push_str(", \"args\": {");
        for (i, (k, v)) in args.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{k}\": {v}"));
        }
        out.push('}');
    }
    out.push('}');
}

fn span_events(out: &mut String, first: &mut bool, span: &QuerySpan) {
    // Anchor the span on its arrival time; phase instants offset from it
    // by their wall-clock capture offsets so intra-span ordering is
    // visible even under the virtual clock (where arrival steps are the
    // meaningful axis and offsets are sub-microsecond).
    let ts = span.arrival.0;
    let dur = span.turnaround_us.max(1);
    let args = [
        ("ticket", span.id.0.to_string()),
        ("class", format!("\"{}\"", class_name(span.class))),
        ("outcome", format!("\"{}\"", span.outcome.name())),
        ("solver", format!("\"{}\"", span.solver)),
        ("delta", (span.delta as u64).to_string()),
        ("queued_us", span.queued_us.to_string()),
        ("deadline_missed", (span.deadline_missed as u64).to_string()),
        ("anytime_gap_us", span.anytime_gap.0.to_string()),
    ];
    push_event(
        out,
        first,
        span.outcome.name(),
        "X",
        ts,
        Some(dur),
        span.shard,
        span.stream,
        &args,
    );
    for p in span.phases() {
        let args = [("a", p.a.to_string()), ("b", p.b.to_string())];
        push_event(
            out,
            first,
            p.kind.name(),
            "i",
            ts + p.t_us,
            None,
            span.shard,
            span.stream,
            &args,
        );
    }
}

impl Postmortem {
    /// Renders the snapshot in Chrome Trace Event JSON (object format).
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::from("{\n  \"traceEvents\": [\n");
        let mut first = true;
        for span in self.all_spans() {
            span_events(&mut out, &mut first, span);
        }
        out.push_str("\n  ],\n  \"displayTimeUnit\": \"ms\"\n}\n");
        out
    }

    /// Renders the snapshot as a human-readable status page: retention
    /// summary, then one indented timeline per span (triggered spans
    /// first).
    pub fn to_statusz(&self) -> String {
        let mut out = String::new();
        out.push_str("=== flight recorder ===\n");
        out.push_str(&format!(
            "retained {} (served {}, rejected {})  evicted {}  healthy_recycled {}  dropped_phases {}  shell_allocations {}\n",
            self.spans.len() + self.rejections.len(),
            self.spans.len(),
            self.rejections.len(),
            self.stats.evicted,
            self.stats.recycled,
            self.stats.dropped_phases,
            self.stats.allocation_events,
        ));
        let mut ordered: Vec<&QuerySpan> = self.all_spans().collect();
        ordered.sort_by_key(|s| (!s.is_triggered(), s.arrival, s.id));
        for span in ordered {
            out.push('\n');
            statusz_span(&mut out, span);
        }
        out
    }
}

fn statusz_span(out: &mut String, span: &QuerySpan) {
    let mut flags = String::new();
    if span.deadline_missed {
        flags.push_str(" DEADLINE-MISSED");
    }
    if span.budget_expired {
        flags.push_str(" BUDGET-EXPIRED");
    }
    if span.degraded {
        flags.push_str(" DEGRADED");
    }
    out.push_str(&format!(
        "span ticket={} stream={} shard={} class={} outcome={}{}\n",
        span.id.0,
        span.stream,
        span.shard,
        class_name(span.class),
        span.outcome.name(),
        flags,
    ));
    out.push_str(&format!(
        "  arrival={}us completion={}us turnaround={}us queued={}us solver={}{}\n",
        span.arrival.0,
        span.completion.0,
        span.turnaround_us,
        span.queued_us,
        if span.solver.is_empty() {
            "-"
        } else {
            span.solver
        },
        if span.delta { " (delta resume)" } else { "" },
    ));
    if span.anytime_gap > rds_storage::time::Micros::ZERO {
        out.push_str(&format!("  anytime_gap={}us\n", span.anytime_gap.0));
    }
    for p in span.phases() {
        out.push_str(&format!(
            "  +{:>8}us  {:<18} {}\n",
            p.t_us,
            p.kind.name(),
            phase_detail(p.kind, p.a, p.b),
        ));
    }
    if span.dropped_phases > 0 {
        out.push_str(&format!(
            "  ... {} more phases dropped (bounded buffer)\n",
            span.dropped_phases
        ));
    }
}

/// Human reading of a phase's attribute slots.
fn phase_detail(kind: EventKind, a: u64, b: u64) -> String {
    match kind {
        EventKind::Admitted => format!("arrival={a}us class={}", class_name(b as usize)),
        EventKind::Coalesced => format!("batch={a} queued={b}us"),
        EventKind::SolveStart => format!("query_size={a} delta={}", b != 0),
        EventKind::CacheHit | EventKind::HealthTransition => format!("fingerprint={a:#018x}"),
        EventKind::DeltaPatch => format!("changed={a} cancelled={b}"),
        EventKind::DeltaFallback => format!("solver_declined={}", a != 0),
        EventKind::Rebuild => String::new(),
        EventKind::ProbeEnd => format!("budget={a}us feasible={}", b != 0),
        EventKind::RefinePass => format!("cycles={a} moved={b}"),
        EventKind::BudgetExpired => format!("achieved={a}us lower_bound={b}us"),
        EventKind::DegradedServe => format!("served={a} dropped={b}"),
        EventKind::RetryScheduled => format!("attempt={a} probe={b}us"),
        EventKind::Reply => format!("deadline_missed={}", a != 0),
        EventKind::Rejected => format!(
            "reason={}",
            crate::obs::span::RejectReason::ALL
                .get(a as usize)
                .map(|r| r.name())
                .unwrap_or("unknown")
        ),
        EventKind::Failed => format!("panic={}", a != 0),
        EventKind::PlaneCheckout => format!("shared={}", a != 0),
        _ => format!("a={a} b={b}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::span::{RejectReason, SpanId, SpanOutcome};
    use rds_storage::time::Micros;

    fn sample() -> Postmortem {
        let mut served = QuerySpan::with_capacity(8);
        served.id = SpanId(3);
        served.stream = 1;
        served.shard = 0;
        served.class = PriorityClass::Interactive as usize;
        served.arrival = Micros(1_000);
        served.completion = Micros(7_100);
        served.turnaround_us = 6_100;
        served.solver = "PR-binary";
        served.outcome = SpanOutcome::Resolved;
        served.deadline_missed = true;
        served.record(EventKind::Admitted, 0, 1_000, 0);
        served.record(EventKind::SolveStart, 2, 6, 0);
        served.record(EventKind::ProbeEnd, 5, 500, 1);
        served.record(EventKind::Reply, 9, 1, 0);
        let mut rejected = QuerySpan::with_capacity(4);
        rejected.class = PriorityClass::Batch as usize;
        rejected.outcome = SpanOutcome::Rejected(RejectReason::ShedLowPriority);
        rejected.record(EventKind::Admitted, 0, 0, 2);
        rejected.record(
            EventKind::Rejected,
            0,
            RejectReason::ShedLowPriority as u64,
            0,
        );
        Postmortem {
            spans: vec![served],
            rejections: vec![rejected],
            ..Postmortem::default()
        }
    }

    /// `sample()` in Chrome trace format: one complete event per span plus
    /// one instant per phase.
    const SAMPLE_TRACE: &str = r#"{
  "traceEvents": [
    {"name": "resolved", "cat": "rds", "ph": "X", "ts": 1000, "dur": 6100, "pid": 0, "tid": 1, "args": {"ticket": 3, "class": "interactive", "outcome": "resolved", "solver": "PR-binary", "delta": 0, "queued_us": 0, "deadline_missed": 1, "anytime_gap_us": 0}},
    {"name": "admitted", "cat": "rds", "ph": "i", "ts": 1000, "pid": 0, "tid": 1, "s": "t", "args": {"a": 1000, "b": 0}},
    {"name": "solve_start", "cat": "rds", "ph": "i", "ts": 1002, "pid": 0, "tid": 1, "s": "t", "args": {"a": 6, "b": 0}},
    {"name": "probe_end", "cat": "rds", "ph": "i", "ts": 1005, "pid": 0, "tid": 1, "s": "t", "args": {"a": 500, "b": 1}},
    {"name": "reply", "cat": "rds", "ph": "i", "ts": 1009, "pid": 0, "tid": 1, "s": "t", "args": {"a": 1, "b": 0}},
    {"name": "rejected", "cat": "rds", "ph": "X", "ts": 0, "dur": 1, "pid": 0, "tid": 0, "args": {"ticket": 0, "class": "batch", "outcome": "rejected", "solver": "", "delta": 0, "queued_us": 0, "deadline_missed": 0, "anytime_gap_us": 0}},
    {"name": "admitted", "cat": "rds", "ph": "i", "ts": 0, "pid": 0, "tid": 0, "s": "t", "args": {"a": 0, "b": 2}},
    {"name": "rejected", "cat": "rds", "ph": "i", "ts": 0, "pid": 0, "tid": 0, "s": "t", "args": {"a": 2, "b": 0}}
  ],
  "displayTimeUnit": "ms"
}
"#;

    #[test]
    fn chrome_trace_matches_pinned_text() {
        assert_eq!(sample().to_chrome_trace(), SAMPLE_TRACE);
    }

    #[test]
    fn statusz_orders_triggered_spans_first() {
        let mut pm = sample();
        pm.spans[0].deadline_missed = false; // now healthy
        let text = pm.to_statusz();
        let healthy_at = text.find("outcome=resolved").unwrap();
        let rejected_at = text.find("outcome=rejected").unwrap();
        assert!(rejected_at < healthy_at, "triggered span listed first");
        assert!(text.contains("reason=shed_low_priority"));
        assert!(text.contains("feasible=true"));
    }
}
