//! Counters, gauges and log2 latency histograms with Prometheus/JSON
//! export.
//!
//! Flow-scheduling evaluations (e.g. Jahanjou et al., arXiv:2005.09724)
//! compare schedulers on response-time *distributions*, not means; this
//! module provides the distribution substrate. A [`Histogram`] buckets
//! values by `floor(log2(v))` — 64 fixed buckets covering the whole `u64`
//! range with ≤2x relative error, mergeable across shards by addition,
//! and quantile-queryable without storing samples. A [`MetricsRegistry`]
//! names counters, gauges and histograms, snapshots to plain data, and
//! exports to Prometheus text exposition format and JSON (dependency-free
//! string builders).
//!
//! Everything is plain owned data: no atomics, no globals. The engine
//! merges per-shard histograms after each batch, so recording stays
//! uncontended on the hot path.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Number of log2 buckets: one per possible `floor(log2(v))` for `v ≥ 1`,
/// with `v = 0` sharing bucket 0.
pub const NUM_BUCKETS: usize = 64;

/// Bucket index of a value: 0 for 0 and 1, otherwise `floor(log2(v))`.
/// Bucket `i ≥ 1` therefore covers `[2^i, 2^(i+1))`.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        63 - value.leading_zeros() as usize
    }
}

/// Inclusive upper bound of bucket `i`: `2^(i+1) - 1` (saturating at
/// `u64::MAX` for the last bucket).
#[inline]
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i >= NUM_BUCKETS - 1 {
        u64::MAX
    } else {
        (2u64 << i) - 1
    }
}

/// A fixed-bucket log2 histogram of `u64` samples (typically
/// microseconds).
///
/// Recording is O(1) with no allocation; merging is bucket-wise addition,
/// so shards can record independently and combine afterwards. Quantiles
/// report the inclusive upper bound of the bucket containing the target
/// rank — an overestimate by at most 2x, consistent across merges.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; NUM_BUCKETS],
    count: u64,
    sum: u64,
    /// Smallest sample recorded (`u64::MAX` when empty), used to clamp
    /// quantile estimates: a bucket's upper bound can exceed every sample
    /// in it (e.g. a single sample of 100 lands in bucket [64,128), whose
    /// bound 127 would otherwise be reported as the p50).
    min: u64,
    /// Largest sample recorded (0 when empty), the matching upper clamp.
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: [0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean sample, 0 when empty.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Count in bucket `i`.
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets[i]
    }

    /// Smallest sample recorded, `None` when empty.
    pub fn min_sample(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample recorded, `None` when empty.
    pub fn max_sample(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// `(upper_bound, count)` for every non-empty bucket, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_upper_bound(i), c))
            .collect()
    }

    /// The `q`-quantile (`0.0 ≤ q ≤ 1.0`) as the inclusive upper bound of
    /// the bucket holding the sample of that rank; 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target sample, 1-based: ceil(q * count), at least 1.
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Clamp the bucket bound into the observed sample range:
                // without it the bucket holding the smallest sample would
                // report its upper edge, overstating even the minimum.
                return bucket_upper_bound(i).clamp(self.min, self.max);
            }
        }
        bucket_upper_bound(NUM_BUCKETS - 1).clamp(self.min, self.max)
    }

    /// Adds every bucket of `other` into `self`.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// Zeroes all buckets.
    pub fn clear(&mut self) {
        *self = Histogram::new();
    }

    /// The p50/p95/p99 summary used by
    /// [`crate::engine::Engine::metrics_snapshot`].
    pub fn summary(&self) -> LatencySummary {
        LatencySummary {
            count: self.count,
            mean: self.mean(),
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
        }
    }
}

/// Plain quantile summary of one histogram (units are the histogram's —
/// microseconds for the engine's latency series).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Samples recorded.
    pub count: u64,
    /// Mean sample.
    pub mean: u64,
    /// Median (bucket upper bound).
    pub p50: u64,
    /// 95th percentile (bucket upper bound).
    pub p95: u64,
    /// 99th percentile (bucket upper bound).
    pub p99: u64,
}

/// A named collection of monotonic counters, gauges and histograms.
///
/// Names must match `[a-zA-Z_][a-zA-Z0-9_]*` (Prometheus metric-name
/// rules); this is debug-asserted on insertion. Counters and gauges may
/// additionally carry a label set (`name{k="v",...}`, labels sorted by
/// key — see [`MetricsRegistry::inc_counter_labeled`]); the full series
/// key is stored verbatim. Iteration order is the key order (`BTreeMap`),
/// so exports are deterministic.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    histograms: BTreeMap<String, Histogram>,
    /// `# HELP` text by base metric name (no labels).
    help: BTreeMap<String, String>,
}

fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphabetic() || c == '_')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Validates a series key: a bare metric name, or `name{k="v",...}` with
/// valid label names and values free of `"` and `\`.
fn valid_series(key: &str) -> bool {
    let Some((name, labels)) = key.split_once('{') else {
        return valid_name(key);
    };
    let Some(labels) = labels.strip_suffix('}') else {
        return false;
    };
    valid_name(name)
        && !labels.is_empty()
        && labels.split(',').all(|pair| {
            pair.split_once("=\"").is_some_and(|(k, v)| {
                valid_name(k) && v.ends_with('"') && !v[..v.len() - 1].contains(['"', '\\'])
            })
        })
}

/// The base metric name of a series key (`a{b="c"}` → `a`).
fn base_name(key: &str) -> &str {
    key.split('{').next().unwrap_or(key)
}

/// Builds the canonical series key: labels sorted by label name.
fn series_key(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut sorted: Vec<(&str, &str)> = labels.to_vec();
    sorted.sort_unstable();
    let mut key = String::with_capacity(name.len() + 16 * sorted.len());
    key.push_str(name);
    key.push('{');
    for (i, (k, v)) in sorted.iter().enumerate() {
        if i > 0 {
            key.push(',');
        }
        let _ = write!(key, "{k}=\"{v}\"");
    }
    key.push('}');
    key
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Adds `by` to the counter `name` (created at 0). `name` may be a
    /// bare metric name or a full series key (`name{k="v"}`).
    pub fn inc_counter(&mut self, name: &str, by: u64) {
        debug_assert!(valid_series(name), "invalid metric name {name:?}");
        *self.counters.entry(name.to_string()).or_insert(0) += by;
    }

    /// Adds `by` to the counter `name` with the given label set. Labels
    /// are sorted by name, so `[("a","1"),("b","2")]` and its permutation
    /// address the same series.
    pub fn inc_counter_labeled(&mut self, name: &str, labels: &[(&str, &str)], by: u64) {
        self.inc_counter(&series_key(name, labels), by);
    }

    /// Sets the gauge `name` (bare name or full series key).
    pub fn set_gauge(&mut self, name: &str, value: i64) {
        debug_assert!(valid_series(name), "invalid metric name {name:?}");
        self.gauges.insert(name.to_string(), value);
    }

    /// Sets the gauge `name` with the given label set (sorted by name).
    pub fn set_gauge_labeled(&mut self, name: &str, labels: &[(&str, &str)], value: i64) {
        self.set_gauge(&series_key(name, labels), value);
    }

    /// Sets the `# HELP` text of the base metric `name`. Attached to the
    /// metric's series on Prometheus export; help for a name with no
    /// series is still emitted (as a bare `# HELP` line).
    pub fn set_help(&mut self, name: &str, text: &str) {
        debug_assert!(valid_name(name), "invalid metric name {name:?}");
        self.help.insert(name.to_string(), text.to_string());
    }

    /// The `# HELP` text of `name`, if set.
    pub fn help(&self, name: &str) -> Option<&str> {
        self.help.get(name).map(String::as_str)
    }

    /// The histogram `name`, created empty on first use.
    pub fn histogram_mut(&mut self, name: &str) -> &mut Histogram {
        debug_assert!(valid_name(name), "invalid metric name {name:?}");
        self.histograms.entry(name.to_string()).or_default()
    }

    /// Counter value, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Gauge value, if present.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.get(name).copied()
    }

    /// Labeled counter value, if present (labels in any order).
    pub fn counter_labeled(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        self.counters.get(&series_key(name, labels)).copied()
    }

    /// Labeled gauge value, if present (labels in any order).
    pub fn gauge_labeled(&self, name: &str, labels: &[(&str, &str)]) -> Option<i64> {
        self.gauges.get(&series_key(name, labels)).copied()
    }

    /// Histogram, if present.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Counter names and values, in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Gauge names and values, in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, i64)> {
        self.gauges.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Histogram names and values, in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Renders the registry in Prometheus text exposition format
    /// (version 0.0.4): counters as `<name> <v>` (labeled series grouped
    /// under one `# TYPE` header per base name), gauges likewise,
    /// histograms as cumulative `<name>_bucket{le="..."}` series plus
    /// `_sum` and `_count`. `# HELP` lines precede the `# TYPE` of any
    /// base name given help text via [`MetricsRegistry::set_help`];
    /// help for names with no series is appended at the end.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut helped: Vec<String> = Vec::new();
        let mut header = |out: &mut String, base: &str, ty: &str| {
            if let Some(text) = self.help.get(base) {
                let _ = writeln!(out, "# HELP {base} {text}");
                helped.push(base.to_string());
            }
            let _ = writeln!(out, "# TYPE {base} {ty}");
        };
        // Group labeled series under one header per base name (plain
        // BTreeMap order would interleave `a_b` between `a` and `a{...}`).
        let mut counter_groups: BTreeMap<&str, Vec<(&str, u64)>> = BTreeMap::new();
        for (key, &v) in &self.counters {
            counter_groups
                .entry(base_name(key))
                .or_default()
                .push((key, v));
        }
        for (base, series) in counter_groups {
            header(&mut out, base, "counter");
            for (key, v) in series {
                let _ = writeln!(out, "{key} {v}");
            }
        }
        let mut gauge_groups: BTreeMap<&str, Vec<(&str, i64)>> = BTreeMap::new();
        for (key, &v) in &self.gauges {
            gauge_groups
                .entry(base_name(key))
                .or_default()
                .push((key, v));
        }
        for (base, series) in gauge_groups {
            header(&mut out, base, "gauge");
            for (key, v) in series {
                let _ = writeln!(out, "{key} {v}");
            }
        }
        for (name, h) in &self.histograms {
            header(&mut out, name, "histogram");
            let mut cum = 0u64;
            for (i, &c) in h.buckets.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                cum += c;
                let _ = writeln!(
                    out,
                    "{name}_bucket{{le=\"{}\"}} {cum}",
                    bucket_upper_bound(i)
                );
            }
            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count);
            let _ = writeln!(out, "{name}_sum {}", h.sum);
            let _ = writeln!(out, "{name}_count {}", h.count);
            // min/max exist only once a sample was recorded; the empty
            // sentinel (min = u64::MAX) is never serialized.
            if h.count > 0 {
                let _ = writeln!(out, "{name}_min {}", h.min);
                let _ = writeln!(out, "{name}_max {}", h.max);
            }
        }
        for (name, text) in &self.help {
            if !helped.iter().any(|h| h == name) {
                let _ = writeln!(out, "# HELP {name} {text}");
            }
        }
        out
    }

    /// Renders the registry as a JSON object:
    /// `{"counters": {..}, "gauges": {..}, "histograms": {name:
    /// {"count": n, "sum": s, "buckets": [[index, count], ..]}}}`, plus a
    /// `"help"` section when any `# HELP` text was set. Series keys and
    /// help text have `"` and `\` escaped.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        let mut first = true;
        for (name, v) in &self.counters {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\"{}\":{v}", escape_json(name));
        }
        out.push_str("},\"gauges\":{");
        let mut first = true;
        for (name, v) in &self.gauges {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\"{}\":{v}", escape_json(name));
        }
        out.push_str("},\"histograms\":{");
        let mut first = true;
        for (name, h) in &self.histograms {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\"{name}\":{{\"count\":{},\"sum\":{},", h.count, h.sum);
            if h.count > 0 {
                // Skipped when empty: the min sentinel (u64::MAX) is not
                // a sample.
                let _ = write!(out, "\"min\":{},\"max\":{},", h.min, h.max);
            }
            out.push_str("\"buckets\":[");
            let mut first_b = true;
            for (i, &c) in h.buckets.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                if !first_b {
                    out.push(',');
                }
                first_b = false;
                let _ = write!(out, "[{i},{c}]");
            }
            out.push_str("]}");
        }
        out.push('}');
        if !self.help.is_empty() {
            out.push_str(",\"help\":{");
            let mut first = true;
            for (name, text) in &self.help {
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(out, "\"{}\":\"{}\"", escape_json(name), escape_json(text));
            }
            out.push('}');
        }
        out.push('}');
        out
    }
}

/// Escapes `"` and `\` for embedding in a JSON string literal (the only
/// escapes this module's emitters produce).
fn escape_json(s: &str) -> std::borrow::Cow<'_, str> {
    if !s.contains(['"', '\\']) {
        return std::borrow::Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        if c == '"' || c == '\\' {
            out.push('\\');
        }
        out.push(c);
    }
    std::borrow::Cow::Owned(out)
}

/// Asserts that every counter, every gauge and every histogram's count
/// and sum in `reg` appears with its value in `prom` and `json`, its
/// Prometheus and JSON exports — the check for registries whose timings
/// rule out pinned text.
#[cfg(test)]
pub(crate) fn assert_exported(reg: &MetricsRegistry, prom: &str, json: &str) {
    let lines: Vec<&str> = prom.lines().collect();
    let has_line =
        |line: String| assert!(lines.contains(&line.as_str()), "Prometheus lacks {line}");
    let has_json = |key: &str, value: String| {
        let entry = format!("\"{}\":{value}", escape_json(key));
        assert!(
            [',', '}']
                .iter()
                .any(|end| json.contains(&format!("{entry}{end}"))),
            "JSON lacks {entry}"
        );
    };
    for (key, v) in reg.counters() {
        has_line(format!("{key} {v}"));
        has_json(key, v.to_string());
    }
    for (key, v) in reg.gauges() {
        has_line(format!("{key} {v}"));
        has_json(key, v.to_string());
    }
    for (name, h) in reg.histograms() {
        has_line(format!("{name}_count {}", h.count()));
        has_line(format!("{name}_sum {}", h.sum()));
        has_json(
            name,
            format!("{{\"count\":{},\"sum\":{}", h.count(), h.sum()),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_exact_powers_of_two() {
        // v = 0 and v = 1 share bucket 0; 2^i is the first value of
        // bucket i; 2^(i+1) - 1 the last.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        for i in 1..63 {
            let lo = 1u64 << i;
            assert_eq!(bucket_index(lo), i, "2^{i}");
            assert_eq!(bucket_index(lo - 1), i - 1, "2^{i}-1");
            assert_eq!(bucket_index(2 * lo - 1), i, "2^{}-1", i + 1);
            assert_eq!(bucket_upper_bound(i), 2 * lo - 1);
        }
        assert_eq!(bucket_index(u64::MAX), 63);
        assert_eq!(bucket_upper_bound(63), u64::MAX);
        assert_eq!(bucket_upper_bound(0), 1);
    }

    #[test]
    fn histogram_records_counts_and_means() {
        let mut h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        for v in [1u64, 2, 3, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 106);
        assert_eq!(h.mean(), 26);
        assert_eq!(h.bucket(0), 1); // 1
        assert_eq!(h.bucket(1), 2); // 2, 3
        assert_eq!(h.bucket(6), 1); // 100 in [64,128)
        assert_eq!(h.nonzero_buckets(), vec![(1, 1), (3, 2), (127, 1)]);
    }

    #[test]
    fn quantiles_walk_cumulative_buckets() {
        let mut h = Histogram::new();
        // 90 fast samples (bucket of 100 = [64,128)), 10 slow (bucket of
        // 10_000 = [8192,16384)).
        for _ in 0..90 {
            h.record(100);
        }
        for _ in 0..10 {
            h.record(10_000);
        }
        assert_eq!(h.quantile(0.50), 127);
        assert_eq!(h.quantile(0.90), 127);
        // Upper tail clamps to the largest recorded sample rather than
        // reporting the slow bucket's upper edge (16_383).
        assert_eq!(h.quantile(0.95), 10_000);
        assert_eq!(h.quantile(0.99), 10_000);
        assert_eq!(h.quantile(1.0), 10_000);
        assert_eq!(h.quantile(0.0), 127); // rank clamps to the 1st sample
        let s = h.summary();
        assert_eq!(s.count, 100);
        assert_eq!((s.p50, s.p95, s.p99), (127, 10_000, 10_000));
        assert_eq!(h.min_sample(), Some(100));
        assert_eq!(h.max_sample(), Some(10_000));
    }

    #[test]
    fn quantiles_never_undershoot_the_minimum_sample() {
        // A lone sample of 100 lands in bucket [64,128); every quantile
        // must report the sample itself, not the bucket edge 127.
        let mut h = Histogram::new();
        h.record(100);
        assert_eq!(h.quantile(0.5), 100);
        assert_eq!(h.quantile(1.0), 100);
        assert_eq!(h.summary().p50, 100);
        assert_eq!(Histogram::new().min_sample(), None);
        assert_eq!(Histogram::new().max_sample(), None);
    }

    #[test]
    fn merge_is_bucketwise_addition() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(5);
        b.record(5);
        b.record(1_000);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum(), 1_010);
        assert_eq!(a.bucket(bucket_index(5)), 2);
        assert_eq!(a.bucket(bucket_index(1_000)), 1);
        a.clear();
        assert_eq!(a, Histogram::new());
    }

    #[test]
    fn extreme_values_do_not_overflow() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        h.record(0);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), u64::MAX, "sum saturates");
        assert_eq!(h.bucket(63), 2);
        assert_eq!(h.quantile(0.99), u64::MAX);
    }

    fn sample_registry() -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        reg.inc_counter("rds_queries_total", 42);
        reg.inc_counter("rds_errors_total", 3);
        reg.set_gauge("rds_shards", 4);
        let h = reg.histogram_mut("rds_solve_latency_us");
        for v in [9u64, 11, 80, 1_500, 1_501, 90_000] {
            h.record(v);
        }
        reg
    }

    /// `sample_registry()` in Prometheus text format.
    const SAMPLE_PROMETHEUS: &str = r#"# TYPE rds_errors_total counter
rds_errors_total 3
# TYPE rds_queries_total counter
rds_queries_total 42
# TYPE rds_shards gauge
rds_shards 4
# TYPE rds_solve_latency_us histogram
rds_solve_latency_us_bucket{le="15"} 2
rds_solve_latency_us_bucket{le="127"} 3
rds_solve_latency_us_bucket{le="2047"} 5
rds_solve_latency_us_bucket{le="131071"} 6
rds_solve_latency_us_bucket{le="+Inf"} 6
rds_solve_latency_us_sum 93101
rds_solve_latency_us_count 6
rds_solve_latency_us_min 9
rds_solve_latency_us_max 90000
"#;

    /// `sample_registry()` as JSON.
    const SAMPLE_JSON: &str = r#"{"counters":{"rds_errors_total":3,"rds_queries_total":42},"gauges":{"rds_shards":4},"histograms":{"rds_solve_latency_us":{"count":6,"sum":93101,"min":9,"max":90000,"buckets":[[3,2],[6,1],[10,2],[16,1]]}}}"#;

    #[test]
    fn sample_registry_exports_pinned_text() {
        let reg = sample_registry();
        let (prom, json) = (reg.to_prometheus(), reg.to_json());
        assert_eq!(prom, SAMPLE_PROMETHEUS);
        assert_eq!(json, SAMPLE_JSON);
        assert_exported(&reg, &prom, &json);
    }

    #[test]
    #[should_panic(expected = "Prometheus lacks rds_queries_total 42")]
    fn assert_exported_catches_a_wrong_value() {
        let reg = sample_registry();
        let prom = reg.to_prometheus().replace(" 42", " 41");
        assert_exported(&reg, &prom, &reg.to_json());
    }

    #[test]
    fn empty_registry_exports_pinned_text() {
        let reg = MetricsRegistry::new();
        assert_eq!(reg.to_prometheus(), "");
        assert_eq!(
            reg.to_json(),
            r#"{"counters":{},"gauges":{},"histograms":{}}"#
        );
    }

    fn labeled_registry() -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        reg.set_help("rds_serve_rejected_total", "Rejections by reason and class");
        reg.inc_counter_labeled(
            "rds_serve_rejected_total",
            &[("reason", "queue_full"), ("class", "batch")],
            7,
        );
        reg.inc_counter_labeled(
            "rds_serve_rejected_total",
            &[("class", "standard"), ("reason", "shed_low_priority")],
            2,
        );
        // A plain counter that sorts between the base name and its
        // labeled series, to exercise export grouping.
        reg.inc_counter("rds_serve_rejected_total_audits", 1);
        reg.set_gauge_labeled(
            "rds_slo_latency_burn_milli",
            &[("class", "interactive"), ("window", "fast")],
            1500,
        );
        reg
    }

    /// `labeled_registry()` plus help text with a quote and a backslash,
    /// in Prometheus text format: one `# TYPE` header per base name, and
    /// help for a name with no series last.
    const LABELED_PROMETHEUS: &str = r#"# HELP rds_serve_rejected_total Rejections by reason and class
# TYPE rds_serve_rejected_total counter
rds_serve_rejected_total{class="batch",reason="queue_full"} 7
rds_serve_rejected_total{class="standard",reason="shed_low_priority"} 2
# TYPE rds_serve_rejected_total_audits counter
rds_serve_rejected_total_audits 1
# TYPE rds_slo_latency_burn_milli gauge
rds_slo_latency_burn_milli{class="interactive",window="fast"} 1500
# HELP rds_quote contains "quotes" and a \ backslash
"#;

    /// The same registry as JSON, with `"` and `\` escaped.
    const LABELED_JSON: &str = r#"{"counters":{"rds_serve_rejected_total_audits":1,"rds_serve_rejected_total{class=\"batch\",reason=\"queue_full\"}":7,"rds_serve_rejected_total{class=\"standard\",reason=\"shed_low_priority\"}":2},"gauges":{"rds_slo_latency_burn_milli{class=\"interactive\",window=\"fast\"}":1500},"histograms":{},"help":{"rds_quote":"contains \"quotes\" and a \\ backslash","rds_serve_rejected_total":"Rejections by reason and class"}}"#;

    #[test]
    fn labeled_registry_exports_pinned_text() {
        let mut reg = labeled_registry();
        reg.set_help("rds_quote", "contains \"quotes\" and a \\ backslash");
        // Label order at insertion is irrelevant.
        assert_eq!(
            reg.counter_labeled(
                "rds_serve_rejected_total",
                &[("class", "batch"), ("reason", "queue_full")]
            ),
            Some(7)
        );
        let (prom, json) = (reg.to_prometheus(), reg.to_json());
        assert_eq!(prom, LABELED_PROMETHEUS);
        assert_eq!(json, LABELED_JSON);
        assert_exported(&reg, &prom, &json);
    }

    #[test]
    fn invalid_series_keys_are_rejected() {
        assert!(valid_series("rds_ok"));
        assert!(valid_series("rds_ok{a=\"1\",b=\"x y\"}"));
        assert!(!valid_series("rds_ok{"));
        assert!(!valid_series("rds_ok{a=1}"));
        assert!(!valid_series("rds_ok{a=\"quote\\\"inside\"}"));
        assert!(!valid_series("{a=\"1\"}"));
    }
}
