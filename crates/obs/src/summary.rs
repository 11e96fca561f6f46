//! Human-readable summaries: plain-text tables and an event aggregator.

use crate::event::Event;
use crate::hist::{format_us, Histogram};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

/// Shortest interval over which a rendered rate is honest. Below this,
/// clock granularity dominates and `count / duration` is noise.
const MIN_MEASURABLE_SECS: f64 = 1e-3;

/// `count / duration` as an events-per-second rate, or `None` when the
/// interval is too short (< 1ms) to support a meaningful rate.
///
/// Every *rendered* rate goes through this guard: a sub-millisecond run
/// omits the figure instead of reporting a quantized, misleading one
/// (the same rule `Exploration::states_per_sec` applies internally).
pub fn rate_per_sec(count: u64, duration: Duration) -> Option<f64> {
    let secs = duration.as_secs_f64();
    if secs < MIN_MEASURABLE_SECS {
        None
    } else {
        Some(count as f64 / secs)
    }
}

/// Column alignment for [`Table`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Align {
    /// Left-aligned (names).
    Left,
    /// Right-aligned (numbers).
    Right,
}

/// A minimal monospace table renderer.
///
/// ```
/// use equitls_obs::summary::{Align, Table};
/// let mut t = Table::new(&["rule", "fires"], &[Align::Left, Align::Right]);
/// t.row(vec!["cpms-kx".into(), "120".into()]);
/// assert!(t.render().contains("cpms-kx"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    aligns: Vec<Align>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with `headers`; `aligns` must have the same length.
    pub fn new(headers: &[&str], aligns: &[Align]) -> Self {
        assert_eq!(headers.len(), aligns.len(), "one alignment per column");
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            aligns: aligns.to_vec(),
            rows: Vec::new(),
        }
    }

    /// Append one row (short rows are padded with empty cells).
    pub fn row(&mut self, mut cells: Vec<String>) {
        cells.resize(self.headers.len(), String::new());
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when no data rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render with a header rule, two-space column gutters.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let write_row = |out: &mut String, cells: &[String]| {
            for (i, cell) in cells.iter().enumerate().take(cols) {
                if i > 0 {
                    out.push_str("  ");
                }
                let pad = widths[i].saturating_sub(cell.chars().count());
                match self.aligns[i] {
                    Align::Left => {
                        out.push_str(cell);
                        if i + 1 < cols {
                            out.push_str(&" ".repeat(pad));
                        }
                    }
                    Align::Right => {
                        out.push_str(&" ".repeat(pad));
                        out.push_str(cell);
                    }
                }
            }
            out.push('\n');
        };
        write_row(&mut out, &self.headers);
        let rule_len = widths.iter().sum::<usize>() + 2 * (cols - 1);
        let _ = writeln!(out, "{}", "-".repeat(rule_len));
        for row in &self.rows {
            write_row(&mut out, row);
        }
        out
    }
}

/// Aggregate timing for one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanAgg {
    /// Completed enter/exit pairs.
    pub count: u64,
    /// Sum of durations.
    pub total: Duration,
    /// Longest single span.
    pub max: Duration,
}

/// Counters, gauges, and span timings folded out of an event stream.
#[derive(Debug, Clone, Default)]
pub struct MetricsSummary {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    spans: BTreeMap<String, SpanAgg>,
    span_hists: BTreeMap<String, Histogram>,
    dropped_events: u64,
}

impl MetricsSummary {
    /// Fold `events` (typically from a
    /// [`crate::sink::RecordingSink`]) into totals. Gauges keep their last
    /// observed value.
    pub fn from_events(events: &[Event]) -> Self {
        let mut s = MetricsSummary::default();
        for event in events {
            match event {
                Event::Counter { name, delta } => {
                    *s.counters.entry(name.clone()).or_insert(0) += delta;
                }
                Event::Gauge { name, value } => {
                    s.gauges.insert(name.clone(), *value);
                }
                Event::SpanExit { name, dur } => {
                    let agg = s.spans.entry(name.clone()).or_default();
                    agg.count += 1;
                    agg.total += *dur;
                    agg.max = agg.max.max(*dur);
                    s.span_hists
                        .entry(name.clone())
                        .or_default()
                        .record_duration(*dur);
                }
                Event::SpanEnter { .. } => {}
            }
        }
        s
    }

    /// Total for counter `name` (0 when never incremented).
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Last observed value of gauge `name`.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Aggregated timing for span `name`.
    pub fn span(&self, name: &str) -> Option<SpanAgg> {
        self.spans.get(name).copied()
    }

    /// Fold another summary's totals into this one (e.g. merging
    /// per-worker recorders). Counters and span aggregates add; gauges
    /// keep `other`'s value when both define one; dropped-event counts
    /// add. Histogram merging is associative, so the fold order never
    /// changes a percentile.
    pub fn merge(&mut self, other: &MetricsSummary) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
        for (k, v) in &other.spans {
            let agg = self.spans.entry(k.clone()).or_default();
            agg.count += v.count;
            agg.total += v.total;
            agg.max = agg.max.max(v.max);
        }
        for (k, v) in &other.span_hists {
            self.span_hists.entry(k.clone()).or_default().merge(v);
        }
        self.dropped_events += other.dropped_events;
    }

    /// Record how many events the sink stack dropped while this summary's
    /// events were collected (from `Obs::dropped_events`). Dropped events
    /// never reach the recorder, so the summary cannot count them itself —
    /// the caller supplies the figure and the rendered tables disclose it.
    pub fn set_dropped_events(&mut self, dropped: u64) {
        self.dropped_events = dropped;
    }

    /// Events the sink stack failed to record (0 = summary is complete).
    pub fn dropped_events(&self) -> u64 {
        self.dropped_events
    }

    /// All counters whose name starts with `prefix`, as
    /// `(suffix, total)` pairs sorted by total, largest first.
    pub fn counters_with_prefix(&self, prefix: &str) -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = self
            .counters
            .iter()
            .filter_map(|(k, v)| k.strip_prefix(prefix).map(|s| (s.to_string(), *v)))
            .collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        out
    }

    /// The `top_n` rewrite rules by cumulative `rule.time_us`, one row per
    /// rule with its `rule.<kind>:<rule>` counter for each of `kinds`, and
    /// the cumulative time when `with_time`.
    pub fn render_hot_rules(&self, top_n: usize, kinds: &[&str], with_time: bool) -> String {
        let mut headers = vec!["rule"];
        headers.extend(kinds);
        if with_time {
            headers.push("time");
        }
        let mut aligns = vec![Align::Right; headers.len()];
        aligns[0] = Align::Left;
        let mut table = Table::new(&headers, &aligns);
        for (label, time_us) in self
            .counters_with_prefix("rule.time_us:")
            .into_iter()
            .take(top_n)
        {
            let mut row = vec![label.clone()];
            row.extend(kinds.iter().map(|kind| {
                self.counter_total(&format!("rule.{kind}:{label}"))
                    .to_string()
            }));
            if with_time {
                row.push(format!("{:.2?}", Duration::from_micros(time_us)));
            }
            table.row(row);
        }
        table.render()
    }

    /// All span aggregates, sorted by total time, largest first.
    pub fn spans_by_total(&self) -> Vec<(String, SpanAgg)> {
        let mut out: Vec<(String, SpanAgg)> =
            self.spans.iter().map(|(k, v)| (k.clone(), *v)).collect();
        out.sort_by(|a, b| b.1.total.cmp(&a.1.total).then_with(|| a.0.cmp(&b.0)));
        out
    }

    /// Render the latency distribution of every span name as a table
    /// (count, p50/p90/p99, max, total), ordered by total time. A `rate`
    /// column reports completions per second where the total duration is
    /// long enough to measure, `-` otherwise (see [`rate_per_sec`]).
    pub fn render_histogram_table(&self) -> String {
        let mut table = Table::new(
            &[
                "span", "count", "p50", "p90", "p99", "max", "total", "rate/s",
            ],
            &[
                Align::Left,
                Align::Right,
                Align::Right,
                Align::Right,
                Align::Right,
                Align::Right,
                Align::Right,
                Align::Right,
            ],
        );
        for (name, agg) in self.spans_by_total() {
            let Some(h) = self.span_hists.get(&name) else {
                continue;
            };
            let rate = rate_per_sec(h.count(), agg.total)
                .map(|r| format!("{r:.0}"))
                .unwrap_or_else(|| "-".into());
            table.row(vec![
                name,
                h.count().to_string(),
                format_us(h.p50()),
                format_us(h.p90()),
                format_us(h.p99()),
                format_us(h.max()),
                format!("{:.2?}", agg.total),
                rate,
            ]);
        }
        let mut out = table.render();
        self.append_dropped_note(&mut out);
        out
    }

    fn append_dropped_note(&self, out: &mut String) {
        if self.dropped_events > 0 {
            let _ = writeln!(
                out,
                "(!) {} event(s) dropped by the sink stack — totals above are incomplete",
                self.dropped_events
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_folds_counters_gauges_and_spans() {
        let events = vec![
            Event::Counter {
                name: "rewrites".into(),
                delta: 3,
            },
            Event::Counter {
                name: "rewrites".into(),
                delta: 4,
            },
            Event::Gauge {
                name: "frontier".into(),
                value: 10.0,
            },
            Event::Gauge {
                name: "frontier".into(),
                value: 4.0,
            },
            Event::SpanEnter { name: "p".into() },
            Event::SpanExit {
                name: "p".into(),
                dur: Duration::from_millis(5),
            },
            Event::SpanEnter { name: "p".into() },
            Event::SpanExit {
                name: "p".into(),
                dur: Duration::from_millis(3),
            },
        ];
        let s = MetricsSummary::from_events(&events);
        assert_eq!(s.counter_total("rewrites"), 7);
        assert_eq!(s.gauge("frontier"), Some(4.0));
        let agg = s.span("p").unwrap();
        assert_eq!(agg.count, 2);
        assert_eq!(agg.total, Duration::from_millis(8));
        assert_eq!(agg.max, Duration::from_millis(5));
    }

    #[test]
    fn prefix_query_sorts_by_total_descending() {
        let events = vec![
            Event::Counter {
                name: "rule.fires:a".into(),
                delta: 1,
            },
            Event::Counter {
                name: "rule.fires:b".into(),
                delta: 9,
            },
            Event::Counter {
                name: "other".into(),
                delta: 100,
            },
        ];
        let s = MetricsSummary::from_events(&events);
        assert_eq!(
            s.counters_with_prefix("rule.fires:"),
            vec![("b".to_string(), 9), ("a".to_string(), 1)]
        );
    }

    #[test]
    fn span_table_discloses_dropped_events() {
        let events = vec![
            Event::SpanEnter { name: "p".into() },
            Event::SpanExit {
                name: "p".into(),
                dur: Duration::from_millis(5),
            },
        ];
        let mut s = MetricsSummary::from_events(&events);
        assert!(!s.render_histogram_table().contains("dropped"));
        s.set_dropped_events(3);
        assert_eq!(s.dropped_events(), 3);
        assert!(s
            .render_histogram_table()
            .contains("3 event(s) dropped by the sink stack"));
    }

    #[test]
    fn span_histograms_track_distribution() {
        let mut events = Vec::new();
        for ms in [1u64, 2, 4, 100] {
            events.push(Event::SpanEnter { name: "p".into() });
            events.push(Event::SpanExit {
                name: "p".into(),
                dur: Duration::from_millis(ms),
            });
        }
        let s = MetricsSummary::from_events(&events);
        let h = s.span_hists.get("p").expect("histogram exists");
        assert_eq!(h.count(), 4);
        assert_eq!(h.max(), 100_000);
        assert!(h.p99() >= 100_000, "p99 reaches the slowest sample");
        let table = s.render_histogram_table();
        assert!(table.contains('p'), "span name is listed");
        assert!(table.contains("100.0ms"), "max column renders: {table}");
    }

    #[test]
    fn rates_are_omitted_on_sub_millisecond_intervals() {
        assert_eq!(rate_per_sec(1000, Duration::from_micros(500)), None);
        assert_eq!(rate_per_sec(1000, Duration::ZERO), None);
        let r = rate_per_sec(1000, Duration::from_secs(2)).expect("measurable");
        assert!((r - 500.0).abs() < 1e-9);

        // A fast span renders `-` in the rate column instead of a number.
        let events = vec![
            Event::SpanEnter {
                name: "fast".into(),
            },
            Event::SpanExit {
                name: "fast".into(),
                dur: Duration::from_micros(3),
            },
        ];
        let s = MetricsSummary::from_events(&events);
        let table = s.render_histogram_table();
        let row = table.lines().last().unwrap();
        assert!(row.trim_end().ends_with('-'), "no fabricated rate: {row}");
    }

    #[test]
    fn merge_adds_counters_spans_and_dropped_counts() {
        let a_events = vec![
            Event::Counter {
                name: "n".into(),
                delta: 2,
            },
            Event::SpanEnter { name: "p".into() },
            Event::SpanExit {
                name: "p".into(),
                dur: Duration::from_millis(5),
            },
        ];
        let b_events = vec![
            Event::Counter {
                name: "n".into(),
                delta: 3,
            },
            Event::SpanEnter { name: "p".into() },
            Event::SpanExit {
                name: "p".into(),
                dur: Duration::from_millis(7),
            },
        ];
        let mut a = MetricsSummary::from_events(&a_events);
        a.set_dropped_events(1);
        let mut b = MetricsSummary::from_events(&b_events);
        b.set_dropped_events(2);
        a.merge(&b);
        assert_eq!(a.counter_total("n"), 5);
        let agg = a.span("p").unwrap();
        assert_eq!(agg.count, 2);
        assert_eq!(agg.total, Duration::from_millis(12));
        assert_eq!(agg.max, Duration::from_millis(7));
        assert_eq!(a.span_hists["p"].count(), 2);
        assert_eq!(a.dropped_events(), 3);
    }

    #[test]
    fn table_aligns_columns() {
        let mut t = Table::new(&["name", "n"], &[Align::Left, Align::Right]);
        t.row(vec!["long-name".into(), "7".into()]);
        t.row(vec!["x".into(), "1234".into()]);
        let rendered = t.render();
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[2].starts_with("long-name"));
        assert!(lines[3].ends_with("1234"));
    }
}
