//! Point-in-time telemetry snapshots: JSON serialization and a formatted
//! phase/counter table for terminal output.

use crate::json::Json;

use super::histogram::HistogramSnapshot;
use super::registry::registry;

/// Frozen statistics of one span path.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanStat {
    /// Slash-separated hierarchical path, e.g. `compress/isum/select`.
    pub path: String,
    /// Underlying duration histogram.
    pub hist: HistogramSnapshot,
}

impl SpanStat {
    /// Total nanoseconds across all executions of this span path.
    pub fn total_ns(&self) -> u64 {
        self.hist.sum
    }

    /// Executions of this span path.
    pub fn count(&self) -> u64 {
        self.hist.count
    }

    /// Nesting depth (number of `/` separators).
    pub fn depth(&self) -> usize {
        self.path.matches('/').count()
    }
}

/// A point-in-time copy of every registered metric.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// `(name, value)` counters, name-sorted.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` gauges, name-sorted.
    pub gauges: Vec<(String, i64)>,
    /// `(name, histogram)` latency histograms, name-sorted.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// Span statistics, path-sorted (parents sort before children).
    pub spans: Vec<SpanStat>,
}

/// Takes a snapshot of the global registry.
pub fn snapshot() -> Snapshot {
    let maps = registry().maps.lock().expect("registry poisoned");
    Snapshot {
        counters: maps.counters.iter().map(|(n, c)| (n.clone(), c.get())).collect(),
        gauges: maps.gauges.iter().map(|(n, g)| (n.clone(), g.get())).collect(),
        histograms: maps.histograms.iter().map(|(n, h)| (n.clone(), h.snap())).collect(),
        spans: maps
            .spans
            .iter()
            .map(|(p, h)| SpanStat { path: p.clone(), hist: h.snap() })
            .collect(),
    }
}

impl Snapshot {
    /// Value of a counter, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Value of a gauge, if registered.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Histogram of a metric, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    /// Statistics of a span path, if recorded.
    pub fn span(&self, path: &str) -> Option<&SpanStat> {
        self.spans.iter().find(|s| s.path == path)
    }

    /// Total nanoseconds of a span path, if recorded.
    pub fn span_total_ns(&self, path: &str) -> Option<u64> {
        self.span(path).map(SpanStat::total_ns)
    }

    /// Sum over every span path whose *leaf* name equals `leaf`,
    /// regardless of where it nests (e.g. `featurize` across every
    /// compressor invocation site).
    pub fn leaf_total_ns(&self, leaf: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.path == leaf || s.path.ends_with(&format!("/{leaf}")))
            .map(SpanStat::total_ns)
            .sum()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.iter().all(|(_, v)| *v == 0)
            && self.gauges.iter().all(|(_, v)| *v == 0)
            && self.histograms.iter().all(|(_, h)| h.count == 0)
            && self.spans.iter().all(|s| s.count() == 0)
    }

    /// Serializes to the JSON report schema (see README.md §
    /// Observability). Histogram values are unit-agnostic: span
    /// histograms hold nanoseconds, metric histograms hold whatever the
    /// recording site chose (the `_ns` name suffix convention marks
    /// latency histograms).
    ///
    /// ```json
    /// {
    ///   "counters": {"optimizer.whatif.calls": 123, ...},
    ///   "gauges": {"optimizer.whatif.cache_entries": 10, ...},
    ///   "histograms": {"optimizer.whatif.cost_ns":
    ///       {"count":1,"sum":2,"min":2,"max":2,
    ///        "mean":2.0,"p50":2,"p90":2,"p99":2}, ...},
    ///   "spans": {"compress/isum/select": {...same shape, in ns...}, ...}
    /// }
    /// ```
    pub fn to_json(&self) -> Json {
        let hist_json = |h: &HistogramSnapshot| {
            Json::Obj(vec![
                ("count".into(), Json::from(h.count)),
                ("sum".into(), Json::from(h.sum)),
                ("min".into(), Json::from(h.min)),
                ("max".into(), Json::from(h.max)),
                ("mean".into(), Json::Num(h.mean())),
                ("p50".into(), Json::from(h.quantile(0.5) as u64)),
                ("p90".into(), Json::from(h.quantile(0.9) as u64)),
                ("p99".into(), Json::from(h.quantile(0.99) as u64)),
            ])
        };
        Json::Obj(vec![
            (
                "counters".into(),
                Json::Obj(self.counters.iter().map(|(n, v)| (n.clone(), Json::from(*v))).collect()),
            ),
            (
                "gauges".into(),
                Json::Obj(
                    self.gauges.iter().map(|(n, v)| (n.clone(), Json::Num(*v as f64))).collect(),
                ),
            ),
            (
                "histograms".into(),
                Json::Obj(self.histograms.iter().map(|(n, h)| (n.clone(), hist_json(h))).collect()),
            ),
            (
                "spans".into(),
                Json::Obj(
                    self.spans.iter().map(|s| (s.path.clone(), hist_json(&s.hist))).collect(),
                ),
            ),
        ])
    }

    /// Renders the aligned phase/counter table the CLI prints under
    /// `--stats`. Span rows are indented by nesting depth; zero-valued
    /// metrics are skipped.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let active_spans: Vec<&SpanStat> = self.spans.iter().filter(|s| s.count() > 0).collect();
        if !active_spans.is_empty() {
            out.push_str("\n== telemetry: phases ==\n");
            let mut rows: Vec<(String, String, String, String)> =
                vec![("span".into(), "count".into(), "total".into(), "mean".into())];
            for s in &active_spans {
                let leaf = s.path.rsplit('/').next().unwrap_or(&s.path);
                rows.push((
                    format!("{}{leaf}", "  ".repeat(s.depth())),
                    s.count().to_string(),
                    fmt_ns(s.total_ns()),
                    fmt_ns((s.hist.mean()) as u64),
                ));
            }
            render_rows(&mut out, &rows);
        }
        let active_counters: Vec<_> = self.counters.iter().filter(|(_, v)| *v > 0).collect();
        let active_gauges: Vec<_> = self.gauges.iter().filter(|(_, v)| *v != 0).collect();
        if !active_counters.is_empty() || !active_gauges.is_empty() {
            out.push_str("\n== telemetry: counters ==\n");
            let mut rows: Vec<(String, String, String, String)> =
                vec![("counter".into(), "value".into(), String::new(), String::new())];
            for (n, v) in &active_counters {
                rows.push((n.clone(), v.to_string(), String::new(), String::new()));
            }
            for (n, v) in &active_gauges {
                rows.push((format!("{n} (gauge)"), v.to_string(), String::new(), String::new()));
            }
            render_rows(&mut out, &rows);
        }
        let active_hists: Vec<_> = self.histograms.iter().filter(|(_, h)| h.count > 0).collect();
        if !active_hists.is_empty() {
            out.push_str("\n== telemetry: distributions ==\n");
            let mut rows: Vec<(String, String, String, String)> =
                vec![("histogram".into(), "count".into(), "mean".into(), "p99".into())];
            for (n, h) in &active_hists {
                // The `_ns` suffix marks duration histograms; everything
                // else (e.g. per-round call counts) renders as raw values.
                let p99 = h.quantile(0.99) as u64;
                let (mean, p99) = if n.ends_with("_ns") {
                    (fmt_ns(h.mean() as u64), fmt_ns(p99))
                } else {
                    (format!("{:.1}", h.mean()), p99.to_string())
                };
                rows.push((n.clone(), h.count.to_string(), mean, p99));
            }
            render_rows(&mut out, &rows);
        }
        if out.is_empty() {
            out.push_str("\n== telemetry: no samples recorded ==\n");
        }
        out
    }
}

/// Human-scales a nanosecond quantity (`1.2ms`, `3.4s`, ...).
fn fmt_ns(ns: u64) -> String {
    let ns = ns as f64;
    if ns >= 1e9 {
        format!("{:.2}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2}us", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

fn render_rows(out: &mut String, rows: &[(String, String, String, String)]) {
    let w0 = rows.iter().map(|r| r.0.len()).max().unwrap_or(0);
    let w1 = rows.iter().map(|r| r.1.len()).max().unwrap_or(0);
    let w2 = rows.iter().map(|r| r.2.len()).max().unwrap_or(0);
    let w3 = rows.iter().map(|r| r.3.len()).max().unwrap_or(0);
    for (a, b, c, d) in rows {
        let line = format!("{a:<w0$}  {b:>w1$}  {c:>w2$}  {d:>w3$}");
        out.push_str(line.trim_end());
        out.push('\n');
    }
}

#[cfg(test)]
mod tests {
    use super::super::{set_enabled, span, test_lock};
    use super::*;
    use crate::json::Json;

    #[test]
    fn snapshot_serializes_and_reparses() {
        let _g = test_lock();
        set_enabled(true);
        registry().counter("snap.test.counter").add(7);
        registry().gauge("snap.test.gauge").set(-2);
        registry().histogram("snap.test.hist").record(1500);
        {
            let _s = span("snap_test_span");
        }
        set_enabled(false);
        let snap = snapshot();
        assert_eq!(snap.counter("snap.test.counter"), Some(7));
        assert_eq!(snap.gauge("snap.test.gauge"), Some(-2));
        assert_eq!(snap.histogram("snap.test.hist").unwrap().count, 1);
        assert!(snap.span("snap_test_span").is_some());

        let json = snap.to_json().to_pretty();
        let parsed = Json::parse(&json).expect("snapshot JSON parses");
        assert_eq!(
            parsed.get("counters").unwrap().get("snap.test.counter").unwrap().as_u64(),
            Some(7)
        );
        let h = parsed.get("histograms").unwrap().get("snap.test.hist").unwrap();
        assert_eq!(h.get("count").unwrap().as_u64(), Some(1));
        assert_eq!(h.get("sum").unwrap().as_u64(), Some(1500));
        assert!(parsed.get("spans").unwrap().get("snap_test_span").is_some());
    }

    #[test]
    fn table_renders_nonempty_sections() {
        let _g = test_lock();
        set_enabled(true);
        registry().counter("table.test.counter").add(3);
        {
            let _s = span("table_test_phase");
        }
        set_enabled(false);
        let snap = snapshot();
        let table = snap.render_table();
        assert!(table.contains("table.test.counter"), "{table}");
        assert!(table.contains("table_test_phase"), "{table}");
        assert!(table.contains("telemetry: phases"), "{table}");
    }

    #[test]
    fn leaf_totals_aggregate_across_parents() {
        let _g = test_lock();
        set_enabled(true);
        {
            let _a = span("leafagg_a");
            let _l = span("leafwork");
        }
        {
            let _b = span("leafagg_b");
            let _l = span("leafwork");
        }
        set_enabled(false);
        let snap = snapshot();
        let total = snap.leaf_total_ns("leafwork");
        let a = snap.span_total_ns("leafagg_a/leafwork").unwrap();
        let b = snap.span_total_ns("leafagg_b/leafwork").unwrap();
        assert_eq!(total, a + b);
    }

    #[test]
    fn fmt_ns_scales() {
        assert_eq!(fmt_ns(12), "12ns");
        assert_eq!(fmt_ns(1_500), "1.50us");
        assert_eq!(fmt_ns(2_500_000), "2.50ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.00s");
    }
}
