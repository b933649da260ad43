//! Prometheus text exposition (format version 0.0.4) of a telemetry
//! [`Snapshot`], backing the daemon's `GET /metrics`.
//!
//! Internal dot-separated metric names (`optimizer.whatif.calls`) and
//! slash-separated span paths (`compress/isum/select`) are mapped onto the
//! Prometheus grammar by replacing every character outside `[a-zA-Z0-9_]`
//! with `_` and prefixing `isum_` (spans get `isum_span_` so the two
//! namespaces cannot collide). Histograms and spans render through
//! [`HistogramSnapshot::write_prometheus`], the one histogram renderer,
//! which the daemon's tenant-labeled families use as well.

use std::fmt::Write as _;

use super::histogram::{HistogramSnapshot, BUCKETS};
use super::snapshot::Snapshot;

#[cfg(test)]
#[path = "../../tests/exposition/mod.rs"]
mod exposition;

/// Maps an internal metric name or span path onto a valid Prometheus
/// metric name.
fn sanitize(prefix: &str, name: &str) -> String {
    let mut out = String::with_capacity(prefix.len() + name.len());
    out.push_str(prefix);
    for c in name.chars() {
        out.push(if c.is_ascii_alphanumeric() || c == '_' { c } else { '_' });
    }
    out
}

/// Escapes HELP text per the exposition format: `\` becomes `\\` and a
/// line feed becomes `\n` — anything else would truncate the comment line
/// or be misread as an escape by the scraper.
fn escape_help(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Escapes a label *value* per the exposition format: inside the double
/// quotes of `{label="value"}`, `\` becomes `\\`, `"` becomes `\"`, and a
/// line feed becomes `\n`. Label values (unlike metric names) may carry
/// arbitrary text — the daemon puts tenant names here — so an unescaped
/// quote or newline would let one tenant's name break the line-oriented
/// exposition for every scraper.
pub fn escape_label_value(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Renders one labeled sample line, `name{label="escaped"} value`, with
/// every label value escaped via [`escape_label_value`]. The metric name
/// and label names are expected to already be valid Prometheus
/// identifiers (the caller picks them; they are not attacker-supplied).
pub fn labeled_sample(
    name: &str,
    labels: &[(&str, &str)],
    value: impl std::fmt::Display,
) -> String {
    let mut out = String::new();
    out.push_str(name);
    if !labels.is_empty() {
        out.push('{');
        for (i, (k, v)) in labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{k}=\"{}\"", escape_label_value(v));
        }
        out.push('}');
    }
    let _ = writeln!(out, " {value}");
    out
}

/// Appends a family's `# HELP` and `# TYPE` lines.
fn push_family(out: &mut String, name: &str, kind: &str, help: &str) {
    let _ = writeln!(out, "# HELP {name} {}", escape_help(help));
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

impl HistogramSnapshot {
    /// Appends one labeled series of a histogram family: cumulative
    /// `_bucket` samples at the ladder's power-of-two edges that hold
    /// samples, then `+Inf`, `_sum` and `_count`. Every fourth bucket of
    /// the ladder ends on a power of two, so the cumulative counts at those
    /// edges are exact. Bounds and the sum are divided by `per_unit` (`1e9`
    /// renders nanoseconds as seconds); the caller writes HELP and TYPE.
    pub fn write_prometheus(
        &self,
        out: &mut String,
        name: &str,
        labels: &[(&str, &str)],
        per_unit: f64,
    ) {
        let bucket = format!("{name}_bucket");
        let mut push_bucket = |le: &str, cumulative: u64| {
            let mut with_le = labels.to_vec();
            with_le.push(("le", le));
            out.push_str(&labeled_sample(&bucket, &with_le, cumulative));
        };
        let mut cumulative = 0u64;
        // The last group ends at 2^64, which `+Inf` already covers.
        for (j, group) in self.buckets.chunks(4).enumerate().take(BUCKETS / 4 - 1) {
            let n: u64 = group.iter().sum();
            if n > 0 {
                cumulative += n;
                push_bucket(&(2f64.powi(j as i32 + 1) / per_unit).to_string(), cumulative);
            }
        }
        push_bucket("+Inf", self.count);
        out.push_str(&labeled_sample(&format!("{name}_sum"), labels, self.sum as f64 / per_unit));
        out.push_str(&labeled_sample(&format!("{name}_count"), labels, self.count));
    }
}

impl Snapshot {
    /// Renders the snapshot in the Prometheus text exposition format.
    /// Every registered metric is emitted, including zero-valued ones —
    /// scrapers rely on series existing before the first increment.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            let pname = sanitize("isum_", name);
            push_family(&mut out, &pname, "counter", &format!("ISUM counter `{name}`."));
            let _ = writeln!(out, "{pname} {value}");
        }
        for (name, value) in &self.gauges {
            let pname = sanitize("isum_", name);
            push_family(&mut out, &pname, "gauge", &format!("ISUM gauge `{name}`."));
            let _ = writeln!(out, "{pname} {value}");
        }
        for (name, hist) in &self.histograms {
            let pname = sanitize("isum_", name);
            let unit = if name.ends_with("_ns") { " (nanoseconds)" } else { "" };
            let help = format!("ISUM histogram `{name}`{unit}.");
            push_family(&mut out, &pname, "histogram", &help);
            hist.write_prometheus(&mut out, &pname, &[], 1.0);
        }
        for span in &self.spans {
            let pname = sanitize("isum_span_", &span.path);
            let help = format!("ISUM span `{}` duration (nanoseconds).", span.path);
            push_family(&mut out, &pname, "histogram", &help);
            span.hist.write_prometheus(&mut out, &pname, &[], 1.0);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::super::snapshot::SpanStat;
    use super::super::Histogram;
    use super::exposition::check_exposition;
    use super::*;

    fn snap_of(h: &Histogram) -> HistogramSnapshot {
        h.snap()
    }

    #[test]
    fn sanitizes_names_into_prometheus_grammar() {
        assert_eq!(sanitize("isum_", "optimizer.whatif.calls"), "isum_optimizer_whatif_calls");
        assert_eq!(
            sanitize("isum_span_", "compress/isum/select"),
            "isum_span_compress_isum_select"
        );
    }

    #[test]
    fn renders_counters_gauges_and_histograms() {
        let h = Histogram::new();
        h.record(5);
        h.record(100);
        let snap = Snapshot {
            counters: vec![("server.requests".into(), 42)],
            gauges: vec![("server.queue.depth".into(), -1)],
            histograms: vec![("server.ingest_ns".into(), snap_of(&h))],
            spans: vec![SpanStat { path: "compress/select".into(), hist: snap_of(&h) }],
        };
        let text = snap.render_prometheus();
        assert!(text.contains("# TYPE isum_server_requests counter\nisum_server_requests 42\n"));
        assert!(text.contains("# TYPE isum_server_queue_depth gauge\nisum_server_queue_depth -1\n"));
        assert!(text.contains("# TYPE isum_server_ingest_ns histogram"));
        assert!(text.contains("isum_server_ingest_ns_sum 105"));
        assert!(text.contains("isum_server_ingest_ns_count 2"));
        assert!(text.contains("isum_server_ingest_ns_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("# TYPE isum_span_compress_select histogram"));
        assert!(text.contains("isum_span_compress_select_count 2"));
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_capped_by_inf() {
        let h = Histogram::new();
        for v in [1u64, 1, 6, 6, 6, 1000] {
            h.record(v);
        }
        let snap = Snapshot { histograms: vec![("m".into(), snap_of(&h))], ..Snapshot::default() };
        let text = snap.render_prometheus();
        // 1,1 fall under le=2; 6,6,6 under le=8; 1000 under le=1024. Edges
        // without samples are left out; cumulative counts are monotone.
        let buckets: Vec<&str> = text.lines().filter(|l| l.starts_with("isum_m_bucket")).collect();
        assert_eq!(
            buckets,
            [
                "isum_m_bucket{le=\"2\"} 2",
                "isum_m_bucket{le=\"8\"} 5",
                "isum_m_bucket{le=\"1024\"} 6",
                "isum_m_bucket{le=\"+Inf\"} 6"
            ],
            "{text}"
        );
        assert!(text.contains("isum_m_sum 1020\n"), "{text}");
    }

    #[test]
    fn labeled_series_scale_nanoseconds_to_seconds() {
        let h = Histogram::new();
        h.record(1_000); // 1 µs, under the 1024 ns edge
        h.record(1_048_576); // exactly 2^20 ns: its own edge, inclusive
        let mut out = String::new();
        h.snap().write_prometheus(&mut out, "fam", &[("tenant", "a\"b")], 1e9);
        assert_eq!(
            out,
            "fam_bucket{tenant=\"a\\\"b\",le=\"0.000001024\"} 1\n\
             fam_bucket{tenant=\"a\\\"b\",le=\"0.001048576\"} 2\n\
             fam_bucket{tenant=\"a\\\"b\",le=\"+Inf\"} 2\n\
             fam_sum{tenant=\"a\\\"b\"} 0.001049576\n\
             fam_count{tenant=\"a\\\"b\"} 2\n"
        );
    }

    #[test]
    fn empty_snapshot_renders_empty_exposition() {
        assert!(Snapshot::default().render_prometheus().is_empty());
        // The drift family in particular is registered lazily: a registry
        // that never saw a drift sample exposes no isum_drift_* series at
        // all, rather than zero-valued placeholders.
        assert!(!Snapshot::default().render_prometheus().contains("isum_drift"));
    }

    #[test]
    fn negative_gauges_render_verbatim() {
        let snap = Snapshot {
            gauges: vec![("drift.score_ppm".into(), -1), ("lag".into(), i64::MIN)],
            ..Snapshot::default()
        };
        let text = snap.render_prometheus();
        assert!(text.contains("isum_drift_score_ppm -1\n"), "{text}");
        assert!(text.contains(&format!("isum_lag {}\n", i64::MIN)), "{text}");
    }

    #[test]
    fn help_text_escapes_backslash_and_newline() {
        assert_eq!(escape_help(r"a\b"), r"a\\b");
        assert_eq!(escape_help("a\nb"), "a\\nb");
        assert_eq!(escape_help("plain"), "plain");
        // A hostile internal name (sanitized in the metric name, raw in
        // the HELP text) must not break the line-oriented exposition.
        let snap = Snapshot {
            counters: vec![("evil\\name\nwith.newline".into(), 3)],
            ..Snapshot::default()
        };
        let text = snap.render_prometheus();
        assert!(
            text.contains(
                "# HELP isum_evil_name_with_newline ISUM counter `evil\\\\name\\nwith.newline`.\n"
            ),
            "{text}"
        );
        for line in text.lines() {
            assert!(
                line.starts_with('#') || line.split(' ').count() == 2,
                "help newline leaked into exposition: {line:?}"
            );
        }
    }

    #[test]
    fn label_values_escape_backslash_quote_and_newline() {
        assert_eq!(escape_label_value(r"a\b"), r"a\\b");
        assert_eq!(escape_label_value(r#"a"b"#), r#"a\"b"#);
        assert_eq!(escape_label_value("a\nb"), "a\\nb");
        assert_eq!(escape_label_value("plain-tenant_1"), "plain-tenant_1");
        // All three at once, in order.
        assert_eq!(escape_label_value("\\\"\n"), "\\\\\\\"\\n");
    }

    #[test]
    fn labeled_samples_render_escaped_single_line() {
        assert_eq!(
            labeled_sample("isum_shard_observed", &[("tenant", "acme")], 7),
            "isum_shard_observed{tenant=\"acme\"} 7\n"
        );
        assert_eq!(labeled_sample("isum_up", &[], 1), "isum_up 1\n");
        assert_eq!(labeled_sample("m", &[("a", "x"), ("b", "y")], -3), "m{a=\"x\",b=\"y\"} -3\n");
        // A hostile tenant name (quote + newline + backslash) must stay on
        // one line and keep the quoting intact.
        let line = labeled_sample("isum_shard_observed", &[("tenant", "ev\"il\\x")], 1);
        assert_eq!(line, "isum_shard_observed{tenant=\"ev\\\"il\\\\x\"} 1\n");
        assert_eq!(line.matches('\n').count(), 1, "exactly the terminating newline");
    }

    #[test]
    fn drift_family_renders_gauges_histogram_and_counter() {
        let h = Histogram::new();
        h.record(120_000); // one batch score sample, in ppm
        let snap = Snapshot {
            counters: vec![("drift.alerts".into(), 1)],
            gauges: vec![("drift.score_ppm".into(), 120_000), ("drift.window_len".into(), 256)],
            histograms: vec![("drift.batch_score_ppm".into(), snap_of(&h))],
            ..Snapshot::default()
        };
        let text = snap.render_prometheus();
        assert!(text.contains("# TYPE isum_drift_alerts counter\nisum_drift_alerts 1\n"));
        assert!(text.contains("# TYPE isum_drift_score_ppm gauge\nisum_drift_score_ppm 120000\n"));
        assert!(text.contains("# TYPE isum_drift_window_len gauge\nisum_drift_window_len 256\n"));
        assert!(text.contains("# TYPE isum_drift_batch_score_ppm histogram"));
        assert!(text.contains("isum_drift_batch_score_ppm_count 1\n"));
        assert!(text.contains("isum_drift_batch_score_ppm_sum 120000\n"));
        // Family names are distinct, so no HELP/TYPE line is repeated.
        let mut type_lines: Vec<&str> = text.lines().filter(|l| l.starts_with("# TYPE")).collect();
        let before = type_lines.len();
        type_lines.dedup();
        assert_eq!(before, type_lines.len(), "duplicate TYPE lines:\n{text}");
    }

    #[test]
    fn renders_a_valid_exposition() {
        let h = Histogram::new();
        for v in [7u64, 7, 900, 1 << 40] {
            h.record(v);
        }
        let mut text = Snapshot {
            counters: vec![("a.b".into(), 1)],
            gauges: vec![("g".into(), -2)],
            histograms: vec![("c.d_ns".into(), snap_of(&h))],
            spans: vec![SpanStat { path: "e/f".into(), hist: snap_of(&h) }],
        }
        .render_prometheus();
        push_family(&mut text, "fam", "histogram", "Labeled.");
        for tenant in ["a", "b\"x,y=z\""] {
            h.snap().write_prometheus(&mut text, "fam", &[("tenant", tenant), ("s", "q")], 1e9);
        }
        let families = [("isum_a_b", "counter"), ("isum_g", "gauge"), ("isum_c_d_ns", "histogram")];
        assert_eq!(check_exposition(&text, &families), Ok(()), "{text}");
        assert_eq!(check_exposition(&text, &[("isum_span_e_f", "histogram")]), Ok(()));
        assert!(check_exposition(&text, &[("isum_a_b", "gauge")]).is_err());
        // The checker bites: a bucket that outgrows `+Inf`, a dropped
        // `+Inf`, a gauge without its sample, a stray comment.
        let broken = [
            text.replace("isum_c_d_ns_bucket{le=\"+Inf\"} 4", "isum_c_d_ns_bucket{le=\"+Inf\"} 3"),
            text.replace("isum_c_d_ns_bucket{le=\"+Inf\"} 4\n", ""),
            text.replace("isum_g -2\n", ""),
            format!("{text}# stray\n"),
        ];
        for bad in broken {
            assert!(check_exposition(&bad, &[]).is_err(), "{bad}");
        }
    }
}
