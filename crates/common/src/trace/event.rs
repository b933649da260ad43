//! The structured event record and its JSONL wire form.

use crate::json::Json;

use super::Level;

/// One structured trace event.
///
/// Events are observational only: they carry wall-clock data (`unix_ms`)
/// and scheduling context (`thread_label`), but nothing downstream ever
/// reads them back into a computation — the determinism contract of
/// DESIGN.md §11.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Process-wide monotone sequence number (assignment order, not
    /// necessarily sink order under concurrency).
    pub seq: u64,
    /// Wall-clock milliseconds since the Unix epoch.
    pub unix_ms: u64,
    /// Severity.
    pub level: Level,
    /// Dot-separated emitting component, e.g. `server.ingest`.
    pub target: String,
    /// Human-readable message.
    pub message: String,
    /// Structured `key=value` fields, in call-site order.
    pub fields: Vec<(String, String)>,
    /// Request being served when the event fired, if any (set by the
    /// daemon via [`super::with_request_id`]).
    pub request_id: Option<String>,
    /// Executor identity (`exec-3`, set by `isum_exec::par_map`) so events
    /// from inside `par_map` closures stay attributable at any thread
    /// count.
    pub thread_label: Option<String>,
}

impl Event {
    /// Renders the event as its JSON object form.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("seq".into(), Json::from(self.seq)),
            ("ts_ms".into(), Json::from(self.unix_ms)),
            ("level".into(), Json::from(self.level.as_str())),
            ("target".into(), Json::from(self.target.as_str())),
            ("msg".into(), Json::from(self.message.as_str())),
        ];
        if let Some(rid) = &self.request_id {
            fields.push(("request_id".into(), Json::from(rid.as_str())));
        }
        if let Some(label) = &self.thread_label {
            fields.push(("worker".into(), Json::from(label.as_str())));
        }
        if !self.fields.is_empty() {
            fields.push((
                "fields".into(),
                Json::Obj(
                    self.fields.iter().map(|(k, v)| (k.clone(), Json::from(v.as_str()))).collect(),
                ),
            ));
        }
        Json::Obj(fields)
    }

    /// One JSONL line (no trailing newline).
    pub fn to_jsonl(&self) -> String {
        self.to_json().to_compact()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_round_trips_and_omits_empty_context() {
        let ev = Event {
            seq: 7,
            unix_ms: 1_700_000_000_123,
            level: Level::Warn,
            target: "server.ingest".into(),
            message: "queue full".into(),
            fields: vec![("depth".into(), "64".into())],
            request_id: Some("req-1".into()),
            thread_label: None,
        };
        let line = ev.to_jsonl();
        assert!(!line.contains('\n'), "JSONL events are single lines: {line}");
        let parsed = Json::parse(&line).expect("event line parses");
        assert_eq!(parsed.get("level").unwrap().as_str(), Some("warn"));
        assert_eq!(parsed.get("target").unwrap().as_str(), Some("server.ingest"));
        assert_eq!(parsed.get("request_id").unwrap().as_str(), Some("req-1"));
        assert_eq!(parsed.get("fields").unwrap().get("depth").unwrap().as_str(), Some("64"));
        assert!(parsed.get("worker").is_none(), "unset context keys are omitted");
    }
}
