//! The one checker of the Prometheus text exposition format (0.0.4),
//! included by the renderer's unit tests and by the daemon's tests.

use std::collections::{BTreeMap, BTreeSet};

/// Returns the first violation of: names match `[a-zA-Z_][a-zA-Z0-9_]*`;
/// comments are `# HELP` or `# TYPE` with kind `counter`, `gauge` or
/// `histogram`; sample values parse; each counter and gauge has a
/// sample; each histogram has `_sum` and `_count` and, per label set
/// without `le`, strictly increasing `le`, cumulative counts, and `+Inf`
/// last and equal to `_count`; and each `(family, kind)` of `required` is
/// declared.
pub fn check_exposition(text: &str, required: &[(&str, &str)]) -> Result<(), String> {
    if text.is_empty() {
        return Err("empty exposition".into());
    }
    let (mut types, mut names) = (BTreeMap::new(), BTreeSet::new());
    // (family, labels without `le`) -> [(le, count)], and -> `_count`.
    let (mut buckets, mut counts) = (BTreeMap::<_, Vec<(f64, f64)>>::new(), BTreeMap::new());
    for line in text.lines() {
        if let Some(comment) = line.strip_prefix('#') {
            let mut parts = comment.strip_prefix(' ').unwrap_or("").splitn(3, ' ');
            match (parts.next(), parts.next().filter(|n| valid_name(n)), parts.next()) {
                (Some("HELP"), Some(_), _) => {}
                (Some("TYPE"), Some(name), Some(k @ ("counter" | "gauge" | "histogram"))) => {
                    types.insert(name, k);
                }
                _ => return Err(format!("not a HELP or TYPE line: {line}")),
            }
            continue;
        }
        let bad = |why: &str| format!("{why}: {line}");
        let (series, value) = line.rsplit_once(' ').ok_or_else(|| bad("no value"))?;
        let value: f64 = value.parse().map_err(|_| bad("unparseable value"))?;
        let (name, labels) = series.split_once('{').unwrap_or((series, "}"));
        let labels = parse_labels(labels.strip_suffix('}').ok_or_else(|| bad("unclosed"))?);
        let labels = labels.ok_or_else(|| bad("bad labels"))?;
        if !valid_name(name) {
            return Err(bad("bad metric name"));
        }
        let key: Vec<String> = labels
            .iter()
            .filter(|(k, _)| *k != "le")
            .map(|(k, v)| format!("{k}=\"{v}\""))
            .collect();
        let key = key.join(",");
        if let Some(family) = name.strip_suffix("_bucket") {
            let le = labels.iter().find(|(k, _)| *k == "le").and_then(|(_, v)| v.parse().ok());
            let le: f64 = le.ok_or_else(|| bad("bucket without a numeric le"))?;
            buckets.entry((family.to_string(), key)).or_default().push((le, value));
        } else if let Some(family) = name.strip_suffix("_count") {
            counts.insert((family.to_string(), key), value);
        }
        names.insert(name.to_string());
    }
    for (family, kind) in &types {
        if *kind != "histogram" {
            if !names.contains(*family) {
                return Err(format!("{family}: no sample"));
            }
            continue;
        }
        for part in ["_sum", "_count"] {
            if !names.contains(&format!("{family}{part}")) {
                return Err(format!("{family}: no {part}"));
            }
        }
        let groups: Vec<_> = buckets.iter().filter(|((f, _), _)| f == family).collect();
        if groups.is_empty() {
            return Err(format!("{family}: no buckets"));
        }
        for (at, series) in groups {
            let fail = |why: &str| Err(format!("{family}{{{}}}: {why}", at.1));
            if series.windows(2).any(|w| w[0].0 >= w[1].0) {
                return fail("le does not strictly increase");
            }
            if series.windows(2).any(|w| w[0].1 > w[1].1) {
                return fail("buckets are not cumulative");
            }
            match series.last() {
                Some(&(le, _)) if le != f64::INFINITY => return fail("+Inf is not last"),
                Some((_, n)) if counts.get(at) != Some(n) => return fail("+Inf is not _count"),
                _ => {}
            }
        }
    }
    match required.iter().find(|(family, kind)| types.get(family) != Some(kind)) {
        Some((family, kind)) => Err(format!("{family} is not declared a {kind}")),
        None => Ok(()),
    }
}

fn valid_name(name: &str) -> bool {
    name.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_')
        && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Splits `k="v",...` on the commas outside quotes; values stay escaped.
fn parse_labels(body: &str) -> Option<Vec<(&str, &str)>> {
    let (mut labels, mut start, mut quoted, mut escaped) = (Vec::new(), 0, false, false);
    for (i, c) in body.char_indices().chain([(body.len(), ',')]).skip_while(|_| body.is_empty()) {
        match c {
            _ if escaped => escaped = false,
            '\\' => escaped = true,
            '"' => quoted = !quoted,
            ',' if !quoted => {
                let (k, v) = body[start..i].split_once('=')?;
                let v = v.strip_prefix('"')?.strip_suffix('"')?;
                labels.push((k, v));
                start = i + 1;
            }
            _ => {}
        }
    }
    labels.iter().all(|(k, _)| valid_name(k)).then_some(labels)
}
