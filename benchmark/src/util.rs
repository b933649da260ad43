//! Small shared helpers: order statistics, fingerprints, `/proc` reads.

use std::collections::BTreeMap;
use std::path::Path;

/// Metric name → measured value.
pub type Values = BTreeMap<String, f64>;

/// Mean of the better half of the samples: the smaller half of times, the
/// larger half of rates (the middle sample counts with the better half).
///
/// Units and rounds repeat identical work, and what disturbs them on a
/// shared box — a neighbour taking the core for some seconds — only ever
/// adds time. The better half is therefore a steadier estimate of the
/// undisturbed system than the median, and averaging it rests on more
/// than the single sample a minimum or a quartile would.
///
/// # Panics
/// Panics on an empty slice: every caller records at least one sample.
pub fn steady(samples: &[f64], higher_is_better: bool) -> f64 {
    assert!(!samples.is_empty(), "better half of no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    if higher_is_better {
        s.reverse();
    }
    isum_common::stats::mean(&s[..s.len().div_ceil(2)])
}

/// FNV-1a over the bytes — the same fingerprint `LoadPlan::fingerprint`
/// uses, applied here to rendered summaries.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Peak resident set (`VmHWM`) of a process in MB, from
/// `/proc/<pid>/status`; `pid = None` reads this process.
pub fn peak_rss_mb(pid: Option<u32>) -> Result<f64, String> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{path}: no VmHWM line"))
}

/// Filesystem type of the mount holding `path` (longest mount-point
/// prefix in `/proc/mounts`); `unknown` when it cannot be read.
pub fn fs_type(path: &Path) -> String {
    let Ok(abs) = path.canonicalize() else { return "unknown".into() };
    let Ok(mounts) = std::fs::read_to_string("/proc/mounts") else { return "unknown".into() };
    let mut best: Option<(usize, &str)> = None;
    for line in mounts.lines() {
        let mut f = line.split_whitespace();
        let (Some(_dev), Some(point), Some(ty)) = (f.next(), f.next(), f.next()) else { continue };
        if abs.starts_with(point) && best.is_none_or(|(len, _)| point.len() >= len) {
            best = Some((point.len(), ty));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, ty)| ty.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let five = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(steady(&five, false), 2.0);
        assert_eq!(steady(&five, true), 4.0);
        assert_eq!(steady(&[1.0, 2.0, 9.0, 9.0], false), 1.5);
        assert_eq!(steady(&[7.0], true), 7.0);
    }

    #[test]
    fn fnv_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
    }

    #[test]
    fn reads_own_peak_rss() {
        assert!(peak_rss_mb(None).expect("own status") > 0.0);
    }
}
