//! `compare <a.json> <b.json>`: judges run `b` against run `a` (two
//! `run --out` documents), one row per workload and end-to-end metric,
//! with the direction and bound `BENCHMARK.json` declares.

use isum_common::Json;

use crate::repo_root;

struct Declared {
    name: String,
    higher_is_better: bool,
    bound: f64,
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// The end-to-end metrics `BENCHMARK.json` declares.
fn declared() -> Result<Vec<Declared>, String> {
    let path = repo_root().join("BENCHMARK.json");
    let doc = load(&path.to_string_lossy())?;
    doc.get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let field =
                |k: &str| m.get(k).ok_or_else(|| format!("BENCHMARK.json metric lacks `{k}`"));
            Ok(Declared {
                name: field("name")?.as_str().ok_or("metric name is not a string")?.to_string(),
                higher_is_better: field("better")?.as_str() == Some("higher"),
                bound: field("bound")?.as_f64().ok_or("metric bound is not a number")?,
            })
        })
        .collect()
}

/// Returns `Ok(false)` (exit code 2) when any metric of `b` is worse than
/// `a` by more than its bound, or `b` failed a larger share of its
/// operations.
pub fn compare(args: &[String]) -> Result<bool, String> {
    let [a_path, b_path] = args else {
        return Err("usage: isum-benchmark compare <a.json> <b.json>".into());
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let metrics = declared()?;
    let workloads = |doc: &Json| -> Result<Vec<(String, Json)>, String> {
        Ok(doc.get("workloads").and_then(Json::as_object).ok_or("no `workloads` object")?.to_vec())
    };
    let (a_w, b_w) = (workloads(&a)?, workloads(&b)?);
    let mut ok = true;
    println!(
        "{:<14} {:<18} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "a (base)", "b", "b/a", "bound"
    );
    for (name, wa) in &a_w {
        let Some((_, wb)) = b_w.iter().find(|(n, _)| n == name) else {
            println!("{name:<14} missing from {b_path}");
            ok = false;
            continue;
        };
        let num = |w: &Json, path: [&str; 2]| -> Option<f64> {
            path.iter().try_fold(w, |j, k| j.get(k)).and_then(Json::as_f64)
        };
        for m in &metrics {
            let (Some(va), Some(vb)) =
                (num(wa, ["end_to_end", &m.name]), num(wb, ["end_to_end", &m.name]))
            else {
                println!("{name:<14} {:<18} missing", m.name);
                ok = false;
                continue;
            };
            let ratio = vb / va;
            let worse_by = if m.higher_is_better { 1.0 - ratio } else { ratio - 1.0 };
            // A NaN ratio (a zero or missing base) is a breach, not a pass.
            let breach = worse_by.is_nan() || worse_by > m.bound;
            ok &= !breach;
            println!(
                "{name:<14} {:<18} {va:>14.4} {vb:>14.4} {ratio:>8.4} {:>6.0}%  {}",
                m.name,
                m.bound * 100.0,
                if breach { "WORSE" } else { "ok" }
            );
        }
        let share = |w: &Json| -> Option<f64> {
            Some(w.get("ops_failed")?.as_f64()? / w.get("ops_attempted")?.as_f64()?.max(1.0))
        };
        match (share(wa), share(wb)) {
            (Some(fa), Some(fb)) if fb <= fa => {}
            (fa, fb) => {
                println!("{name:<14} ops_failed share {fa:?} -> {fb:?}  WORSE");
                ok = false;
            }
        }
    }
    println!("{}", if ok { "within bounds" } else { "out of bounds" });
    Ok(ok)
}
