//! Runs the smoke-sized matrix through the real binary and holds the
//! benchmark to what `BENCHMARK.json` declares.

use std::path::{Path, PathBuf};
use std::process::Command;

use isum_benchmark::pipeline::{catalog, compress, generate_script};
use isum_benchmark::spec::{self, Gen, Metric};
use isum_benchmark::{repo_root, serve};
use isum_common::Json;

const EXE: &str = env!("CARGO_BIN_EXE_isum-benchmark");

fn tmp(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(name)
}

/// Runs the benchmark binary; returns its exit code and stdout.
fn bench(args: &[&str]) -> (i32, String) {
    let out = Command::new(EXE).args(args).output().expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&out.stderr);
    (
        out.status.code().unwrap_or(-1),
        format!("{stdout}{}", if stderr.is_empty() { "" } else { "\n" }) + &stderr,
    )
}

fn declared() -> Json {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(doc: &Json, list: &str) -> Vec<(String, String)> {
    doc.get(list)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has `{list}`"))
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or_default().to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

#[test]
fn benchmark_json_declares_exactly_the_vocabulary_in_spec() {
    let doc = declared();
    let same = |list: &str, metrics: &[Metric]| {
        let want: Vec<_> =
            metrics.iter().map(|m| (m.name.to_string(), m.unit.to_string())).collect();
        assert_eq!(names(&doc, list), want, "`{list}` in BENCHMARK.json vs spec.rs");
    };
    same("end_to_end", spec::END_TO_END);
    same("per_layer", spec::PER_LAYER);
    let workloads: Vec<_> = doc
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap_or_default().to_string())
        .collect();
    let want: Vec<_> = spec::workloads(false).iter().map(|w| w.name.to_string()).collect();
    assert_eq!(workloads, want);
    for (name, unit) in names(&doc, "end_to_end").iter().chain(&names(&doc, "per_layer")) {
        let ok = |s: &str, extra: &str| {
            !s.is_empty() && s.chars().all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        assert!(ok(name, "_.-") && name.len() <= 64, "metric name `{name}`");
        assert!(ok(unit, "_/%.-") && unit.len() <= 16, "unit `{unit}` of `{name}`");
    }
    let paths = doc.get("paths").and_then(Json::as_array).expect("paths");
    assert_eq!(paths, [Json::from("benchmark")]);
}

/// Every declared metric of every workload is in the result line as a
/// finite number with its declared unit, and every output check passed.
fn assert_reports(trace: &str, list: &str) {
    let (code, stdout) = bench(&["run", "--smoke", "--trace", trace]);
    assert_eq!(code, 0, "smoke matrix failed:\n{stdout}");
    let last = stdout.lines().rev().find(|l| l.starts_with('{')).expect("a result line");
    let result = Json::parse(last).expect("result line parses");
    let keys: Vec<_> =
        result.as_object().expect("object").iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{stdout}");
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
    assert!(result.get("attempted").and_then(Json::as_u64).expect("attempted") >= 1);
    let metrics = result.get("metrics").expect("metrics");
    let doc = declared();
    for w in spec::workloads(true) {
        for (name, unit) in names(&doc, list) {
            let key = format!("{}.{name}", w.name);
            let m = metrics.get(&key).unwrap_or_else(|| panic!("{key} missing:\n{stdout}"));
            let v = m
                .get("value")
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("{key} has no number"));
            assert!(v.is_finite(), "{key} = {v}");
            if list == "end_to_end" {
                assert!(v > 0.0, "end-to-end metric {key} must never be 0, got {v}");
            }
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()), "{key}");
        }
    }
    let reported = metrics.as_object().expect("metrics object").len();
    assert_eq!(reported, 4 * names(&doc, list).len(), "undeclared metrics in the result line");
}

#[test]
fn smoke_matrix_reports_every_end_to_end_metric() {
    assert_reports("0", "end_to_end");
}

#[test]
fn smoke_matrix_reports_every_per_layer_metric() {
    assert_reports("1", "per_layer");
}

#[test]
fn in_process_batch_sequence_is_byte_identical_to_the_cli() {
    let isum = serve::build_daemon().expect("isum CLI builds");
    let script = generate_script(Gen::Tpch, 10, 1200, 5);
    let path = tmp("cli_identity.sql");
    std::fs::write(&path, &script).expect("script written");
    let cli = Command::new(isum)
        .args(["compress", "--schema", "tpch:10", "-k", "20", "--json", "--workload"])
        .arg(&path)
        .output()
        .expect("isum compress runs");
    assert!(cli.status.success(), "{}", String::from_utf8_lossy(&cli.stderr));
    let ours = compress(&script, catalog(Gen::Tpch, 10), 20).expect("in-process pipeline");
    assert_eq!(String::from_utf8_lossy(&cli.stdout), format!("{}\n", ours.json));
}

#[test]
fn compare_accepts_a_run_against_itself_and_rejects_a_regression() {
    let (a, b) = (tmp("compare_a.json"), tmp("compare_b.json"));
    let (code, stdout) =
        bench(&["run", "--smoke", "--workload", "batch_tpch", "--out", a.to_str().expect("utf-8")]);
    assert_eq!(code, 0, "{stdout}");
    let text = std::fs::read_to_string(&a).expect("result document");
    let doc = Json::parse(&text).expect("result document parses");
    let rate = doc
        .get("workloads")
        .and_then(|w| w.get("batch_tpch"))
        .and_then(|w| w.get("end_to_end"))
        .and_then(|e| e.get("stmts_per_s"))
        .and_then(Json::as_f64)
        .expect("stmts_per_s recorded");
    for key in ["cpus", "rustc", "commit", "seed", "scratch_fs", "fsync"] {
        assert!(doc.get("environment").and_then(|e| e.get(key)).is_some(), "environment.{key}");
    }
    let (a, b) = (a.to_str().expect("utf-8"), b.to_str().expect("utf-8"));
    assert_eq!(bench(&["compare", a, a]).0, 0);
    // Half the throughput is far past the bound.
    let slower = text.replacen(&format!("{rate}"), &format!("{}", rate / 2.0), 1);
    assert_ne!(slower, text);
    std::fs::write(b, slower).expect("regressed document written");
    let (code, table) = bench(&["compare", a, b]);
    assert_eq!(code, 2, "{table}");
    assert!(table.contains("WORSE"), "{table}");
}
