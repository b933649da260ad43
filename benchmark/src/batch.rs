//! Batch workloads: the `isum compress --json` sequence over a generated
//! script, in this process, repeated in fixed-size units.

use std::time::Instant;

use crate::pipeline::{catalog, compress, compress_traced, generate_script, quality};
use crate::spec::BatchSpec;
use crate::util::{fnv1a, peak_rss_mb, steady, Values};
use crate::{Outcome, RunOpts};

/// Times the set-up is repeated.
const SETUPS: usize = 15;

pub fn run(spec: &BatchSpec, opts: &RunOpts) -> Result<Outcome, String> {
    let mut out = Outcome::new(isum_exec::global_threads());
    let path = opts.scratch.join("workload.sql");

    // Set-up: render the script from the seed and put it on disk, where
    // the pipeline under test reads it from.
    let mut setup = Vec::new();
    for _ in 0..SETUPS {
        let t = Instant::now();
        let script = generate_script(spec.gen, spec.sf, spec.statements, opts.seed);
        std::fs::write(&path, script).map_err(|e| format!("{}: {e}", path.display()))?;
        setup.push(t.elapsed().as_secs_f64());
    }

    // One unit = the whole CLI sequence, from the file to the rendered
    // summary. The finished workload is dropped outside the timed part
    // (the CLI exits instead), except the last, which the quality step
    // below tunes on.
    let one_unit = || -> Result<_, String> {
        let t = Instant::now();
        let script = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
        let done = compress(&script, catalog(spec.gen, spec.sf), spec.k)?;
        Ok((done, t.elapsed().as_secs_f64()))
    };
    let mut unit_s = Vec::new();
    let mut compress_s = Vec::new();
    let mut fingerprints = Vec::new();
    let last = loop {
        let (done, secs) = one_unit()?;
        unit_s.push(secs);
        compress_s.push(done.compress_s);
        fingerprints.push(fnv1a(done.json.as_bytes()));
        if opts.smoke || unit_s.iter().sum::<f64>() >= opts.seconds {
            break done;
        }
    };
    let rss = peak_rss_mb(None)?;
    out.attempted += unit_s.len() as u64;
    out.check(fingerprints.iter().all(|f| *f == fingerprints[0]), || {
        format!("summary fingerprint differs between units: {fingerprints:016x?}")
    });
    out.note("summary_fingerprint", format!("{:016x}", fingerprints[0]));
    out.note("unit_s", unit_s.iter().map(|v| format!("{v:.3}")).collect::<Vec<_>>().join(" "));
    out.sample("units", unit_s.len());
    out.sample("statements_per_unit", spec.statements);

    let q = quality(&last.workload, &last.summary);
    // Times are the mean of the faster half of the repetitions (see `steady`).
    let unit = steady(&unit_s, false);
    let e = &mut out.e2e;
    e.insert("setup_s".into(), steady(&setup, false));
    e.insert("stmts_per_s".into(), spec.statements as f64 / unit);
    e.insert("latency_p50_ms".into(), unit * 1e3);
    e.insert("summary_p50_ms".into(), steady(&compress_s, false) * 1e3);
    e.insert("peak_rss_mb".into(), rss);
    e.insert("improvement_pct".into(), q.improvement_pct);

    if opts.trace {
        // The traced run is judged against the untraced unit next to it in
        // time (same phase of the box, same recycled heap), file read excluded.
        let neighbour_s = last.load_s + last.compress_s;
        drop(last);
        let script = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
        let (traced, ns) = compress_traced(&script, catalog(spec.gen, spec.sf), spec.k)?;
        out.check(fnv1a(traced.json.as_bytes()) == fingerprints[0], || {
            "traced pipeline rendered a different summary than the untraced one".into()
        });
        let mut layers = Values::new();
        ns.report(&mut layers);
        q.report(&mut layers);
        layers.insert("trace.overhead_ratio".into(), ns.total as f64 / 1e9 / neighbour_s);
        out.layers = Some(layers);
    }
    Ok(out)
}
