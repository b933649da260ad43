//! Unit tests of the shard layer, and the live ≡ replay model test: the
//! live worker driven over a [`Storage`] double that can lose power,
//! against a fresh state fed the acknowledged records.

use isum_catalog::CatalogBuilder;
use isum_common::rng::split_mix64;
use proptest::prelude::*;

use super::*;
use crate::wal::mem::MemStorage;

#[test]
fn tenant_validation_matches_the_wire_contract() {
    assert!(validate_tenant("default").is_ok());
    assert!(validate_tenant("acme-prod_7").is_ok());
    assert!(validate_tenant(&"x".repeat(64)).is_ok());
    assert!(validate_tenant("").is_err());
    assert!(validate_tenant(&"x".repeat(65)).is_err());
    assert!(validate_tenant("has space").is_err());
    assert!(validate_tenant("tab\tname").is_err());
    assert!(validate_tenant("path/traversal").is_err());
    assert!(validate_tenant("utf8-héllo").is_err());
}

#[test]
fn log_bases_drop_the_stem_extension_once() {
    let base = |stem: &str, tenant: &str| log_base(Path::new(stem), tenant);
    assert_eq!(base("dir/ckpt.json", DEFAULT_TENANT), Path::new("dir/ckpt.wal"));
    assert_eq!(
        base("dir/ckpt.json", "acme"),
        Path::new("dir/ckpt.t-61636d65.wal"),
        "tenant logs are hex-tagged siblings"
    );
    assert_eq!(
        base("dir/ckpt.json", "h3"),
        Path::new("dir/ckpt.t-6833.wal"),
        "no name is special: restart discovery scans `t-<hex>` only"
    );
    assert_eq!(base("dir/my.ckpt.json", "acme"), Path::new("dir/my.ckpt.t-61636d65.wal"));
    // No extension: a tenant's tag is never mistaken for one, so every
    // tenant keeps its own log.
    assert_eq!(base("state", DEFAULT_TENANT), Path::new("state.wal"));
    assert_eq!(base("state", "acme"), Path::new("state.t-61636d65.wal"));
}

#[test]
fn tenants_are_discovered_by_their_segments_and_every_retired_file_is_named() {
    for (stem_name, ext) in [("ckpt.json", ".json"), ("ckpt", "")] {
        let dir = std::env::temp_dir().join(format!(
            "isum-shards-disc-{}-{}",
            ext.len(),
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let stem = dir.join(stem_name);
        let touch = |name: &str| std::fs::write(dir.join(name), "").unwrap();
        let segment = |tenant: &str, n: u64| wal::segment_path(&log_base(&stem, tenant), n);
        // A tenant with two segments is found once.
        for (tenant, n) in [("acme", 1), ("acme", 2), ("zeta-9", 41), (DEFAULT_TENANT, 1)] {
            std::fs::write(segment(tenant, n), "").unwrap();
        }
        // Distractors: junk hex, a short segment number, what a v1
        // import renamed aside, tags that are not shard tags.
        for name in ["ckpt.t-zz.wal.00000001", "ckpt.t-676f6e65.wal.7", "ckpt.notes"] {
            touch(name);
        }
        for name in [stem_name, "ckpt.wal", "ckpt.t-676f6e65", "ckpt.h0.wal", "ckpt.hx.wal"] {
            touch(&format!("{name}.imported"));
        }
        touch("ckpt.h.wal");
        let files = state_files(&stem);
        assert_eq!(tenants_of(&files), ["acme", "zeta-9"], "{stem_name}");
        assert!(refuse_retired_layouts(&files).is_ok(), "{stem_name}: nothing is retired");

        // v1 files of the default tenant, of a tenant and of a hashed
        // shard, and a hashed-mode segment.
        let prev = format!("{stem_name}.prev");
        let tenant_v1 = format!("ckpt.t-676f6e65{ext}");
        let hashed_v1 = format!("ckpt.h0{ext}");
        let v1 = [stem_name, &prev, "ckpt.wal", &tenant_v1, "ckpt.t-676f6e65.wal", &hashed_v1];
        for name in v1.iter().chain(&["ckpt.h12.wal", "ckpt.h0.wal.00000003"]) {
            touch(name);
        }
        let refusal = refuse_retired_layouts(&state_files(&stem)).unwrap_err().to_string();
        for name in v1.iter().chain(&["ckpt.h12.wal"]) {
            assert!(refusal.contains(name), "{stem_name}: {name} unnamed in {refusal}");
        }
        assert!(
            refusal.contains("(--shards): ckpt.h0.wal.00000003;")
                && refusal.contains("(h0 -> t-6830)"),
            "{refusal}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

// -----------------------------------------------------------------
// Live ≡ replay, under power loss
// -----------------------------------------------------------------

/// A daemon configuration whose drift tracker crosses often: a
/// four-query window under `resummarize`.
fn drifting(segment_bytes: u64) -> Arc<ServerConfig> {
    let catalog = CatalogBuilder::new()
        .table("t", 50_000)
        .col_key("id")
        .col_int("grp", 200, 0, 200)
        .col_int("v", 1_000, 0, 10_000)
        .finish()
        .expect("fresh table")
        .build();
    let mut cfg = ServerConfig::new(catalog);
    cfg.drift_window = 4;
    cfg.drift_action = DriftAction::Resummarize;
    cfg.wal_segment_bytes = segment_bytes;
    Arc::new(cfg)
}

/// What tells two states apart: the summary's bytes, the mark, the
/// drift tracker (window, history and edge: its score follows) and a
/// pending crossing.
fn observed(state: &ShardState) -> (String, u64, String, Option<usize>) {
    let summary = state.engine.summary_json(3).map_or_else(|e| e.to_string(), |j| j.to_pretty());
    (summary, state.next_seq, format!("{:?}", state.drift), state.crossed)
}

fn fold(cfg: &ServerConfig, records: &[Record]) -> ShardState {
    let mut state = ShardState::new(cfg);
    for record in records {
        state.apply(record);
    }
    state
}

/// `create_shard` over `storage`: recovery, then the worker's start
/// (which rebases on a crossing the log ends on). Also returns what
/// recovery alone rebuilt.
fn boot(
    cfg: &Arc<ServerConfig>,
    storage: &MemStorage,
) -> ((String, u64, String, Option<usize>), Worker<MemStorage>) {
    let base = Path::new("/ckpt.wal");
    let (state, wal) = recover_shard_state(storage.clone(), cfg, DEFAULT_TENANT, Some(base))
        .unwrap_or_else(|e| panic!("recovery refused: {e} ({:?})", storage.names()));
    let recovered = observed(&state);
    let shard = Shard::new(DEFAULT_TENANT, state, None);
    (recovered, Worker::start(Arc::clone(cfg), shard, wal))
}

/// One seeded schedule of sequenced, unsequenced, duplicate and
/// early batches (whose drift crossings rebase the shard), injected
/// I/O death, clean restarts and power cuts, driven through the live
/// worker. The live shard must always equal a fresh state fed the
/// acked records; after every recovery, so must the recovered state —
/// or a fresh state fed those plus the one record in flight.
fn run_live_schedule(seed: u64) {
    let mut rng = seed ^ 0x0DD5_EED5_1234_5678;
    let mut below = |n: u64| split_mix64(&mut rng) % n.max(1);
    let cfg = drifting([1, 300, 1 << 20][below(3) as usize]);
    let storage = MemStorage::seeded(seed);
    let (_, mut worker) = boot(&cfg, &storage);
    let mut acked: Vec<Record> = Vec::new();
    let mut model = ShardState::new(&cfg);
    let mut template = 0;
    for step in 0..30u64 {
        let mut in_flight = None;
        let mut restart = false;
        match below(10) {
            0..=6 => {
                if below(3) == 0 {
                    template = below(3);
                }
                let next = model.next_seq;
                let seq = match below(6) {
                    0 => None,
                    1 => Some(below(next)).filter(|_| next > 0),
                    2 => Some(next + 1 + below(2)),
                    _ => Some(next),
                };
                let script: String = (0..below(4))
                    .map(|i| match template {
                        0 => format!("SELECT id FROM t WHERE grp = {};", (step + i) % 13),
                        1 => format!("SELECT grp FROM t WHERE v = {};", (step * 7 + i) % 997),
                        _ => format!("SELECT v FROM t WHERE id = {};", step * 3 + i),
                    })
                    .collect();
                let record = Record {
                    kind: Kind::Batch,
                    wal_seq: 0,
                    seq,
                    shard: DEFAULT_TENANT.into(),
                    stmts: split_batch(&script),
                };
                let rebuilt = worker.shard.cells.resummarizes.load(Ordering::Relaxed);
                let resp = worker.ingest(seq, &script, &StageClock::new());
                let body = String::from_utf8_lossy(&resp.body).into_owned();
                let status = Json::parse(&body)
                    .ok()
                    .and_then(|j| j.get("status").and_then(|s| s.as_str().map(String::from)));
                let at = format!("seed {seed} step {step} seq {seq:?} next {next}: {body}");
                match seq {
                    Some(s) if s < next => assert_eq!(status.as_deref(), Some("duplicate"), "{at}"),
                    Some(s) if s > next => assert!(body.contains("ahead"), "{at}"),
                    _ if resp.status == 200 => {
                        assert_eq!(status.as_deref(), Some("ok"), "{at}");
                        model.apply(&record);
                        acked.push(record);
                        if let Some(rebase) = model.rebase_record(DEFAULT_TENANT) {
                            if worker.shard.cells.resummarizes.load(Ordering::Relaxed) > rebuilt {
                                model.apply(&rebase);
                                acked.push(rebase);
                            } else {
                                (in_flight, restart) = (Some(rebase), true);
                            }
                        }
                    }
                    _ => {
                        assert!(body.contains("not applied"), "{at}");
                        (in_flight, restart) = (Some(record), true);
                    }
                }
            }
            7 => storage.die_after(1 + below(8)),
            _ => restart = true,
        }
        let live = observed(&lock(&worker.shard.state));
        assert_eq!(live, observed(&model), "seed {seed} step {step}: live ≠ acked records");
        if !restart {
            continue;
        }
        drop(worker);
        if below(2) == 0 {
            storage.power_loss();
        } else {
            storage.restart();
        }
        let (recovered, started) = boot(&cfg, &storage);
        worker = started;
        if recovered != observed(&model) {
            let record = in_flight.unwrap_or_else(|| {
                panic!("seed {seed} step {step}: recovery lost an acked record")
            });
            acked.push(record);
            model = fold(&cfg, &acked);
            assert_eq!(
                recovered,
                observed(&model),
                "seed {seed} step {step}: recovered neither the acked records nor those \
                 plus the one in flight"
            );
        }
        // The start-up rebase answers a crossing the log ended on.
        if let Some(rebase) = model.rebase_record(DEFAULT_TENANT) {
            assert_eq!(worker.shard.cells.resummarizes.load(Ordering::Relaxed), 1);
            model.apply(&rebase);
            acked.push(rebase);
        }
        let live = observed(&lock(&worker.shard.state));
        assert_eq!(live, observed(&model), "seed {seed} step {step}: restarted ≠ acked");
    }
}

proptest! {
    #[test]
    fn live_ingest_equals_replay_under_power_loss(seed in any::<u64>()) {
        run_live_schedule(seed);
    }
}
