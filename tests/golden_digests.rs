//! Golden per-point digests (`tests/golden/digests.txt`): the byte-for-byte
//! reference that refactors of the engine are checked against.
//!
//! * `run` lines — every benchmark × every [`PolicyKind::catalog`] entry at
//!   unit scale, seed 42: the 128-bit FNV-1a of
//!   `Metrics::to_deterministic_string`. The catalog reaches the route,
//!   concentric, distributed, Trans-FW and IOMMU-TLB paths that the fig14
//!   golden skips.
//! * `table` lines — every table of `hdpat-sim figure all --scale unit`,
//!   hashed as the exact text `hdpat-sim figure <name> --scale unit`
//!   prints.
//! * `trace` lines — the Chrome-trace JSON of SPMV, KM and RELU under
//!   naive and HDPAT (the points ci.sh exports artifacts for).
//! * `timeline` and `heatmap` lines — the CSV artifacts `hdpat-sim
//!   timeline` and `hdpat-sim heatmap` write for the same six points at
//!   the default sampling interval.
//!
//! Every run here also exercises the structures' debug-build invariant
//! checks (occupancy bounds, entry and link conservation). A deliberate
//! model change re-blesses the file with
//! `WSG_BLESS=1 cargo test --test golden_digests`.

use std::path::PathBuf;
use std::sync::Mutex;

use hdpat_wafer::hdpat::experiments::fnv128_hex;
use hdpat_wafer::prelude::*;
use wsg_bench::report::render;

const SEED: u64 = 42;

/// The benchmark × policy points whose artifacts ci.sh exports.
fn artifact_points() -> Vec<(BenchmarkId, &'static str, RunConfig)> {
    let mut points = Vec::new();
    for b in [BenchmarkId::Spmv, BenchmarkId::Km, BenchmarkId::Relu] {
        for token in ["naive", "hdpat"] {
            let p = PolicyKind::from_token(token).expect("catalog token");
            points.push((b, token, RunConfig::new(b, Scale::Unit, p).with_seed(SEED)));
        }
    }
    points
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/digests.txt")
}

/// One `run <bench> <policy> <hash>` line per catalog point.
fn run_lines() -> Vec<String> {
    let points: Vec<(String, RunConfig)> = BenchmarkId::all()
        .into_iter()
        .flat_map(|b| {
            PolicyKind::catalog().into_iter().map(move |(token, p)| {
                (
                    format!("run {b} {token}"),
                    RunConfig::new(b, Scale::Unit, p).with_seed(SEED),
                )
            })
        })
        .collect();
    let cfgs: Vec<RunConfig> = points.iter().map(|(_, c)| c.clone()).collect();
    let results = SweepCtx::new(wsg_sim::pool::default_jobs()).sweep(&cfgs);
    points
        .iter()
        .zip(results)
        .map(|((key, _), m)| format!("{key} {}", fnv128_hex(&m.to_deterministic_string())))
        .collect()
}

/// One `table <name> <hash>` line per `figure all --scale unit` table.
fn table_lines() -> Vec<String> {
    let ctx = SweepCtx::new(wsg_sim::pool::default_jobs());
    wsg_bench::figures::all(&ctx, Scale::Unit)
        .into_iter()
        .map(|(name, table)| format!("table {name} {}", fnv128_hex(&render(name, "", &table()))))
        .collect()
}

/// One `trace <bench> <policy> <hash>` line per traced point.
fn trace_lines() -> Vec<String> {
    artifact_points()
        .into_iter()
        .map(|(b, token, cfg)| {
            let (_, sink) = run_observed(&cfg, TraceSink::new());
            format!("trace {b} {token} {}", fnv128_hex(&sink.to_chrome_json()))
        })
        .collect()
}

/// The `timeline` and `heatmap` lines of every artifact point, sampled
/// every 10,000 cycles like `hdpat-sim timeline` and `heatmap` by default.
fn telemetry_lines() -> (Vec<String>, Vec<String>) {
    let (mut timelines, mut heatmaps) = (Vec::new(), Vec::new());
    for (b, token, cfg) in artifact_points() {
        let (_, sink) = run_observed(&cfg, TelemetrySink::new(10_000));
        let heatmap = sink.heatmap().expect("mesh registered no spatial grid");
        timelines.push(format!(
            "timeline {b} {token} {}",
            fnv128_hex(&sink.to_csv())
        ));
        heatmaps.push(format!(
            "heatmap {b} {token} {}",
            fnv128_hex(&heatmap.to_csv())
        ));
    }
    (timelines, heatmaps)
}

/// Serializes [`check`], so tests re-blessing the file concurrently never
/// overwrite each other's blocks.
static GOLDEN_FILE: Mutex<()> = Mutex::new(());

/// Compares the `kind` lines of the golden file with `fresh`, or rewrites
/// them when `WSG_BLESS` is set.
fn check(kind: &str, fresh: Vec<String>) {
    let _file = GOLDEN_FILE.lock().unwrap_or_else(|e| e.into_inner());
    let path = golden_path();
    let text = std::fs::read_to_string(&path).unwrap_or_default();
    let prefix = format!("{kind} ");
    #[expect(
        clippy::disallowed_methods,
        reason = "re-blessing is a deliberate developer action outside cargo test's arguments"
    )]
    let bless = std::env::var_os("WSG_BLESS").is_some();
    if bless {
        // Replace this kind's block in place (append it if absent), keeping
        // every other line where it is.
        let mut out = Vec::new();
        let mut fresh = Some(fresh);
        for line in text.lines() {
            if !line.starts_with(&prefix) {
                out.push(line.to_string());
            } else if let Some(block) = fresh.take() {
                out.extend(block);
            }
        }
        out.extend(fresh.into_iter().flatten());
        std::fs::write(&path, out.join("\n") + "\n").expect("write golden digests");
        return;
    }
    let golden: Vec<&str> = text.lines().filter(|l| l.starts_with(&prefix)).collect();
    let changed: Vec<String> = fresh
        .iter()
        .filter(|l| !golden.contains(&l.as_str()))
        .cloned()
        .collect();
    assert!(
        changed.is_empty() && golden.len() == fresh.len(),
        "{} of {} `{kind}` digests differ from {} (golden has {} lines); first: {:?}\n\
         re-bless deliberate model changes with WSG_BLESS=1",
        changed.len(),
        fresh.len(),
        path.display(),
        golden.len(),
        changed.iter().take(5).collect::<Vec<_>>()
    );
}

#[test]
fn every_catalog_point_matches_its_golden_digest() {
    check("run", run_lines());
}

#[test]
fn every_figure_table_matches_its_golden_digest() {
    check("table", table_lines());
}

#[test]
fn traced_points_match_their_golden_digests() {
    check("trace", trace_lines());
}

#[test]
fn telemetry_artifacts_match_their_golden_digests() {
    let (timelines, heatmaps) = telemetry_lines();
    check("timeline", timelines);
    check("heatmap", heatmaps);
}
