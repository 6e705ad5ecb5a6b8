//! Golden per-point digests (`tests/golden/digests.txt`): the byte-for-byte
//! reference that refactors of the engine are checked against.
//!
//! * `run` lines — every benchmark × every [`PolicyKind::catalog`] entry at
//!   unit scale, seed 42: the 128-bit FNV-1a of
//!   `Metrics::to_deterministic_string`. The catalog reaches the route,
//!   concentric, distributed, Trans-FW and IOMMU-TLB paths that the fig14
//!   golden skips. Checked in every build.
//! * `trace` lines — the Chrome-trace JSON of SPMV, KM and RELU under
//!   naive and HDPAT (the points ci.sh exports artifacts for). Checked only
//!   when the `trace` feature is compiled in.
//!
//! A deliberate model change re-blesses the file with
//! `WSG_BLESS=1 cargo test --test golden_digests` (add `--features trace`
//! for the trace lines); each build rewrites only the lines it computes.

use std::path::PathBuf;

use hdpat_wafer::hdpat::experiments::fnv128_hex;
use hdpat_wafer::prelude::*;

const SEED: u64 = 42;

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
    let results = SweepCtx::auto().sweep(&cfgs);
    points
        .iter()
        .zip(results)
        .map(|((key, _), m)| format!("{key} {}", fnv128_hex(&m.to_deterministic_string())))
        .collect()
}

/// One `trace <bench> <policy> <hash>` line per traced point.
#[cfg(feature = "trace")]
fn trace_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for b in [BenchmarkId::Spmv, BenchmarkId::Km, BenchmarkId::Relu] {
        for token in ["naive", "hdpat"] {
            let p = PolicyKind::from_token(token).expect("catalog token");
            let cfg = RunConfig::new(b, Scale::Unit, p).with_seed(SEED);
            let (_, sink) = run_traced(&cfg);
            lines.push(format!(
                "trace {b} {token} {}",
                fnv128_hex(&sink.to_chrome_json())
            ));
        }
    }
    lines
}

/// Compares the `kind` lines of the golden file with `fresh`, or rewrites
/// them when `WSG_BLESS` is set.
fn check(kind: &str, fresh: Vec<String>) {
    let path = golden_path();
    let text = std::fs::read_to_string(&path).unwrap_or_default();
    let prefix = format!("{kind} ");
    if std::env::var_os("WSG_BLESS").is_some() {
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

#[cfg(feature = "trace")]
#[test]
fn traced_points_match_their_golden_digests() {
    check("trace", trace_lines());
}
