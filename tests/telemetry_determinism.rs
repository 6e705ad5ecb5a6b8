//! The telemetry contract (DESIGN.md §10): the flight recorder is purely
//! observational. Attaching one must not perturb a single metric, and every
//! export — timeline CSV, JSON, Perfetto counters, heatmap — must be as
//! deterministic as the run it observed: two recorded runs of the same
//! `(benchmark, seed)` serialize byte-identically.

use hdpat_wafer::prelude::*;

/// Sampling interval for the unit-scale points below; small enough that
/// every benchmark spans several epochs.
const INTERVAL: u64 = 2_000;

fn point(bench: BenchmarkId, seed: u64) -> RunConfig {
    RunConfig::new(bench, Scale::Unit, PolicyKind::hdpat()).with_seed(seed)
}

#[test]
fn telemetry_does_not_change_metrics() {
    let cfg = point(BenchmarkId::Km, 7);
    let plain = run(&cfg).to_deterministic_string();
    let (recorded, sink) = run_observed(&cfg, TelemetrySink::new(INTERVAL));
    assert!(!sink.is_empty(), "recorded run registered no counters");
    assert_eq!(
        plain,
        recorded.to_deterministic_string(),
        "attaching a telemetry sink changed the deterministic metrics"
    );
}

#[test]
fn recorded_runs_export_byte_identical_artifacts() {
    let cfg = point(BenchmarkId::Spmv, 11);
    let (_, a) = run_observed(&cfg, TelemetrySink::new(INTERVAL));
    let (_, b) = run_observed(&cfg, TelemetrySink::new(INTERVAL));
    assert!(a.to_csv().lines().count() > 1, "timeline CSV is empty");
    assert_eq!(a.to_csv(), b.to_csv(), "same-seed timelines differ");
    assert_eq!(a.to_json(), b.to_json());
    assert_eq!(a.to_perfetto_json(), b.to_perfetto_json());
    let (ha, hb) = (a.heatmap(), b.heatmap());
    let ha = ha.expect("mesh registered no spatial grid");
    assert_eq!(ha.to_csv(), hb.expect("second run lost the grid").to_csv());
    assert!(ha.to_csv().lines().count() > 1, "heatmap CSV is empty");
}

#[test]
fn timelines_cover_each_benchmark_policy_pair() {
    // The acceptance matrix: several benchmarks × policies all produce
    // non-empty, self-consistent timeline and heatmap artifacts.
    for bench in [BenchmarkId::Spmv, BenchmarkId::Km, BenchmarkId::Relu] {
        for policy in [PolicyKind::Naive, PolicyKind::hdpat()] {
            let cfg = RunConfig::new(bench, Scale::Unit, policy).with_seed(42);
            let (m, sink) = run_observed(&cfg, TelemetrySink::new(INTERVAL));
            assert!(m.total_cycles > 0);
            let csv = sink.to_csv();
            assert!(
                csv.lines().count() > sink.len(),
                "{bench} under {policy}: timeline has fewer rows than counters"
            );
            // Counter activity must reconcile with the run: the engine's
            // completed-ops track sums to the metric itself.
            let ops: u64 = csv
                .lines()
                .filter(|l| l.starts_with("engine.ops_completed,"))
                .map(|l| l.rsplit(',').next().unwrap().parse::<u64>().unwrap())
                .sum();
            assert_eq!(
                ops, m.ops_completed,
                "{bench} under {policy}: timeline ops disagree with metrics"
            );
            let hm = sink.heatmap().expect("no spatial grid");
            assert!(hm.width > 0 && hm.height > 0);
        }
    }
}

#[test]
fn sample_interval_changes_resolution_not_totals() {
    let cfg = point(BenchmarkId::Km, 7);
    let (_, fine) = run_observed(&cfg, TelemetrySink::new(500));
    let (_, coarse) = run_observed(&cfg, TelemetrySink::new(50_000));
    // Same counters registered, same whole-run totals, different epochs.
    assert_eq!(fine.len(), coarse.len());
    let total = |s: &TelemetrySink, name: &str| -> u64 {
        s.to_csv()
            .lines()
            .filter(|l| l.starts_with(name))
            .map(|l| l.rsplit(',').next().unwrap().parse::<u64>().unwrap())
            .sum()
    };
    for name in ["engine.ops_completed,", "hbm.accesses,", "mesh.link_bytes,"] {
        assert_eq!(total(&fine, name), total(&coarse, name), "{name} diverged");
    }
}
