//! Jobs-invariance of the sweep runner: the same figure regenerated with one
//! worker and with four must be byte-identical in every rendering, and every
//! point a sweep returns — simulated or answered from the run cache — must
//! agree with a plain [`run`] of its config down to the last byte of the
//! deterministic serialization. This is the contract that makes `--jobs` and
//! the run cache pure wall-clock knobs (DESIGN.md §9).

use hdpat::experiments::{run, RunConfig, SweepCtx};
use hdpat::policy::PolicyKind;
use wsg_bench::figures;
use wsg_workloads::{BenchmarkId, Scale};

/// The configurations that must be indistinguishable from the output:
/// today's serial behavior and a parallel sweep.
fn contexts() -> [(&'static str, SweepCtx); 2] {
    [("jobs=1", SweepCtx::new(1)), ("jobs=4", SweepCtx::new(4))]
}

#[test]
fn fig14_is_byte_identical_across_jobs_and_caching() {
    let runs: Vec<(&str, SweepCtx, _)> = contexts()
        .into_iter()
        .map(|(name, ctx)| {
            let table = figures::fig14_overall(&ctx, Scale::Unit);
            (name, ctx, table)
        })
        .collect();
    let (ref_name, _, ref_table) = &runs[0];
    for (name, _, table) in &runs[1..] {
        assert_eq!(
            ref_table.to_text(),
            table.to_text(),
            "fig14 text differs: {ref_name} vs {name}"
        );
        assert_eq!(
            ref_table.to_csv(),
            table.to_csv(),
            "fig14 CSV differs: {ref_name} vs {name}"
        );
        assert_eq!(
            ref_table.to_markdown(),
            table.to_markdown(),
            "fig14 Markdown differs: {ref_name} vs {name}"
        );
    }

    // Every fig14 point, answered from the parallel context's cache, equals
    // a fresh serial simulation of the same config. The context executes
    // nothing new, which proves these are exactly the figure's points.
    let (_, ctx, _) = &runs[1];
    let executed = ctx.cache_stats().1;
    for b in BenchmarkId::all() {
        for policy in [
            PolicyKind::Naive,
            PolicyKind::TransFw,
            PolicyKind::Valkyrie,
            PolicyKind::Barre,
            PolicyKind::hdpat(),
        ] {
            let cfg = RunConfig::new(b, Scale::Unit, policy);
            assert_eq!(
                ctx.run(&cfg).to_deterministic_string(),
                run(&cfg).to_deterministic_string(),
                "fig14 point {b} {policy:?} differs from a plain run"
            );
        }
    }
    assert_eq!(ctx.cache_stats().1, executed, "a point fig14 never swept");
}

#[test]
fn sweep_metrics_are_byte_identical_across_jobs_and_caching() {
    // Duplicates included on purpose: the sweep dedups them, and that must
    // not show in the results.
    let points: Vec<RunConfig> = [
        BenchmarkId::Spmv,
        BenchmarkId::Fir,
        BenchmarkId::Spmv,
        BenchmarkId::Km,
    ]
    .into_iter()
    .flat_map(|b| {
        [
            RunConfig::new(b, Scale::Unit, PolicyKind::Naive),
            RunConfig::new(b, Scale::Unit, PolicyKind::hdpat()),
        ]
    })
    .collect();

    let reference: Vec<String> = points
        .iter()
        .map(|cfg| run(cfg).to_deterministic_string())
        .collect();
    for (name, ctx) in contexts() {
        let bytes: Vec<String> = ctx
            .sweep(&points)
            .iter()
            .map(|m| m.to_deterministic_string())
            .collect();
        assert_eq!(
            reference, bytes,
            "sweep metrics differ from plain runs: {name}"
        );
    }
}
