//! Integration tests for the page-migration extension.

use hdpat::experiments::{run, RunConfig};
use hdpat::MigrationConfig;
use hdpat_wafer::prelude::*;

/// Runs `b` under `p` at unit scale with page migration enabled.
fn migrating(b: BenchmarkId, p: PolicyKind, migration: MigrationConfig) -> Metrics {
    run(&RunConfig::new(b, Scale::Unit, p).with_migration(migration))
}

#[test]
fn migration_completes_all_work() {
    let plain = run(&RunConfig::new(
        BenchmarkId::Relu,
        Scale::Unit,
        PolicyKind::Naive,
    ));
    let migrated = migrating(
        BenchmarkId::Relu,
        PolicyKind::Naive,
        MigrationConfig::default_streak(),
    );
    assert_eq!(
        migrated.ops_completed, plain.ops_completed,
        "migration must not lose or duplicate ops"
    );
    assert!(migrated.total_cycles > 0);
}

#[test]
fn migration_actually_migrates_on_sole_consumer_workloads() {
    // RELU: each page has exactly one (remote) consumer after round-robin
    // dispatch — the ideal migration target.
    let m = migrating(
        BenchmarkId::Relu,
        PolicyKind::Naive,
        MigrationConfig {
            streak_threshold: 4,
            install_latency: 100,
        },
    );
    assert!(m.pages_migrated > 0, "no pages migrated");
}

#[test]
fn migration_is_off_by_default() {
    let m = run(&RunConfig::new(
        BenchmarkId::Relu,
        Scale::Unit,
        PolicyKind::Naive,
    ));
    assert_eq!(m.pages_migrated, 0);
}

#[test]
fn migration_composes_with_hdpat() {
    let m = migrating(
        BenchmarkId::Spmv,
        PolicyKind::hdpat(),
        MigrationConfig::default_streak(),
    );
    assert!(m.ops_completed > 0);
    // HDPAT mechanisms still operate alongside migration.
    assert!(m.resolution.total() > 0);
}

#[test]
fn migration_is_deterministic() {
    let a = migrating(
        BenchmarkId::Km,
        PolicyKind::hdpat(),
        MigrationConfig::default_streak(),
    );
    let b = migrating(
        BenchmarkId::Km,
        PolicyKind::hdpat(),
        MigrationConfig::default_streak(),
    );
    assert_eq!(a.total_cycles, b.total_cycles);
    assert_eq!(a.pages_migrated, b.pages_migrated);
}

#[test]
fn hot_shared_pages_do_not_migrate() {
    // PR's rank pages are shared by every GPM: streaks keep resetting, so
    // few (if any) of them should migrate relative to the page population.
    let m = migrating(
        BenchmarkId::Pr,
        PolicyKind::Naive,
        MigrationConfig::default_streak(),
    );
    let relu = migrating(
        BenchmarkId::Relu,
        PolicyKind::Naive,
        MigrationConfig::default_streak(),
    );
    assert!(
        relu.pages_migrated >= m.pages_migrated,
        "sole-consumer RELU ({}) should migrate at least as much as shared PR ({})",
        relu.pages_migrated,
        m.pages_migrated
    );
}
