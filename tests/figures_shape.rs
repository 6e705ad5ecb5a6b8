//! Shape tests for the figure harness: every figure function produces a
//! well-formed table at test scale, and the key rows carry the expected
//! qualitative content.

use std::sync::OnceLock;

use hdpat::experiments::SweepCtx;
use wsg_bench::figures;
use wsg_bench::report::Table;
use wsg_workloads::{BenchmarkId, Scale};

/// One process-wide sweep context: the test threads share its run cache, so
/// the Unit-scale baselines common to many figures simulate once per process
/// instead of once per test.
fn ctx() -> &'static SweepCtx {
    static CTX: OnceLock<SweepCtx> = OnceLock::new();
    CTX.get_or_init(|| SweepCtx::new(wsg_sim::pool::default_jobs()))
}

fn parse_ratio(cell: &str) -> f64 {
    cell.parse()
        .unwrap_or_else(|_| panic!("not a ratio: {cell}"))
}

fn gmean_row<'a>(t: &'a Table, label: &str) -> &'a Vec<String> {
    t.rows
        .iter()
        .find(|r| r[0] == label)
        .unwrap_or_else(|| panic!("no {label} row"))
}

#[test]
fn fig02_shows_headroom() {
    let t = figures::fig02_headroom(ctx(), Scale::Unit);
    assert_eq!(t.rows.len(), 15, "14 benchmarks + GMEAN");
    let gm = gmean_row(&t, "GMEAN");
    assert!(
        parse_ratio(&gm[1]) > 1.3,
        "ideal-latency headroom: {}",
        gm[1]
    );
    assert!(
        parse_ratio(&gm[2]) > 1.3,
        "ideal-parallelism headroom: {}",
        gm[2]
    );
}

#[test]
fn fig03_breakdown_sums_to_one() {
    let t = figures::fig03_latency_breakdown(ctx(), Scale::Unit);
    assert_eq!(t.rows.len(), 3);
    let total: f64 = t
        .rows
        .iter()
        .map(|r| r[2].trim_end_matches('%').parse::<f64>().unwrap())
        .sum();
    assert!((total - 100.0).abs() < 0.5, "shares total {total}");
    // The paper's observation: queueing (pre-queue) dominates the walk.
    let pre: f64 = t.rows[0][2].trim_end_matches('%').parse().unwrap();
    let walk: f64 = t.rows[2][2].trim_end_matches('%').parse().unwrap();
    assert!(
        pre > walk,
        "pre-queue ({pre}%) should dominate walk ({walk}%)"
    );
}

#[test]
fn fig04_wafer_pressure_exceeds_mcm() {
    let t = figures::fig04_buffer_pressure(ctx(), Scale::Unit);
    let mcm_peak: u64 = t
        .rows
        .iter()
        .map(|r| r[1].parse::<u64>().unwrap())
        .max()
        .unwrap();
    let wafer_peak: u64 = t
        .rows
        .iter()
        .map(|r| r[2].parse::<u64>().unwrap())
        .max()
        .unwrap();
    assert!(
        wafer_peak > 2 * mcm_peak.max(1),
        "48-GPM wafer backlog ({wafer_peak}) must dwarf 4-GPM MCM ({mcm_peak})"
    );
}

#[test]
fn fig05_has_one_row_per_ring() {
    let t = figures::fig05_position_imbalance(ctx(), Scale::Unit);
    assert_eq!(t.rows.len(), 3, "7x7 wafer has rings 1..3");
}

#[test]
fn fig06_separates_streaming_from_reuse_benchmarks() {
    let t = figures::fig06_translation_counts(ctx(), Scale::Unit);
    let many = |abbr: &str| -> f64 {
        let row = t.rows.iter().find(|r| r[0] == abbr).unwrap();
        row[4].trim_end_matches('%').parse().unwrap()
    };
    // Observation O3: streaming benchmarks rarely re-translate a page
    // (AES/RELU), while gather benchmarks re-translate constantly (PR/SPMV).
    for abbr in ["AES", "RELU"] {
        assert!(
            many(abbr) < 20.0,
            "{abbr} x5+ share too high: {}%",
            many(abbr)
        );
    }
    for abbr in ["PR", "SPMV"] {
        assert!(
            many(abbr) > 50.0,
            "{abbr} x5+ share too low: {}%",
            many(abbr)
        );
    }
}

#[test]
fn fig07_reports_repeats_for_reuse_benchmarks() {
    let t = figures::fig07_reuse_distance(ctx(), Scale::Unit);
    assert_eq!(t.rows.len(), 4);
    for row in &t.rows {
        let repeats: u64 = row[1].parse().unwrap();
        assert!(repeats > 0, "{} shows no repeated translations", row[0]);
    }
}

#[test]
fn fig08_locality_fractions_are_monotone() {
    let t = figures::fig08_spatial_locality(ctx(), Scale::Unit);
    for row in &t.rows {
        let f: Vec<f64> = (1..5)
            .map(|i| row[i].trim_end_matches('%').parse().unwrap())
            .collect();
        assert!(f[0] <= f[1] && f[1] <= f[2] && f[2] <= f[3], "{row:?}");
    }
}

#[test]
fn fig13_shapes_are_comparable() {
    let t = figures::fig13_size_invariance(ctx());
    assert_eq!(t.rows.len(), 10);
    // Both series are normalized to [0, 1].
    for row in &t.rows {
        for cell in &row[1..] {
            let v: f64 = cell.parse().unwrap();
            assert!(
                (0.0..=1.0).contains(&v),
                "normalized rate out of range: {v}"
            );
        }
    }
}

#[test]
fn fig14_hdpat_wins_overall() {
    let t = figures::fig14_overall(ctx(), Scale::Unit);
    let gm = gmean_row(&t, "GMEAN");
    let headers = &t.headers;
    let hdpat_idx = headers.iter().position(|h| h == "HDPAT").unwrap();
    let hdpat = parse_ratio(&gm[hdpat_idx]);
    for (i, h) in headers.iter().enumerate().skip(1) {
        if i != hdpat_idx {
            assert!(
                hdpat >= parse_ratio(&gm[i]),
                "HDPAT ({hdpat}) must beat {h} ({})",
                gm[i]
            );
        }
    }
    assert!(hdpat > 1.15, "HDPAT geomean: {hdpat}");
}

#[test]
fn fig15_full_hdpat_tops_the_ablation() {
    let t = figures::fig15_ablation(ctx(), Scale::Unit);
    let gm = gmean_row(&t, "GMEAN");
    let full = parse_ratio(gm.last().unwrap());
    let clust_idx = t.headers.iter().position(|h| h == "cluster+rot").unwrap();
    assert!(
        full >= parse_ratio(&gm[clust_idx]),
        "full HDPAT must beat peer caching alone"
    );
}

#[test]
fn fig16_offload_is_substantial() {
    let t = figures::fig16_breakdown(ctx(), Scale::Unit);
    let mean = t.rows.last().unwrap();
    let offload: f64 = mean[5].trim_end_matches('%').parse().unwrap();
    assert!(offload > 20.0, "mean offload {offload}% too low");
}

#[test]
fn fig17_rtt_improves() {
    let t = figures::fig17_response_time(ctx(), Scale::Unit);
    let mean = t.rows.last().unwrap();
    let norm = parse_ratio(&mean[1]);
    assert!(norm < 1.0, "HDPAT should reduce mean RTT: {norm}");
}

#[test]
fn fig18_prefetch_saturates() {
    let t = figures::fig18_prefetch_granularity(ctx(), Scale::Unit);
    let gm = gmean_row(&t, "GMEAN");
    let d1 = parse_ratio(&gm[1]);
    let d4 = parse_ratio(&gm[2]);
    let d8 = parse_ratio(&gm[3]);
    assert!(
        d4 >= d1 * 0.98,
        "4-PTE ({d4}) should not lose to 1-PTE ({d1})"
    );
    assert!(
        (d8 - d4).abs() < 0.35,
        "8-PTE ({d8}) saturates near 4-PTE ({d4})"
    );
}

#[test]
fn fig19_has_both_variants() {
    let t = figures::fig19_redir_vs_tlb(ctx(), Scale::Unit);
    let gm = gmean_row(&t, "GMEAN");
    let rt = parse_ratio(&gm[1]);
    let tlb = parse_ratio(&gm[2]);
    // Fig 19's claim: the redirection table outperforms the same-area TLB.
    assert!(rt > tlb, "redirection ({rt}) must beat the TLB ({tlb})");
    assert!(tlb > 0.05, "TLB variant must still run: {tlb}");
}

#[test]
fn fig20_larger_pages_help_baseline() {
    let t = figures::fig20_page_size(ctx(), Scale::Unit);
    assert!(t.rows.len() >= 3);
    let first = parse_ratio(&t.rows[0][1]);
    let last = parse_ratio(&t.rows.last().unwrap()[1]);
    assert!((first - 1.0).abs() < 1e-9, "4K baseline is the reference");
    assert!(last > first, "64K baseline should beat 4K: {last}");
}

#[test]
fn fig21_covers_all_presets() {
    let t = figures::fig21_gpu_presets(ctx(), Scale::Unit);
    assert_eq!(t.rows.len(), 5);
    for row in &t.rows {
        assert!(parse_ratio(&row[1]) > 0.9, "{} regressed", row[0]);
    }
}

#[test]
fn fig22_scales_to_7x12() {
    let t = figures::fig22_wafer_7x12(ctx(), Scale::Unit);
    let gm = gmean_row(&t, "GMEAN");
    assert!(parse_ratio(&gm[1]) > 1.05, "7x12 gmean: {}", gm[1]);
}

#[test]
fn tables_render() {
    let t1 = figures::tab1_config();
    assert!(t1.to_text().contains("Redirection Table"));
    let t2 = figures::tab2_workloads();
    assert_eq!(t2.rows.len(), BenchmarkId::all().len());
    let t3 = figures::tab3_area_power();
    assert!(t3.to_csv().contains("redirection-table-1024"));
}

#[test]
fn abl_design_choices_revisit_matters() {
    let t = figures::abl_design_choices(ctx(), Scale::Unit);
    assert_eq!(t.rows.len(), 11, "one row per design variant");
    let on = parse_ratio(&gmean_row(&t, "revisit on (default)")[1]);
    let off = parse_ratio(&gmean_row(&t, "revisit off")[1]);
    assert!(
        off < on,
        "revisit off ({off}) must lose to revisit on ({on})"
    );
}

#[test]
fn abl_migration_moves_relu_pages() {
    let t = figures::abl_migration(ctx(), Scale::Unit);
    assert_eq!(t.rows.len(), 7, "6 benchmarks + GMEAN");
    let relu = gmean_row(&t, "RELU");
    let col = t
        .headers
        .iter()
        .position(|h| h == "pages-migrated")
        .unwrap();
    let moved: u64 = relu[col].parse().unwrap();
    assert!(moved > 0, "HDPAT+migration migrated no RELU pages");
}
