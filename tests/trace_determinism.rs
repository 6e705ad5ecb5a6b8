//! The tracing contract (DESIGN.md §10): a trace sink is purely
//! observational. Attaching one must not perturb a single metric, and the
//! trace itself must be as deterministic as the run it observed — two traced
//! runs of the same `(benchmark, seed)` serialize to byte-identical JSON.

use hdpat_wafer::prelude::*;
use wsg_sim::trace::SpanKind;

fn point(bench: BenchmarkId, seed: u64) -> RunConfig {
    RunConfig::new(bench, Scale::Unit, PolicyKind::hdpat()).with_seed(seed)
}

#[test]
fn tracing_does_not_change_metrics() {
    let cfg = point(BenchmarkId::Km, 7);
    let plain = run(&cfg).to_deterministic_string();
    let (traced, sink) = run_observed(&cfg, TraceSink::new());
    assert!(!sink.is_empty(), "traced run recorded no events");
    assert_eq!(
        plain,
        traced.to_deterministic_string(),
        "attaching a trace sink changed the deterministic metrics"
    );
}

#[test]
fn traced_runs_serialize_byte_identical_json() {
    let cfg = point(BenchmarkId::Spmv, 11);
    let (_, a) = run_observed(&cfg, TraceSink::new());
    let (_, b) = run_observed(&cfg, TraceSink::new());
    assert!(!a.is_empty());
    assert_eq!(
        a.to_chrome_json(),
        b.to_chrome_json(),
        "same-seed traces differ"
    );
    assert_eq!(a.stage_csv(), b.stage_csv());
}

#[test]
fn remote_spans_reconcile_with_remote_rtt() {
    let cfg = point(BenchmarkId::Km, 7);
    let (metrics, sink) = run_observed(&cfg, TraceSink::new());
    let summary = sink.stage_summary();
    let remote = summary.get("remote").expect("remote spans recorded");
    // One "remote" span per recorded round trip, covering the same interval.
    assert_eq!(remote.count, metrics.remote_rtt.count());
    assert_eq!(remote.sum as f64, metrics.remote_rtt.sum());
}

/// One request's whole lifecycle is the sink's events carrying its issue
/// serial, and the Chrome trace gives them a track of their own.
#[test]
fn one_request_is_one_chrome_track() {
    let cfg = point(BenchmarkId::Km, 7);
    let (_, sink) = run_observed(&cfg, TraceSink::new());
    let n = sink
        .events()
        .iter()
        .find(|e| e.stage == "remote")
        .expect("KM resolves some translation remotely")
        .req;
    let mine: Vec<_> = sink.events().iter().filter(|e| e.req == n).collect();
    assert_eq!(
        mine[0].stage, "issue",
        "request {n} does not begin at issue"
    );
    assert_eq!(mine[0].kind, SpanKind::Instant);
    assert!(
        mine.iter()
            .any(|e| e.stage == "xlat" && e.kind == SpanKind::Complete),
        "request {n} has no xlat span"
    );
    let json = sink.to_chrome_json();
    let body = json
        .strip_prefix("{\"traceEvents\":[")
        .and_then(|j| j.strip_suffix("]}"))
        .expect("Chrome trace envelope");
    let rendered: Vec<&str> = body.split(",{\"name\":").collect();
    assert_eq!(rendered.len(), sink.len());
    let track = format!("\"tid\":{n},");
    for (ev, text) in sink.events().iter().zip(rendered) {
        assert_eq!(ev.req == n, text.contains(&track), "{text}");
    }
}

#[test]
fn iommu_stage_spans_share_the_iommu_walker_site_on_wide_presets() {
    // MI300 GPMs have 76 CUs, so the per-GPM L1-TLB site range is wider than
    // 64 and the IOMMU sites start at G*8 + G*76. The Fig 3 stage spans must
    // land there too, not on a GPM's L1-TLB site.
    let sys = SystemConfig::with_preset(GpuPreset::Mi300);
    let (gpms, cus) = (sys.gpm_count() as u64, u64::from(sys.gpm.cus));
    assert!(cus > 64, "MI300 must exercise the widened L1-TLB stride");
    let cfg = RunConfig::new(BenchmarkId::Spmv, Scale::Unit, PolicyKind::Naive).with_system(sys);
    let (_, sink) = run_observed(&cfg, TraceSink::new());
    let iommu_site = gpms * 8 + gpms * cus;
    let stage_sites: Vec<u64> = sink
        .events()
        .iter()
        .filter(|e| e.stage.starts_with("iommu."))
        .map(|e| e.site)
        .collect();
    assert!(!stage_sites.is_empty(), "no IOMMU stage spans recorded");
    assert!(
        stage_sites.iter().all(|&s| s == iommu_site),
        "IOMMU stage spans off the walker site {iommu_site}: {:?}",
        stage_sites.iter().find(|&&s| s != iommu_site)
    );
    assert!(
        sink.events()
            .iter()
            .any(|e| e.stage.starts_with("walk.") && e.site == iommu_site),
        "the IOMMU walkers do not trace at site {iommu_site}"
    );
}
