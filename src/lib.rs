#![warn(missing_docs)]

//! # HDPAT — Hierarchical Distributed Page Address Translation for
//! Wafer-Scale GPUs
//!
//! A from-scratch Rust reproduction of the HPCA 2026 paper *HDPAT:
//! Hierarchical Distributed Page Address Translation for Wafer-Scale GPUs*,
//! including the full wafer-scale GPU simulator it is evaluated on.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`hdpat`] — the paper's contribution: HDPAT's concentric caching,
//!   clustering, rotation, redirection table and proactive delivery; every
//!   baseline policy; the full-system discrete-event simulator and the
//!   experiment runner.
//! * [`sim`] (`wsg-sim`) — the discrete-event engine and statistics toolkit.
//! * [`noc`] (`wsg-noc`) — the 2-D mesh interconnect model.
//! * [`mem`] (`wsg-mem`) — caches, MSHRs, HBM.
//! * [`xlat`] (`wsg-xlat`) — TLBs, cuckoo filter, page tables, walkers,
//!   redirection table.
//! * [`gpu`] (`wsg-gpu`) — wafer layout, GPU presets, CU issue model,
//!   address-space placement.
//! * [`workloads`] (`wsg-workloads`) — the 14 Table II access-pattern
//!   generators.
//!
//! # Quickstart
//!
//! ```
//! use hdpat_wafer::prelude::*;
//!
//! let baseline = run(&RunConfig::new(BenchmarkId::Spmv, Scale::Unit, PolicyKind::Naive));
//! let hdpat = run(&RunConfig::new(BenchmarkId::Spmv, Scale::Unit, PolicyKind::hdpat()));
//! println!("HDPAT speedup: {:.2}x", hdpat.speedup_vs(&baseline));
//! # assert!(hdpat.speedup_vs(&baseline) > 0.5);
//! ```

pub use hdpat;
pub use wsg_gpu as gpu;
pub use wsg_mem as mem;
pub use wsg_noc as noc;
pub use wsg_sim as sim;
pub use wsg_workloads as workloads;
pub use wsg_xlat as xlat;

/// The most commonly used types, importable with one `use`.
pub mod prelude {
    pub use hdpat::experiments::{run, run_observed, RunCache, RunConfig, SweepCtx};
    pub use hdpat::policy::{HdpatConfig, PolicyKind};
    pub use hdpat::{Metrics, Resolution, Simulation};
    pub use wsg_gpu::{GpuPreset, SystemConfig, WaferLayout};
    pub use wsg_sim::{telemetry::TelemetrySink, trace::TraceSink};
    pub use wsg_workloads::{BenchmarkId, Scale};
    pub use wsg_xlat::PageSize;
}
