#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

//! Wafer-scale GPU hardware model: wafer geometry, GPM configuration
//! presets, compute-unit issue pipelines, and address-space placement.
//!
//! The paper models the wafer as a mesh of tiles (Fig 1a): one CPU tile at
//! the centre hosting the IOMMU, every other tile a GPU Processing Module
//! (GPM) that is a scaled-down AMD MI100 (32 CUs, Table I). This crate
//! provides:
//!
//! * [`WaferLayout`] — tile ↔ GPM-id mapping, concentric ring (layer)
//!   indexing, and the 7×7 / 7×12 wafers of the evaluation.
//! * [`GpmConfig`] / [`IommuConfig`] / [`SystemConfig`] — every Table I
//!   parameter, plus the MI200/MI300/H100/H200 presets of Fig 21.
//! * [`CuPipeline`] — the compute-unit issue model: each CU executes
//!   workgroups as a sequence of timed memory operations with a bounded
//!   number outstanding.
//! * [`AddressSpace`] — buffer allocation and the paper's block-partitioned
//!   page placement ("pages 1–10 to GPM 1, pages 11–20 to GPM 2, …").

pub mod config;
pub mod cu;
pub mod space;
pub mod wafer;

pub use config::{GpmConfig, GpuPreset, IommuConfig, SystemConfig};
pub use cu::{CuPipeline, MemoryOp, WorkgroupTrace};
pub use space::{AddressSpace, Buffer};
pub use wafer::WaferLayout;
