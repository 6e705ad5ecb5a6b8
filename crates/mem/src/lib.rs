#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

//! Cache and DRAM models for the wafer-scale GPU.
//!
//! Each GPM of the paper's system (Fig 1b, Table I) owns:
//!
//! * per-CU L1 vector/scalar/instruction caches (16/16/32 KB, 4-way,
//!   16 MSHRs),
//! * a shared 4 MB 16-way L2 with 64 MSHRs,
//! * an 8 GB HBM stack at 1.23 TB/s.
//!
//! This crate provides the building blocks for all of them:
//!
//! * [`SetAssocCache`] — a set-associative tag store with true-LRU
//!   replacement.
//! * [`Mshr`] — miss-status holding registers that merge secondary misses
//!   and apply back-pressure when full (the mechanism whose absence makes
//!   the redirection table preferable to a TLB in Fig 19).
//! * [`Hbm`] — a bandwidth/latency DRAM model with per-channel queueing.
//!
//! The same tag store is reused by `wsg-xlat` for TLBs (a TLB is a cache of
//! page-table entries keyed by virtual page number).

pub mod cache;
pub mod hbm;
pub mod mshr;

pub use cache::{CacheConfig, LookupResult, SetAssocCache};
pub use hbm::{Hbm, HbmConfig};
pub use mshr::{Mshr, MshrOutcome};
