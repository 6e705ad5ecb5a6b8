#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

//! Address-translation structures for the wafer-scale GPU.
//!
//! Reproduces the translation hierarchy of Fig 1(b) / §II-B of the HDPAT
//! paper. A translation request inside a GPM traverses, in order: L1 TLB →
//! L2 TLB → Cuckoo filter → last-level TLB (GMMU cache) → GMMU page-table
//! walkers. Non-local requests cross the mesh to the central IOMMU.
//!
//! Components:
//!
//! * [`addr`] — virtual/physical page numbers, page sizes, address helpers.
//! * [`Tlb`] — set-associative VPN→PFN caches with LRU and optional MSHRs.
//! * [`CuckooFilter`] — the space-efficient presence filter (Fan et al.)
//!   that lets requests bypass the local walk when a page is definitely not
//!   local; false positives force the doubled-latency path of §II-B.
//! * [`PageTable`] — per-GPM and global page tables with the spare-bit
//!   access counters HDPAT uses for selective push (§IV-F).
//! * [`WalkerPool`] — a bounded pool of page-table walkers with an explicit
//!   PW-queue, supporting the queue-revisit coalescing of §IV-F.
//! * [`RedirectionTable`] — the 1024-entry LRU table at the IOMMU mapping
//!   recently walked/prefetched VPNs to the GPMs now holding them.

pub mod addr;
pub mod cuckoo;
pub mod page_table;
pub mod redirection;
pub mod tlb;
pub mod walker;

pub use addr::{PageSize, Pfn, Vpn};
pub use cuckoo::CuckooFilter;
pub use page_table::{PageTable, Pte};
pub use redirection::RedirectionTable;
pub use tlb::{Tlb, TlbConfig};
pub use walker::{SubmitResult, WalkerPool};
