#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

//! 2-D mesh network-on-chip model for the wafer-scale GPU.
//!
//! The paper's wafer (Fig 1a) connects GPM tiles with a mesh whose links
//! provide 768 GB/s of bandwidth and 32 cycles of traversal latency each
//! (Table I). Requests travel multiple hops via dimension-ordered (XY)
//! routing, so latency is *geometry-dependent* — the property that drives
//! observations O1/O2 and the entire HDPAT design.
//!
//! The model reserves serialization time on every directional link of a
//! packet's route (a "link ledger": each link remembers when it next becomes
//! free), which captures bandwidth contention and queueing without per-hop
//! events. All bytes are accounted so the NoC-traffic-overhead statistic of
//! §V-D can be reproduced.
//!
//! # Example
//!
//! ```
//! use wsg_noc::{Coord, LinkParams, Mesh};
//!
//! let mut mesh = Mesh::new(7, 7, LinkParams::paper_baseline());
//! let a = Coord::new(0, 0);
//! let b = Coord::new(3, 3);
//! let out = mesh.send(a, b, 64, 0);
//! assert_eq!(out.hops, 6);
//! assert_eq!(out.arrival, 6 * 32 + 6); // per hop: 32 cycles latency + 1 cycle serialization
//! ```

pub mod geometry;
pub mod mesh;
pub mod routing;

pub use geometry::Coord;
pub use mesh::{LinkParams, Mesh, SendOutcome};
pub use routing::xy_route;
