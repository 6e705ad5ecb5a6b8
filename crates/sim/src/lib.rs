#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

//! Discrete-event simulation engine for the wafer-scale GPU simulator.
//!
//! This crate is the foundation of the HDPAT reproduction. It provides:
//!
//! * [`EventQueue`] — a generic, deterministic discrete-event queue ordered by
//!   `(cycle, sequence number)`, implemented as a two-level calendar queue
//!   (DESIGN.md §11).
//! * [`HashIndex`] — a deterministic open-addressing map from `u64` keys with
//!   a fixed seed, the sanctioned replacement for entropy-seeded std hash
//!   collections on simulator hot paths (lint rule d6).
//! * [`ServerPool`] — an analytic model of `k` identical servers with FIFO
//!   admission, used for bandwidth-style resources (HBM channels, walker
//!   pools when fine-grained queue introspection is not needed).
//! * The [`stats`] module — counters, histograms, windowed time series,
//!   latency breakdowns and reuse-distance trackers that back every figure of
//!   the paper.
//! * [`SimRng`] — a seeded, reproducible random number generator used by the
//!   workload generators.
//! * The [`observe`] module — the engine's one observation interface
//!   ([`observe::Observer`]), implemented by the request-lifecycle
//!   [`trace::TraceSink`] and the epoch-sampled
//!   [`telemetry::TelemetrySink`].
//! * The [`pool`] module — a scoped worker pool for fanning independent,
//!   fully seeded simulations across threads without sacrificing
//!   reproducibility (results come back in input order).
//!
//! # Example
//!
//! ```
//! use wsg_sim::EventQueue;
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Ping(u32) }
//!
//! let mut q = EventQueue::new();
//! q.push(10, Ev::Ping(1));
//! q.push(5, Ev::Ping(0));
//! // Events come out one timestamp (one calendar bucket) at a time.
//! let mut batch = Vec::new();
//! assert_eq!(q.drain_bucket(&mut batch), 1);
//! assert_eq!(batch, [Ev::Ping(0)]);
//! assert_eq!(q.now(), 5);
//! ```

pub mod event;
pub mod index;
pub mod observe;
pub mod pool;
pub mod rng;
pub mod server;
pub mod stats;
pub mod telemetry;
pub mod time;
pub mod trace;

pub use event::EventQueue;
pub use index::HashIndex;
pub use observe::Observer;
pub use rng::SimRng;
pub use server::ServerPool;
pub use time::Cycle;
