//! Simulation-as-a-service: the `hdpat-sim serve` daemon and its
//! newline-delimited JSON protocol.
//!
//! * [`daemon`] — the long-running service: per-client-fair priority
//!   scheduling onto `jobs` simulation workers, answers from the in-memory
//!   and persistent run caches with source attribution, ordered response
//!   delivery through one writer thread per connection, progress
//!   streaming, graceful drain on shutdown.
//! * [`proto`] — the wire format: request parsing/validation, response
//!   builders, stable error codes, and the generated PROTOCOL.md examples.
//! * [`json`] — the minimal hand-rolled JSON value type underneath (this
//!   reproduction vendors no serde).
//!
//! Operational visibility (the `metrics` op, `--metrics-out` dumps, the
//! `--ops-log` lifecycle log) is built on [`crate::ops`]; it observes the
//! serving path without changing a byte of any response payload.
//!
//! See PROTOCOL.md for the client-facing specification and OPERATIONS.md
//! for running and monitoring the daemon.

pub mod daemon;
pub mod json;
pub mod proto;

pub use daemon::{Daemon, DaemonConfig};
pub use proto::Request;
