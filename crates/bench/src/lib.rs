#![warn(missing_docs)]

//! Benchmark harness regenerating every table and figure of the HDPAT
//! paper.
//!
//! [`figures::all`] is the one registry of figures and tables. Each entry
//! wraps a function in [`figures`] that returns plain row data, so
//! integration tests can assert on the *shape* of each result (who wins, by
//! roughly what factor) while `hdpat-sim figure <name>|all --scale
//! unit|bench|full --jobs N` prints the rows the paper plots and
//! `hdpat-sim regen-experiments` writes them into EXPERIMENTS.md
//! ([`regen`]). `--jobs` changes wall-clock time only, never a byte of
//! output.

pub mod figures;
pub mod regen;
pub mod report;
pub mod serving;
