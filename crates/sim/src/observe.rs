//! The engine's one observation interface.
//!
//! A simulation owns exactly one [`Observer`], chosen by its type
//! parameter. Model structures hold no sink handles: they return what
//! happened (hit or miss, walk started or queued) and expose their lifetime
//! counters through a `counters` visitor, and the engine forwards both to
//! its observer. Every method has a no-op default, and `()` is the observer
//! of a plain run: with [`Observer::ENABLED`] false the engine skips
//! building any hook argument, so an unobserved run compiles to the same
//! code as an engine without hooks.
//!
//! Observation is purely observational: no hook can change event order,
//! timing or any simulated state, so observed and unobserved runs produce
//! byte-identical metrics.
//!
//! # Example
//!
//! ```
//! use wsg_sim::observe::Observer;
//! use wsg_sim::trace::TraceSink;
//!
//! let mut obs = (TraceSink::new(), ());
//! obs.context(100, 7);
//! obs.instant("tlb.miss", 3, 0x42);
//! obs.complete("remote", 100, 250, 3, 0);
//! assert_eq!(obs.0.len(), 2);
//! ```

use crate::telemetry::CounterDef;
use crate::time::Cycle;

/// Everything the engine exposes at an epoch boundary: the wafer grid and
/// a walk over every structure's counters, in a fixed order.
pub trait CounterSource {
    /// Mesh dimensions in tiles, for spatial (heatmap) exports.
    fn grid(&self) -> (u16, u16);

    /// Calls `f` once per counter with its registration record and current
    /// cumulative value, in the same order on every call.
    fn visit(&self, f: &mut dyn FnMut(CounterDef, u64));
}

/// Hooks the engine calls while it runs. All default to no-ops.
pub trait Observer {
    /// Whether any hook does something. When false the engine skips the
    /// hooks and the work of building their arguments.
    const ENABLED: bool = true;

    /// Stamps the current `(cycle, request id)` context at each dispatch;
    /// [`Observer::instant`] events are recorded against it.
    fn context(&mut self, now: Cycle, req: u64) {
        let _ = (now, req);
    }

    /// A point event at the context cycle.
    fn instant(&mut self, stage: &'static str, site: u64, arg: u64) {
        let _ = (stage, site, arg);
    }

    /// A closed `[start, start + dur]` span for the context request.
    fn complete(&mut self, stage: &'static str, start: Cycle, dur: Cycle, site: u64, arg: u64) {
        let _ = (stage, start, dur, site, arg);
    }

    /// One packet crossed one mesh link: waiting, serialization and
    /// traversal from `start`, on link `site`.
    fn hop(&mut self, site: u64, start: Cycle, dur: Cycle, bytes: u64) {
        let _ = (site, start, dur, bytes);
    }

    /// The simulated time of the next epoch boundary the observer wants to
    /// see; [`Cycle::MAX`] for none.
    fn next_epoch(&self) -> Cycle {
        Cycle::MAX
    }

    /// Event time `now` reached [`Observer::next_epoch`].
    fn epoch(&mut self, now: Cycle, counters: &dyn CounterSource) {
        let _ = (now, counters);
    }

    /// The run ended at simulated time `end`.
    fn finish(&mut self, end: Cycle, counters: &dyn CounterSource) {
        let _ = (end, counters);
    }
}

/// The observer of a plain, unobserved run.
impl Observer for () {
    const ENABLED: bool = false;
}

/// Two observers side by side, each seeing every hook (e.g. a trace and a
/// telemetry recorder on one clock).
impl<A: Observer, B: Observer> Observer for (A, B) {
    const ENABLED: bool = A::ENABLED || B::ENABLED;

    fn context(&mut self, now: Cycle, req: u64) {
        self.0.context(now, req);
        self.1.context(now, req);
    }

    fn instant(&mut self, stage: &'static str, site: u64, arg: u64) {
        self.0.instant(stage, site, arg);
        self.1.instant(stage, site, arg);
    }

    fn complete(&mut self, stage: &'static str, start: Cycle, dur: Cycle, site: u64, arg: u64) {
        self.0.complete(stage, start, dur, site, arg);
        self.1.complete(stage, start, dur, site, arg);
    }

    fn hop(&mut self, site: u64, start: Cycle, dur: Cycle, bytes: u64) {
        self.0.hop(site, start, dur, bytes);
        self.1.hop(site, start, dur, bytes);
    }

    fn next_epoch(&self) -> Cycle {
        self.0.next_epoch().min(self.1.next_epoch())
    }

    fn epoch(&mut self, now: Cycle, counters: &dyn CounterSource) {
        if now >= self.0.next_epoch() {
            self.0.epoch(now, counters);
        }
        if now >= self.1.next_epoch() {
            self.1.epoch(now, counters);
        }
    }

    fn finish(&mut self, end: Cycle, counters: &dyn CounterSource) {
        self.0.finish(end, counters);
        self.1.finish(end, counters);
    }
}
