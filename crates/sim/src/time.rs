//! Simulation time.
//!
//! All components of the simulator share a single clock domain at 1 GHz (the
//! CU clock of Table I in the paper), so time is expressed directly in
//! cycles.

/// A point in simulated time, in cycles of the 1 GHz system clock.
pub type Cycle = u64;

/// Converts a cycle count to seconds assuming the given clock frequency in Hz.
///
/// # Example
///
/// ```
/// let secs = wsg_sim::time::cycles_to_seconds(2_000_000_000, 1.0e9);
/// assert!((secs - 2.0).abs() < 1e-12);
/// ```
pub fn cycles_to_seconds(cycles: Cycle, freq_hz: f64) -> f64 {
    cycles as f64 / freq_hz
}

/// Converts a byte count and a bandwidth (bytes per cycle) into the number of
/// cycles needed to serialize the bytes, rounding up and never returning 0
/// for a non-empty transfer.
///
/// # Example
///
/// ```
/// // 768 GB/s at 1 GHz is 768 bytes/cycle; a 64 B cacheline takes 1 cycle.
/// assert_eq!(wsg_sim::time::serialization_cycles(64, 768.0), 1);
/// assert_eq!(wsg_sim::time::serialization_cycles(0, 768.0), 0);
/// assert_eq!(wsg_sim::time::serialization_cycles(1536, 768.0), 2);
/// ```
pub fn serialization_cycles(bytes: u64, bytes_per_cycle: f64) -> Cycle {
    if bytes == 0 {
        return 0;
    }
    debug_assert!(bytes_per_cycle > 0.0, "bandwidth must be positive");
    #[expect(
        clippy::cast_sign_loss,
        reason = "bandwidth configs are fractional (bytes per cycle); this ceil is the one sanctioned float->Cycle conversion, and its inputs are small enough that f64 rounding is exact"
    )]
    let cycles = (bytes as f64 / bytes_per_cycle).ceil() as Cycle;
    cycles.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seconds_conversion() {
        assert_eq!(cycles_to_seconds(1_000_000_000, 1.0e9), 1.0);
        assert_eq!(cycles_to_seconds(0, 1.0e9), 0.0);
    }

    #[test]
    fn serialization_rounds_up() {
        assert_eq!(serialization_cycles(1, 768.0), 1);
        assert_eq!(serialization_cycles(768, 768.0), 1);
        assert_eq!(serialization_cycles(769, 768.0), 2);
    }

    #[test]
    fn serialization_zero_bytes_is_free() {
        assert_eq!(serialization_cycles(0, 1.0), 0);
    }

    #[test]
    fn serialization_minimum_one_cycle() {
        // Even a tiny packet on a huge link occupies the link for one cycle.
        assert_eq!(serialization_cycles(1, 1.0e9), 1);
    }
}
