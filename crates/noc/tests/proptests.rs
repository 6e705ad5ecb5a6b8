//! Property-based tests for the mesh NoC model.

use proptest::prelude::*;
use wsg_noc::geometry::ring_tiles;
use wsg_noc::{xy_route, Coord, LinkParams, Mesh};

fn coord(w: u16, h: u16) -> impl Strategy<Value = Coord> {
    (0..w, 0..h).prop_map(|(x, y)| Coord::new(x, y))
}

proptest! {
    /// Arrival time is never before the zero-load bound and queueing is
    /// exactly the excess over it.
    #[test]
    fn arrival_respects_zero_load_bound(
        sends in proptest::collection::vec((0u16..7, 0u16..7, 0u16..7, 0u16..7, 1u64..512, 0u64..10_000), 1..100)
    ) {
        let mut sorted = sends.clone();
        sorted.sort_by_key(|s| s.5);
        let mut mesh = Mesh::new(7, 7, LinkParams::paper_baseline());
        for (ax, ay, bx, by, bytes, depart) in sorted {
            let a = Coord::new(ax, ay);
            let b = Coord::new(bx, by);
            let out = mesh.send(a, b, bytes, depart);
            let floor = mesh.zero_load_latency(a, b, bytes);
            prop_assert!(out.arrival >= depart + floor);
            prop_assert_eq!(out.arrival, depart + floor + out.queueing);
            prop_assert_eq!(out.hops, a.manhattan(b));
        }
    }

    /// Total payload bytes equal the sum of injected non-local packet
    /// sizes, and hop-bytes equal payload × hops.
    #[test]
    fn traffic_accounting_is_exact(
        sends in proptest::collection::vec((0u16..5, 0u16..5, 0u16..5, 0u16..5, 1u64..256), 1..50)
    ) {
        let mut mesh = Mesh::new(5, 5, LinkParams::default());
        let mut bytes = 0u64;
        let mut hop_bytes = 0u64;
        let mut packets = 0u64;
        for &(ax, ay, bx, by, sz) in &sends {
            let a = Coord::new(ax, ay);
            let b = Coord::new(bx, by);
            mesh.send(a, b, sz, 0);
            // Self-addressed deliveries never touch the mesh and are
            // excluded from traffic accounting.
            if a != b {
                bytes += sz;
                hop_bytes += sz * a.manhattan(b) as u64;
                packets += 1;
            }
        }
        prop_assert_eq!(mesh.total_bytes(), bytes);
        prop_assert_eq!(mesh.total_hop_bytes(), hop_bytes);
        prop_assert_eq!(mesh.total_packets(), packets);
    }

    /// Manhattan distance is a metric (triangle inequality, symmetry).
    #[test]
    fn manhattan_is_a_metric(a in coord(16, 16), b in coord(16, 16), c in coord(16, 16)) {
        prop_assert_eq!(a.manhattan(b), b.manhattan(a));
        prop_assert!(a.manhattan(c) <= a.manhattan(b) + b.manhattan(c));
        prop_assert_eq!(a.manhattan(a), 0);
    }

    /// Chebyshev rings partition every wafer: each non-center tile appears
    /// in exactly one ring.
    #[test]
    fn rings_partition_the_wafer(w in 1u16..10, h in 1u16..10, cx in 0u16..10, cy in 0u16..10) {
        let center = Coord::new(cx.min(w - 1), cy.min(h - 1));
        let mut seen = std::collections::BTreeSet::new();
        let max_r = (w.max(h)) as u32;
        for r in 1..=max_r {
            for tile in ring_tiles(center, r, w, h) {
                prop_assert_eq!(tile.chebyshev(center), r);
                prop_assert!(seen.insert(tile), "tile in two rings");
            }
        }
        prop_assert_eq!(seen.len() as u32, w as u32 * h as u32 - 1);
    }

    /// Routes are reversible in length and consist of unit steps.
    #[test]
    fn routes_are_unit_step_paths(a in coord(9, 9), b in coord(9, 9)) {
        let route = xy_route(a, b);
        prop_assert_eq!(*route.first().unwrap(), a);
        prop_assert_eq!(*route.last().unwrap(), b);
        for w in route.windows(2) {
            prop_assert_eq!(w[0].manhattan(w[1]), 1);
        }
    }

    /// Ring positions order each ring without collisions.
    #[test]
    fn ring_positions_are_injective(r in 1u32..5) {
        let center = Coord::new(8, 8);
        let tiles = ring_tiles(center, r, 17, 17);
        let mut keys: Vec<u32> = tiles.iter().map(|t| t.ring_position(center)).collect();
        let n = keys.len();
        keys.sort_unstable();
        keys.dedup();
        prop_assert_eq!(keys.len(), n);
    }
}

#[test]
fn contention_is_fifo_per_link() {
    // Same link, same departure: later sends queue strictly behind earlier.
    let mut mesh = Mesh::new(
        3,
        1,
        LinkParams {
            latency: 5,
            bytes_per_cycle: 1.0,
        },
    );
    let a = Coord::new(0, 0);
    let b = Coord::new(1, 0);
    let mut last_arrival = 0;
    for i in 0..10 {
        let out = mesh.send(a, b, 10, 0);
        assert!(out.arrival > last_arrival, "send {i} did not queue");
        last_arrival = out.arrival;
    }
}
