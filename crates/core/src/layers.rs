//! Concentric-layer geometry: clustering (Eq 1–2), rotation, and the peer
//! topologies of the baseline policies.

use wsg_gpu::WaferLayout;
use wsg_noc::xy_route;
use wsg_xlat::Vpn;

/// Number of quadrant clusters per caching layer (`N_c` in Eq 1). The paper
/// fixes this at 4 to keep every caching layer within one hop of the next
/// inner layer.
pub const CLUSTERS: u64 = 4;

/// Most caching layers a [`ConcentricMap`] holds — the capacity of
/// [`AuxGpms`]. The paper's wafers use 2–3.
pub const MAX_CACHING_LAYERS: usize = 16;

/// The designated auxiliary GPM of every caching layer for one VPN,
/// innermost first: a fixed-capacity list, so looking it up on every remote
/// request never allocates. Dereferences to a `&[u32]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuxGpms {
    len: u8,
    gpms: [u32; MAX_CACHING_LAYERS],
}

impl std::ops::Deref for AuxGpms {
    type Target = [u32];

    fn deref(&self) -> &[u32] {
        &self.gpms[..usize::from(self.len)]
    }
}

impl IntoIterator for AuxGpms {
    type Item = u32;
    type IntoIter = std::iter::Take<std::array::IntoIter<u32, MAX_CACHING_LAYERS>>;

    fn into_iter(self) -> Self::IntoIter {
        self.gpms.into_iter().take(usize::from(self.len))
    }
}

/// Precomputed concentric-layer structure for one wafer (§IV-C/D/E).
///
/// Layers are indexed 1 (innermost GPM ring around the CPU) through `C` (the
/// outermost caching ring). For each layer, GPMs are enumerated clockwise;
/// with rotation enabled, each successive layer's enumeration starts 180°
/// around the ring, so every requester quadrant has a nearby caching GPM in
/// at least one layer.
///
/// # Example
///
/// ```
/// use hdpat::layers::ConcentricMap;
/// use wsg_gpu::WaferLayout;
/// use wsg_xlat::Vpn;
///
/// let layout = WaferLayout::paper_7x7();
/// let map = ConcentricMap::new(&layout, 2, true);
/// assert_eq!(map.caching_layers(), 2);
/// let aux = map.aux_gpm(Vpn(12345), 1);
/// assert_eq!(layout.layer_of(aux), 1);
/// ```
#[derive(Debug, Clone)]
pub struct ConcentricMap {
    /// `rings[l - 1]` holds the (rotated) clockwise GPM enumeration of layer `l`.
    rings: Vec<Vec<u32>>,
    rotation: bool,
}

impl ConcentricMap {
    /// Builds the layer map for `layout` with `c` caching layers.
    ///
    /// # Panics
    ///
    /// Panics if `c` is zero, exceeds the wafer's outermost ring (the
    /// paper requires leaving at least the border ring as pure requesters
    /// only when `c < max_layer`; equal is allowed for small wafers), or
    /// exceeds [`MAX_CACHING_LAYERS`].
    pub fn new(layout: &WaferLayout, c: u32, rotation: bool) -> Self {
        assert!(c >= 1, "need at least one caching layer");
        assert!(
            c <= layout.max_layer(),
            "cannot have more caching layers than rings"
        );
        assert!(
            c as usize <= MAX_CACHING_LAYERS,
            "at most {MAX_CACHING_LAYERS} caching layers"
        );
        let rings = (1..=c)
            .map(|l| {
                let mut ring = layout.ring_gpms(l);
                if rotation && !ring.is_empty() {
                    // 180° start-point rotation for alternating layers
                    // (Fig 11b): layer 1 unrotated, layer 2 starts opposite.
                    let offset = if l % 2 == 0 { ring.len() / 2 } else { 0 };
                    ring.rotate_left(offset);
                }
                ring
            })
            .collect();
        Self { rings, rotation }
    }

    /// Number of caching layers (`C`).
    pub fn caching_layers(&self) -> u32 {
        self.rings.len() as u32
    }

    /// Whether rotation is enabled.
    pub fn rotation(&self) -> bool {
        self.rotation
    }

    /// The GPMs of caching layer `layer` (1-based) in enumeration order.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is 0 or beyond the caching layers.
    pub fn ring(&self, layer: u32) -> &[u32] {
        &self.rings[(layer - 1) as usize]
    }

    /// The auxiliary GPM responsible for caching `vpn` in `layer`
    /// (Eq 1–2): quadrant cluster `VPN mod N_c`, then GPM
    /// `(VPN / N_c) mod N_g` within the cluster's arc.
    pub fn aux_gpm(&self, vpn: Vpn, layer: u32) -> u32 {
        let ring = self.ring(layer);
        let n = ring.len() as u64;
        debug_assert!(n > 0, "empty caching ring");
        let cluster = vpn.0 % CLUSTERS;
        // Quadrant arcs: contiguous quarters of the (rotated) enumeration.
        let arc_len = n.div_ceil(CLUSTERS).max(1);
        let arc_start = (cluster * arc_len).min(n - 1);
        let arc_end = ((cluster + 1) * arc_len).min(n);
        let arc = &ring[arc_start as usize..arc_end.max(arc_start + 1) as usize];
        let local = (vpn.0 / CLUSTERS) % arc.len() as u64;
        arc[local as usize]
    }

    /// The designated auxiliary GPM in every caching layer, innermost first.
    pub fn aux_gpms(&self, vpn: Vpn) -> AuxGpms {
        let mut out = AuxGpms {
            len: self.rings.len() as u8,
            gpms: [0; MAX_CACHING_LAYERS],
        };
        for (l, slot) in (1..=self.caching_layers()).zip(&mut out.gpms) {
            *slot = self.aux_gpm(vpn, l);
        }
        out
    }
}

/// The serial probe chain of the *concentric caching* baseline (§IV-C, no
/// clustering): from the requester's position, the nearest GPM in each
/// caching layer at or below its own ring, outermost first.
pub fn concentric_chain(layout: &WaferLayout, c: u32, requester: u32) -> Vec<u32> {
    let r = layout.layer_of(requester);
    let start_layer = r.min(c).max(1);
    let mut chain = Vec::new();
    for layer in (1..=start_layer).rev() {
        let candidates = layout.ring_gpms(layer);
        let nearest = candidates
            .into_iter()
            .filter(|&g| g != requester)
            .min_by_key(|&g| (layout.coord_of(requester).manhattan(layout.coord_of(g)), g));
        if let Some(g) = nearest {
            chain.push(g);
        }
    }
    chain
}

/// The XY route from `requester` to the CPU as GPM ids (CPU tile excluded) —
/// the probe path of the *route-based caching* baseline (§IV-B). The
/// requester itself is not included.
pub fn route_chain(layout: &WaferLayout, requester: u32) -> Vec<u32> {
    let from = layout.coord_of(requester);
    xy_route(from, layout.cpu())
        .into_iter()
        .skip(1)
        .filter_map(|c| layout.id_of(c))
        .collect()
}

/// The two symmetric GPM groups of the *distributed caching* baseline
/// (§V-A): GPMs left of the CPU column vs. right of it, with the CPU column
/// split by row. Returns each GPM's group (0 or 1).
pub fn distributed_group(layout: &WaferLayout, gpm: u32) -> u8 {
    let c = layout.coord_of(gpm);
    let cpu = layout.cpu();
    if c.x < cpu.x {
        0
    } else if c.x > cpu.x {
        1
    } else if c.y < cpu.y {
        0
    } else {
        1
    }
}

/// The nearest same-group peer of `gpm` under [`distributed_group`] (by hop
/// count, ties broken by id). Returns `None` if the group has no other
/// member.
pub fn nearest_group_peer(layout: &WaferLayout, gpm: u32) -> Option<u32> {
    let group = distributed_group(layout, gpm);
    let from = layout.coord_of(gpm);
    layout
        .iter()
        .filter(|&(id, _)| id != gpm && distributed_group(layout, id) == group)
        .min_by_key(|&(id, c)| (from.manhattan(c), id))
        .map(|(id, _)| id)
}

/// The nearest neighbouring GPM (any direction) — the probe target of the
/// Valkyrie baseline's inter-TLB lookup.
pub fn nearest_neighbor(layout: &WaferLayout, gpm: u32) -> Option<u32> {
    let from = layout.coord_of(gpm);
    layout
        .iter()
        .filter(|&(id, _)| id != gpm)
        .min_by_key(|&(id, c)| (from.manhattan(c), id))
        .map(|(id, _)| id)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(c: u32, rot: bool) -> (WaferLayout, ConcentricMap) {
        let layout = WaferLayout::paper_7x7();
        let m = ConcentricMap::new(&layout, c, rot);
        (layout, m)
    }

    #[test]
    #[should_panic(expected = "at least one caching layer")]
    fn zero_layers_rejected() {
        let layout = WaferLayout::paper_7x7();
        ConcentricMap::new(&layout, 0, true);
    }

    #[test]
    #[should_panic(expected = "more caching layers than rings")]
    fn too_many_layers_rejected() {
        let layout = WaferLayout::paper_7x7();
        ConcentricMap::new(&layout, 4, true);
    }

    #[test]
    fn aux_gpm_is_in_its_layer() {
        let (layout, m) = map(2, true);
        for vpn in 0..500u64 {
            for layer in 1..=2 {
                let aux = m.aux_gpm(Vpn(vpn), layer);
                assert_eq!(layout.layer_of(aux), layer);
            }
        }
    }

    #[test]
    fn aux_gpms_lists_every_layer_innermost_first() {
        let (_, m) = map(3, true);
        for vpn in 0..100u64 {
            let aux = m.aux_gpms(Vpn(vpn));
            let expect: Vec<u32> = (1..=3).map(|l| m.aux_gpm(Vpn(vpn), l)).collect();
            assert_eq!(&aux[..], &expect[..]);
            assert_eq!(aux.into_iter().collect::<Vec<_>>(), expect);
        }
    }

    #[test]
    fn exactly_one_copy_per_layer() {
        // Eq 1-2 give a single deterministic GPM per (vpn, layer).
        let (_, m) = map(2, true);
        for vpn in 0..100u64 {
            let a = m.aux_gpm(Vpn(vpn), 2);
            let b = m.aux_gpm(Vpn(vpn), 2);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn vpns_spread_over_the_whole_ring() {
        let (_, m) = map(2, true);
        let mut seen: std::collections::BTreeSet<u32> = Default::default();
        for vpn in 0..1000u64 {
            seen.insert(m.aux_gpm(Vpn(vpn), 2));
        }
        // Ring 2 has 16 GPMs; the modulo map should reach all of them.
        assert_eq!(seen.len(), 16, "all ring-2 GPMs used: {seen:?}");
    }

    #[test]
    fn rotation_changes_layer2_assignment() {
        let (_, with) = map(2, true);
        let (_, without) = map(2, false);
        let moved = (0..100u64)
            .filter(|&v| with.aux_gpm(Vpn(v), 2) != without.aux_gpm(Vpn(v), 2))
            .count();
        assert!(moved > 50, "rotation must shift most assignments: {moved}");
        // Layer 1 is unrotated in both.
        for v in 0..100u64 {
            assert_eq!(with.aux_gpm(Vpn(v), 1), without.aux_gpm(Vpn(v), 1));
        }
    }

    #[test]
    fn rotation_brings_caching_close_to_all_quadrants() {
        // With rotation, for any requester the nearest designated aux GPM
        // over both layers is within a small hop count.
        let (layout, m) = map(2, true);
        for (req, rc) in layout.iter() {
            if layout.layer_of(req) < 3 {
                continue; // check the worst case: border GPMs
            }
            let mut best = u32::MAX;
            for vpn in 0..64u64 {
                for aux in m.aux_gpms(Vpn(vpn)) {
                    best = best.min(rc.manhattan(layout.coord_of(aux)));
                }
            }
            assert!(best <= 2, "requester {req} has no nearby caching GPM");
        }
    }

    #[test]
    fn concentric_chain_descends_layers() {
        let layout = WaferLayout::paper_7x7();
        // A corner GPM (ring 3) probes ring 2 then ring 1.
        let corner = layout.id_of(wsg_noc::Coord::new(0, 0)).unwrap();
        let chain = concentric_chain(&layout, 2, corner);
        assert_eq!(chain.len(), 2);
        assert_eq!(layout.layer_of(chain[0]), 2);
        assert_eq!(layout.layer_of(chain[1]), 1);
    }

    #[test]
    fn concentric_chain_for_inner_requester_starts_at_own_layer() {
        let layout = WaferLayout::paper_7x7();
        let inner = layout.ring_gpms(1)[0];
        let chain = concentric_chain(&layout, 2, inner);
        assert_eq!(chain.len(), 1);
        assert_eq!(layout.layer_of(chain[0]), 1);
        assert_ne!(chain[0], inner);
    }

    #[test]
    fn route_chain_follows_xy_to_cpu() {
        let layout = WaferLayout::paper_7x7();
        let corner = layout.id_of(wsg_noc::Coord::new(0, 0)).unwrap();
        let chain = route_chain(&layout, corner);
        // 6 hops to the CPU, last tile is the CPU itself (excluded).
        assert_eq!(chain.len(), 5);
        assert!(!chain.contains(&corner));
    }

    #[test]
    fn distributed_groups_are_balanced() {
        let layout = WaferLayout::paper_7x7();
        let g0 = layout
            .iter()
            .filter(|&(id, _)| distributed_group(&layout, id) == 0)
            .count();
        assert_eq!(g0, 24, "7x7 wafer splits 24/24");
    }

    #[test]
    fn nearest_group_peer_is_same_group_and_near() {
        let layout = WaferLayout::paper_7x7();
        for (id, c) in layout.iter() {
            let peer = nearest_group_peer(&layout, id).unwrap();
            assert_ne!(peer, id);
            assert_eq!(
                distributed_group(&layout, peer),
                distributed_group(&layout, id)
            );
            assert!(c.manhattan(layout.coord_of(peer)) <= 2);
        }
    }

    #[test]
    fn nearest_neighbor_is_adjacent() {
        let layout = WaferLayout::paper_7x7();
        for (id, c) in layout.iter() {
            let n = nearest_neighbor(&layout, id).unwrap();
            assert!(c.manhattan(layout.coord_of(n)) <= 2);
        }
    }

    #[test]
    fn works_on_rectangular_wafer() {
        let layout = WaferLayout::paper_7x12();
        let m = ConcentricMap::new(&layout, 2, true);
        for vpn in 0..200u64 {
            for layer in 1..=2 {
                assert_eq!(layout.layer_of(m.aux_gpm(Vpn(vpn), layer)), layer);
            }
        }
    }
}
