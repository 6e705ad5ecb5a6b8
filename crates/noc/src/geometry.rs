//! Tile coordinates and wafer geometry.

use std::fmt;

/// The position of a tile (GPM or CPU) on the wafer mesh.
///
/// Coordinates are zero-based with `x` growing rightward and `y` growing
/// downward; the CPU tile of the paper's 7×7 wafer sits at `(3, 3)`.
///
/// # Example
///
/// ```
/// use wsg_noc::Coord;
/// let cpu = Coord::new(3, 3);
/// let corner = Coord::new(0, 0);
/// assert_eq!(cpu.manhattan(corner), 6);
/// assert_eq!(cpu.chebyshev(corner), 3); // corner is on ring 3
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Coord {
    /// Column index.
    pub x: u16,
    /// Row index.
    pub y: u16,
}

impl Coord {
    /// Creates a coordinate.
    pub fn new(x: u16, y: u16) -> Self {
        Self { x, y }
    }

    /// Manhattan (L1) distance — the hop count of an XY route.
    pub fn manhattan(self, other: Coord) -> u32 {
        self.x.abs_diff(other.x) as u32 + self.y.abs_diff(other.y) as u32
    }

    /// Chebyshev (L∞) distance — the concentric-ring index relative to
    /// `other` used by HDPAT's layer assignment (§IV-C).
    pub fn chebyshev(self, other: Coord) -> u32 {
        (self.x.abs_diff(other.x) as u32).max(self.y.abs_diff(other.y) as u32)
    }

    /// The quadrant of `self` relative to `center`, numbered 0..4
    /// counter-clockwise starting from the upper-right (x >= cx, y < cy).
    /// Tiles exactly on an axis are assigned to the adjacent quadrant in a
    /// fixed, deterministic way (upper-right gets the `y == cy` row to its
    /// right, etc.), so every non-center tile has exactly one quadrant.
    pub fn quadrant(self, center: Coord) -> u8 {
        let right = self.x >= center.x;
        let above = self.y < center.y;
        match (right, above) {
            (true, true) => 0,
            (false, true) => 1,
            (false, false) => 2,
            (true, false) => 3,
        }
    }

    /// Clockwise angular order key around `center`, used to enumerate the
    /// GPMs of a ring in a stable rotational order for HDPAT's cluster
    /// indexing and rotation (§IV-D/E).
    ///
    /// Returns a value that increases monotonically as one walks the ring
    /// clockwise starting from the tile directly above the center.
    #[expect(
        clippy::cast_sign_loss,
        reason = "each branch's guard bounds its offset to 0..8r, so no cast sees a negative value"
    )]
    pub fn ring_position(self, center: Coord) -> u32 {
        let dx = self.x as i32 - center.x as i32;
        let dy = self.y as i32 - center.y as i32;
        let r = dx.unsigned_abs().max(dy.unsigned_abs());
        if r == 0 {
            return 0;
        }
        let r = r as i32;
        // Walk the ring of radius r clockwise from (0, -r) (top).
        // Segment 0: top edge, left-to-right from (0,-r) to (r,-r)
        // Segment 1: right edge, top-to-bottom from (r,-r) to (r,r)
        // Segment 2: bottom edge, right-to-left from (r,r) to (-r,r)
        // Segment 3: left edge, bottom-to-top from (-r,r) to (-r,-r)
        // Segment 4: top edge, left-to-right from (-r,-r) to (0,-r)
        if dy == -r && dx >= 0 {
            dx as u32
        } else if dx == r {
            (r + (dy + r)) as u32
        } else if dy == r {
            (3 * r + (r - dx)) as u32
        } else if dx == -r {
            (5 * r + (r - dy)) as u32
        } else {
            // dy == -r && dx < 0
            (7 * r + (r + dx)) as u32
        }
    }
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

impl From<(u16, u16)> for Coord {
    fn from((x, y): (u16, u16)) -> Self {
        Coord::new(x, y)
    }
}

/// Enumerates all tiles of ring `r` around `center` that fall within a
/// `width × height` wafer, in clockwise [`Coord::ring_position`] order.
///
/// # Example
///
/// ```
/// use wsg_noc::geometry::{ring_tiles, Coord};
/// let ring1 = ring_tiles(Coord::new(3, 3), 1, 7, 7);
/// assert_eq!(ring1.len(), 8);
/// assert!(ring1.iter().all(|c| c.chebyshev(Coord::new(3, 3)) == 1));
/// ```
pub fn ring_tiles(center: Coord, r: u32, width: u16, height: u16) -> Vec<Coord> {
    let mut tiles = Vec::new();
    if r == 0 {
        return vec![center];
    }
    for y in 0..height {
        for x in 0..width {
            let c = Coord::new(x, y);
            if c.chebyshev(center) == r {
                tiles.push(c);
            }
        }
    }
    tiles.sort_by_key(|c| c.ring_position(center));
    tiles
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manhattan_and_chebyshev() {
        let a = Coord::new(1, 2);
        let b = Coord::new(4, 0);
        assert_eq!(a.manhattan(b), 5);
        assert_eq!(b.manhattan(a), 5);
        assert_eq!(a.chebyshev(b), 3);
        assert_eq!(a.manhattan(a), 0);
    }

    #[test]
    fn quadrants_partition_the_plane() {
        let c = Coord::new(3, 3);
        assert_eq!(Coord::new(5, 1).quadrant(c), 0);
        assert_eq!(Coord::new(1, 1).quadrant(c), 1);
        assert_eq!(Coord::new(1, 5).quadrant(c), 2);
        assert_eq!(Coord::new(5, 5).quadrant(c), 3);
        // Axis tiles get a deterministic quadrant.
        assert_eq!(Coord::new(3, 0).quadrant(c), 0);
        assert_eq!(Coord::new(0, 3).quadrant(c), 2);
    }

    #[test]
    fn ring_positions_are_distinct_per_ring() {
        let c = Coord::new(3, 3);
        for r in 1..=3u32 {
            let tiles = ring_tiles(c, r, 7, 7);
            assert_eq!(tiles.len(), (8 * r) as usize, "full ring on a 7x7");
            let mut keys: Vec<u32> = tiles.iter().map(|t| t.ring_position(c)).collect();
            let len_before = keys.len();
            keys.dedup();
            assert_eq!(keys.len(), len_before, "ring positions must be unique");
        }
    }

    #[test]
    fn ring_position_starts_at_top_and_is_clockwise() {
        let c = Coord::new(3, 3);
        let top = Coord::new(3, 2);
        let right = Coord::new(4, 3);
        let bottom = Coord::new(3, 4);
        let left = Coord::new(2, 3);
        let pos = |t: Coord| t.ring_position(c);
        assert_eq!(pos(top), 0);
        assert!(pos(top) < pos(right));
        assert!(pos(right) < pos(bottom));
        assert!(pos(bottom) < pos(left));
    }

    #[test]
    fn ring_zero_is_center() {
        let c = Coord::new(2, 2);
        assert_eq!(ring_tiles(c, 0, 5, 5), vec![c]);
    }

    #[test]
    fn rings_clip_to_wafer_bounds() {
        // Center near a corner: parts of the ring fall off the wafer.
        let c = Coord::new(0, 0);
        let tiles = ring_tiles(c, 1, 7, 7);
        assert_eq!(tiles.len(), 3); // (1,0), (0,1), (1,1)
        assert!(tiles.contains(&Coord::new(1, 0)));
        assert!(tiles.contains(&Coord::new(0, 1)));
        assert!(tiles.contains(&Coord::new(1, 1)));
    }

    #[test]
    fn display_and_from_tuple() {
        let c: Coord = (4, 5).into();
        assert_eq!(format!("{c}"), "(4, 5)");
    }

    #[test]
    fn rectangular_wafer_rings() {
        // 7x12 wafer of Fig 22, CPU near center.
        let c = Coord::new(3, 5);
        let all: usize = (1..=8).map(|r| ring_tiles(c, r, 7, 12).len()).sum();
        assert_eq!(all, 7 * 12 - 1, "rings partition all non-center tiles");
    }
}
