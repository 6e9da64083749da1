//! Static CGRA architecture description.

use std::error::Error;
use std::fmt;

/// Coordinates of one processing element: `x` is the row (the paper's
/// "north–south" axis, north = decreasing `x`), `y` the column (west–east).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PeId {
    /// Row, `0 ≤ x < rows`.
    pub x: u16,
    /// Column, `0 ≤ y < cols`.
    pub y: u16,
}

impl PeId {
    /// Creates a PE coordinate.
    pub fn new(x: usize, y: usize) -> Self {
        PeId { x: x as u16, y: y as u16 }
    }
}

impl fmt::Debug for PeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pe({},{})", self.x, self.y)
    }
}

impl fmt::Display for PeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.x, self.y)
    }
}

/// Mesh link directions out of a PE.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Dir {
    /// Toward row `x - 1`.
    North,
    /// Toward column `y + 1`.
    East,
    /// Toward row `x + 1`.
    South,
    /// Toward column `y - 1`.
    West,
}

/// All four mesh directions, in a fixed deterministic order.
pub const ALL_DIRS: [Dir; 4] = [Dir::North, Dir::East, Dir::South, Dir::West];

impl Dir {
    /// The `(dx, dy)` displacement of this direction.
    #[inline]
    pub fn delta(self) -> (i32, i32) {
        match self {
            Dir::North => (-1, 0),
            Dir::East => (0, 1),
            Dir::South => (1, 0),
            Dir::West => (0, -1),
        }
    }

    /// The opposite direction.
    pub fn opposite(self) -> Dir {
        match self {
            Dir::North => Dir::South,
            Dir::East => Dir::West,
            Dir::South => Dir::North,
            Dir::West => Dir::East,
        }
    }

    /// Dense index `0..4` (N, E, S, W).
    pub fn index(self) -> usize {
        match self {
            Dir::North => 0,
            Dir::East => 1,
            Dir::South => 2,
            Dir::West => 3,
        }
    }

    /// Inverse of [`Dir::index`].
    ///
    /// # Panics
    ///
    /// Panics if `index >= 4`.
    pub fn from_index(index: usize) -> Dir {
        ALL_DIRS[index]
    }
}

impl fmt::Display for Dir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Dir::North => "N",
            Dir::East => "E",
            Dir::South => "S",
            Dir::West => "W",
        };
        f.write_str(s)
    }
}

/// Static description of a CGRA (§VI of the paper).
///
/// Defaults mirror the paper's evaluation platform: a register file with four
/// registers, a 32-entry configuration memory, a 64-word local data memory
/// per PE and a 510 MHz clock on a 40 nm process.
#[derive(Clone, Debug, PartialEq)]
pub struct CgraSpec {
    /// Number of PE rows.
    pub rows: usize,
    /// Number of PE columns.
    pub cols: usize,
    /// Registers per PE register file.
    pub rf_size: usize,
    /// Instructions held by each PE's configuration memory.
    pub config_mem_depth: usize,
    /// Words held by each PE's local data memory.
    pub data_mem_words: usize,
    /// Register-file read/write ports per PE (§VI: "two r/w ports").
    pub rf_ports: usize,
    /// Local data-memory read ports per PE per cycle.
    pub mem_ports: usize,
    /// Clock frequency in MHz.
    pub freq_mhz: f64,
    /// Faulted resources of this fabric instance; empty (the default) for a
    /// pristine array. Part of the spec's identity: two specs with different
    /// fault maps compare unequal, so per-`(spec, II)` caches key correctly.
    pub faults: crate::capability::CapabilityMap,
}

/// Error constructing a [`CgraSpec`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpecError {
    /// Array dimensions must be at least 1×1.
    EmptyArray,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::EmptyArray => write!(f, "CGRA array must have at least one PE"),
        }
    }
}

impl Error for SpecError {}

impl CgraSpec {
    /// Creates a `rows × cols` CGRA with the paper's default PE parameters.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::EmptyArray`] if either dimension is zero.
    pub fn mesh(rows: usize, cols: usize) -> Result<Self, SpecError> {
        if rows == 0 || cols == 0 {
            return Err(SpecError::EmptyArray);
        }
        Ok(CgraSpec {
            rows,
            cols,
            rf_size: 4,
            config_mem_depth: 32,
            data_mem_words: 64,
            rf_ports: 2,
            mem_ports: 2,
            freq_mhz: 510.0,
            faults: crate::capability::CapabilityMap::default(),
        })
    }

    /// This spec with `faults` installed (builder-style convenience).
    #[must_use]
    pub fn with_faults(mut self, faults: crate::capability::CapabilityMap) -> Self {
        self.faults = faults;
        self
    }

    /// This spec with an empty fault map — the idealized fabric sub-CGRA
    /// probing and relative placement work against, since relative mappings
    /// are position-agnostic and replicated only onto healthy tiles.
    pub fn fault_free(&self) -> Self {
        CgraSpec { faults: crate::capability::CapabilityMap::default(), ..self.clone() }
    }

    /// `true` if `pe` lies inside the array and is not a dead PE.
    pub fn healthy(&self, pe: PeId) -> bool {
        self.contains(pe) && !self.faults.pe_dead(pe)
    }

    /// Creates a square `c × c` CGRA with default PE parameters.
    ///
    /// # Panics
    ///
    /// Panics if `c == 0`.
    // The panic is part of the documented contract.
    #[allow(clippy::expect_used)]
    pub fn square(c: usize) -> Self {
        Self::mesh(c, c).expect("square CGRA size must be non-zero")
    }

    /// Total number of PEs.
    pub fn pe_count(&self) -> usize {
        self.rows * self.cols
    }

    /// `true` if `pe` lies inside the array.
    #[inline]
    pub fn contains(&self, pe: PeId) -> bool {
        (pe.x as usize) < self.rows && (pe.y as usize) < self.cols
    }

    /// The neighbour of `pe` in direction `dir`, or `None` at the array edge.
    #[inline]
    pub fn neighbor(&self, pe: PeId, dir: Dir) -> Option<PeId> {
        let (dx, dy) = dir.delta();
        let nx = pe.x as i32 + dx;
        let ny = pe.y as i32 + dy;
        if nx < 0 || ny < 0 || nx as usize >= self.rows || ny as usize >= self.cols {
            None
        } else {
            Some(PeId { x: nx as u16, y: ny as u16 })
        }
    }

    /// Iterates over all PEs in row-major order.
    pub fn pes(&self) -> impl Iterator<Item = PeId> + '_ {
        (0..self.rows).flat_map(move |x| (0..self.cols).map(move |y| PeId::new(x, y)))
    }

    /// Manhattan distance between two PEs (mesh hop count lower bound).
    pub fn distance(&self, a: PeId, b: PeId) -> usize {
        let dx = (a.x as i32 - b.x as i32).unsigned_abs() as usize;
        let dy = (a.y as i32 - b.y as i32).unsigned_abs() as usize;
        dx + dy
    }
}

#[allow(clippy::unwrap_used, clippy::expect_used)]
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_validation() {
        assert!(CgraSpec::mesh(0, 4).is_err());
        assert!(CgraSpec::mesh(4, 0).is_err());
        let spec = CgraSpec::mesh(8, 1).unwrap();
        assert_eq!(spec.pe_count(), 8);
    }

    #[test]
    fn square_defaults_match_paper() {
        let spec = CgraSpec::square(4);
        assert_eq!(spec.rows, 4);
        assert_eq!(spec.cols, 4);
        assert_eq!(spec.rf_size, 4);
        assert_eq!(spec.config_mem_depth, 32);
        assert_eq!(spec.data_mem_words, 64);
        assert_eq!(spec.freq_mhz, 510.0);
    }

    #[test]
    fn neighbors_and_edges() {
        let spec = CgraSpec::square(3);
        let corner = PeId::new(0, 0);
        assert_eq!(spec.neighbor(corner, Dir::North), None);
        assert_eq!(spec.neighbor(corner, Dir::West), None);
        assert_eq!(spec.neighbor(corner, Dir::South), Some(PeId::new(1, 0)));
        assert_eq!(spec.neighbor(corner, Dir::East), Some(PeId::new(0, 1)));
        let center = PeId::new(1, 1);
        for dir in ALL_DIRS {
            let n = spec.neighbor(center, dir).expect("center has all neighbors");
            assert_eq!(spec.neighbor(n, dir.opposite()), Some(center));
        }
    }

    #[test]
    fn dir_roundtrip() {
        for dir in ALL_DIRS {
            assert_eq!(Dir::from_index(dir.index()), dir);
            assert_eq!(dir.opposite().opposite(), dir);
            let (dx, dy) = dir.delta();
            let (ox, oy) = dir.opposite().delta();
            assert_eq!((dx + ox, dy + oy), (0, 0));
        }
    }

    #[test]
    fn pes_row_major() {
        let spec = CgraSpec::mesh(2, 3).unwrap();
        let pes: Vec<_> = spec.pes().collect();
        assert_eq!(pes.len(), 6);
        assert_eq!(pes[0], PeId::new(0, 0));
        assert_eq!(pes[1], PeId::new(0, 1));
        assert_eq!(pes[3], PeId::new(1, 0));
    }

    #[test]
    fn manhattan_distance() {
        let spec = CgraSpec::square(8);
        assert_eq!(spec.distance(PeId::new(0, 0), PeId::new(3, 4)), 7);
        assert_eq!(spec.distance(PeId::new(2, 2), PeId::new(2, 2)), 0);
    }

    #[test]
    fn contains_checks_bounds() {
        let spec = CgraSpec::mesh(2, 2).unwrap();
        assert!(spec.contains(PeId::new(1, 1)));
        assert!(!spec.contains(PeId::new(2, 0)));
        assert!(!spec.contains(PeId::new(0, 2)));
    }
}
