//! The 3-D heat equation (Figure 9, "Heat").
//!
//! Explicit FTCS on a 3-D grid with zero (Dirichlet) boundaries and a
//! 3-D domain decomposition: "each process needs to communicate with
//! several neighbors, which results in a large number of small messages
//! sent over the network" (Section VII). Every step exchanges six halo
//! faces and applies the 7-point stencil.
//!
//! The distributed solvers ([`mpi`], [`dv`]) run arithmetic identical to
//! [`SerialHeat`], so tests validate exact equality.

pub mod dv;
pub mod mpi;

/// Problem description.
#[derive(Debug, Clone, Copy)]
pub struct HeatConfig {
    /// Global cells per side (x, y, z).
    pub n: (usize, usize, usize),
    /// Node grid (px, py, pz); `px·py·pz` = node count.
    pub grid: (usize, usize, usize),
    /// Diffusion number `r = κ·dt/h²` (stability: `r ≤ 1/6`).
    pub r: f64,
    /// Time steps.
    pub steps: usize,
    /// Report global heat every this many steps (an allreduce).
    pub report_every: usize,
    /// MPI halo-exchange strategy (the Data Vortex implementation always
    /// uses one source-aggregated DMA batch per step).
    pub halo: Halo,
}

/// Halo-exchange strategy for the MPI implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Halo {
    /// One message per line of each face, all posted up front — the
    /// paper's "large number of small messages", the most pessimistic
    /// baseline.
    Line,
    /// The textbook exchange: six sequential face shifts, each a
    /// send+receive pair whose wire latency sits on the critical path.
    /// This is the default and matches era-typical application code.
    Face,
    /// One message per face, all six posted before any receive — the
    /// strongest (most overlapped) MPI baseline, for ablations.
    FaceOverlapped,
}

impl HeatConfig {
    /// Small test problem on 8 nodes (2×2×2).
    pub fn test_small() -> Self {
        Self { n: (16, 16, 16), grid: (2, 2, 2), r: 0.1, steps: 4, report_every: 2, halo: Halo::Line }
    }

    /// Node count.
    pub fn nodes(&self) -> usize {
        self.grid.0 * self.grid.1 * self.grid.2
    }

    /// Local block size (must divide evenly).
    pub fn local(&self) -> (usize, usize, usize) {
        assert_eq!(self.n.0 % self.grid.0, 0);
        assert_eq!(self.n.1 % self.grid.1, 0);
        assert_eq!(self.n.2 % self.grid.2, 0);
        (self.n.0 / self.grid.0, self.n.1 / self.grid.1, self.n.2 / self.grid.2)
    }

    /// Node id → grid coordinates (x-major).
    pub fn coords(&self, node: usize) -> (usize, usize, usize) {
        let (px, py, _) = self.grid;
        (node % px, (node / px) % py, node / (px * py))
    }

    /// Grid coordinates → node id; `None` outside the grid.
    #[allow(clippy::manual_map)]
    pub fn node_at(&self, c: (isize, isize, isize)) -> Option<usize> {
        let (px, py, pz) = self.grid;
        if c.0 < 0 || c.1 < 0 || c.2 < 0 {
            return None;
        }
        let (x, y, z) = (c.0 as usize, c.1 as usize, c.2 as usize);
        if x >= px || y >= py || z >= pz {
            None
        } else {
            Some((z * py + y) * px + x)
        }
    }
}

/// The exact stencil expression both solvers share (term order matters
/// for bit-exact validation).
#[inline]
#[allow(clippy::too_many_arguments)] // one argument per stencil neighbor
pub fn stencil(center: f64, xm: f64, xp: f64, ym: f64, yp: f64, zm: f64, zp: f64, r: f64) -> f64 {
    center + r * (xm + xp + ym + yp + zm + zp - 6.0 * center)
}

/// Initial condition: a hot Gaussian blob off-center.
pub fn initial_temperature(x: f64, y: f64, z: f64) -> f64 {
    let d2 = (x - 0.3).powi(2) + (y - 0.4).powi(2) + (z - 0.55).powi(2);
    (-d2 / 0.02).exp()
}

/// Serial reference solver.
pub struct SerialHeat {
    /// Grid dims.
    pub n: (usize, usize, usize),
    /// Row-major `[z][y][x]` field.
    pub u: Vec<f64>,
    r: f64,
}

impl SerialHeat {
    /// Initialize on the unit cube.
    pub fn new(cfg: &HeatConfig) -> Self {
        let (nx, ny, nz) = cfg.n;
        let mut u = vec![0.0; nx * ny * nz];
        for k in 0..nz {
            for j in 0..ny {
                for i in 0..nx {
                    u[(k * ny + j) * nx + i] = initial_temperature(
                        (i as f64 + 0.5) / nx as f64,
                        (j as f64 + 0.5) / ny as f64,
                        (k as f64 + 0.5) / nz as f64,
                    );
                }
            }
        }
        Self { n: cfg.n, u, r: cfg.r }
    }

    fn at(&self, i: isize, j: isize, k: isize) -> f64 {
        let (nx, ny, nz) = self.n;
        if i < 0 || j < 0 || k < 0 || i >= nx as isize || j >= ny as isize || k >= nz as isize {
            0.0 // Dirichlet boundary
        } else {
            self.u[((k as usize) * ny + j as usize) * nx + i as usize]
        }
    }

    /// One FTCS step.
    pub fn step(&mut self) {
        let (nx, ny, nz) = self.n;
        let mut next = vec![0.0; self.u.len()];
        for k in 0..nz as isize {
            for j in 0..ny as isize {
                for i in 0..nx as isize {
                    next[((k as usize) * ny + j as usize) * nx + i as usize] = stencil(
                        self.at(i, j, k),
                        self.at(i - 1, j, k),
                        self.at(i + 1, j, k),
                        self.at(i, j - 1, k),
                        self.at(i, j + 1, k),
                        self.at(i, j, k - 1),
                        self.at(i, j, k + 1),
                        self.r,
                    );
                }
            }
        }
        self.u = next;
    }

    /// Total heat (decays monotonically with Dirichlet boundaries).
    pub fn total_heat(&self) -> f64 {
        self.u.iter().sum()
    }
}

/// Halo-face directions in the receiver's frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Face {
    /// −x ghost plane.
    Xm,
    /// +x ghost plane.
    Xp,
    /// −y ghost plane.
    Ym,
    /// +y ghost plane.
    Yp,
    /// −z ghost plane.
    Zm,
    /// +z ghost plane.
    Zp,
}

impl Face {
    /// All six, in exchange order.
    pub const ALL: [Face; 6] = [Face::Xm, Face::Xp, Face::Ym, Face::Yp, Face::Zm, Face::Zp];

    /// Index 0..6.
    pub fn index(self) -> usize {
        Face::ALL.iter().position(|&f| f == self).unwrap()
    }

    /// The face a neighbor fills when I send it this one.
    pub fn opposite(self) -> Face {
        match self {
            Face::Xm => Face::Xp,
            Face::Xp => Face::Xm,
            Face::Ym => Face::Yp,
            Face::Yp => Face::Ym,
            Face::Zm => Face::Zp,
            Face::Zp => Face::Zm,
        }
    }

    /// Unit offset in node-grid coordinates.
    pub fn offset(self) -> (isize, isize, isize) {
        match self {
            Face::Xm => (-1, 0, 0),
            Face::Xp => (1, 0, 0),
            Face::Ym => (0, -1, 0),
            Face::Yp => (0, 1, 0),
            Face::Zm => (0, 0, -1),
            Face::Zp => (0, 0, 1),
        }
    }
}

/// One node's sub-block with a one-cell ghost shell.
pub struct LocalBlock {
    /// Local interior dims.
    pub dims: (usize, usize, usize),
    /// Field with ghosts: `(nx+2)·(ny+2)·(nz+2)`, `[z][y][x]`.
    pub u: Vec<f64>,
    /// This node's grid coordinates.
    pub coords: (usize, usize, usize),
    /// The field a step writes, swapped with `u` after it.
    next: Vec<f64>,
}

impl LocalBlock {
    /// Initialize this node's block of the global problem.
    pub fn new(cfg: &HeatConfig, node: usize) -> Self {
        let (nxl, nyl, nzl) = cfg.local();
        let coords = cfg.coords(node);
        let (gx, gy, gz) = (coords.0 * nxl, coords.1 * nyl, coords.2 * nzl);
        let (nx, ny, nz) = cfg.n;
        let cells = (nxl + 2) * (nyl + 2) * (nzl + 2);
        let mut block = Self { dims: (nxl, nyl, nzl), u: vec![0.0; cells], coords, next: vec![0.0; cells] };
        for k in 0..nzl {
            for j in 0..nyl {
                for i in 0..nxl {
                    let v = initial_temperature(
                        ((gx + i) as f64 + 0.5) / nx as f64,
                        ((gy + j) as f64 + 0.5) / ny as f64,
                        ((gz + k) as f64 + 0.5) / nz as f64,
                    );
                    let idx = block.idx(i as isize, j as isize, k as isize);
                    block.u[idx] = v;
                }
            }
        }
        block
    }

    /// Index into the ghosted array (interior coords; −1 and `dim` hit
    /// ghosts).
    #[inline]
    pub fn idx(&self, i: isize, j: isize, k: isize) -> usize {
        let (nxl, nyl, _) = self.dims;
        (((k + 1) as usize) * (nyl + 2) + (j + 1) as usize) * (nxl + 2) + (i + 1) as usize
    }

    /// Number of lines in a face plane (the unit of the paper's
    /// fine-grained halo messages): one line per fixed outer coordinate.
    pub fn face_lines(&self, f: Face) -> usize {
        let (_, nyl, nzl) = self.dims;
        match f {
            Face::Xm | Face::Xp => nzl,
            Face::Ym | Face::Yp => nzl,
            Face::Zm | Face::Zp => nyl,
        }
    }

    /// Cells per line of a face.
    pub fn line_len(&self, f: Face) -> usize {
        self.face_len(f) / self.face_lines(f)
    }

    /// Number of cells in a face plane.
    pub fn face_len(&self, f: Face) -> usize {
        let (nxl, nyl, nzl) = self.dims;
        match f {
            Face::Xm | Face::Xp => nyl * nzl,
            Face::Ym | Face::Yp => nxl * nzl,
            Face::Zm | Face::Zp => nxl * nyl,
        }
    }

    fn face_coords(&self, f: Face, ghost: bool) -> impl Iterator<Item = (isize, isize, isize)> {
        let (nxl, nyl, nzl) = self.dims;
        let fixed = |interior_lo: isize, interior_hi: isize| if ghost {
            if matches!(f, Face::Xm | Face::Ym | Face::Zm) { interior_lo - 1 } else { interior_hi + 1 }
        } else if matches!(f, Face::Xm | Face::Ym | Face::Zm) {
            interior_lo
        } else {
            interior_hi
        };
        let (a_max, b_max) = match f {
            Face::Xm | Face::Xp => (nzl, nyl),
            Face::Ym | Face::Yp => (nzl, nxl),
            Face::Zm | Face::Zp => (nyl, nxl),
        };
        let fx = fixed(0, nxl as isize - 1);
        let fy = fixed(0, nyl as isize - 1);
        let fz = fixed(0, nzl as isize - 1);
        (0..a_max).flat_map(move |a| {
            (0..b_max).map(move |b| match f {
                Face::Xm | Face::Xp => (fx, b as isize, a as isize),
                Face::Ym | Face::Yp => (b as isize, fy, a as isize),
                Face::Zm | Face::Zp => (b as isize, a as isize, fz),
            })
        })
    }

    /// My boundary plane adjacent to face `f` (what the neighbor in that
    /// direction needs as its ghost), in line order.
    pub fn face(&self, f: Face) -> impl Iterator<Item = f64> + '_ {
        self.face_coords(f, false).map(|(i, j, k)| self.u[self.idx(i, j, k)])
    }

    /// Fill the ghost plane of face `f`.
    pub fn set_ghost(&mut self, f: Face, data: impl ExactSizeIterator<Item = f64>) {
        debug_assert_eq!(data.len(), self.face_len(f));
        for (c, v) in self.face_coords(f, true).zip(data) {
            let idx = self.idx(c.0, c.1, c.2);
            self.u[idx] = v;
        }
    }

    /// One stencil step over the interior (ghosts must be current).
    pub fn step(&mut self, r: f64) {
        let (nxl, nyl, nzl) = self.dims;
        let mut next = std::mem::take(&mut self.next);
        next.copy_from_slice(&self.u);
        for k in 0..nzl as isize {
            for j in 0..nyl as isize {
                for i in 0..nxl as isize {
                    next[self.idx(i, j, k)] = stencil(
                        self.u[self.idx(i, j, k)],
                        self.u[self.idx(i - 1, j, k)],
                        self.u[self.idx(i + 1, j, k)],
                        self.u[self.idx(i, j - 1, k)],
                        self.u[self.idx(i, j + 1, k)],
                        self.u[self.idx(i, j, k - 1)],
                        self.u[self.idx(i, j, k + 1)],
                        r,
                    );
                }
            }
        }
        self.next = std::mem::replace(&mut self.u, next);
    }

    /// Interior cell count.
    pub fn cells(&self) -> usize {
        self.dims.0 * self.dims.1 * self.dims.2
    }

    /// Sum of interior cells.
    pub fn local_heat(&self) -> f64 {
        let (nxl, nyl, nzl) = self.dims;
        let mut s = 0.0;
        for k in 0..nzl as isize {
            for j in 0..nyl as isize {
                for i in 0..nxl as isize {
                    s += self.u[self.idx(i, j, k)];
                }
            }
        }
        s
    }

    /// Interior field in `[z][y][x]` order (for validation).
    pub fn interior(&self) -> Vec<f64> {
        let (nxl, nyl, nzl) = self.dims;
        let mut out = Vec::with_capacity(self.cells());
        for k in 0..nzl as isize {
            for j in 0..nyl as isize {
                for i in 0..nxl as isize {
                    out.push(self.u[self.idx(i, j, k)]);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_decomposition_round_trips() {
        let cfg = HeatConfig { n: (8, 8, 8), grid: (2, 3, 4), r: 0.1, steps: 0, report_every: 1, halo: Halo::Line };
        for node in 0..cfg.nodes() {
            let c = cfg.coords(node);
            let back = cfg.node_at((c.0 as isize, c.1 as isize, c.2 as isize));
            assert_eq!(back, Some(node));
        }
        assert_eq!(cfg.node_at((-1, 0, 0)), None);
        assert_eq!(cfg.node_at((2, 0, 0)), None);
    }

    #[test]
    fn heat_decays_monotonically() {
        let cfg = HeatConfig { n: (12, 12, 12), grid: (1, 1, 1), r: 0.15, steps: 0, report_every: 1, halo: Halo::Line };
        let mut s = SerialHeat::new(&cfg);
        let mut last = s.total_heat();
        assert!(last > 0.0);
        for _ in 0..10 {
            s.step();
            let h = s.total_heat();
            assert!(h < last, "heat must leak out through the cold boundary");
            last = h;
        }
    }

    #[test]
    fn single_block_matches_serial_exactly() {
        let cfg = HeatConfig { n: (8, 8, 8), grid: (1, 1, 1), r: 0.12, steps: 0, report_every: 1, halo: Halo::Line };
        let mut serial = SerialHeat::new(&cfg);
        let mut block = LocalBlock::new(&cfg, 0);
        for _ in 0..5 {
            serial.step();
            block.step(cfg.r); // ghosts stay zero = Dirichlet
        }
        assert_eq!(block.interior(), serial.u);
    }

    #[test]
    fn face_gather_set_round_trip() {
        let cfg = HeatConfig { n: (4, 6, 8), grid: (1, 1, 1), r: 0.1, steps: 0, report_every: 1, halo: Halo::Line };
        let mut b = LocalBlock::new(&cfg, 0);
        for f in Face::ALL {
            let face: Vec<f64> = b.face(f).collect();
            assert_eq!(face.len(), b.face_len(f));
            // Setting a ghost then reading it back through idx works.
            let marked: Vec<f64> = (0..face.len()).map(|i| 1000.0 + i as f64).collect();
            b.set_ghost(f, marked.into_iter());
            let coords: Vec<_> = b.face_coords(f, true).collect();
            for (n, c) in coords.into_iter().enumerate() {
                assert_eq!(b.u[b.idx(c.0, c.1, c.2)], 1000.0 + n as f64);
            }
        }
    }

    #[test]
    fn opposite_faces_pair_up() {
        for f in Face::ALL {
            assert_eq!(f.opposite().opposite(), f);
            let o = f.offset();
            let oo = f.opposite().offset();
            assert_eq!((o.0 + oo.0, o.1 + oo.1, o.2 + oo.2), (0, 0, 0));
        }
    }

    #[test]
    fn uniform_interior_smooths_toward_boundary() {
        // Max principle: values stay within [0, max(initial)].
        let cfg = HeatConfig { n: (8, 8, 8), grid: (1, 1, 1), r: 1.0 / 6.0, steps: 0, report_every: 1, halo: Halo::Line };
        let mut s = SerialHeat::new(&cfg);
        let max0 = s.u.iter().cloned().fold(0.0, f64::max);
        for _ in 0..20 {
            s.step();
        }
        for &v in &s.u {
            assert!(v >= -1e-12 && v <= max0 + 1e-12);
        }
    }
}
