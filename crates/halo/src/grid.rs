//! 3D grids and the distributed Jacobi sweep the halo-exchange DAG
//! schedules.
//!
//! The numeric content exists to *validate the decomposition*: packing
//! faces, exchanging them between rank subdomains, unpacking into ghost
//! layers, and sweeping must produce exactly the same field as a serial
//! sweep of the global grid. The DAG then schedules precisely these
//! operations (per dimension) on the platform simulator.

/// A dense 3D scalar field in x-fastest layout.
#[derive(Debug, Clone, PartialEq)]
pub struct Grid3 {
    /// Cells per dimension.
    pub n: [usize; 3],
    /// `data[(z*ny + y)*nx + x]`.
    pub data: Vec<f64>,
}

impl Grid3 {
    /// A zero-filled grid.
    pub fn zeros(n: [usize; 3]) -> Self {
        Grid3 {
            n,
            data: vec![0.0; n[0] * n[1] * n[2]],
        }
    }

    /// Builds a grid from a coordinate function.
    pub fn from_fn(n: [usize; 3], mut f: impl FnMut(usize, usize, usize) -> f64) -> Self {
        let mut g = Grid3::zeros(n);
        for z in 0..n[2] {
            for y in 0..n[1] {
                for x in 0..n[0] {
                    let i = g.idx(x, y, z);
                    g.data[i] = f(x, y, z);
                }
            }
        }
        g
    }

    /// Linear index of a cell.
    pub fn idx(&self, x: usize, y: usize, z: usize) -> usize {
        debug_assert!(x < self.n[0] && y < self.n[1] && z < self.n[2]);
        (z * self.n[1] + y) * self.n[0] + x
    }

    /// Cell value, 0.0 outside the domain (zero Dirichlet boundary).
    pub fn get_or_zero(&self, x: isize, y: isize, z: isize) -> f64 {
        if x < 0 || y < 0 || z < 0 {
            return 0.0;
        }
        let (x, y, z) = (x as usize, y as usize, z as usize);
        if x >= self.n[0] || y >= self.n[1] || z >= self.n[2] {
            return 0.0;
        }
        self.data[self.idx(x, y, z)]
    }
}

/// One serial 7-point Jacobi sweep with zero Dirichlet boundaries:
/// `out = (sum of the six face neighbours) / 6`.
pub fn jacobi_step(g: &Grid3) -> Grid3 {
    let mut out = Grid3::zeros(g.n);
    for z in 0..g.n[2] {
        for y in 0..g.n[1] {
            for x in 0..g.n[0] {
                let (xi, yi, zi) = (x as isize, y as isize, z as isize);
                let sum = g.get_or_zero(xi - 1, yi, zi)
                    + g.get_or_zero(xi + 1, yi, zi)
                    + g.get_or_zero(xi, yi - 1, zi)
                    + g.get_or_zero(xi, yi + 1, zi)
                    + g.get_or_zero(xi, yi, zi - 1)
                    + g.get_or_zero(xi, yi, zi + 1);
                let i = out.idx(x, y, z);
                out.data[i] = sum / 6.0;
            }
        }
    }
    out
}

/// A Cartesian rank topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankGrid {
    /// Ranks per dimension.
    pub p: [usize; 3],
}

impl RankGrid {
    /// Creates a topology; every dimension needs at least one rank.
    pub fn new(p: [usize; 3]) -> Self {
        assert!(p.iter().all(|&d| d >= 1), "empty rank grid");
        RankGrid { p }
    }

    /// Total number of ranks.
    pub fn num_ranks(&self) -> usize {
        self.p[0] * self.p[1] * self.p[2]
    }

    /// Rank coordinates (x-fastest).
    pub fn coord_of(&self, rank: usize) -> [usize; 3] {
        assert!(rank < self.num_ranks());
        [
            rank % self.p[0],
            (rank / self.p[0]) % self.p[1],
            rank / (self.p[0] * self.p[1]),
        ]
    }

    /// Rank id of a coordinate.
    pub fn rank_of(&self, c: [usize; 3]) -> usize {
        (c[2] * self.p[1] + c[1]) * self.p[0] + c[0]
    }

    /// Neighbour of `rank` along `dim` in direction `dir` (−1 or +1),
    /// `None` at the domain boundary (non-periodic).
    pub fn neighbor(&self, rank: usize, dim: usize, dir: isize) -> Option<usize> {
        let mut c = self.coord_of(rank);
        let moved = c[dim] as isize + dir;
        if moved < 0 || moved as usize >= self.p[dim] {
            return None;
        }
        c[dim] = moved as usize;
        Some(self.rank_of(c))
    }
}

/// One rank's subdomain with a one-cell ghost layer on every side.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalBlock {
    /// Interior cells per dimension.
    pub n: [usize; 3],
    /// Padded field of `(n+2)^3` cells; ghosts stay 0 at physical
    /// boundaries (zero Dirichlet).
    pub data: Vec<f64>,
}

impl LocalBlock {
    fn zeros(n: [usize; 3]) -> Self {
        let m = [n[0] + 2, n[1] + 2, n[2] + 2];
        LocalBlock {
            n,
            data: vec![0.0; m[0] * m[1] * m[2]],
        }
    }

    /// Linear index into the padded array (padded coordinates: interior
    /// is `1..=n`).
    pub fn pidx(&self, x: usize, y: usize, z: usize) -> usize {
        let m = [self.n[0] + 2, self.n[1] + 2, self.n[2] + 2];
        debug_assert!(x < m[0] && y < m[1] && z < m[2]);
        (z * m[1] + y) * m[0] + x
    }

    /// Gathers the boundary face of the *interior* along `dim`, side
    /// `dir` (−1 = low face, +1 = high face), in (a,b) raster order of
    /// the remaining two dimensions — the Pack kernel.
    pub fn pack_face(&self, dim: usize, dir: isize) -> Vec<f64> {
        let fixed = if dir < 0 { 1 } else { self.n[dim] };
        self.face_coords(dim)
            .map(|(a, b)| {
                let c = self.face_cell(dim, fixed, a, b);
                self.data[self.pidx(c[0], c[1], c[2])]
            })
            .collect()
    }

    /// Scatters a received face buffer into the ghost layer along `dim`,
    /// side `dir` — the Unpack kernel. Buffer order must match
    /// [`LocalBlock::pack_face`] of the sender's opposite face.
    pub fn unpack_face(&mut self, dim: usize, dir: isize, buf: &[f64]) {
        let fixed = if dir < 0 { 0 } else { self.n[dim] + 1 };
        let coords: Vec<(usize, usize)> = self.face_coords(dim).collect();
        assert_eq!(coords.len(), buf.len(), "face size mismatch");
        for ((a, b), &v) in coords.into_iter().zip(buf) {
            let c = self.face_cell(dim, fixed, a, b);
            let i = self.pidx(c[0], c[1], c[2]);
            self.data[i] = v;
        }
    }

    fn face_coords(&self, dim: usize) -> impl Iterator<Item = (usize, usize)> {
        let others: Vec<usize> = (0..3).filter(|&d| d != dim).map(|d| self.n[d]).collect();
        let (na, nb) = (others[0], others[1]);
        (0..nb).flat_map(move |b| (0..na).map(move |a| (a + 1, b + 1)))
    }

    fn face_cell(&self, dim: usize, fixed: usize, a: usize, b: usize) -> [usize; 3] {
        let mut c = [0usize; 3];
        c[dim] = fixed;
        let mut rest = [a, b].into_iter();
        for (d, slot) in c.iter_mut().enumerate() {
            if d != dim {
                *slot = rest.next().expect("two free dims");
            }
        }
        c
    }
}

/// A globally consistent distributed grid: the functional model of the
/// program the halo DAG schedules.
#[derive(Debug, Clone, PartialEq)]
pub struct DistributedGrid {
    /// Rank topology.
    pub topo: RankGrid,
    /// Interior cells per rank per dimension.
    pub local_n: [usize; 3],
    /// Per-rank padded blocks.
    pub blocks: Vec<LocalBlock>,
}

impl DistributedGrid {
    /// Scatters a global grid across a rank topology. Each global
    /// dimension must divide evenly.
    pub fn from_global(g: &Grid3, topo: RankGrid) -> Self {
        let local_n = [g.n[0] / topo.p[0], g.n[1] / topo.p[1], g.n[2] / topo.p[2]];
        for (d, (&ln, (&p, &gn))) in local_n.iter().zip(topo.p.iter().zip(&g.n)).enumerate() {
            assert_eq!(ln * p, gn, "dimension {d} must divide");
            assert!(ln >= 1);
        }
        let mut blocks = Vec::with_capacity(topo.num_ranks());
        for rank in 0..topo.num_ranks() {
            let c = topo.coord_of(rank);
            let mut blk = LocalBlock::zeros(local_n);
            for z in 0..local_n[2] {
                for y in 0..local_n[1] {
                    for x in 0..local_n[0] {
                        let gidx = g.idx(
                            c[0] * local_n[0] + x,
                            c[1] * local_n[1] + y,
                            c[2] * local_n[2] + z,
                        );
                        let i = blk.pidx(x + 1, y + 1, z + 1);
                        blk.data[i] = g.data[gidx];
                    }
                }
            }
            blocks.push(blk);
        }
        DistributedGrid {
            topo,
            local_n,
            blocks,
        }
    }

    /// Pack → exchange → unpack for every dimension and side: after this,
    /// every interior ghost layer holds the neighbour's boundary values
    /// (physical-boundary ghosts stay 0).
    pub fn exchange_ghosts(&mut self) {
        for dim in 0..3 {
            for dir in [-1isize, 1] {
                // Pack all sends first (SPMD phase), then deliver.
                let packed: Vec<Option<(usize, Vec<f64>)>> = (0..self.topo.num_ranks())
                    .map(|rank| {
                        self.topo
                            .neighbor(rank, dim, dir)
                            .map(|peer| (peer, self.blocks[rank].pack_face(dim, dir)))
                    })
                    .collect();
                for (rank, send) in packed.into_iter().enumerate() {
                    let _ = rank;
                    if let Some((peer, buf)) = send {
                        // The receiver's ghost is on the side facing us.
                        self.blocks[peer].unpack_face(dim, -dir, &buf);
                    }
                }
            }
        }
    }

    /// One distributed Jacobi sweep: assumes ghosts are current (call
    /// [`DistributedGrid::exchange_ghosts`] first).
    pub fn jacobi_step(&mut self) {
        let n = self.local_n;
        for blk in &mut self.blocks {
            let mut out = vec![0.0; blk.data.len()];
            for z in 1..=n[2] {
                for y in 1..=n[1] {
                    for x in 1..=n[0] {
                        let sum = blk.data[blk.pidx(x - 1, y, z)]
                            + blk.data[blk.pidx(x + 1, y, z)]
                            + blk.data[blk.pidx(x, y - 1, z)]
                            + blk.data[blk.pidx(x, y + 1, z)]
                            + blk.data[blk.pidx(x, y, z - 1)]
                            + blk.data[blk.pidx(x, y, z + 1)];
                        out[blk.pidx(x, y, z)] = sum / 6.0;
                    }
                }
            }
            // Interior only; ghosts are refreshed by the next exchange.
            for z in 1..=n[2] {
                for y in 1..=n[1] {
                    for x in 1..=n[0] {
                        let i = blk.pidx(x, y, z);
                        blk.data[i] = out[i];
                    }
                }
            }
        }
    }

    /// Gathers the distributed interiors back into a global grid.
    pub fn gather(&self) -> Grid3 {
        let n = [
            self.local_n[0] * self.topo.p[0],
            self.local_n[1] * self.topo.p[1],
            self.local_n[2] * self.topo.p[2],
        ];
        let mut g = Grid3::zeros(n);
        #[allow(clippy::needless_range_loop)] // indices are the clearest form here
        for rank in 0..self.topo.num_ranks() {
            let c = self.topo.coord_of(rank);
            let blk = &self.blocks[rank];
            for z in 0..self.local_n[2] {
                for y in 0..self.local_n[1] {
                    for x in 0..self.local_n[0] {
                        let gi = g.idx(
                            c[0] * self.local_n[0] + x,
                            c[1] * self.local_n[1] + y,
                            c[2] * self.local_n[2] + z,
                        );
                        g.data[gi] = blk.data[blk.pidx(x + 1, y + 1, z + 1)];
                    }
                }
            }
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_grid(n: [usize; 3]) -> Grid3 {
        Grid3::from_fn(n, |x, y, z| ((x * 31 + y * 17 + z * 7) % 23) as f64 - 11.0)
    }

    #[test]
    fn rank_grid_round_trips_coordinates() {
        let t = RankGrid::new([2, 3, 2]);
        assert_eq!(t.num_ranks(), 12);
        for r in 0..t.num_ranks() {
            assert_eq!(t.rank_of(t.coord_of(r)), r);
        }
    }

    #[test]
    fn neighbors_respect_boundaries() {
        let t = RankGrid::new([2, 2, 2]);
        let origin = t.rank_of([0, 0, 0]);
        assert_eq!(t.neighbor(origin, 0, -1), None);
        assert_eq!(t.neighbor(origin, 0, 1), Some(t.rank_of([1, 0, 0])));
        assert_eq!(t.neighbor(origin, 2, 1), Some(t.rank_of([0, 0, 1])));
    }

    #[test]
    fn scatter_gather_is_identity() {
        let g = test_grid([4, 6, 4]);
        let d = DistributedGrid::from_global(&g, RankGrid::new([2, 3, 2]));
        assert_eq!(d.gather(), g);
    }

    #[test]
    fn pack_unpack_face_round_trip() {
        let g = test_grid([4, 4, 4]);
        let d = DistributedGrid::from_global(&g, RankGrid::new([2, 1, 1]));
        // Rank 0's high-x face packed and unpacked into rank 1's low-x
        // ghost must equal rank 0's boundary cells.
        let buf = d.blocks[0].pack_face(0, 1);
        assert_eq!(buf.len(), 4 * 4, "a y-z face of a 2x4x4 block");
        let mut blk1 = d.blocks[1].clone();
        blk1.unpack_face(0, -1, &buf);
        for z in 1..=2usize {
            for y in 1..=2usize {
                assert_eq!(
                    blk1.data[blk1.pidx(0, y, z)],
                    d.blocks[0].data[d.blocks[0].pidx(2, y, z)]
                );
            }
        }
    }

    #[test]
    fn distributed_jacobi_matches_serial_one_step() {
        let g = test_grid([6, 6, 6]);
        let want = jacobi_step(&g);
        for p in [[1, 1, 1], [2, 1, 1], [2, 3, 1], [2, 3, 2], [3, 2, 3]] {
            let mut d = DistributedGrid::from_global(&g, RankGrid::new(p));
            d.exchange_ghosts();
            d.jacobi_step();
            let got = d.gather();
            for (i, (a, b)) in got.data.iter().zip(&want.data).enumerate() {
                assert!((a - b).abs() < 1e-12, "p={p:?} cell {i}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn distributed_jacobi_matches_serial_multiple_steps() {
        let g = test_grid([4, 4, 8]);
        let mut serial = g.clone();
        let mut d = DistributedGrid::from_global(&g, RankGrid::new([2, 2, 2]));
        for _ in 0..5 {
            serial = jacobi_step(&serial);
            d.exchange_ghosts();
            d.jacobi_step();
        }
        let got = d.gather();
        for (a, b) in got.data.iter().zip(&serial.data) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn jacobi_preserves_zero_field() {
        let g = Grid3::zeros([5, 5, 5]);
        assert_eq!(jacobi_step(&g), g);
        let mut d = DistributedGrid::from_global(&g, RankGrid::new([1, 1, 5]));
        d.exchange_ghosts();
        d.jacobi_step();
        assert_eq!(d.gather(), g);
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn indivisible_decomposition_panics() {
        DistributedGrid::from_global(&test_grid([5, 4, 4]), RankGrid::new([2, 2, 2]));
    }
}
