//! Cost model binding the halo decomposition to the platform simulator:
//! exact face sizes per dimension, stencil kernel estimates, and the
//! per-dimension point-to-point patterns.

use crate::dag::{k_halo, k_pack, k_unpack, K_BOUNDARY, K_INTERIOR};
use crate::grid::RankGrid;
use dr_dag::{CommKey, CostKey};
use dr_sim::{CommPattern, Workload};

/// First-order stencil/copy timing model (seconds).
#[derive(Debug, Clone, PartialEq)]
pub struct StencilModel {
    /// Time per interior cell of the stencil kernel.
    pub stencil_sec_per_cell: f64,
    /// Fixed cost of any kernel invocation.
    pub kernel_fixed: f64,
    /// Time per face cell gathered/scattered by pack/unpack.
    pub copy_sec_per_cell: f64,
}

impl Default for StencilModel {
    fn default() -> Self {
        StencilModel {
            stencil_sec_per_cell: 6e-11,
            kernel_fixed: 3e-6,
            copy_sec_per_cell: 4e-10,
        }
    }
}

/// The halo problem instance.
#[derive(Debug, Clone, PartialEq)]
pub struct HaloSpec {
    /// Rank topology.
    pub topo: RankGrid,
    /// Interior cells per rank per dimension.
    pub local_n: [usize; 3],
    /// Number of dimensions actually exchanging (matches the DAG config).
    pub dims: usize,
    /// Kernel timing model.
    pub model: StencilModel,
}

/// [`Workload`] implementation for the halo exchange.
///
/// Every key's per-rank cost and pattern is tabulated by
/// [`HaloWorkload::new`], so a lookup is a comparison against a handful
/// of key names and allocates nothing beyond the returned pattern.
#[derive(Debug, Clone)]
pub struct HaloWorkload {
    spec: HaloSpec,
    /// Per cost key: its name and its cost on each rank.
    costs: Vec<(String, Vec<f64>)>,
    /// Per communication key: its name and each rank's pattern.
    comms: Vec<(String, Vec<CommPattern>)>,
}

impl HaloWorkload {
    /// Builds the workload; face sizes and neighbour sets derive from the
    /// topology exactly.
    pub fn new(spec: HaloSpec) -> Self {
        assert!((1..=3).contains(&spec.dims));
        let mut w = HaloWorkload {
            spec,
            costs: Vec::new(),
            comms: Vec::new(),
        };
        let (m, ranks) = (&w.spec.model, w.spec.topo.num_ranks());
        let kernel =
            |cells: usize| vec![m.kernel_fixed + cells as f64 * m.stencil_sec_per_cell; ranks];
        let mut costs = vec![
            (K_INTERIOR.to_string(), kernel(w.interior_cells())),
            (K_BOUNDARY.to_string(), kernel(w.boundary_cells())),
        ];
        let mut comms = Vec::new();
        for d in 0..w.spec.dims {
            let faces = w.face_cells(d);
            let peers: Vec<Vec<usize>> = (0..ranks)
                .map(|rank| {
                    [-1, 1]
                        .iter()
                        .filter_map(|&dir| w.spec.topo.neighbor(rank, d, dir))
                        .collect()
                })
                .collect();
            // Pack/unpack move up to two faces (one per side).
            let copy: Vec<f64> = peers
                .iter()
                .map(|p| m.kernel_fixed + (faces * p.len()) as f64 * m.copy_sec_per_cell)
                .collect();
            costs.push((k_pack(d), copy.clone()));
            costs.push((k_unpack(d), copy));
            let bytes = faces as u64 * 8;
            let patterns = peers.iter().map(|p| {
                let faces: Vec<(usize, u64)> = p.iter().map(|&peer| (peer, bytes)).collect();
                CommPattern {
                    sends: faces.clone(),
                    recvs: faces,
                }
            });
            comms.push((k_halo(d), patterns.collect()));
        }
        (w.costs, w.comms) = (costs, comms);
        w
    }

    fn face_cells(&self, dim: usize) -> usize {
        let n = self.spec.local_n;
        match dim {
            0 => n[1] * n[2],
            1 => n[0] * n[2],
            _ => n[0] * n[1],
        }
    }

    /// Interior cells not adjacent to any subdomain face (computed by the
    /// interior kernel while communication is in flight).
    fn interior_cells(&self) -> usize {
        let n = self.spec.local_n;
        n.iter().map(|&c| c.saturating_sub(2)).product()
    }

    fn boundary_cells(&self) -> usize {
        let n: usize = self.spec.local_n.iter().product();
        n - self.interior_cells()
    }
}

impl Workload for HaloWorkload {
    fn num_ranks(&self) -> usize {
        self.spec.topo.num_ranks()
    }

    fn cost(&self, rank: usize, key: &CostKey) -> Option<f64> {
        let (_, per_rank) = self.costs.iter().find(|(name, _)| *name == key.0)?;
        per_rank.get(rank).copied()
    }

    fn comm(&self, rank: usize, key: &CommKey) -> Option<CommPattern> {
        let (_, per_rank) = self.comms.iter().find(|(name, _)| *name == key.0)?;
        per_rank.get(rank).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> HaloSpec {
        HaloSpec {
            topo: RankGrid::new([2, 2, 2]),
            local_n: [32, 32, 32],
            dims: 3,
            model: StencilModel::default(),
        }
    }

    #[test]
    fn all_keys_resolve() {
        let w = HaloWorkload::new(spec());
        for rank in 0..8 {
            assert!(w.cost(rank, &CostKey::new(K_INTERIOR)).unwrap() > 0.0);
            assert!(w.cost(rank, &CostKey::new(K_BOUNDARY)).unwrap() > 0.0);
            for d in 0..3 {
                assert!(w.cost(rank, &CostKey::new(k_pack(d))).unwrap() > 0.0);
                assert!(w.cost(rank, &CostKey::new(k_unpack(d))).unwrap() > 0.0);
                assert!(w.comm(rank, &CommKey::new(k_halo(d))).is_some());
            }
        }
        assert!(w.cost(0, &CostKey::new("nope")).is_none());
        assert!(w.comm(0, &CommKey::new("nope")).is_none());
    }

    #[test]
    fn patterns_are_pairwise_symmetric() {
        let w = HaloWorkload::new(spec());
        for d in 0..3 {
            let key = CommKey::new(k_halo(d));
            for rank in 0..8 {
                let pat = w.comm(rank, &key).unwrap();
                for &(peer, bytes) in &pat.sends {
                    let pp = w.comm(peer, &key).unwrap();
                    assert!(pp.recvs.contains(&(rank, bytes)));
                }
            }
        }
    }

    #[test]
    fn corner_ranks_have_fewer_neighbours_than_center() {
        // 3×3×3 topology: the center rank exchanges both sides in every
        // dimension; a corner rank only one.
        let w = HaloWorkload::new(HaloSpec {
            topo: RankGrid::new([3, 3, 3]),
            local_n: [16, 16, 16],
            dims: 3,
            model: StencilModel::default(),
        });
        let corner = 0;
        let center = RankGrid::new([3, 3, 3]).rank_of([1, 1, 1]);
        for d in 0..3 {
            let key = CommKey::new(k_halo(d));
            assert_eq!(w.comm(corner, &key).unwrap().sends.len(), 1);
            assert_eq!(w.comm(center, &key).unwrap().sends.len(), 2);
            // Pack cost scales with the number of sides packed.
            let pc = w.cost(corner, &CostKey::new(k_pack(d))).unwrap();
            let cc = w.cost(center, &CostKey::new(k_pack(d))).unwrap();
            assert!(cc > pc);
        }
    }

    /// What `cost` answered by formula, per lookup, before the tables.
    fn formula_cost(w: &HaloWorkload, rank: usize, key: &CostKey) -> Option<f64> {
        if rank >= w.num_ranks() {
            return None;
        }
        let m = &w.spec.model;
        if key.0 == K_INTERIOR {
            return Some(m.kernel_fixed + w.interior_cells() as f64 * m.stencil_sec_per_cell);
        }
        if key.0 == K_BOUNDARY {
            return Some(m.kernel_fixed + w.boundary_cells() as f64 * m.stencil_sec_per_cell);
        }
        for d in 0..w.spec.dims {
            let sides = [-1isize, 1]
                .iter()
                .filter(|&&dir| w.spec.topo.neighbor(rank, d, dir).is_some())
                .count();
            let cells = (w.face_cells(d) * sides) as f64;
            if key.0 == k_pack(d) || key.0 == k_unpack(d) {
                return Some(m.kernel_fixed + cells * m.copy_sec_per_cell);
            }
        }
        None
    }

    /// What `comm` answered by formula, per lookup, before the tables.
    fn formula_comm(w: &HaloWorkload, rank: usize, key: &CommKey) -> Option<CommPattern> {
        if rank >= w.num_ranks() {
            return None;
        }
        for d in 0..w.spec.dims {
            if key.0 == k_halo(d) {
                let bytes = w.face_cells(d) as u64 * 8;
                let mut pat = CommPattern::default();
                for dir in [-1isize, 1] {
                    if let Some(peer) = w.spec.topo.neighbor(rank, d, dir) {
                        pat.sends.push((peer, bytes));
                        pat.recvs.push((peer, bytes));
                    }
                }
                return Some(pat);
            }
        }
        None
    }

    #[test]
    fn tables_answer_what_the_formulas_do() {
        let grid = HaloWorkload::new(HaloSpec {
            topo: RankGrid::new([3, 2, 1]),
            local_n: [24, 16, 8],
            dims: 3,
            model: StencilModel::default(),
        });
        let workloads = [
            crate::HaloScenario::line2(1).workload,
            crate::HaloScenario::cube2(1).workload,
            grid,
        ];
        let mut names = vec![K_INTERIOR.to_string(), K_BOUNDARY.to_string()];
        for d in 0..3 {
            names.extend([k_pack(d), k_unpack(d), k_halo(d)]);
        }
        names.extend(["nope", "", "Pack-w", "pack-x", "halo-", "Interior "].map(String::from));
        for w in &workloads {
            for rank in 0..w.num_ranks() + 2 {
                for name in &names {
                    let key = CostKey::new(name.clone());
                    assert_eq!(
                        w.cost(rank, &key),
                        formula_cost(w, rank, &key),
                        "{name}@{rank}"
                    );
                    let key = CommKey::new(name.clone());
                    assert_eq!(
                        w.comm(rank, &key),
                        formula_comm(w, rank, &key),
                        "{name}@{rank}"
                    );
                }
            }
        }
    }

    #[test]
    fn interior_plus_boundary_covers_the_block() {
        let w = HaloWorkload::new(spec());
        assert_eq!(w.interior_cells() + w.boundary_cells(), 32 * 32 * 32);
    }
}
