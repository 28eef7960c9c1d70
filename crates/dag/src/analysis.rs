//! Static DAG analysis: critical paths.
//!
//! The critical path under a duration assignment is a *lower bound* on
//! any implementation's makespan — no ordering or stream assignment can
//! beat the longest chain of dependent work. Comparing it against the
//! fastest explored implementation tells a systems expert how much
//! headroom the search has left.

use crate::graph::{ProgramDag, VertexId};

/// The heaviest dependency chain and its total duration.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPath {
    /// Total duration along the path.
    pub length: f64,
    /// Vertices on the path (Start/End excluded), in dependency order.
    pub vertices: Vec<VertexId>,
}

/// Computes the critical path of a DAG under a per-vertex duration
/// function (`Start`/`End` contribute zero). Negative durations are
/// rejected.
pub fn critical_path(dag: &ProgramDag, dur: impl Fn(VertexId) -> f64) -> CriticalPath {
    let n = dag.len();
    let mut best: Vec<f64> = vec![0.0; n]; // path length *ending* at v, inclusive
    let mut pred_on_path: Vec<Option<VertexId>> = vec![None; n];
    for v in dag.topo_order() {
        let d = if dag.vertex(v).spec.is_artificial() {
            0.0
        } else {
            dur(v)
        };
        assert!(d >= 0.0, "negative duration for {}", dag.vertex(v).name);
        let (incoming, from) = dag
            .preds(v)
            .iter()
            .map(|&u| (best[u], Some(u)))
            .max_by(|a, b| a.0.partial_cmp(&b.0).expect("finite durations"))
            .unwrap_or((0.0, None));
        best[v] = incoming + d;
        pred_on_path[v] = from;
    }
    // Walk back from End.
    let mut vertices = Vec::new();
    let mut cur = Some(dag.end());
    while let Some(v) = cur {
        if !dag.vertex(v).spec.is_artificial() {
            vertices.push(v);
        }
        cur = pred_on_path[v];
    }
    vertices.reverse();
    CriticalPath {
        length: best[dag.end()],
        vertices,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::DagBuilder;
    use crate::op::{CostKey, OpSpec};

    fn chain_and_branch() -> (ProgramDag, Vec<VertexId>) {
        // a -> b -> d, a -> c -> d; b heavy, c light.
        let mut bld = DagBuilder::new();
        let ids: Vec<_> = ["a", "b", "c", "d"]
            .iter()
            .map(|n| bld.add(*n, OpSpec::CpuWork(CostKey::new(*n))))
            .collect();
        bld.edge(ids[0], ids[1]);
        bld.edge(ids[0], ids[2]);
        bld.edge(ids[1], ids[3]);
        bld.edge(ids[2], ids[3]);
        (bld.build().unwrap(), ids)
    }

    #[test]
    fn critical_path_picks_the_heavy_branch() {
        let (dag, ids) = chain_and_branch();
        let dur = |v: VertexId| match dag.vertex(v).name.as_str() {
            "a" => 1.0,
            "b" => 10.0,
            "c" => 2.0,
            "d" => 3.0,
            _ => 0.0,
        };
        let cp = critical_path(&dag, dur);
        assert_eq!(cp.length, 14.0);
        assert_eq!(cp.vertices, vec![ids[0], ids[1], ids[3]]);
    }

    #[test]
    fn independent_vertices_take_the_max() {
        let mut b = DagBuilder::new();
        b.add("x", OpSpec::CpuWork(CostKey::new("x")));
        b.add("y", OpSpec::CpuWork(CostKey::new("y")));
        let dag = b.build().unwrap();
        let cp = critical_path(&dag, |v| if dag.vertex(v).name == "x" { 5.0 } else { 7.0 });
        assert_eq!(cp.length, 7.0);
        assert_eq!(cp.vertices.len(), 1);
    }

    #[test]
    fn zero_durations_give_zero_path() {
        let (dag, _) = chain_and_branch();
        let cp = critical_path(&dag, |_| 0.0);
        assert_eq!(cp.length, 0.0);
    }

    #[test]
    #[should_panic(expected = "negative duration")]
    fn negative_durations_rejected() {
        let (dag, _) = chain_and_branch();
        critical_path(&dag, |_| -1.0);
    }
}
