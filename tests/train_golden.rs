//! Golden values of Algorithm 1 (the paper's leaf-budget search, Fig. 5):
//! every probe of the search and the selected tree, pinned bit for bit on
//! one halo and one SpMV exploration.
//!
//! Records come from the explore engine driven directly with a
//! `SimEvaluator` (no pipeline), so no environment variable can change
//! them; labeling, featurization and training use `PipelineConfig::quick`.

use cuda_mpi_design_rules::dag::{DecisionSpace, Traversal};
use cuda_mpi_design_rules::halo::HaloScenario;
use cuda_mpi_design_rules::mcts::{MctsConfig, SimEvaluator};
use cuda_mpi_design_rules::ml::{algorithm1, featurize, label_times, HyperSearch};
use cuda_mpi_design_rules::pipeline::{explore_instrumented, PipelineConfig, Strategy};
use cuda_mpi_design_rules::sim::{Platform, Workload};
use cuda_mpi_design_rules::spmv::SpmvScenario;

/// FNV-1a over 64-bit words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for byte in w.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Explores with `strategy`, then labels, featurizes and runs Algorithm 1.
fn search<W: Workload>(
    space: &DecisionSpace,
    workload: &W,
    platform: &Platform,
    strategy: Strategy,
) -> HyperSearch {
    let cfg = PipelineConfig::quick();
    let eval = SimEvaluator::new(space, workload, platform, cfg.bench);
    let (records, _, _) = explore_instrumented(space, eval, strategy).unwrap();
    let times: Vec<f64> = records.iter().map(|r| r.result.time()).collect();
    let labeling = label_times(&times, &cfg.labeling);
    let traversals: Vec<&Traversal> = records.iter().map(|r| &r.traversal).collect();
    let features = featurize(space, &traversals);
    algorithm1(
        &features.matrix,
        &labeling.labels,
        labeling.num_classes,
        &cfg.train,
    )
}

/// One line per probe (`max_leaf_nodes error-bits depth leaves
/// accepted`), then the selection and a hash of every tree node.
fn pin(s: &HyperSearch) -> Vec<String> {
    let mut out = Vec::new();
    for h in &s.history {
        out.push(format!(
            "{} {:016x} {} {} {}",
            h.max_leaf_nodes,
            h.error.to_bits(),
            h.depth,
            h.leaves,
            h.accepted
        ));
    }
    let words = s.tree.nodes().iter().flat_map(|n| {
        let split = [
            n.feature.map_or(u64::MAX, |f| f as u64),
            n.left as u64,
            n.right as u64,
            n.depth as u64,
        ];
        let weighted = n.weighted_counts.iter().map(|w| w.to_bits());
        let raw = n.raw_counts.iter().map(|&c| c as u64);
        split.into_iter().chain(weighted).chain(raw)
    });
    out.push(format!(
        "selected {} error {:016x}, {} nodes, hash {:016x}",
        s.max_leaf_nodes,
        s.error.to_bits(),
        s.tree.nodes().len(),
        fnv(words)
    ));
    out
}

#[test]
fn halo_algorithm1_search_is_pinned() {
    let h = HaloScenario::cube2(1);
    let strategy = Strategy::Mcts {
        iterations: 1000,
        config: MctsConfig {
            seed: 1,
            ..Default::default()
        },
    };
    let s = search(&h.space, &h.workload, &h.platform, strategy);
    const EXPECTED: &[&str] = &[
        "2 3fe3654b82c3390a 1 2 true",
        "3 3fdd04bebdcb7e95 2 3 true",
        "4 3fda37b313bdfd06 3 4 true",
        "5 3fd6777285b8be4d 4 5 true",
        "6 3fd49683ab7222f7 5 6 true",
        "7 3fd2205c48fbfb94 6 7 true",
        "8 3fd0e54897c0e7e6 6 8 true",
        "9 3fcf6bc097cda9e3 7 9 true",
        "10 3fce0a240bd507cf 7 10 true",
        "11 3fcbc1eb8f9070f1 7 11 true",
        "12 3fcbc1eb8f9070f1 7 12 false",
        "13 3fcbc1eb8f9070f1 7 13 false",
        "14 3fc7044a60282518 8 14 true",
        "15 3fc5d4e2144e1222 9 15 true",
        "16 3fc4353fee98a66c 9 16 true",
        "17 3fc1bf188c227f10 9 17 true",
        "18 3fbec08fe8dcb23b 9 18 true",
        "19 3fbec08fe8dcb23b 9 19 false",
        "20 3fbc8eef8807aa64 9 20 true",
        "21 3fbb19add7d68d8e 9 21 true",
        "22 3fba4c4bac5e80ba 9 22 true",
        "23 3fb7581c696a5182 9 23 true",
        "24 3fb5fb83e6b12080 9 24 true",
        "25 3fb4729d124788e3 9 25 true",
        "26 3fb316048f8e57e8 9 26 true",
        "27 3fb1e69c43b444f4 9 27 true",
        "28 3fb03d11529e10a0 9 28 true",
        "29 3fae8203234401c1 9 29 true",
        "30 3fae8203234401c1 9 30 false",
        "31 3fa9716fccb45a2e 9 31 true",
        "32 3fa6d9de93797c3d 9 32 true",
        "33 3fa6732d7dbd75d4 9 33 true",
        "34 3fa4c2fc60e2e8a2 9 34 true",
        "35 3fa2cadcdeeac923 9 35 true",
        "36 3fa1b7d4e3d41232 9 36 true",
        "37 3fa0cc17312e50d1 9 37 true",
        "38 3f9fc0b2fd111ee1 9 38 true",
        "39 3f9e37cc28a7873f 9 39 true",
        "40 3f9e37cc28a7873f 9 40 false",
        "41 3f98b159f8c4fefb 9 41 true",
        "42 3f972873245b675a 9 42 true",
        "43 3f9502632e2df978 9 43 true",
        "44 3f93797c59c461d7 9 44 true",
        "45 3f91f095855aca37 9 45 true",
        "46 3f9067aeb0f13296 9 46 true",
        "47 3f8e5ab8dad30c2d 9 47 true",
        "48 3f8be61453c3b32c 9 48 true",
        "49 3f8be61453c3b32c 9 49 false",
        "50 3f826ad1f4f31b82 9 50 true",
        "51 3f8093568fa798c0 9 51 true",
        "52 3f7d77b654b82c00 9 52 true",
        "53 3f79c8bf8a212680 9 53 true",
        "54 3f77541b0311cd80 9 54 true",
        "55 3f74df767c027480 9 55 true",
        "56 3f726ad1f4f31b81 9 56 true",
        "57 3f71307fb16b6f01 9 57 true",
        "58 3f6fec5adbc78500 9 58 true",
        "59 3f6d77b654b82c00 9 59 true",
        "60 3f6b0311cda8d300 9 60 true",
        "61 3f688e6d46997a00 9 61 true",
        "62 3f6619c8bf8a2100 10 62 true",
        "63 3f63a524387ac800 11 63 true",
        "64 3f63a524387ac800 12 64 false",
        "65 3f588e6d46997a01 13 65 true",
        "66 3f588e6d46997a01 13 66 false",
        "67 3f4d77b654b82c02 13 67 true",
        "68 3f43a524387ac801 13 68 true",
        "69 3f33a524387ac801 13 69 true",
        "70 3f33a524387ac801 13 70 false",
        "71 0000000000000000 14 71 true",
        "72 0000000000000000 14 71 false",
        "73 0000000000000000 14 71 false",
        "74 0000000000000000 14 71 false",
        "75 0000000000000000 14 71 false",
        "76 0000000000000000 14 71 false",
        "selected 71 error 0000000000000000, 141 nodes, hash bec3694170382656",
    ];
    assert_eq!(pin(&s), EXPECTED);
}

#[test]
fn exhaustive_spmv_algorithm1_search_is_pinned() {
    let sc = SpmvScenario::small(1);
    let s = search(&sc.space, &sc.workload, &sc.platform, Strategy::Exhaustive);
    const EXPECTED: &[&str] = &[
        "2 3fbe89bf067f5a0a 1 2 true",
        "3 3fac96bdb9d3d194 2 3 true",
        "4 3f99fd66a8ef1ba3 3 4 true",
        "5 0000000000000000 4 5 true",
        "6 0000000000000000 4 5 false",
        "7 0000000000000000 4 5 false",
        "8 0000000000000000 4 5 false",
        "9 0000000000000000 4 5 false",
        "10 0000000000000000 4 5 false",
        "selected 5 error 0000000000000000, 9 nodes, hash 028039959dc6e1ee",
    ];
    assert_eq!(pin(&s), EXPECTED);
}
