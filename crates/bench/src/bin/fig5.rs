//! Figure 5: training error and tree depth during the Algorithm 1
//! hyperparameter search (smallest leaf budget minimizing the error).

use dr_core::{mine_rules, PipelineConfig};

fn main() {
    let sc = dr_bench::scenario();
    eprintln!("benchmarking the full space …");
    let records = dr_bench::exhaustive_records(&sc);
    let result = mine_rules(&sc.space, records, &PipelineConfig::default());

    println!("== Figure 5: decision-tree hyperparameter search ==");
    println!(
        "{:>14}  {:>10}  {:>6}  {:>7}  accepted",
        "max_leaf_nodes", "error", "depth", "leaves"
    );
    for h in &result.search.history {
        println!(
            "{:>14}  {:>10.4}  {:>6}  {:>7}  {}",
            h.max_leaf_nodes,
            h.error,
            h.depth,
            h.leaves,
            if h.accepted { "yes" } else { "" }
        );
    }
    println!();
    println!(
        "selected: max_leaf_nodes = {}, error = {:.4}, depth = {}, leaves = {}",
        result.search.max_leaf_nodes,
        result.search.error,
        result.search.tree.depth(),
        result.search.tree.num_leaves()
    );
    println!("(paper: settles on 13 leaf nodes with depth 6)");
}
