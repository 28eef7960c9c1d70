//! Meta-crate re-exporting the full CUDA+MPI design-rules toolkit, plus
//! the `dr-rules` command-line driver.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cli;
pub mod config;
pub mod progress;
pub mod swarm;

pub use dr_bench as bench;
pub use dr_core as pipeline;
pub use dr_dag as dag;
pub use dr_fleet as fleet;
pub use dr_halo as halo;
pub use dr_lint as lint;
pub use dr_mcts as mcts;
pub use dr_ml as ml;
pub use dr_obs as obs;
pub use dr_par as par;
pub use dr_sim as sim;
pub use dr_spmv as spmv;
pub use dr_store as store;
pub use dr_trace as trace;
