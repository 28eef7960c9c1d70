//! `dr-rules` — the command-line front end of the design-rules toolkit.
//!
//! ```text
//! dr-rules spmv rules --iterations 400
//! dr-rules halo explore --iterations 600 --seed 7
//! dr-rules spmv synthesize
//! ```

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let env = cuda_mpi_design_rules::config::process_env();
    let opts = match cuda_mpi_design_rules::cli::parse_env(&args, &env) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let mut out = std::io::stdout();
    if let Err(e) = cuda_mpi_design_rules::cli::run(&opts, &mut out) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
