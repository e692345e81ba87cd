//! `scenerec-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a `detail` line and then, as the last line of standard output,
//! the result object. Exits 0 when every output check held, 1 when a
//! check failed, 2 on bad arguments or when the workload cannot run.

use scenerec_perfbench::{parse_args, run};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&cfg) {
        Ok(outcome) => {
            println!("{}", outcome.detail_json(cfg.workload.name()));
            println!("{}", outcome.result_json());
            if !outcome.correct() {
                for c in outcome.checks.iter().filter(|c| !c.passed) {
                    eprintln!("perfbench: check `{}` failed: {}", c.name, c.detail);
                }
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", cfg.workload.name());
            std::process::exit(2);
        }
    }
}
