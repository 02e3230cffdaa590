//! `perfbench --workload <paper_tables|serve_fleet|hier_descent>
//!  [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Runs from the repository root. Prints a run record, then as the
//! last line one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. Exits 1 when a correctness check fails and 2 on bad
//! arguments.

use std::path::Path;
use taxoglimpse_perfbench::run::{execute, run_record, Options};

/// Where each run keeps its snapshot store, relative to the working
/// directory.
const STATE_ROOT: &str = ".bench_state";

fn main() {
    let opts = match Options::parse(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
    };
    println!("{}", run_record(&opts));
    match execute(&opts, Path::new(STATE_ROOT)) {
        Ok(outcome) => {
            for e in &outcome.errors {
                eprintln!("check failed: {e}");
            }
            println!("{}", outcome.to_json());
            if !outcome.correct {
                std::process::exit(1);
            }
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(1);
        }
    }
}
