//! Regenerates the paper's figures and the scheduling experiments from one
//! shared trace, split and trained system (EXPERIMENTS.md has the numbers).
//!
//! ```sh
//! cargo run --release -p pddl-bench --bin pddl-experiments -- all
//! cargo run --release -p pddl-bench --bin pddl-experiments -- fig09_vs_ernest diag_oracle
//! ```
//!
//! Tables go to stdout, progress and timings to stderr. An argument that
//! is neither a figure name nor `all` exits 2 with the list of names.

use pddl_bench::{Context, FIGURES};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let known = |a: &String| a == "all" || FIGURES.iter().any(|(name, _)| name == a);
    if args.is_empty() || !args.iter().all(known) {
        let names: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
        eprintln!("usage: pddl-experiments <FIGURE>...|all\nfigures: {}", names.join(" "));
        std::process::exit(2);
    }
    let ctx = Context::default();
    let start = Instant::now();
    let wanted = |name: &&str| args.iter().any(|a| a == "all" || a == name);
    for (name, figure) in FIGURES.iter().filter(|(name, _)| wanted(name)) {
        let t0 = Instant::now();
        for table in figure(&ctx) {
            println!("{table}");
        }
        eprintln!("[experiments] {name}: {:.1}s", t0.elapsed().as_secs_f64());
    }
    eprintln!(
        "[experiments] done in {:.1}s, {} GHN meta-trainings",
        start.elapsed().as_secs_f64(),
        ctx.ghn_trainings()
    );
}
