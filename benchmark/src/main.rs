//! The repo benchmark: one command runs one named workload from one seed,
//! prints every metric as `name unit value`, checks the program's outputs,
//! and ends with the result object `BENCHMARK.json` describes. See
//! `README.md` in this directory for what each workload and metric is for.

mod layers;
mod offline;
mod report;
mod serving;
mod stats;
mod sut;
mod trace;
mod workload;

use report::{END_TO_END, PER_LAYER};
use std::path::PathBuf;
use workload::Mix;

/// Workload names, in the order of `BENCHMARK.json`.
pub const WORKLOADS: [&str; 4] = ["warm_zoo", "cold_nas", "mixed_observe", "offline_train"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
}

fn usage() -> ! {
    eprintln!(
        "usage: pddl-benchmark --workload <{}> --seed <n> [--seconds <s>] [--trace <0|1>] [--out-dir <dir>]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 20.0,
        trace: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut seen_seed = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { usage() };
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => {
                args.seed = value.parse().unwrap_or_else(|_| usage());
                seen_seed = true;
            }
            "--seconds" => args.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => args.trace = matches!(value.as_str(), "1" | "true"),
            "--out-dir" => args.out_dir = PathBuf::from(value),
            _ => usage(),
        }
    }
    let seconds_ok = args.seconds.is_finite() && args.seconds >= 1.0;
    if !seen_seed || !WORKLOADS.contains(&args.workload.as_str()) || !seconds_ok {
        usage();
    }
    args
}

fn main() {
    let args = parse_args();
    println!(
        "# workload={} seed={} seconds={} trace={} {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        report::machine_line()
    );
    let mix = match args.workload.as_str() {
        "warm_zoo" => Some(Mix::WarmZoo),
        "cold_nas" => Some(Mix::ColdNas),
        "mixed_observe" => Some(Mix::MixedObserve),
        _ => None,
    };
    let report = match (mix, args.trace) {
        (Some(mix), false) => serving::run(mix, args.seed, args.seconds),
        (Some(mix), true) => {
            layers::run(mix, &args.workload, args.seed, args.seconds, &args.out_dir)
        }
        (None, false) => offline::run(args.seed, args.seconds),
        (None, true) => offline::run_layers(args.seed, args.seconds, &args.out_dir),
    };
    let code = if args.trace {
        report.print(PER_LAYER, false)
    } else {
        report.print(END_TO_END, true)
    };
    std::process::exit(code);
}
