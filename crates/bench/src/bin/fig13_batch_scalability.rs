//! Fig. 13: scalability on batch performance-prediction jobs — total
//! (training + inference) duration of PredictDDL vs Ernest for batches of
//! 2, 4, 6 and 8 DL models.
//!
//! PredictDDL pays its (GHN + regressor) training once and then only
//! embeds and regresses per model; Ernest re-collects designed training
//! runs and refits per model. The paper reports total-time reductions of
//! 2.6×, 5.1×, 7.7× and 10.3× for batches of 2/4/6/8.
//!
//! Cost accounting (see DESIGN.md): Ernest's data collection and
//! PredictDDL's (hypothetical) trace collection are *simulated testbed
//! seconds*; fitting/embedding/inference are measured wall-clock.
//!
//! ```sh
//! cargo run --release -p pddl-bench --bin fig13_batch_scalability
//! ```

use pddl_bench::*;
use pddl_cluster::{ClusterState, ServerClass};
use pddl_ddlsim::{SimConfig, Simulator, Workload};
use predictddl::batch::{compare_batch, BatchJob};

const BATCH_MODELS: [&str; 8] = [
    "efficientnet_b0",
    "resnext50_32x4d",
    "vgg16",
    "alexnet",
    "resnet18",
    "densenet161",
    "mobilenet_v3_large",
    "squeezenet1_0",
];

fn main() {
    let records = standard_trace();
    let (train, _) = split_records(&records, 0.8, 0xF13);
    let system = train_system(&train, 0xF13);
    let sim = Simulator::new(SimConfig::default());

    println!("\n=== Fig. 13: batch-job total duration, PredictDDL vs Ernest ===\n");
    print_header(&[
        "batch",
        "PDDL train",
        "PDDL infer",
        "Ernest collect",
        "speedup A",
        "speedup B",
    ]);

    for &b in &[2usize, 4, 6, 8] {
        let job = BatchJob {
            workloads: BATCH_MODELS[..b]
                .iter()
                .map(|m| Workload::new(m, "cifar10", 128, 10))
                .collect(),
            cluster: ClusterState::homogeneous(ServerClass::GpuP100, 8),
        };
        let cmp = compare_batch(&system, &sim, &job).expect("batch comparison");
        println!(
            "{:<28}{:>13.1}s{:>13.3}s{:>13.0}s{:>13.1}×{:>13.0}×",
            format!("{b} models"),
            cmp.pddl_train_secs,
            cmp.pddl_infer_secs,
            cmp.ernest_collect_secs,
            cmp.speedup(),
            cmp.speedup_amortized()
        );
    }
    println!("\nspeedup A charges PredictDDL for GHN meta-training on every batch;");
    println!("speedup B treats the per-dataset GHN as a preexisting offline asset");
    println!("(the paper's framing — it is 'trained only once for a particular");
    println!("dataset'). Paper: 2.6×/5.1×/7.7×/10.3×. PredictDDL's cost is measured");
    println!("wall-clock and Ernest's collection simulated testbed seconds, so the");
    println!("reproduced claim is the *growth* with batch size, not the factor.");
}
