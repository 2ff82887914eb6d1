//! Cluster-scheduler integration (the paper's §VI future work): drive a
//! discrete-event job-queue simulation where the allocation policy sees only
//! PredictDDL's predictions, and compare against a prediction-free baseline
//! and a perfect-information oracle.
//!
//! ```sh
//! cargo run --release -p pddl-sched --example scheduler_sim
//! ```

use pddl_cluster::ServerClass;
use pddl_ddlsim::{SimConfig, Simulator, TraceConfig, Workload};
use pddl_ghn::train::TrainConfig;
use pddl_sched::{
    DeadlineAware, FcfsFixed, NaiveEstimator, OracleEstimator, PredictDdlEstimator,
    QueueSimulator, RuntimeEstimator, SchedJob,
};
use pddl_sched::policy::Policy;
use predictddl::OfflineTrainer;

fn queue() -> Vec<SchedJob> {
    let jobs = [
        ("vgg16", 0.0, 120.0),
        ("squeezenet1_1", 0.0, 40.0),
        ("resnet50", 10.0, 130.0),
        ("densenet161", 10.0, 160.0),
        ("efficientnet_b0", 20.0, 80.0),
        ("alexnet", 20.0, 110.0),
        ("mobilenet_v3_large", 30.0, 90.0),
        ("resnext50_32x4d", 30.0, 170.0),
    ];
    jobs.iter()
        .enumerate()
        .map(|(i, &(model, submit, deadline))| {
            SchedJob::new(i, Workload::new(model, "cifar10", 128, 2), submit)
                .with_deadline(deadline)
                .with_server_range(1, 8)
        })
        .collect()
}

fn main() {
    println!("=== prediction-driven scheduling (PredictDDL → SLURM-style queue) ===\n");
    let mut trainer = OfflineTrainer {
        ghn_train: TrainConfig { num_graphs: 80, epochs: 20, ..TrainConfig::default() },
        trace: TraceConfig {
            dataset_clusters: vec![("cifar10".into(), ServerClass::GpuP100)],
            ..TraceConfig::default()
        },
        ..OfflineTrainer::default()
    };
    trainer.seed = 0x5C4ED;
    println!("training PredictDDL once (minutes) ...\n");
    let system = trainer.train_full();

    let sim = Simulator::new(SimConfig::default());
    let cluster = QueueSimulator::new(12, ServerClass::GpuP100, &sim);
    let jobs = queue();

    let pddl = PredictDdlEstimator { system: &system, class: ServerClass::GpuP100 };
    let oracle = OracleEstimator { sim: &sim, class: ServerClass::GpuP100 };
    let naive = NaiveEstimator { assumed_secs: 300.0 };

    println!(
        "{:<34} {:>10} {:>11} {:>12} {:>14}",
        "policy + estimator", "makespan", "mean wait", "deadlines", "server-secs"
    );
    let runs: Vec<(&str, &dyn Policy, &dyn RuntimeEstimator)> = vec![
        ("fcfs-fixed(8) + none", &FcfsFixed { servers_per_job: 8 }, &naive),
        ("deadline-aware + naive", &DeadlineAware, &naive),
        ("deadline-aware + PredictDDL", &DeadlineAware, &pddl),
        ("deadline-aware + oracle", &DeadlineAware, &oracle),
    ];
    for (label, policy, est) in runs {
        let trace = cluster.run(&jobs, policy, est);
        let m = &trace.metrics;
        println!(
            "{label:<34} {:>9.0}s {:>10.1}s {:>9}/{:<2} {:>13.0}",
            m.makespan, m.mean_wait, m.deadlines_met, m.deadlines_total, m.server_seconds
        );
    }
    println!("\nThe PredictDDL-driven policy should track the oracle closely —");
    println!("right-sizing each job from one cheap prediction per candidate");
    println!("width — while the naive estimator over- or under-allocates.");
}
