//! Cluster Resource Collector demo (§III-F): spin up the collector, join a
//! heterogeneous set of simulated servers over real TCP, stream heartbeats,
//! and feed live snapshots into a prediction.
//!
//! ```sh
//! cargo run --release -p predictddl --example collector_service
//! ```

use pddl_cluster::{CollectorClient, CollectorServer, ServerClass, ServerSpec};
use pddl_ddlsim::{SimConfig, Simulator, Workload};

fn main() {
    println!("=== Cluster Resource Collector demo ===");
    let server = CollectorServer::bind("127.0.0.1:0", None).expect("bind collector");
    println!("collector listening on {}\n", server.addr());

    // Join a heterogeneous cluster: 3 GPU nodes, 2 fast CPU nodes, 1 slow.
    let mut clients = Vec::new();
    let joins = [
        ("gpu-0", ServerClass::GpuP100),
        ("gpu-1", ServerClass::GpuP100),
        ("gpu-2", ServerClass::GpuP100),
        ("cpu-fast-0", ServerClass::CpuE5_2630),
        ("cpu-fast-1", ServerClass::CpuE5_2630),
        ("cpu-slow-0", ServerClass::CpuE5_2650),
    ];
    for (host, class) in joins {
        let spec = ServerSpec::preset(class, host);
        let client = CollectorClient::register(server.addr(), spec).expect("register");
        println!("  {host} joined ({class:?})");
        clients.push((host, client));
    }

    // Heartbeats: put partial load on the CPU nodes (Eq. 1–2 territory).
    for (host, client) in &mut clients {
        let util = match *host {
            "cpu-fast-0" => 0.50,
            "cpu-slow-0" => 0.25,
            _ => 0.0,
        };
        client.heartbeat(util, 0).expect("heartbeat");
    }

    let snap = server.snapshot();
    println!("\nsnapshot: {} servers registered", snap.num_servers());
    println!("  total training FLOPS : {:.2e}", snap.total_training_flops());
    println!("  straggler FLOPS      : {:.2e}", snap.min_training_flops());
    println!("  available RAM        : {:.1} GiB", snap.total_available_ram() / (1u64 << 30) as f64);
    println!("  feature vector       : {:?}", snap.feature_vector().map(|v| (v * 100.0).round() / 100.0));

    // Price a workload on the live heterogeneous snapshot.
    let sim = Simulator::new(SimConfig::default());
    let w = Workload::new("resnet18", "cifar10", 128, 10);
    match sim.expected_time(&w, &snap) {
        Ok(t) => println!("\nsimulated training time of {} on this live cluster: {t:.1}s", w.model),
        Err(e) => println!("\nsimulation failed: {e}"),
    }

    // One node leaves; snapshot shrinks.
    let (host, client) = clients.pop().unwrap();
    client.leave().expect("leave");
    println!("\n{host} left the cluster");
    println!("snapshot now has {} servers", server.snapshot().num_servers());
}
