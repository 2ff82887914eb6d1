//! The simulator itself: workload × cluster → training time.

use crate::cost::{compute_secs, nfs_load_secs, ring_allreduce_secs, startup_secs};
use crate::efficiency::{efficiency, Device};
use crate::workload::Workload;
use pddl_cluster::equations::available_flops;
use pddl_cluster::{ClusterState, ServerStatus};
use pddl_tensor::Rng;
use pddl_telemetry::hash::fnv1a;
use pddl_telemetry::{Counter, Histogram};
use pddl_zoo::ModelSpec;
use std::sync::OnceLock;

/// Simulator metric handles, resolved once. The simulator is the trace
/// generator's hot loop (run on the work pool), so everything here must stay
/// lock-free: counters and the latency histogram are relaxed atomics.
struct Metrics {
    simulations: &'static Counter,
    iterations_simulated: &'static Counter,
    oom_rejections: &'static Counter,
    simulate_latency: &'static Histogram,
}

fn metrics() -> &'static Metrics {
    static METRICS: OnceLock<Metrics> = OnceLock::new();
    METRICS.get_or_init(|| Metrics {
        simulations: pddl_telemetry::counter("ddlsim.simulations"),
        iterations_simulated: pddl_telemetry::counter("ddlsim.iterations_simulated"),
        oom_rejections: pddl_telemetry::counter("ddlsim.oom_rejections"),
        simulate_latency: pddl_telemetry::histogram("ddlsim.simulate_latency"),
    })
}

/// Simulator parameters (the "physics" of the synthetic testbed).
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// NFS server aggregate throughput, bytes/s (datasets live on NFS,
    /// §IV-A3).
    pub nfs_bps: f64,
    /// Per-hop network latency, seconds.
    pub latency_s: f64,
    /// Log-space σ of the multiplicative run-to-run noise.
    pub noise_sigma: f32,
    /// Base seed for measurement noise.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self { nfs_bps: 1.25e9, latency_s: 50e-6, noise_sigma: 0.03, seed: 0xC10C }
    }
}

/// Fraction of straggler compute that can hide all-reduce time (DDP
/// gradient-bucket overlap with the backward pass).
const COMM_OVERLAP: f64 = 0.66;

/// Deterministic, seedable training-time simulator.
#[derive(Clone, Debug)]
pub struct Simulator {
    pub cfg: SimConfig,
}

/// Simulation failure modes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    UnknownModel(String),
    UnknownDataset(String),
    EmptyCluster,
    /// Model + activations do not fit in device memory on some server.
    OutOfMemory { hostname: String },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::UnknownModel(m) => write!(f, "unknown model {m}"),
            SimError::UnknownDataset(d) => write!(f, "unknown dataset {d}"),
            SimError::EmptyCluster => write!(f, "cluster has no servers"),
            SimError::OutOfMemory { hostname } => write!(f, "OOM on {hostname}"),
        }
    }
}

impl std::error::Error for SimError {}

impl Simulator {
    pub fn new(cfg: SimConfig) -> Self {
        Self { cfg }
    }

    /// Noise-free expected training time in seconds.
    pub fn expected_time(&self, w: &Workload, cluster: &ClusterState) -> Result<f64, SimError> {
        let ds = w
            .dataset_desc()
            .ok_or_else(|| SimError::UnknownDataset(w.dataset.clone()))?;
        let zoo = pddl_zoo::resolve(&w.model, ds)
            .ok_or_else(|| SimError::UnknownModel(w.model.clone()))?;
        self.expected_time_with_spec(w, &zoo.spec, ds, cluster)
    }

    /// One noisy "measurement", as a real testbed run would produce.
    /// `run_id` distinguishes repeated runs of the same configuration.
    pub fn measure(
        &self,
        w: &Workload,
        cluster: &ClusterState,
        run_id: u64,
    ) -> Result<f64, SimError> {
        let expected = self.expected_time(w, cluster)?;
        let workload = fnv1a(w.key().as_bytes());
        let mut rng =
            Rng::new(self.cfg.seed ^ workload ^ (cluster.num_servers() as u64) << 32 ^ run_id);
        Ok(expected * rng.lognormal_factor(self.cfg.noise_sigma) as f64)
    }

    /// Core cost model with a pre-resolved spec (hot path for the trace
    /// generator, which reuses specs across cluster sizes).
    pub fn expected_time_with_spec(
        &self,
        w: &Workload,
        spec: &ModelSpec,
        ds: &pddl_zoo::DatasetDesc,
        cluster: &ClusterState,
    ) -> Result<f64, SimError> {
        let m = metrics();
        let timer = m.simulate_latency.start_timer();
        let n = cluster.num_servers();
        if n == 0 {
            return Err(SimError::EmptyCluster);
        }
        let batch_per_worker = w.batch_size.max(1);
        self.check_memory(spec, batch_per_worker, ds, cluster).inspect_err(|e| {
            if matches!(e, SimError::OutOfMemory { .. }) {
                m.oom_rejections.inc();
            }
        })?;

        // Straggler: iteration time is gated by the slowest worker.
        let mut worst_compute = 0.0f64;
        for s in &cluster.servers {
            let (peak, device) = device_of(s);
            let eff = efficiency(spec, device, batch_per_worker);
            let t = compute_secs(spec.flops_per_example, batch_per_worker, peak, eff);
            worst_compute = worst_compute.max(t);
        }

        let load = nfs_load_secs(
            batch_per_worker as f64 * ds.bytes_per_example(),
            n,
            self.cfg.nfs_bps,
        );
        let allreduce =
            ring_allreduce_secs(spec.params, n, cluster.min_net_bps(), self.cfg.latency_s);
        // PyTorch DDP buckets gradients and overlaps all-reduce with the
        // backward pass; roughly the backward two-thirds of compute can
        // hide communication.
        let exposed_comm = (allreduce - COMM_OVERLAP * worst_compute).max(0.0);

        // Data loading overlaps compute (DataLoader prefetch); the exposed
        // all-reduce remainder synchronizes at iteration end.
        let t_iter = worst_compute.max(load) + exposed_comm;
        let global_batch = batch_per_worker * n;
        let iters_per_epoch = ds.num_examples.div_ceil(global_batch);
        m.simulations.inc();
        m.iterations_simulated.add((w.epochs * iters_per_epoch) as u64);
        timer.observe();
        Ok(w.epochs as f64 * iters_per_epoch as f64 * t_iter + startup_secs(n))
    }

    /// Device-memory feasibility: parameters + optimizer state + activations
    /// must fit on the training device.
    fn check_memory(
        &self,
        spec: &ModelSpec,
        batch_per_worker: usize,
        _ds: &pddl_zoo::DatasetDesc,
        cluster: &ClusterState,
    ) -> Result<(), SimError> {
        // params + grads + momentum (3×) + activations per batch element.
        let bytes =
            spec.params as f64 * 4.0 * 3.0 + spec.activation_elems as f64 * 4.0 * batch_per_worker as f64;
        for s in &cluster.servers {
            let capacity = if s.spec.is_gpu() {
                s.spec.gpu_mem_bytes as f64
            } else {
                pddl_cluster::equations::available_ram(&s.spec, s.cpu_util)
            };
            if bytes > capacity {
                return Err(SimError::OutOfMemory { hostname: s.spec.hostname.clone() });
            }
        }
        Ok(())
    }
}

fn device_of(s: &ServerStatus) -> (f64, Device) {
    if s.spec.is_gpu() && s.free_gpus() > 0 {
        (s.free_gpus() as f64 * s.spec.gpu_flops, Device::Gpu)
    } else {
        (available_flops(&s.spec, s.cpu_util).max(1e9), Device::Cpu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pddl_cluster::ServerClass;

    fn sim() -> Simulator {
        Simulator::new(SimConfig::default())
    }

    fn gpu_cluster(n: usize) -> ClusterState {
        ClusterState::homogeneous(ServerClass::GpuP100, n)
    }

    fn cpu_cluster(n: usize) -> ClusterState {
        ClusterState::homogeneous(ServerClass::CpuE5_2630, n)
    }

    #[test]
    fn training_time_positive_and_finite() {
        let t = sim()
            .expected_time(&Workload::standard("resnet18", "cifar10"), &gpu_cluster(4))
            .unwrap();
        assert!(t.is_finite() && t > 0.0, "{t}");
    }

    #[test]
    fn more_servers_usually_faster_then_plateaus() {
        let s = sim();
        let w = Workload::standard("resnet18", "cifar10");
        let t1 = s.expected_time(&w, &gpu_cluster(1)).unwrap();
        let t4 = s.expected_time(&w, &gpu_cluster(4)).unwrap();
        let t16 = s.expected_time(&w, &gpu_cluster(16)).unwrap();
        assert!(t4 < t1, "scaling broken: {t1} -> {t4}");
        // Sub-linear: 16 servers cannot be 16× faster (communication).
        assert!(t1 / t16 < 16.0, "{t1} -> {t16}");
    }

    #[test]
    fn communication_bound_model_scales_worse() {
        // AlexNet's 61M-parameter (FC-heavy) gradient all-reduce with tiny
        // per-iteration compute erodes scaling far more than compute-bound
        // VGG-16, whose backward pass hides its communication.
        let s = sim();
        let comm_bound = Workload::standard("alexnet", "cifar10");
        let compute_bound = Workload::standard("vgg16", "cifar10");
        let speedup = |w: &Workload| {
            s.expected_time(w, &gpu_cluster(1)).unwrap()
                / s.expected_time(w, &gpu_cluster(8)).unwrap()
        };
        assert!(
            speedup(&compute_bound) > speedup(&comm_bound),
            "vgg {:.2} vs alexnet {:.2}",
            speedup(&compute_bound),
            speedup(&comm_bound)
        );
    }

    #[test]
    fn gpu_much_faster_than_cpu() {
        let s = sim();
        let w = Workload::standard("vgg16", "cifar10");
        let tg = s.expected_time(&w, &gpu_cluster(4)).unwrap();
        let tc = s.expected_time(&w, &cpu_cluster(4)).unwrap();
        assert!(tc > 3.0 * tg, "gpu {tg}, cpu {tc}");
    }

    #[test]
    fn heavier_model_takes_longer() {
        let s = sim();
        let small = s
            .expected_time(&Workload::standard("squeezenet1_1", "cifar10"), &gpu_cluster(4))
            .unwrap();
        let big = s
            .expected_time(&Workload::standard("vgg16", "cifar10"), &gpu_cluster(4))
            .unwrap();
        assert!(big > 3.0 * small, "small {small}, big {big}");
    }

    #[test]
    fn heterogeneous_cluster_gated_by_straggler() {
        let s = sim();
        let w = Workload::standard("resnet18", "tiny-imagenet");
        let fast = cpu_cluster(4);
        let mut mixed = cpu_cluster(3);
        mixed.servers.push(ServerStatus::idle(
            pddl_cluster::ServerSpec::preset(ServerClass::CpuE5_2650, "slow"),
        ));
        let t_fast = s.expected_time(&w, &fast).unwrap();
        let t_mixed = s.expected_time(&w, &mixed).unwrap();
        assert!(t_mixed > t_fast, "straggler ignored: {t_fast} vs {t_mixed}");
    }

    #[test]
    fn measurement_noise_is_small_and_reproducible() {
        let s = sim();
        let w = Workload::standard("resnet18", "cifar10");
        let c = gpu_cluster(2);
        let expected = s.expected_time(&w, &c).unwrap();
        let m1 = s.measure(&w, &c, 0).unwrap();
        let m2 = s.measure(&w, &c, 0).unwrap();
        let m3 = s.measure(&w, &c, 1).unwrap();
        assert_eq!(m1, m2, "same run id must reproduce");
        assert_ne!(m1, m3, "different runs must differ");
        assert!((m1 / expected - 1.0).abs() < 0.25);
    }

    #[test]
    fn errors_are_reported() {
        let s = sim();
        assert!(matches!(
            s.expected_time(&Workload::standard("nope", "cifar10"), &gpu_cluster(1)),
            Err(SimError::UnknownModel(_))
        ));
        assert!(matches!(
            s.expected_time(&Workload::standard("resnet18", "nope"), &gpu_cluster(1)),
            Err(SimError::UnknownDataset(_))
        ));
        assert!(matches!(
            s.expected_time(
                &Workload::standard("resnet18", "cifar10"),
                &ClusterState::default()
            ),
            Err(SimError::EmptyCluster)
        ));
    }

    #[test]
    fn huge_batch_oom_on_gpu() {
        let s = sim();
        // 12 GB P100: wide_resnet101 with an absurd per-worker batch OOMs;
        // a sane batch fits.
        let big = Workload::new("wide_resnet101_2", "tiny-imagenet", 4_000, 1);
        assert!(matches!(
            s.expected_time(&big, &gpu_cluster(1)),
            Err(SimError::OutOfMemory { .. })
        ));
        let ok = Workload::new("wide_resnet101_2", "tiny-imagenet", 32, 1);
        assert!(s.expected_time(&ok, &gpu_cluster(1)).is_ok());
    }

    #[test]
    fn epoch_time_plausible_for_resnet18_cifar() {
        // Sanity anchor: ResNet-18 on one P100, batch 128: the real epoch
        // time is tens of seconds; the simulator should land within an
        // order of magnitude.
        let s = sim();
        let w = Workload::new("resnet18", "cifar10", 128, 1);
        let t = s.expected_time(&w, &gpu_cluster(1)).unwrap();
        assert!(t > 3.0 && t < 300.0, "epoch time {t}s implausible");
    }
}
