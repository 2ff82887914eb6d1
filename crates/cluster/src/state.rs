//! Live cluster state and the feature vector consumed by the Inference
//! Engine (§III-C: number of servers, CPUs, GPUs, RAM, cores, FLOPS).

use crate::equations::{available_flops, available_ram};
use crate::spec::{ServerClass, ServerSpec};
use pddl_telemetry::json::{FromJson, JsonError, JsonValue, JsonWriter, ToJson};

/// One server's spec plus its current load.
#[derive(Clone, Debug, PartialEq)]
pub struct ServerStatus {
    pub spec: ServerSpec,
    /// CPU busy fraction in `[0,1]`.
    pub cpu_util: f64,
    /// GPUs currently allocated to other jobs.
    pub gpus_busy: usize,
    /// True when the collector has not heard a heartbeat from this server
    /// recently: the spec and load figures are last-known-good, not live.
    /// Stale servers still count toward capacity (the paper's collector
    /// treats missing heartbeats as stale data, not departure) — consumers
    /// that want to exclude them can filter on this flag. May be absent on
    /// the wire (reads as `false`).
    pub stale: bool,
}

impl ToJson for ServerStatus {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object()
            .field("spec", &self.spec)
            .field("cpu_util", &self.cpu_util)
            .field("gpus_busy", &self.gpus_busy)
            .field("stale", &self.stale)
            .end();
    }
}

impl FromJson for ServerStatus {
    fn read_json(v: &JsonValue) -> Result<Self, JsonError> {
        let o = v.fields()?;
        Ok(Self {
            spec: o.field("spec")?,
            cpu_util: o.field("cpu_util")?,
            gpus_busy: o.field("gpus_busy")?,
            stale: o.field::<Option<bool>>("stale")?.unwrap_or(false),
        })
    }
}

impl ServerStatus {
    /// A fully idle server.
    pub fn idle(spec: ServerSpec) -> Self {
        Self { spec, cpu_util: 0.0, gpus_busy: 0, stale: false }
    }

    /// GPUs free for a new job.
    pub fn free_gpus(&self) -> usize {
        self.spec.gpus.saturating_sub(self.gpus_busy)
    }
}

/// Width of [`ClusterState::feature_vector`].
pub const CLUSTER_FEATURE_DIM: usize = 8;

/// Snapshot of the whole training cluster.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ClusterState {
    pub servers: Vec<ServerStatus>,
}

impl ToJson for ClusterState {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object().field("servers", &self.servers).end();
    }
}

impl FromJson for ClusterState {
    fn read_json(v: &JsonValue) -> Result<Self, JsonError> {
        let o = v.fields()?;
        Ok(Self { servers: o.field("servers")? })
    }
}

impl ClusterState {
    /// A homogeneous idle cluster of `n` servers of one class.
    pub fn homogeneous(class: ServerClass, n: usize) -> Self {
        let servers = (0..n)
            .map(|i| ServerStatus::idle(ServerSpec::preset(class, format!("node-{i}"))))
            .collect();
        Self { servers }
    }

    pub fn num_servers(&self) -> usize {
        self.servers.len()
    }

    /// Sum of per-server *available* training FLOPS (GPU if present, else
    /// load-adjusted CPU per Eq. (1)–(2)).
    pub fn total_training_flops(&self) -> f64 {
        self.servers
            .iter()
            .map(|s| {
                if s.spec.is_gpu() {
                    s.free_gpus() as f64 * s.spec.gpu_flops
                } else {
                    available_flops(&s.spec, s.cpu_util)
                }
            })
            .sum()
    }

    /// Slowest server's training FLOPS — the straggler bound in
    /// synchronous data-parallel training.
    pub fn min_training_flops(&self) -> f64 {
        self.servers
            .iter()
            .map(|s| {
                if s.spec.is_gpu() {
                    s.free_gpus() as f64 * s.spec.gpu_flops
                } else {
                    available_flops(&s.spec, s.cpu_util)
                }
            })
            .fold(f64::INFINITY, f64::min)
    }

    /// Total available RAM across servers (Eq. 2).
    pub fn total_available_ram(&self) -> f64 {
        self.servers
            .iter()
            .map(|s| available_ram(&s.spec, s.cpu_util))
            .sum()
    }

    /// Minimum network bandwidth along the ring (allreduce bottleneck).
    pub fn min_net_bps(&self) -> f64 {
        self.servers
            .iter()
            .map(|s| s.spec.net_bps)
            .fold(f64::INFINITY, f64::min)
    }

    /// Number of servers with at least one free GPU.
    pub fn gpu_servers(&self) -> usize {
        self.servers.iter().filter(|s| s.free_gpus() > 0).count()
    }

    /// The cluster-description features of §III-C, O(1)-normalized for
    /// regression: [#servers, log-total-FLOPS, log-min-FLOPS, log-RAM,
    /// total-cores/100, gpu-fraction, log-net-bw, mean-util].
    pub fn feature_vector(&self) -> [f64; CLUSTER_FEATURE_DIM] {
        let n = self.num_servers().max(1) as f64;
        let total_cores: usize = self.servers.iter().map(|s| s.spec.cpu_cores).sum();
        let mean_util: f64 =
            self.servers.iter().map(|s| s.cpu_util).sum::<f64>() / n;
        [
            self.num_servers() as f64,
            (self.total_training_flops().max(1.0)).log10() - 12.0,
            (self.min_training_flops().max(1.0)).log10() - 12.0,
            (self.total_available_ram().max(1.0)).log10() - 11.0,
            total_cores as f64 / 100.0,
            self.gpu_servers() as f64 / n,
            (self.min_net_bps().max(1.0)).log10() - 9.0,
            mean_util,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn homogeneous_cluster_counts() {
        let c = ClusterState::homogeneous(ServerClass::GpuP100, 4);
        assert_eq!(c.num_servers(), 4);
        assert_eq!(c.gpu_servers(), 4);
        assert!((c.total_training_flops() - 4.0 * 9.3e12).abs() < 1e9);
    }

    #[test]
    fn straggler_is_min() {
        let mut c = ClusterState::homogeneous(ServerClass::CpuE5_2630, 2);
        c.servers
            .push(ServerStatus::idle(ServerSpec::preset(ServerClass::CpuE5_2650, "slow")));
        assert_eq!(c.min_training_flops(), 128e9);
    }

    #[test]
    fn busy_gpus_reduce_capacity() {
        let mut c = ClusterState::homogeneous(ServerClass::GpuP100, 2);
        c.servers[0].gpus_busy = 1;
        assert_eq!(c.gpu_servers(), 1);
        assert!((c.total_training_flops() - 9.3e12).abs() < 1e9);
    }

    #[test]
    fn feature_vector_bounded_and_monotone_in_servers() {
        let small = ClusterState::homogeneous(ServerClass::GpuP100, 2).feature_vector();
        let large = ClusterState::homogeneous(ServerClass::GpuP100, 16).feature_vector();
        assert!(large[0] > small[0]);
        assert!(large[1] > small[1]);
        for f in large.iter().chain(small.iter()) {
            assert!(f.is_finite());
            assert!(f.abs() < 100.0, "feature {f} out of scale");
        }
    }

    #[test]
    fn utilization_shrinks_ram() {
        let mut c = ClusterState::homogeneous(ServerClass::CpuE5_2630, 1);
        let idle = c.total_available_ram();
        c.servers[0].cpu_util = 0.75;
        assert!(c.total_available_ram() < idle / 3.0);
    }
}
