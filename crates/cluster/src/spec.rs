//! Server hardware descriptions, mirroring the paper's CloudLab testbed.

use pddl_telemetry::json::{self, FromJson, JsonError, JsonValue, JsonWriter, ToJson};

/// The three server classes of §IV-A1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ServerClass {
    /// 2× 8-core Intel E5-2630 (v3-era), 128 GB RAM. CPU-only.
    CpuE5_2630,
    /// 1× 8-core Intel E5-2650, 64 GB RAM. CPU-only.
    CpuE5_2650,
    /// 2× 10-core Xeon Silver 4114, 192 GB RAM, 1× NVIDIA P100 (12 GB).
    GpuP100,
}

impl ToJson for ServerClass {
    fn write_json(&self, w: &mut JsonWriter) {
        w.unit_variant(self);
    }
}

impl FromJson for ServerClass {
    fn read_json(v: &JsonValue) -> Result<Self, JsonError> {
        json::read_unit_variant(
            v,
            &[ServerClass::CpuE5_2630, ServerClass::CpuE5_2650, ServerClass::GpuP100],
        )
    }
}

/// Full hardware description of one server.
#[derive(Clone, Debug, PartialEq)]
pub struct ServerSpec {
    pub class: ServerClass,
    pub hostname: String,
    /// Total physical CPU cores.
    pub cpu_cores: usize,
    /// Peak aggregate CPU FLOPS (single precision).
    pub cpu_flops: f64,
    /// RAM in bytes.
    pub ram_bytes: u64,
    /// Number of GPUs.
    pub gpus: usize,
    /// Peak FLOPS of one GPU (0 if none).
    pub gpu_flops: f64,
    /// GPU memory in bytes per GPU.
    pub gpu_mem_bytes: u64,
    /// Local disk throughput, bytes/s.
    pub disk_bps: f64,
    /// Network bandwidth, bytes/s.
    pub net_bps: f64,
}

impl ToJson for ServerSpec {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object()
            .field("class", &self.class)
            .field("hostname", &self.hostname)
            .field("cpu_cores", &self.cpu_cores)
            .field("cpu_flops", &self.cpu_flops)
            .field("ram_bytes", &self.ram_bytes)
            .field("gpus", &self.gpus)
            .field("gpu_flops", &self.gpu_flops)
            .field("gpu_mem_bytes", &self.gpu_mem_bytes)
            .field("disk_bps", &self.disk_bps)
            .field("net_bps", &self.net_bps)
            .end();
    }
}

impl FromJson for ServerSpec {
    fn read_json(v: &JsonValue) -> Result<Self, JsonError> {
        let o = v.fields()?;
        Ok(Self {
            class: o.field("class")?,
            hostname: o.field("hostname")?,
            cpu_cores: o.field("cpu_cores")?,
            cpu_flops: o.field("cpu_flops")?,
            ram_bytes: o.field("ram_bytes")?,
            gpus: o.field("gpus")?,
            gpu_flops: o.field("gpu_flops")?,
            gpu_mem_bytes: o.field("gpu_mem_bytes")?,
            disk_bps: o.field("disk_bps")?,
            net_bps: o.field("net_bps")?,
        })
    }
}

impl ServerSpec {
    /// Preset matching the paper's testbed for a given class.
    pub fn preset(class: ServerClass, hostname: impl Into<String>) -> Self {
        match class {
            // 2 sockets × 8 cores × 2.4 GHz × 16 SP FLOP/cycle ≈ 614 GFLOPS.
            ServerClass::CpuE5_2630 => Self {
                class,
                hostname: hostname.into(),
                cpu_cores: 16,
                cpu_flops: 614e9,
                ram_bytes: 128 * GIB,
                gpus: 0,
                gpu_flops: 0.0,
                gpu_mem_bytes: 0,
                disk_bps: 500e6,
                net_bps: 10e9 / 8.0, // 10 GbE
            },
            // 1 socket × 8 cores × 2.0 GHz × 8 SP FLOP/cycle ≈ 128 GFLOPS.
            ServerClass::CpuE5_2650 => Self {
                class,
                hostname: hostname.into(),
                cpu_cores: 8,
                cpu_flops: 128e9,
                ram_bytes: 64 * GIB,
                gpus: 0,
                gpu_flops: 0.0,
                gpu_mem_bytes: 0,
                disk_bps: 400e6,
                net_bps: 10e9 / 8.0,
            },
            // P100: 9.3 TFLOPS FP32, 12 GB HBM2, PCIe attach.
            ServerClass::GpuP100 => Self {
                class,
                hostname: hostname.into(),
                cpu_cores: 20,
                cpu_flops: 1.28e12,
                ram_bytes: 192 * GIB,
                gpus: 1,
                gpu_flops: 9.3e12,
                gpu_mem_bytes: 12 * GIB,
                disk_bps: 500e6,
                net_bps: 25e9 / 8.0, // 25 GbE on the GPU nodes
            },
        }
    }

    /// Peak compute of the device training actually runs on: the GPU when
    /// present, otherwise the aggregate CPU.
    pub fn training_flops(&self) -> f64 {
        if self.gpus > 0 {
            self.gpus as f64 * self.gpu_flops
        } else {
            self.cpu_flops
        }
    }

    /// True if this server trains on a GPU.
    pub fn is_gpu(&self) -> bool {
        self.gpus > 0
    }
}

const GIB: u64 = 1024 * 1024 * 1024;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_core_counts() {
        let a = ServerSpec::preset(ServerClass::CpuE5_2630, "a");
        assert_eq!(a.cpu_cores, 16); // two 8-core CPUs
        let b = ServerSpec::preset(ServerClass::CpuE5_2650, "b");
        assert_eq!(b.cpu_cores, 8); // one 8-core CPU
        let g = ServerSpec::preset(ServerClass::GpuP100, "g");
        assert_eq!(g.cpu_cores, 20); // two 10-core CPUs
        assert_eq!(g.gpus, 1);
    }

    #[test]
    fn gpu_server_trains_on_gpu() {
        let g = ServerSpec::preset(ServerClass::GpuP100, "g");
        assert!(g.is_gpu());
        assert!(g.training_flops() > 5e12);
        let c = ServerSpec::preset(ServerClass::CpuE5_2630, "c");
        assert!(!c.is_gpu());
        assert_eq!(c.training_flops(), c.cpu_flops);
    }

    #[test]
    fn ram_matches_paper() {
        assert_eq!(ServerSpec::preset(ServerClass::CpuE5_2630, "x").ram_bytes, 128 * GIB);
        assert_eq!(ServerSpec::preset(ServerClass::CpuE5_2650, "x").ram_bytes, 64 * GIB);
        assert_eq!(ServerSpec::preset(ServerClass::GpuP100, "x").ram_bytes, 192 * GIB);
    }

    #[test]
    fn json_round_trip() {
        for class in [ServerClass::CpuE5_2630, ServerClass::CpuE5_2650, ServerClass::GpuP100] {
            let s = ServerSpec::preset(class, "node-1");
            let j = json::to_string(&s).unwrap();
            assert_eq!(json::from_str::<ServerSpec>(&j).unwrap(), s);
        }
        assert!(json::from_str::<ServerClass>("\"gpu_p100\"").is_err());
    }
}
