//! Architecture- and hardware-dependent efficiency model.
//!
//! Real accelerators never hit peak FLOPS; the achieved fraction depends on
//! the architecture's kernel mix. The model combines:
//!
//! * a **roofline** term in arithmetic intensity (FLOPs per activation
//!   element): memory-bound nets (depthwise, tiny layers) utilize poorly;
//! * a **grouped-convolution penalty**: depthwise/grouped kernels have low
//!   data reuse and fragment into many small launches;
//! * a **branching penalty**: concat/sum-heavy graphs (DenseNet, Inception)
//!   pay kernel-launch and memory-layout overhead;
//! * a **per-worker batch term**: small local batches underfill the device.
//!
//! Coefficients were chosen so achieved efficiency lands in the 5–60% band
//! reported for CNNs on P100-class GPUs and wide Xeon CPUs.

use pddl_zoo::ModelSpec;

/// Device type for efficiency purposes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Device {
    Gpu,
    Cpu,
}

/// Fraction of peak FLOPS the workload achieves on the device, in (0, 1).
pub fn efficiency(spec: &ModelSpec, device: Device, batch_per_worker: usize) -> f64 {
    let (base, knee, batch_half) = match device {
        // GPUs need much higher arithmetic intensity to leave the
        // memory-bound regime, and bigger batches to saturate SMs.
        Device::Gpu => (0.62, 220.0, 10.0),
        Device::Cpu => (0.48, 25.0, 2.0),
    };
    let ai = spec.arithmetic_intensity();
    let roofline = ai / (ai + knee);
    let grouped = 1.0 / (1.0 + 3.0 * spec.grouped_flop_fraction);
    let branching = 1.0 / (1.0 + 2.0 * spec.branching_fraction);
    let b = batch_per_worker.max(1) as f64;
    let batch = b / (b + batch_half);
    (base * roofline * grouped * branching * batch).clamp(0.005, 0.95)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pddl_zoo::CIFAR10;

    fn spec(name: &str) -> ModelSpec {
        pddl_zoo::resolve(name, &CIFAR10).unwrap().spec.clone()
    }

    #[test]
    fn efficiency_in_unit_interval() {
        for name in pddl_zoo::model_names() {
            let s = spec(name);
            for d in [Device::Gpu, Device::Cpu] {
                for b in [1, 32, 128] {
                    let e = efficiency(&s, d, b);
                    assert!((0.0..1.0).contains(&e), "{name} {d:?} b{b}: {e}");
                }
            }
        }
    }

    #[test]
    fn gemm_heavy_beats_depthwise_on_gpu() {
        let vgg = efficiency(&spec("vgg16"), Device::Gpu, 128);
        let mbv3 = efficiency(&spec("mobilenet_v3_small"), Device::Gpu, 128);
        assert!(
            vgg > 2.0 * mbv3,
            "VGG should utilize the GPU far better: vgg={vgg:.3} mbv3={mbv3:.3}"
        );
    }

    #[test]
    fn bigger_batches_help() {
        let s = spec("resnet50");
        let small = efficiency(&s, Device::Gpu, 2);
        let large = efficiency(&s, Device::Gpu, 64);
        assert!(large > small);
    }

    #[test]
    fn cpu_less_intensity_sensitive() {
        let s = spec("mobilenet_v2");
        let gpu = efficiency(&s, Device::Gpu, 64);
        let cpu = efficiency(&s, Device::Cpu, 64);
        // Depthwise nets lose relatively more on GPU than CPU.
        let s2 = spec("vgg16");
        let gpu2 = efficiency(&s2, Device::Gpu, 64);
        let cpu2 = efficiency(&s2, Device::Cpu, 64);
        assert!(gpu2 / gpu > cpu2 / cpu);
    }

    #[test]
    fn efficiency_spread_is_wide() {
        // The architecture effect must be large enough that black-box
        // predictors visibly fail: >3× spread across the zoo on GPU.
        let effs: Vec<f64> = pddl_zoo::model_names()
            .iter()
            .map(|n| efficiency(&spec(n), Device::Gpu, 128))
            .collect();
        let max = effs.iter().cloned().fold(0.0, f64::max);
        let min = effs.iter().cloned().fold(1.0, f64::min);
        assert!(max / min > 3.0, "spread {:.2} ({min:.3}..{max:.3})", max / min);
    }
}
