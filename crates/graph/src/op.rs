//! Primitive operation vocabulary and per-node analytic costs.

use pddl_telemetry::json::{self, FromJson, JsonError, JsonValue, JsonWriter, ToJson};

/// The primitive-operation vocabulary.
///
/// This is the union of the DARTS primitive set that GHN-2 was trained over
/// and the ops named in Fig. 3 of the PredictDDL paper (convolution, group
/// convolution, concatenation, summation, averaging, pooling, bias addition,
/// batch normalization), plus the activations needed to express the
/// torchvision families in `pddl-zoo`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpKind {
    /// Graph input (image tensor).
    Input,
    /// Graph output (logits).
    Output,
    /// Dense convolution (any kernel; kernel size lives in [`NodeAttrs`]).
    Conv,
    /// Depthwise convolution (groups == channels).
    DepthwiseConv,
    /// Grouped convolution with 1 < groups < channels (ResNeXt/ShuffleNet).
    GroupConv,
    /// Dilated convolution (DARTS `dil_conv`).
    DilConv,
    /// Max pooling.
    MaxPool,
    /// Average pooling.
    AvgPool,
    /// Global average pooling (spatial → 1×1).
    GlobalAvgPool,
    /// Fully-connected / linear layer.
    Dense,
    /// Batch normalization.
    BatchNorm,
    /// Bias addition.
    BiasAdd,
    /// ReLU (covers ReLU6 for cost purposes).
    Relu,
    /// Sigmoid (squeeze-excite gates).
    Sigmoid,
    /// Tanh.
    Tanh,
    /// Swish / SiLU (EfficientNet).
    Swish,
    /// Hard-swish (MobileNet-V3).
    HardSwish,
    /// Softmax over classes.
    Softmax,
    /// Elementwise summation (residual join).
    Sum,
    /// Channel concatenation (DenseNet/Inception join).
    Concat,
    /// Elementwise multiplication (squeeze-excite scaling).
    Mul,
    /// Identity / skip connection.
    Identity,
    /// Channel shuffle (ShuffleNet).
    ChannelShuffle,
    /// Dropout (no FLOPs at inference; kept for structural fidelity).
    Dropout,
}

impl OpKind {
    /// All variants in one-hot order. The order is part of the embedding
    /// contract: a trained GHN is only valid for the vocabulary it saw.
    pub const ALL: [OpKind; 24] = [
        OpKind::Input,
        OpKind::Output,
        OpKind::Conv,
        OpKind::DepthwiseConv,
        OpKind::GroupConv,
        OpKind::DilConv,
        OpKind::MaxPool,
        OpKind::AvgPool,
        OpKind::GlobalAvgPool,
        OpKind::Dense,
        OpKind::BatchNorm,
        OpKind::BiasAdd,
        OpKind::Relu,
        OpKind::Sigmoid,
        OpKind::Tanh,
        OpKind::Swish,
        OpKind::HardSwish,
        OpKind::Softmax,
        OpKind::Sum,
        OpKind::Concat,
        OpKind::Mul,
        OpKind::Identity,
        OpKind::ChannelShuffle,
        OpKind::Dropout,
    ];

    /// Size of the one-hot vocabulary.
    pub const COUNT: usize = Self::ALL.len();

    /// Index of this op in the one-hot encoding.
    pub fn index(self) -> usize {
        Self::ALL
            .iter()
            .position(|&k| k == self)
            .expect("op kind present in ALL")
    }

    /// True for ops that own trainable parameters.
    pub fn is_parameterized(self) -> bool {
        matches!(
            self,
            OpKind::Conv
                | OpKind::DepthwiseConv
                | OpKind::GroupConv
                | OpKind::DilConv
                | OpKind::Dense
                | OpKind::BatchNorm
                | OpKind::BiasAdd
        )
    }

    /// True for convolution-family ops.
    pub fn is_conv(self) -> bool {
        matches!(
            self,
            OpKind::Conv | OpKind::DepthwiseConv | OpKind::GroupConv | OpKind::DilConv
        )
    }

    /// True for ops counted as a "layer" by the gray-box baselines
    /// (the paper's `#layers` feature counts weight layers).
    pub fn is_layer(self) -> bool {
        self.is_conv() || self == OpKind::Dense
    }
}

/// Shape/config metadata attached to each node, from which FLOPs and
/// parameter counts are derived analytically.
///
/// Spatial resolution is recorded at the node **output**; feature maps are
/// assumed square (`spatial × spatial`), which matches every workload in the
/// paper (CIFAR-10 32×32, Tiny-ImageNet 64×64).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeAttrs {
    /// Input channels (or input features for Dense).
    pub c_in: usize,
    /// Output channels (or output features for Dense).
    pub c_out: usize,
    /// Kernel size (k×k); 0 for non-kernel ops.
    pub kernel: usize,
    /// Stride; 1 for non-strided ops.
    pub stride: usize,
    /// Convolution groups (1 = dense conv, c_in = depthwise).
    pub groups: usize,
    /// Output spatial resolution (H = W). 1 after global pooling / for Dense.
    pub spatial: usize,
}

impl ToJson for OpKind {
    fn write_json(&self, w: &mut JsonWriter) {
        w.unit_variant(self);
    }
}

impl FromJson for OpKind {
    fn read_json(v: &JsonValue) -> Result<Self, JsonError> {
        json::read_unit_variant(v, &Self::ALL)
    }
}

impl ToJson for NodeAttrs {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object()
            .field("c_in", &self.c_in)
            .field("c_out", &self.c_out)
            .field("kernel", &self.kernel)
            .field("stride", &self.stride)
            .field("groups", &self.groups)
            .field("spatial", &self.spatial)
            .end();
    }
}

impl FromJson for NodeAttrs {
    fn read_json(v: &JsonValue) -> Result<Self, JsonError> {
        let o = v.fields()?;
        Ok(Self {
            c_in: o.field("c_in")?,
            c_out: o.field("c_out")?,
            kernel: o.field("kernel")?,
            stride: o.field("stride")?,
            groups: o.field("groups")?,
            spatial: o.field("spatial")?,
        })
    }
}

impl Default for NodeAttrs {
    fn default() -> Self {
        Self { c_in: 0, c_out: 0, kernel: 0, stride: 1, groups: 1, spatial: 1 }
    }
}

impl NodeAttrs {
    /// Elementwise op over `c` channels at `spatial` resolution.
    pub fn elementwise(c: usize, spatial: usize) -> Self {
        Self { c_in: c, c_out: c, spatial, ..Default::default() }
    }

    /// Convolution attrs.
    pub fn conv(c_in: usize, c_out: usize, kernel: usize, stride: usize, spatial_out: usize) -> Self {
        Self { c_in, c_out, kernel, stride, groups: 1, spatial: spatial_out }
    }

    /// Grouped convolution attrs.
    pub fn group_conv(
        c_in: usize,
        c_out: usize,
        kernel: usize,
        stride: usize,
        groups: usize,
        spatial_out: usize,
    ) -> Self {
        Self { c_in, c_out, kernel, stride, groups, spatial: spatial_out }
    }

    /// Dense layer attrs.
    pub fn dense(f_in: usize, f_out: usize) -> Self {
        Self { c_in: f_in, c_out: f_out, spatial: 1, ..Default::default() }
    }
}

/// Forward-pass multiply-add count for one node on a **single example**.
///
/// The convention follows Paleo/ptflops: one multiply-add = 2 FLOPs for
/// GEMM-like ops; elementwise ops cost one FLOP per element.
pub fn node_flops(kind: OpKind, a: &NodeAttrs) -> f64 {
    let hw = (a.spatial * a.spatial) as f64;
    let cin = a.c_in as f64;
    let cout = a.c_out as f64;
    let k2 = (a.kernel * a.kernel) as f64;
    match kind {
        OpKind::Conv | OpKind::DilConv => 2.0 * k2 * cin * cout * hw,
        OpKind::GroupConv | OpKind::DepthwiseConv => {
            let g = a.groups.max(1) as f64;
            2.0 * k2 * cin * cout * hw / g
        }
        OpKind::Dense => 2.0 * cin * cout,
        OpKind::MaxPool | OpKind::AvgPool => k2 * cout * hw,
        // Global pool reads the full input map; `spatial` here is the output
        // (1), so charge by input channels times the input map the builders
        // record in `kernel` (kernel = input spatial for this op).
        OpKind::GlobalAvgPool => cin * k2.max(1.0),
        OpKind::BatchNorm => 4.0 * cout * hw,
        OpKind::BiasAdd | OpKind::Relu | OpKind::Identity | OpKind::ChannelShuffle => cout * hw,
        OpKind::Sigmoid | OpKind::Tanh | OpKind::Swish | OpKind::HardSwish => 4.0 * cout * hw,
        OpKind::Softmax => 5.0 * cout,
        OpKind::Sum | OpKind::Mul => cout * hw,
        OpKind::Concat | OpKind::Dropout | OpKind::Input | OpKind::Output => 0.0,
    }
}

/// Trainable parameter count for one node.
pub fn node_params(kind: OpKind, a: &NodeAttrs) -> u64 {
    let k2 = (a.kernel * a.kernel) as u64;
    match kind {
        OpKind::Conv | OpKind::DilConv => k2 * a.c_in as u64 * a.c_out as u64 + a.c_out as u64,
        OpKind::GroupConv | OpKind::DepthwiseConv => {
            let g = a.groups.max(1) as u64;
            k2 * a.c_in as u64 * a.c_out as u64 / g + a.c_out as u64
        }
        OpKind::Dense => (a.c_in as u64 + 1) * a.c_out as u64,
        OpKind::BatchNorm => 2 * a.c_out as u64,
        OpKind::BiasAdd => a.c_out as u64,
        _ => 0,
    }
}

/// Activation-memory footprint in elements for one node's output on a
/// single example (drives the roofline/arithmetic-intensity term of the
/// simulator's efficiency model).
pub fn node_activation_elems(a: &NodeAttrs) -> u64 {
    a.c_out as u64 * (a.spatial * a.spatial) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_hot_indices_are_unique_and_dense() {
        let mut seen = [false; OpKind::COUNT];
        for k in OpKind::ALL {
            let i = k.index();
            assert!(!seen[i], "duplicate index {i}");
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn conv_flops_formula() {
        // 3x3 conv, 16→32 channels, 8x8 output: 2*9*16*32*64
        let a = NodeAttrs::conv(16, 32, 3, 1, 8);
        assert_eq!(node_flops(OpKind::Conv, &a), 2.0 * 9.0 * 16.0 * 32.0 * 64.0);
    }

    #[test]
    fn depthwise_is_groups_times_cheaper() {
        let dense = NodeAttrs::conv(32, 32, 3, 1, 8);
        let dw = NodeAttrs::group_conv(32, 32, 3, 1, 32, 8);
        let fd = node_flops(OpKind::Conv, &dense);
        let fw = node_flops(OpKind::DepthwiseConv, &dw);
        assert!((fd / fw - 32.0).abs() < 1e-9);
    }

    #[test]
    fn dense_params_include_bias() {
        let a = NodeAttrs::dense(512, 10);
        assert_eq!(node_params(OpKind::Dense, &a), 513 * 10);
    }

    #[test]
    fn pooling_has_no_params() {
        let a = NodeAttrs::conv(64, 64, 2, 2, 4);
        assert_eq!(node_params(OpKind::MaxPool, &a), 0);
        assert_eq!(node_params(OpKind::AvgPool, &a), 0);
    }

    #[test]
    fn layer_predicate_matches_paper_convention() {
        assert!(OpKind::Conv.is_layer());
        assert!(OpKind::Dense.is_layer());
        assert!(OpKind::DepthwiseConv.is_layer());
        assert!(!OpKind::BatchNorm.is_layer());
        assert!(!OpKind::Relu.is_layer());
        assert!(!OpKind::Sum.is_layer());
    }

    #[test]
    fn group_conv_params_divide_by_groups() {
        let a = NodeAttrs::group_conv(64, 64, 3, 1, 4, 8);
        // 9 * 64 * 64 / 4 + 64
        assert_eq!(node_params(OpKind::GroupConv, &a), 9 * 64 * 64 / 4 + 64);
    }
}
