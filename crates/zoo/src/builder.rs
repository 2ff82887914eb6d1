//! Fluent builder for assembling architecture graphs.
//!
//! Tracks the "current" node, channel count and spatial resolution while
//! appending primitive ops, so family builders read like the architecture
//! papers' block diagrams.

use pddl_graph::{CompGraph, NodeAttrs, NodeId, OpKind};

/// Activation selector for fused conv-bn-act helpers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Act {
    Relu,
    Swish,
    HardSwish,
    Sigmoid,
    None,
}

impl Act {
    fn op(self) -> Option<OpKind> {
        match self {
            Act::Relu => Some(OpKind::Relu),
            Act::Swish => Some(OpKind::Swish),
            Act::HardSwish => Some(OpKind::HardSwish),
            Act::Sigmoid => Some(OpKind::Sigmoid),
            Act::None => None,
        }
    }
}

/// Cursor state: where the data flow currently stands.
#[derive(Clone, Copy, Debug)]
pub struct Cursor {
    pub node: NodeId,
    pub channels: usize,
    pub spatial: usize,
}

/// Graph-under-construction with a movable cursor.
pub struct NetBuilder {
    g: CompGraph,
    cur: Cursor,
}

/// Output spatial size for a strided op (torchvision padding conventions
/// keep `ceil(s / stride)`, floored at 1 for tiny CIFAR maps).
pub fn strided(spatial: usize, stride: usize) -> usize {
    spatial.div_ceil(stride).max(1)
}

impl NetBuilder {
    /// Starts a graph with an `Input` node of `channels × res × res`.
    pub fn new(name: &str, channels: usize, res: usize) -> Self {
        let mut g = CompGraph::new(name);
        let node = g.add_node(
            OpKind::Input,
            NodeAttrs::elementwise(channels, res),
            "input",
        );
        Self { g, cur: Cursor { node, channels, spatial: res } }
    }

    /// Current cursor (save before a branch, restore with [`Self::set`]).
    pub fn cursor(&self) -> Cursor {
        self.cur
    }

    /// Moves the cursor (branching).
    pub fn set(&mut self, c: Cursor) {
        self.cur = c;
    }

    fn push(&mut self, kind: OpKind, attrs: NodeAttrs, label: &str) -> Cursor {
        let node = self.g.chain(self.cur.node, kind, attrs, label);
        self.cur = Cursor { node, channels: attrs.c_out, spatial: attrs.spatial };
        self.cur
    }

    /// Plain convolution (+ implicit bias carried in the conv node).
    pub fn conv(&mut self, c_out: usize, k: usize, stride: usize, label: &str) -> Cursor {
        let sp = strided(self.cur.spatial, stride);
        let attrs = NodeAttrs::conv(self.cur.channels, c_out, k, stride, sp);
        self.push(OpKind::Conv, attrs, label)
    }

    /// Grouped convolution.
    pub fn group_conv(
        &mut self,
        c_out: usize,
        k: usize,
        stride: usize,
        groups: usize,
        label: &str,
    ) -> Cursor {
        let sp = strided(self.cur.spatial, stride);
        let attrs =
            NodeAttrs::group_conv(self.cur.channels, c_out, k, stride, groups, sp);
        self.push(OpKind::GroupConv, attrs, label)
    }

    /// Depthwise convolution (groups = channels; preserves channel count).
    pub fn dw_conv(&mut self, k: usize, stride: usize, label: &str) -> Cursor {
        let c = self.cur.channels;
        let sp = strided(self.cur.spatial, stride);
        let attrs = NodeAttrs::group_conv(c, c, k, stride, c, sp);
        self.push(OpKind::DepthwiseConv, attrs, label)
    }

    /// Dilated convolution (DARTS `dil_conv` primitive).
    pub fn dil_conv(&mut self, c_out: usize, k: usize, stride: usize, label: &str) -> Cursor {
        let sp = strided(self.cur.spatial, stride);
        let attrs = NodeAttrs::conv(self.cur.channels, c_out, k, stride, sp);
        self.push(OpKind::DilConv, attrs, label)
    }

    /// Batch normalization.
    pub fn bn(&mut self, label: &str) -> Cursor {
        let attrs = NodeAttrs::elementwise(self.cur.channels, self.cur.spatial);
        self.push(OpKind::BatchNorm, attrs, label)
    }

    /// Activation node.
    pub fn act(&mut self, a: Act, label: &str) -> Cursor {
        if let Some(op) = a.op() {
            let attrs = NodeAttrs::elementwise(self.cur.channels, self.cur.spatial);
            self.push(op, attrs, label)
        } else {
            self.cur
        }
    }

    /// Conv → BN → activation, the workhorse block.
    pub fn conv_bn_act(
        &mut self,
        c_out: usize,
        k: usize,
        stride: usize,
        a: Act,
        label: &str,
    ) -> Cursor {
        self.conv(c_out, k, stride, label);
        self.bn(&format!("{label}.bn"));
        self.act(a, &format!("{label}.act"))
    }

    /// Depthwise conv → BN → activation.
    pub fn dw_bn_act(&mut self, k: usize, stride: usize, a: Act, label: &str) -> Cursor {
        self.dw_conv(k, stride, label);
        self.bn(&format!("{label}.bn"));
        self.act(a, &format!("{label}.act"))
    }

    /// Max pooling.
    pub fn max_pool(&mut self, k: usize, stride: usize, label: &str) -> Cursor {
        let sp = strided(self.cur.spatial, stride);
        let mut attrs = NodeAttrs::elementwise(self.cur.channels, sp);
        attrs.kernel = k;
        attrs.stride = stride;
        self.push(OpKind::MaxPool, attrs, label)
    }

    /// Average pooling.
    pub fn avg_pool(&mut self, k: usize, stride: usize, label: &str) -> Cursor {
        let sp = strided(self.cur.spatial, stride);
        let mut attrs = NodeAttrs::elementwise(self.cur.channels, sp);
        attrs.kernel = k;
        attrs.stride = stride;
        self.push(OpKind::AvgPool, attrs, label)
    }

    /// Global average pooling (spatial → 1). Records the input spatial size
    /// in `kernel` so FLOPs account for the full read.
    pub fn global_pool(&mut self, label: &str) -> Cursor {
        let mut attrs = NodeAttrs::elementwise(self.cur.channels, 1);
        attrs.kernel = self.cur.spatial;
        self.push(OpKind::GlobalAvgPool, attrs, label)
    }

    /// Fully-connected layer (assumes spatial == 1 unless flattening).
    pub fn dense(&mut self, f_out: usize, label: &str) -> Cursor {
        let f_in = self.cur.channels * self.cur.spatial * self.cur.spatial;
        let attrs = NodeAttrs::dense(f_in, f_out);
        self.push(OpKind::Dense, attrs, label)
    }

    /// Dropout (structural only).
    pub fn dropout(&mut self, label: &str) -> Cursor {
        let attrs = NodeAttrs::elementwise(self.cur.channels, self.cur.spatial);
        self.push(OpKind::Dropout, attrs, label)
    }

    /// Channel shuffle (ShuffleNet).
    pub fn channel_shuffle(&mut self, label: &str) -> Cursor {
        let attrs = NodeAttrs::elementwise(self.cur.channels, self.cur.spatial);
        self.push(OpKind::ChannelShuffle, attrs, label)
    }

    /// Residual join: `Sum` of the current cursor and `skip`. If channel or
    /// spatial shapes differ, callers must have inserted a projection first.
    pub fn sum_with(&mut self, skip: Cursor, label: &str) -> Cursor {
        debug_assert_eq!(skip.channels, self.cur.channels, "sum channel mismatch at {label}");
        debug_assert_eq!(skip.spatial, self.cur.spatial, "sum spatial mismatch at {label}");
        let attrs = NodeAttrs::elementwise(self.cur.channels, self.cur.spatial);
        let node = self.g.add_node(OpKind::Sum, attrs, label);
        self.g.add_edge(self.cur.node, node);
        self.g.add_edge(skip.node, node);
        self.cur = Cursor { node, ..self.cur };
        self.cur
    }

    /// Concatenation of several branch cursors along channels.
    pub fn concat(&mut self, branches: &[Cursor], label: &str) -> Cursor {
        assert!(!branches.is_empty());
        let spatial = branches[0].spatial;
        let channels: usize = branches.iter().map(|b| b.channels).sum();
        debug_assert!(branches.iter().all(|b| b.spatial == spatial), "concat spatial mismatch");
        let attrs = NodeAttrs::elementwise(channels, spatial);
        let node = self.g.add_node(OpKind::Concat, attrs, label);
        for b in branches {
            self.g.add_edge(b.node, node);
        }
        self.cur = Cursor { node, channels, spatial };
        self.cur
    }

    /// Elementwise multiplication with a gating branch (squeeze-excite).
    pub fn mul_with(&mut self, gate: Cursor, label: &str) -> Cursor {
        let attrs = NodeAttrs::elementwise(self.cur.channels, self.cur.spatial);
        let node = self.g.add_node(OpKind::Mul, attrs, label);
        self.g.add_edge(self.cur.node, node);
        self.g.add_edge(gate.node, node);
        self.cur = Cursor { node, ..self.cur };
        self.cur
    }

    /// Squeeze-and-excitation block gating the current cursor:
    /// global-pool → dense(reduce) → relu → dense(expand) → sigmoid → mul.
    pub fn squeeze_excite(&mut self, reduction: usize, label: &str) -> Cursor {
        let main = self.cur;
        self.global_pool(&format!("{label}.squeeze"));
        let hidden = (main.channels / reduction).max(1);
        self.dense(hidden, &format!("{label}.fc1"));
        self.act(Act::Relu, &format!("{label}.relu"));
        self.dense(main.channels, &format!("{label}.fc2"));
        let gate = self.act(Act::Sigmoid, &format!("{label}.gate"));
        self.set(main);
        self.mul_with(gate, &format!("{label}.scale"))
    }

    /// Classifier head: global-pool → dense(num_classes) → softmax → output.
    pub fn classifier(&mut self, num_classes: usize) -> Cursor {
        self.global_pool("head.pool");
        self.dense(num_classes, "head.fc");
        let attrs = NodeAttrs::elementwise(num_classes, 1);
        self.push(OpKind::Softmax, attrs, "head.softmax");
        self.push(OpKind::Output, attrs, "output")
    }

    /// Finishes construction, validating structure.
    pub fn finish(self) -> CompGraph {
        let g = self.g;
        debug_assert_eq!(g.validate(), Ok(()), "builder produced invalid graph {}", g.name);
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strided_arithmetic() {
        assert_eq!(strided(32, 1), 32);
        assert_eq!(strided(32, 2), 16);
        assert_eq!(strided(33, 2), 17);
        assert_eq!(strided(1, 2), 1);
    }

    #[test]
    fn simple_network_validates() {
        let mut b = NetBuilder::new("toy", 3, 32);
        b.conv_bn_act(16, 3, 1, Act::Relu, "stem");
        let skip = b.cursor();
        b.conv_bn_act(16, 3, 1, Act::Relu, "block");
        b.sum_with(skip, "join");
        b.classifier(10);
        let g = b.finish();
        assert_eq!(g.validate(), Ok(()));
        assert!(g.num_params() > 0);
        assert_eq!(g.num_layers(), 3); // stem conv, block conv, head fc
    }

    #[test]
    fn squeeze_excite_wires_gate() {
        let mut b = NetBuilder::new("se", 3, 16);
        b.conv_bn_act(32, 3, 1, Act::Relu, "stem");
        let before = b.cursor();
        let after = b.squeeze_excite(4, "se1");
        assert_eq!(after.channels, before.channels);
        assert_eq!(after.spatial, before.spatial);
        b.classifier(10);
        let g = b.finish();
        assert_eq!(g.validate(), Ok(()));
        // SE adds two dense layers.
        assert_eq!(g.num_layers(), 1 + 2 + 1);
    }

    #[test]
    fn concat_accumulates_channels() {
        let mut b = NetBuilder::new("cat", 3, 8);
        b.conv(8, 3, 1, "stem");
        let root = b.cursor();
        let b1 = {
            b.set(root);
            b.conv(4, 1, 1, "b1")
        };
        let b2 = {
            b.set(root);
            b.conv(6, 3, 1, "b2")
        };
        let joined = b.concat(&[b1, b2], "cat");
        assert_eq!(joined.channels, 10);
        b.classifier(10);
        let g = b.finish();
        assert_eq!(g.validate(), Ok(()));
    }

    #[test]
    fn dense_flattens_spatial() {
        let mut b = NetBuilder::new("flat", 3, 8);
        b.conv(4, 3, 2, "c"); // spatial 4
        let cur = b.dense(10, "fc");
        assert_eq!(cur.channels, 10);
        // 4 channels * 4*4 spatial = 64 input features.
        let g = b.g;
        let fc = g
            .nodes()
            .iter()
            .find(|n| n.label == "fc")
            .unwrap();
        assert_eq!(fc.attrs.c_in, 4 * 4 * 4);
    }
}
