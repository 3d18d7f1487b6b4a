//! ResNet-style CNNs (He et al.), CIFAR-shaped and width-scaled so the
//! paper's ResNet18/ResNet50 experiments run on a CPU (see DESIGN.md §2).
//!
//! `resnet18` uses BasicBlocks with layout [2,2,2,2]; `resnet50` uses
//! Bottleneck blocks with layout [3,4,6,3] and 4× expansion, preserving the
//! architectural contrast the paper's figures rely on.

use nn::{BatchNorm2d, Conv2d, Ctx, GlobalAvgPool, Linear, Module, Param, Relu};
use rand::Rng;
use tensor::Var;

/// Block flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockKind {
    /// Two 3×3 convolutions (ResNet-18/34 style).
    Basic,
    /// 1×1 → 3×3 → 1×1 with 4× channel expansion (ResNet-50 style).
    Bottleneck,
}

impl BlockKind {
    fn expansion(self) -> usize {
        match self {
            BlockKind::Basic => 1,
            BlockKind::Bottleneck => 4,
        }
    }
}

/// Architecture description for [`ResNet`].
#[derive(Debug, Clone)]
pub struct ResNetConfig {
    /// Model name (used in layer names and weight files).
    pub name: String,
    /// Block flavour.
    pub block: BlockKind,
    /// Blocks per stage.
    pub layers: Vec<usize>,
    /// Channel width of the first stage.
    pub base_width: usize,
    /// Number of output classes.
    pub num_classes: usize,
    /// Input channels.
    pub in_channels: usize,
}

impl ResNetConfig {
    /// A width-scaled ResNet-18 (BasicBlock ×`[2,2,2,2]`).
    pub fn resnet18(base_width: usize, num_classes: usize) -> Self {
        ResNetConfig {
            name: "resnet18".into(),
            block: BlockKind::Basic,
            layers: vec![2, 2, 2, 2],
            base_width,
            num_classes,
            in_channels: 3,
        }
    }

    /// A width-scaled ResNet-50 (Bottleneck ×`[3,4,6,3]`).
    pub fn resnet50(base_width: usize, num_classes: usize) -> Self {
        ResNetConfig {
            name: "resnet50".into(),
            block: BlockKind::Bottleneck,
            layers: vec![3, 4, 6, 3],
            base_width,
            num_classes,
            in_channels: 3,
        }
    }

    /// A two-stage toy ResNet for fast tests.
    pub fn tiny(num_classes: usize) -> Self {
        ResNetConfig {
            name: "resnet_tiny".into(),
            block: BlockKind::Basic,
            layers: vec![1, 1],
            base_width: 8,
            num_classes,
            in_channels: 3,
        }
    }
}

/// One residual block.
#[derive(Debug)]
struct ResBlock {
    convs: Vec<(Conv2d, BatchNorm2d)>,
    downsample: Option<(Conv2d, BatchNorm2d)>,
    relu: Relu,
}

impl ResBlock {
    fn new(
        name: &str,
        kind: BlockKind,
        in_ch: usize,
        width: usize,
        stride: usize,
        rng: &mut impl Rng,
    ) -> (Self, usize) {
        let out_ch = width * kind.expansion();
        let mut convs = Vec::new();
        match kind {
            BlockKind::Basic => {
                convs.push((
                    Conv2d::new(format!("{name}.conv1"), in_ch, width, 3, stride, 1, false, rng),
                    BatchNorm2d::new(format!("{name}.bn1"), width),
                ));
                convs.push((
                    Conv2d::new(format!("{name}.conv2"), width, width, 3, 1, 1, false, rng),
                    BatchNorm2d::new(format!("{name}.bn2"), width),
                ));
            }
            BlockKind::Bottleneck => {
                convs.push((
                    Conv2d::new(format!("{name}.conv1"), in_ch, width, 1, 1, 0, false, rng),
                    BatchNorm2d::new(format!("{name}.bn1"), width),
                ));
                convs.push((
                    Conv2d::new(format!("{name}.conv2"), width, width, 3, stride, 1, false, rng),
                    BatchNorm2d::new(format!("{name}.bn2"), width),
                ));
                convs.push((
                    Conv2d::new(format!("{name}.conv3"), width, out_ch, 1, 1, 0, false, rng),
                    BatchNorm2d::new(format!("{name}.bn3"), out_ch),
                ));
            }
        }
        let downsample = (stride != 1 || in_ch != out_ch).then(|| {
            (
                Conv2d::new(format!("{name}.down"), in_ch, out_ch, 1, stride, 0, false, rng),
                BatchNorm2d::new(format!("{name}.down_bn"), out_ch),
            )
        });
        (ResBlock { convs, downsample, relu: Relu::new(format!("{name}.relu")) }, out_ch)
    }
}

impl Module for ResBlock {
    fn forward(&self, x: &Var, ctx: &mut Ctx) -> Var {
        let mut h = x.clone();
        let last = self.convs.len() - 1;
        for (i, (conv, bn)) in self.convs.iter().enumerate() {
            // One statement per layer: each reassignment of `h` drops the
            // previous activation as soon as the next layer has read it.
            h = conv.forward(&h, ctx);
            h = bn.forward(&h, ctx);
            if i != last {
                h = self.relu.forward(&h, ctx);
            }
        }
        let skip = match &self.downsample {
            Some((conv, bn)) => bn.forward(&conv.forward(x, ctx), ctx),
            None => x.clone(),
        };
        self.relu.forward(&h.add(&skip), ctx)
    }

    fn visit_params(&self, f: &mut dyn FnMut(&Param)) {
        for (c, b) in &self.convs {
            c.visit_params(f);
            b.visit_params(f);
        }
        if let Some((c, b)) = &self.downsample {
            c.visit_params(f);
            b.visit_params(f);
        }
    }
}

/// A residual CNN built from a [`ResNetConfig`].
#[derive(Debug)]
pub struct ResNet {
    config: ResNetConfig,
    stem: (Conv2d, BatchNorm2d, Relu),
    blocks: Vec<ResBlock>,
    gap: GlobalAvgPool,
    head: Linear,
}

impl ResNet {
    /// Builds the network with fresh random weights.
    pub fn new(config: ResNetConfig, rng: &mut impl Rng) -> Self {
        let w0 = config.base_width;
        let stem = (
            Conv2d::new("stem.conv", config.in_channels, w0, 3, 1, 1, false, rng),
            BatchNorm2d::new("stem.bn", w0),
            Relu::new("stem.relu"),
        );
        let mut blocks = Vec::new();
        let mut in_ch = w0;
        for (stage, &n) in config.layers.iter().enumerate() {
            let width = w0 << stage;
            for b in 0..n {
                let stride = if stage > 0 && b == 0 { 2 } else { 1 };
                let (blk, out_ch) = ResBlock::new(
                    &format!("s{stage}b{b}"),
                    config.block,
                    in_ch,
                    width,
                    stride,
                    rng,
                );
                blocks.push(blk);
                in_ch = out_ch;
            }
        }
        let head = Linear::new("head", in_ch, config.num_classes, true, rng);
        ResNet { config, stem, blocks, gap: GlobalAvgPool::new("gap"), head }
    }

    /// The architecture description.
    pub fn config(&self) -> &ResNetConfig {
        &self.config
    }
}

impl Module for ResNet {
    fn forward(&self, x: &Var, ctx: &mut Ctx) -> Var {
        // Exactly the segment chain, so the checkpoint/replay contract of
        // `forward_segment` (bit-identical outputs and layer numbering)
        // holds by construction.
        let mut h = x.clone();
        for s in 0..self.num_segments() {
            h = self.forward_segment(s, &h, ctx);
        }
        h
    }

    /// Stem, one segment per residual block, then pool + head. Residual
    /// skip connections live entirely inside a block, so block boundaries
    /// are valid checkpoint cuts: the block input is the only live tensor.
    fn num_segments(&self) -> usize {
        self.blocks.len() + 2
    }

    fn forward_segment(&self, segment: usize, x: &Var, ctx: &mut Ctx) -> Var {
        let n = self.blocks.len();
        if segment == 0 {
            let (conv, bn, relu) = &self.stem;
            relu.forward(&bn.forward(&conv.forward(x, ctx), ctx), ctx)
        } else if segment <= n {
            self.blocks[segment - 1].forward(x, ctx)
        } else {
            assert_eq!(segment, n + 1, "ResNet has {} segments", n + 2);
            let pooled = self.gap.forward(x, ctx);
            self.head.forward(&pooled, ctx)
        }
    }

    fn visit_params(&self, f: &mut dyn FnMut(&Param)) {
        self.stem.0.visit_params(f);
        self.stem.1.visit_params(f);
        for b in &self.blocks {
            b.visit_params(f);
        }
        self.head.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tensor::Tensor;

    #[test]
    fn resnet18_shapes() {
        let mut rng = StdRng::seed_from_u64(1);
        let net = ResNet::new(ResNetConfig::resnet18(4, 10), &mut rng);
        let mut ctx = Ctx::inference();
        let x = ctx.input(Tensor::randn([2, 3, 32, 32], &mut rng));
        let y = net.forward(&x, &mut ctx);
        assert_eq!(y.shape().dims(), &[2, 10]);
    }

    #[test]
    fn resnet50_shapes_and_expansion() {
        let mut rng = StdRng::seed_from_u64(2);
        let net = ResNet::new(ResNetConfig::resnet50(2, 7), &mut rng);
        let mut ctx = Ctx::inference();
        let x = ctx.input(Tensor::randn([1, 3, 16, 16], &mut rng));
        let y = net.forward(&x, &mut ctx);
        assert_eq!(y.shape().dims(), &[1, 7]);
    }

    #[test]
    fn tiny_resnet_trains_one_step() {
        let mut rng = StdRng::seed_from_u64(3);
        let net = ResNet::new(ResNetConfig::tiny(3), &mut rng);
        let mut ctx = Ctx::training();
        let x = ctx.input(Tensor::randn([2, 3, 8, 8], &mut rng));
        let logits = net.forward(&x, &mut ctx);
        let loss = logits.cross_entropy(&[0, 2]);
        let grads = loss.backward();
        let with_grads = ctx.bindings().iter().filter(|(_, v)| grads.get(v).is_some()).count();
        assert_eq!(with_grads, ctx.bindings().len(), "all params need grads");
        assert!(loss.value().item().is_finite());
    }

    #[test]
    fn param_counts_scale_with_width() {
        let mut rng = StdRng::seed_from_u64(4);
        let small = ResNet::new(ResNetConfig::resnet18(4, 10), &mut rng);
        let large = ResNet::new(ResNetConfig::resnet18(8, 10), &mut rng);
        assert!(large.param_count() > small.param_count() * 3);
    }

    #[test]
    fn segments_chain_bit_identically_to_forward() {
        let mut rng = StdRng::seed_from_u64(6);
        let net = ResNet::new(ResNetConfig::resnet18(4, 10), &mut rng);
        assert_eq!(net.num_segments(), net.blocks.len() + 2);
        let x = Tensor::randn([2, 3, 16, 16], &mut rng);

        let mut ctx = Ctx::inference();
        let xv = ctx.input(x.clone());
        let whole = net.forward(&xv, &mut ctx);
        let layers = ctx.layers_seen();

        let mut seg_ctx = Ctx::inference();
        let mut h = seg_ctx.input(x);
        for s in 0..net.num_segments() {
            h = net.forward_segment(s, &h, &mut seg_ctx);
        }
        assert_eq!(seg_ctx.layers_seen(), layers, "segment chain must number layers identically");
        let (a, b) = (whole.value(), h.value());
        assert_eq!(a.shape().dims(), b.shape().dims());
        for (p, q) in a.as_slice().iter().zip(b.as_slice().iter()) {
            assert_eq!(p.to_bits(), q.to_bits(), "segment chain must be bit-identical");
        }
    }

    #[test]
    fn downsample_blocks_present_where_needed() {
        let mut rng = StdRng::seed_from_u64(5);
        let net = ResNet::new(ResNetConfig::resnet18(4, 10), &mut rng);
        // Stage 0 block 0 has no downsample (stride 1, same width); stage 1
        // block 0 must have one.
        assert!(net.blocks[0].downsample.is_none());
        assert!(net.blocks[2].downsample.is_some());
    }
}
