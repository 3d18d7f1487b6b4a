//! Core layers: convolution, linear, activations, pooling, and sequencing.

use crate::init::kaiming_normal;
use crate::module::{Ctx, LayerKind, Module, Param};
use rand::Rng;
use tensor::{Conv2dSpec, Tensor, Var};

/// 2-D convolution layer (NCHW).
#[derive(Debug)]
pub struct Conv2d {
    name: String,
    weight: Param,
    bias: Option<Param>,
    spec: Conv2dSpec,
}

impl Conv2d {
    /// Creates a convolution with Kaiming-initialised weights.
    #[allow(clippy::too_many_arguments)] // mirrors the torch.nn.Conv2d signature
    pub fn new(
        name: impl Into<String>,
        in_ch: usize,
        out_ch: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        bias: bool,
        rng: &mut impl Rng,
    ) -> Self {
        let name = name.into();
        let fan_in = in_ch * kernel * kernel;
        let weight = Param::new(
            format!("{name}.weight"),
            kaiming_normal(&[out_ch, in_ch, kernel, kernel], fan_in, rng),
        );
        let bias = bias.then(|| Param::new(format!("{name}.bias"), Tensor::zeros([out_ch])));
        Conv2d { name, weight, bias, spec: Conv2dSpec::new(kernel, stride, padding) }
    }

    /// The layer's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The weight parameter.
    pub fn weight(&self) -> &Param {
        &self.weight
    }
}

impl Module for Conv2d {
    fn forward(&self, x: &Var, ctx: &mut Ctx) -> Var {
        let w = ctx.var_of(&self.weight);
        let b = self.bias.as_ref().map(|b| ctx.var_of(b));
        let y = x.conv2d(&w, b.as_ref(), self.spec);
        ctx.hook_output(LayerKind::Conv, &self.name, y)
    }

    fn visit_params(&self, f: &mut dyn FnMut(&Param)) {
        f(&self.weight);
        if let Some(b) = &self.bias {
            f(b);
        }
    }
}

/// Fully-connected layer. Accepts inputs of any rank ≥ 2 by flattening
/// leading dimensions.
#[derive(Debug)]
pub struct Linear {
    name: String,
    weight: Param, // [in, out]
    bias: Option<Param>,
}

impl Linear {
    /// Creates a linear layer with Kaiming-initialised weights.
    pub fn new(
        name: impl Into<String>,
        in_features: usize,
        out_features: usize,
        bias: bool,
        rng: &mut impl Rng,
    ) -> Self {
        let name = name.into();
        let weight = Param::new(
            format!("{name}.weight"),
            kaiming_normal(&[in_features, out_features], in_features, rng),
        );
        let bias = bias.then(|| Param::new(format!("{name}.bias"), Tensor::zeros([out_features])));
        Linear { name, weight, bias }
    }

    /// The layer's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The weight parameter (`[in, out]`).
    pub fn weight(&self) -> &Param {
        &self.weight
    }

    /// Applies the affine map without the instrumentation hook (used
    /// internally by attention, which hooks at coarser granularity).
    pub fn apply_raw(&self, x: &Var, ctx: &mut Ctx) -> Var {
        let w = ctx.var_of(&self.weight);
        let dims = x.shape().dims().to_vec();
        let nd = dims.len();
        assert!(nd >= 2, "Linear expects rank ≥ 2, got {:?}", dims);
        let in_f = dims[nd - 1];
        let lead: usize = dims[..nd - 1].iter().product();
        let flat = x.reshape([lead, in_f]);
        let mut y = flat.matmul(&w);
        if let Some(b) = &self.bias {
            let bv = ctx.var_of(b);
            y = y.add(&bv);
        }
        let out_f = y.shape().dims()[1];
        let mut out_dims = dims;
        out_dims[nd - 1] = out_f;
        y.reshape(out_dims)
    }
}

impl Module for Linear {
    fn forward(&self, x: &Var, ctx: &mut Ctx) -> Var {
        let y = self.apply_raw(x, ctx);
        ctx.hook_output(LayerKind::Linear, &self.name, y)
    }

    fn visit_params(&self, f: &mut dyn FnMut(&Param)) {
        f(&self.weight);
        if let Some(b) = &self.bias {
            f(b);
        }
    }
}

/// ReLU activation.
#[derive(Debug, Default)]
pub struct Relu {
    name: String,
}

impl Relu {
    /// Creates a named ReLU.
    pub fn new(name: impl Into<String>) -> Self {
        Relu { name: name.into() }
    }
}

impl Module for Relu {
    fn forward(&self, x: &Var, ctx: &mut Ctx) -> Var {
        ctx.hook_output(LayerKind::Activation, &self.name, x.relu())
    }

    fn visit_params(&self, _f: &mut dyn FnMut(&Param)) {}
}

/// GELU activation (tanh approximation).
#[derive(Debug, Default)]
pub struct Gelu {
    name: String,
}

impl Gelu {
    /// Creates a named GELU.
    pub fn new(name: impl Into<String>) -> Self {
        Gelu { name: name.into() }
    }
}

impl Module for Gelu {
    fn forward(&self, x: &Var, ctx: &mut Ctx) -> Var {
        ctx.hook_output(LayerKind::Activation, &self.name, x.gelu())
    }

    fn visit_params(&self, _f: &mut dyn FnMut(&Param)) {}
}

/// Sigmoid activation.
#[derive(Debug, Default)]
pub struct Sigmoid {
    name: String,
}

impl Sigmoid {
    /// Creates a named sigmoid.
    pub fn new(name: impl Into<String>) -> Self {
        Sigmoid { name: name.into() }
    }
}

impl Module for Sigmoid {
    fn forward(&self, x: &Var, ctx: &mut Ctx) -> Var {
        ctx.hook_output(LayerKind::Activation, &self.name, x.sigmoid())
    }

    fn visit_params(&self, _f: &mut dyn FnMut(&Param)) {}
}

/// Tanh activation.
#[derive(Debug, Default)]
pub struct Tanh {
    name: String,
}

impl Tanh {
    /// Creates a named tanh.
    pub fn new(name: impl Into<String>) -> Self {
        Tanh { name: name.into() }
    }
}

impl Module for Tanh {
    fn forward(&self, x: &Var, ctx: &mut Ctx) -> Var {
        ctx.hook_output(LayerKind::Activation, &self.name, x.tanh())
    }

    fn visit_params(&self, _f: &mut dyn FnMut(&Param)) {}
}

/// SiLU / swish activation.
#[derive(Debug, Default)]
pub struct Silu {
    name: String,
}

impl Silu {
    /// Creates a named SiLU.
    pub fn new(name: impl Into<String>) -> Self {
        Silu { name: name.into() }
    }
}

impl Module for Silu {
    fn forward(&self, x: &Var, ctx: &mut Ctx) -> Var {
        ctx.hook_output(LayerKind::Activation, &self.name, x.silu())
    }

    fn visit_params(&self, _f: &mut dyn FnMut(&Param)) {}
}

/// Inverted dropout: active only in training passes, where surviving
/// activations are scaled by `1/(1−p)` so inference needs no rescaling.
#[derive(Debug)]
pub struct Dropout {
    prob: f32,
    // Mutex (not RefCell) so Dropout-bearing modules stay `Sync` for the
    // parallel campaign executor; uncontended in practice since training
    // passes are single-threaded.
    rng: std::sync::Mutex<rand::rngs::StdRng>,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `prob`, seeded for
    /// reproducibility.
    ///
    /// # Panics
    ///
    /// Panics if `prob ∉ [0, 1)`.
    pub fn new(prob: f32, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&prob), "drop probability {prob} out of [0,1)");
        use rand::SeedableRng;
        Dropout { prob, rng: std::sync::Mutex::new(rand::rngs::StdRng::seed_from_u64(seed)) }
    }
}

impl Module for Dropout {
    fn forward(&self, x: &Var, ctx: &mut Ctx) -> Var {
        if !ctx.is_training() || self.prob == 0.0 {
            return x.clone();
        }
        let keep = 1.0 - self.prob;
        let mut rng = self.rng.lock().unwrap_or_else(|p| p.into_inner());
        let mask = Tensor::from_vec(
            (0..x.shape().numel())
                .map(|_| if rng.gen_range(0.0f32..1.0) < keep { 1.0 / keep } else { 0.0 })
                .collect(),
            x.shape().clone(),
        );
        let mask = ctx.constant(mask);
        x.mul(&mask)
    }

    fn visit_params(&self, _f: &mut dyn FnMut(&Param)) {}
}

/// 2-D average pooling.
#[derive(Debug)]
pub struct AvgPool2d {
    name: String,
    kernel: usize,
    stride: usize,
}

impl AvgPool2d {
    /// Creates an average-pool layer.
    pub fn new(name: impl Into<String>, kernel: usize, stride: usize) -> Self {
        AvgPool2d { name: name.into(), kernel, stride }
    }
}

impl Module for AvgPool2d {
    fn forward(&self, x: &Var, ctx: &mut Ctx) -> Var {
        ctx.hook_output(LayerKind::Pool, &self.name, x.avgpool2d(self.kernel, self.stride))
    }

    fn visit_params(&self, _f: &mut dyn FnMut(&Param)) {}
}

/// 2-D max pooling.
#[derive(Debug)]
pub struct MaxPool2d {
    name: String,
    kernel: usize,
    stride: usize,
}

impl MaxPool2d {
    /// Creates a max-pool layer.
    pub fn new(name: impl Into<String>, kernel: usize, stride: usize) -> Self {
        MaxPool2d { name: name.into(), kernel, stride }
    }
}

impl Module for MaxPool2d {
    fn forward(&self, x: &Var, ctx: &mut Ctx) -> Var {
        ctx.hook_output(LayerKind::Pool, &self.name, x.maxpool2d(self.kernel, self.stride))
    }

    fn visit_params(&self, _f: &mut dyn FnMut(&Param)) {}
}

/// Global average pooling `[N,C,H,W] → [N,C]`.
#[derive(Debug, Default)]
pub struct GlobalAvgPool {
    name: String,
}

impl GlobalAvgPool {
    /// Creates a global-average-pool layer.
    pub fn new(name: impl Into<String>) -> Self {
        GlobalAvgPool { name: name.into() }
    }
}

impl Module for GlobalAvgPool {
    fn forward(&self, x: &Var, ctx: &mut Ctx) -> Var {
        ctx.hook_output(LayerKind::Pool, &self.name, x.global_avg_pool())
    }

    fn visit_params(&self, _f: &mut dyn FnMut(&Param)) {}
}

/// Flattens all dimensions after the first.
#[derive(Debug, Default)]
pub struct Flatten;

impl Module for Flatten {
    fn forward(&self, x: &Var, _ctx: &mut Ctx) -> Var {
        let dims = x.shape().dims().to_vec();
        let rest: usize = dims[1..].iter().product();
        x.reshape([dims[0], rest])
    }

    fn visit_params(&self, _f: &mut dyn FnMut(&Param)) {}
}

/// A sequence of modules applied in order.
pub struct Sequential {
    modules: Vec<Box<dyn Module>>,
}

impl Sequential {
    /// Creates an empty sequence.
    pub fn new() -> Self {
        Sequential { modules: Vec::new() }
    }

    /// Appends a module (builder style).
    pub fn push(mut self, m: impl Module + 'static) -> Self {
        self.modules.push(Box::new(m));
        self
    }

    /// Number of child modules.
    pub fn len(&self) -> usize {
        self.modules.len()
    }

    /// True if the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.modules.is_empty()
    }
}

impl Default for Sequential {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Sequential({} modules)", self.modules.len())
    }
}

impl Module for Sequential {
    fn forward(&self, x: &Var, ctx: &mut Ctx) -> Var {
        let mut cur = x.clone();
        for m in &self.modules {
            cur = m.forward(&cur, ctx);
        }
        cur
    }

    fn visit_params(&self, f: &mut dyn FnMut(&Param)) {
        for m in &self.modules {
            m.visit_params(f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn linear_forward_shape_and_bias() {
        let mut rng = StdRng::seed_from_u64(1);
        let fc = Linear::new("fc", 4, 3, true, &mut rng);
        let mut ctx = Ctx::inference();
        let x = ctx.input(Tensor::ones([2, 4]));
        let y = fc.forward(&x, &mut ctx);
        assert_eq!(y.shape().dims(), &[2, 3]);
        assert_eq!(ctx.layers_seen(), 1);
    }

    #[test]
    fn linear_handles_3d_input() {
        let mut rng = StdRng::seed_from_u64(2);
        let fc = Linear::new("fc", 8, 5, true, &mut rng);
        let mut ctx = Ctx::inference();
        let x = ctx.input(Tensor::ones([2, 3, 8]));
        let y = fc.forward(&x, &mut ctx);
        assert_eq!(y.shape().dims(), &[2, 3, 5]);
    }

    #[test]
    fn conv_forward_shape() {
        let mut rng = StdRng::seed_from_u64(3);
        let conv = Conv2d::new("c", 3, 8, 3, 1, 1, true, &mut rng);
        let mut ctx = Ctx::inference();
        let x = ctx.input(Tensor::ones([2, 3, 8, 8]));
        let y = conv.forward(&x, &mut ctx);
        assert_eq!(y.shape().dims(), &[2, 8, 8, 8]);
    }

    #[test]
    fn sequential_composes_and_collects_params() {
        let mut rng = StdRng::seed_from_u64(4);
        let net = Sequential::new()
            .push(Conv2d::new("c1", 1, 4, 3, 1, 1, false, &mut rng))
            .push(Relu::new("r1"))
            .push(GlobalAvgPool::new("gap"))
            .push(Linear::new("fc", 4, 2, true, &mut rng));
        let mut ctx = Ctx::inference();
        let x = ctx.input(Tensor::ones([1, 1, 6, 6]));
        let y = net.forward(&x, &mut ctx);
        assert_eq!(y.shape().dims(), &[1, 2]);
        // conv.weight + fc.weight + fc.bias
        assert_eq!(net.params().len(), 3);
        assert_eq!(net.param_count(), 4 * 9 + 4 * 2 + 2);
    }

    #[test]
    fn training_pass_produces_grads_for_all_params() {
        let mut rng = StdRng::seed_from_u64(5);
        let net = Sequential::new()
            .push(Conv2d::new("c1", 1, 2, 3, 1, 1, true, &mut rng))
            .push(Relu::new("r"))
            .push(GlobalAvgPool::new("gap"))
            .push(Linear::new("fc", 2, 2, true, &mut rng));
        let mut ctx = Ctx::training();
        let x = ctx.input(Tensor::ones([2, 1, 4, 4]));
        let logits = net.forward(&x, &mut ctx);
        let loss = logits.cross_entropy(&[0, 1]);
        let grads = loss.backward();
        for (p, v) in ctx.bindings() {
            assert!(grads.get(v).is_some(), "parameter {} received no gradient", p.name());
        }
    }

    #[test]
    fn extra_activations_forward() {
        let mut ctx = Ctx::inference();
        let x = ctx.input(Tensor::from_vec(vec![-2.0, 0.0, 2.0], [3]));
        let s = Sigmoid::new("s").forward(&x, &mut ctx).value();
        assert!((s.as_slice()[1] - 0.5).abs() < 1e-6);
        assert!(s.as_slice()[0] < 0.2 && s.as_slice()[2] > 0.8);
        let t = Tanh::new("t").forward(&x, &mut ctx).value();
        assert!((t.as_slice()[2] - 2.0f32.tanh()).abs() < 1e-6);
        let si = Silu::new("si").forward(&x, &mut ctx).value();
        assert!((si.as_slice()[1]).abs() < 1e-6);
    }

    #[test]
    fn dropout_inference_is_identity_training_is_not() {
        let d = Dropout::new(0.5, 7);
        let x0 = Tensor::ones([200]);
        let mut infer = Ctx::inference();
        let xi = infer.input(x0.clone());
        assert_eq!(d.forward(&xi, &mut infer).value(), x0);
        let mut train = Ctx::training();
        let xt = train.input(x0.clone());
        let y = d.forward(&xt, &mut train).value();
        let zeros = y.as_slice().iter().filter(|&&v| v == 0.0).count();
        assert!((60..140).contains(&zeros), "dropped {zeros}/200 at p=0.5");
        // Survivors are scaled by 1/keep.
        assert!(y.as_slice().iter().all(|&v| v == 0.0 || (v - 2.0).abs() < 1e-6));
        // Expectation is preserved (within sampling noise).
        assert!((y.mean_all() - 1.0).abs() < 0.25);
    }

    #[test]
    fn avgpool_layer_shape_and_value() {
        let mut ctx = Ctx::inference();
        let x = ctx.input(Tensor::ones([1, 2, 4, 4]));
        let y = AvgPool2d::new("ap", 2, 2).forward(&x, &mut ctx);
        assert_eq!(y.shape().dims(), &[1, 2, 2, 2]);
        assert_eq!(y.value().as_slice()[0], 1.0);
    }

    #[test]
    fn flatten_shapes() {
        let mut ctx = Ctx::inference();
        let x = ctx.input(Tensor::ones([2, 3, 4, 5]));
        let y = Flatten.forward(&x, &mut ctx);
        assert_eq!(y.shape().dims(), &[2, 60]);
    }

    #[test]
    fn maxpool_halves_spatial() {
        let mut ctx = Ctx::inference();
        let x = ctx.input(Tensor::ones([1, 2, 8, 8]));
        let y = MaxPool2d::new("mp", 2, 2).forward(&x, &mut ctx);
        assert_eq!(y.shape().dims(), &[1, 2, 4, 4]);
    }

    #[test]
    fn conv_forward_reuses_panel_workspace() {
        // Repeated Conv2d forwards on one thread must serve their packed
        // weight and B-panel scratch from the workspace pool instead of
        // reallocating — the inference-loop guarantee the campaign
        // executor relies on.
        let _serial = tensor::parallel::with_threads(1);
        let mut rng = StdRng::seed_from_u64(3);
        let conv = Conv2d::new("c", 2, 4, 3, 1, 1, true, &mut rng);
        let run = |conv: &Conv2d| {
            let mut ctx = Ctx::inference();
            let x = ctx.input(Tensor::ones([1, 2, 8, 8]));
            conv.forward(&x, &mut ctx)
        };
        let first = run(&conv);
        tensor::workspace::stats::reset();
        let second = run(&conv);
        let (hits, misses) = tensor::workspace::stats::snapshot();
        assert_eq!(first.value(), second.value(), "forward must be deterministic");
        assert!(hits > 0, "second forward allocated fresh scratch (hits=0, misses={misses})");
        assert_eq!(misses, 0, "warm pool should serve every take ({misses} misses)");
    }
}
