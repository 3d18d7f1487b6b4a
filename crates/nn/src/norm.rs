//! Normalisation layers: batch norm (CNNs) and layer norm (transformers).

use crate::module::{Ctx, LayerKind, Module, Param};
use tensor::{ops, Tensor, Var};

/// Batch normalisation over `[N, C, H, W]` (per-channel statistics).
///
/// Training passes use batch statistics and update running estimates;
/// inference passes use the running estimates. The running statistics are
/// stored as (non-trainable) [`Param`]s so they persist through weight
/// save/load and snapshots; they never receive gradients because they are
/// never lifted onto the tape.
#[derive(Debug)]
pub struct BatchNorm2d {
    name: String,
    gamma: Param,
    beta: Param,
    running_mean: Param,
    running_var: Param,
    momentum: f32,
    eps: f32,
    channels: usize,
}

impl BatchNorm2d {
    /// Creates a batch-norm layer for `channels` channels.
    pub fn new(name: impl Into<String>, channels: usize) -> Self {
        let name = name.into();
        BatchNorm2d {
            gamma: Param::new(format!("{name}.gamma"), Tensor::ones([channels])),
            beta: Param::new(format!("{name}.beta"), Tensor::zeros([channels])),
            running_mean: Param::new(format!("{name}.running_mean"), Tensor::zeros([channels])),
            running_var: Param::new(format!("{name}.running_var"), Tensor::ones([channels])),
            momentum: 0.1,
            eps: 1e-5,
            channels,
            name,
        }
    }
}

impl Module for BatchNorm2d {
    fn forward(&self, x: &Var, ctx: &mut Ctx) -> Var {
        let c = self.channels;
        assert_eq!(x.shape().dims()[1], c, "{}: channel mismatch", self.name);
        let y = if ctx.is_training() {
            let mean = x.mean_axes_keepdim(&[0, 2, 3]); // [1,C,1,1]
            let xc = x.sub(&mean);
            let var = xc.mul(&xc).mean_axes_keepdim(&[0, 2, 3]);
            // Update running statistics from the batch values (detached).
            {
                let m = mean.value().reshape([c]);
                let v = var.value().reshape([c]);
                let momentum = self.momentum;
                self.running_mean.update(|rm| {
                    for i in 0..c {
                        rm.as_mut_slice()[i] =
                            (1.0 - momentum) * rm.as_slice()[i] + momentum * m.as_slice()[i];
                    }
                });
                self.running_var.update(|rv| {
                    for i in 0..c {
                        rv.as_mut_slice()[i] =
                            (1.0 - momentum) * rv.as_slice()[i] + momentum * v.as_slice()[i];
                    }
                });
            }
            let inv_std = var.add_scalar(self.eps).sqrt().recip();
            let g = ctx.var_of(&self.gamma).reshape([1, c, 1, 1]);
            let b = ctx.var_of(&self.beta).reshape([1, c, 1, 1]);
            xc.mul(&inv_std).mul(&g).add(&b)
        } else {
            // Fold running stats and affine params into scale/shift.
            let rm = self.running_mean.get();
            let rv = self.running_var.get();
            let g = self.gamma.get();
            let b = self.beta.get();
            let mut scale = vec![0.0f32; c];
            let mut shift = vec![0.0f32; c];
            for i in 0..c {
                let s = g.as_slice()[i] / (rv.as_slice()[i] + self.eps).sqrt();
                scale[i] = s;
                shift[i] = b.as_slice()[i] - rm.as_slice()[i] * s;
            }
            // One pass, bit for bit `x.mul(scale).add(shift)` with the
            // scale and shift broadcast as `[1, C, 1, 1]`.
            ctx.constant(ops::channel_affine(&x.value(), &scale, &shift))
        };
        ctx.hook_output(LayerKind::Norm, &self.name, y)
    }

    fn visit_params(&self, f: &mut dyn FnMut(&Param)) {
        f(&self.gamma);
        f(&self.beta);
        f(&self.running_mean);
        f(&self.running_var);
    }
}

/// Layer normalisation over the last dimension.
#[derive(Debug)]
pub struct LayerNorm {
    name: String,
    gamma: Param,
    beta: Param,
    eps: f32,
    dim: usize,
}

impl LayerNorm {
    /// Creates a layer-norm over a last dimension of extent `dim`.
    pub fn new(name: impl Into<String>, dim: usize) -> Self {
        let name = name.into();
        LayerNorm {
            gamma: Param::new(format!("{name}.gamma"), Tensor::ones([dim])),
            beta: Param::new(format!("{name}.beta"), Tensor::zeros([dim])),
            eps: 1e-5,
            dim,
            name,
        }
    }
}

impl Module for LayerNorm {
    fn forward(&self, x: &Var, ctx: &mut Ctx) -> Var {
        let nd = x.shape().ndim();
        assert_eq!(x.shape().dims()[nd - 1], self.dim, "{}: last-dim mismatch", self.name);
        let y = if ctx.is_training() {
            let mean = x.mean_axes_keepdim(&[nd - 1]);
            let xc = x.sub(&mean);
            let var = xc.mul(&xc).mean_axes_keepdim(&[nd - 1]);
            let inv_std = var.add_scalar(self.eps).sqrt().recip();
            let g = ctx.var_of(&self.gamma);
            let b = ctx.var_of(&self.beta);
            xc.mul(&inv_std).mul(&g).add(&b)
        } else {
            // One row kernel, bit for bit the chain above.
            let g = ctx.var_of(&self.gamma).value();
            let b = ctx.var_of(&self.beta).value();
            ctx.constant(ops::layer_norm_lastdim(&x.value(), &g, &b, self.eps))
        };
        ctx.hook_output(LayerKind::Norm, &self.name, y)
    }

    fn visit_params(&self, f: &mut dyn FnMut(&Param)) {
        f(&self.gamma);
        f(&self.beta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn batchnorm_training_normalizes() {
        let mut rng = StdRng::seed_from_u64(1);
        let bn = BatchNorm2d::new("bn", 3);
        let mut ctx = Ctx::training();
        let x = ctx.input(tensor::Tensor::randn([4, 3, 5, 5], &mut rng));
        let y = bn.forward(&x, &mut ctx).value();
        // Per-channel mean ≈ 0, var ≈ 1 after normalisation.
        for c in 0..3 {
            let mut vals = Vec::new();
            for n in 0..4 {
                for i in 0..5 {
                    for j in 0..5 {
                        vals.push(y.at(&[n, c, i, j]));
                    }
                }
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 =
                vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "channel {c} mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "channel {c} var {var}");
        }
    }

    #[test]
    fn batchnorm_inference_uses_running_stats() {
        let mut rng = StdRng::seed_from_u64(2);
        let bn = BatchNorm2d::new("bn", 2);
        // Run several training passes so running stats converge toward the
        // batch statistics.
        for _ in 0..50 {
            let mut ctx = Ctx::training();
            let mut x = tensor::Tensor::randn([8, 2, 4, 4], &mut rng);
            x.map_inplace(|v| v * 3.0 + 1.0); // mean 1, std 3
            let xv = ctx.input(x);
            bn.forward(&xv, &mut ctx);
        }
        let mut ctx = Ctx::inference();
        let mut x = tensor::Tensor::randn([8, 2, 4, 4], &mut rng);
        x.map_inplace(|v| v * 3.0 + 1.0);
        let y = bn.forward(&ctx.input(x), &mut ctx).value();
        let mean = y.mean_all();
        assert!(mean.abs() < 0.3, "inference mean {mean} should be near 0");
    }

    #[test]
    fn batchnorm_grads_flow_to_gamma_beta() {
        let mut rng = StdRng::seed_from_u64(3);
        let bn = BatchNorm2d::new("bn", 2);
        let mut ctx = Ctx::training();
        let x = ctx.input(tensor::Tensor::randn([2, 2, 3, 3], &mut rng));
        let y = bn.forward(&x, &mut ctx);
        let loss = y.mul(&y).sum_all();
        let grads = loss.backward();
        for (p, v) in ctx.bindings() {
            assert!(grads.get(v).is_some(), "no grad for {}", p.name());
        }
    }

    /// A batch norm over `c` channels with random γ, β and running
    /// statistics, so the folded scale and shift are not 1 and 0.
    fn random_batchnorm(c: usize, seed: u64) -> BatchNorm2d {
        let mut rng = StdRng::seed_from_u64(seed);
        let bn = BatchNorm2d::new("bn", c);
        bn.gamma.set(tensor::Tensor::randn([c], &mut rng));
        bn.beta.set(tensor::Tensor::randn([c], &mut rng));
        bn.running_mean.set(tensor::Tensor::randn([c], &mut rng));
        let mut var = tensor::Tensor::randn([c], &mut rng);
        var.map_inplace(|v| v.abs() + 0.1);
        bn.running_var.set(var);
        bn
    }

    /// The inference pass's folded scale and shift, applied by the
    /// broadcast `mul`/`add` chain the one-pass kernel replaces.
    fn batchnorm_chain(bn: &BatchNorm2d, x: &tensor::Tensor) -> tensor::Tensor {
        let c = bn.channels;
        let (rm, rv, g, b) =
            (bn.running_mean.get(), bn.running_var.get(), bn.gamma.get(), bn.beta.get());
        let scale: Vec<f32> =
            (0..c).map(|i| g.as_slice()[i] / (rv.as_slice()[i] + bn.eps).sqrt()).collect();
        let shift: Vec<f32> =
            (0..c).map(|i| b.as_slice()[i] - rm.as_slice()[i] * scale[i]).collect();
        let scale = tensor::Tensor::from_vec(scale, [1, c, 1, 1]);
        let shift = tensor::Tensor::from_vec(shift, [1, c, 1, 1]);
        ops::add(&ops::mul(x, &scale), &shift)
    }

    /// Asserts that the inference pass equals [`batchnorm_chain`] bit for
    /// bit, NaN for NaN (DESIGN.md §15).
    fn assert_batchnorm_is_the_chain(bn: &BatchNorm2d, x: &tensor::Tensor) {
        let want = batchnorm_chain(bn, x);
        let mut ctx = Ctx::inference();
        let got = bn.forward(&ctx.input(x.clone()), &mut ctx).value();
        assert_eq!(got.dims(), want.dims());
        for (i, (a, b)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            assert!(
                a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()),
                "{:?} element {i}: one pass {a:e}, chain {b:e}",
                x.dims()
            );
        }
    }

    #[test]
    fn batchnorm_inference_is_the_mul_add_chain() {
        let mut rng = StdRng::seed_from_u64(9);
        for dims in [[32, 8, 32, 32], [3, 5, 7, 3], [2, 1, 4, 4], [4, 6, 1, 1], [1, 1, 1, 1]] {
            let x = tensor::Tensor::randn(dims, &mut rng);
            assert_batchnorm_is_the_chain(&random_batchnorm(dims[1], 10), &x);
        }
    }

    #[test]
    fn batchnorm_inference_matches_the_chain_on_special_values() {
        let specials = [
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            1e-45,
            -1e-45,
            1.17e-38,
            f32::MIN_POSITIVE,
            f32::MAX,
            -f32::MAX,
            1.0,
        ];
        let n = specials.len();
        for c in [1usize, 3] {
            let bn = random_batchnorm(c, 11);
            // Every special value in every channel, as 1×1 planes and as
            // one row of a wider plane.
            let data: Vec<f32> = (0..c).flat_map(|_| specials).collect();
            assert_batchnorm_is_the_chain(
                &bn,
                &tensor::Tensor::from_vec(data.clone(), [1, c, 1, n]),
            );
            let planes: Vec<f32> = specials.iter().flat_map(|&v| vec![v; c]).collect();
            assert_batchnorm_is_the_chain(&bn, &tensor::Tensor::from_vec(planes, [n, c, 1, 1]));
        }
        // Scales and shifts that are themselves special: a zero variance
        // with γ = 0 gives 0·(1/√eps), an infinite γ an infinite scale.
        let bn = BatchNorm2d::new("bn", 4);
        bn.gamma.set(tensor::Tensor::from_vec(vec![0.0, f32::INFINITY, -0.0, 1e-30], [4]));
        bn.running_var.set(tensor::Tensor::from_vec(vec![0.0, 1.0, 1e30, 1e-30], [4]));
        bn.running_mean.set(tensor::Tensor::from_vec(vec![1.0, 0.0, -2.0, f32::NAN], [4]));
        let data: Vec<f32> = (0..4).flat_map(|_| specials).collect();
        assert_batchnorm_is_the_chain(&bn, &tensor::Tensor::from_vec(data, [1, 4, 1, n]));
    }

    #[test]
    fn layernorm_normalizes_rows() {
        let mut rng = StdRng::seed_from_u64(4);
        let ln = LayerNorm::new("ln", 16);
        let mut ctx = Ctx::inference();
        let mut x = tensor::Tensor::randn([3, 16], &mut rng);
        x.map_inplace(|v| v * 5.0 - 2.0);
        let y = ln.forward(&ctx.input(x), &mut ctx).value();
        for r in 0..3 {
            let row = &y.as_slice()[r * 16..(r + 1) * 16];
            let mean: f32 = row.iter().sum::<f32>() / 16.0;
            let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 16.0;
            assert!(mean.abs() < 1e-4);
            assert!((var - 1.0).abs() < 1e-2);
        }
    }

    /// A layer norm over `dim` columns with random γ and β, so a change in
    /// the order of the affine steps cannot hide behind γ = 1, β = 0.
    fn random_layernorm(dim: usize, seed: u64) -> LayerNorm {
        let mut rng = StdRng::seed_from_u64(seed);
        let ln = LayerNorm::new("ln", dim);
        ln.gamma.set(tensor::Tensor::randn([dim], &mut rng));
        ln.beta.set(tensor::Tensor::randn([dim], &mut rng));
        ln
    }

    /// Asserts that the inference row kernel gives the training pass's
    /// composed chain bit for bit, NaN for NaN (DESIGN.md §15).
    fn assert_row_kernel_is_the_chain(ln: &LayerNorm, x: &tensor::Tensor) {
        let mut train = Ctx::training();
        let chain = ln.forward(&train.input(x.clone()), &mut train).value();
        let mut infer = Ctx::inference();
        let kernel = ln.forward(&infer.input(x.clone()), &mut infer).value();
        assert_eq!(kernel.dims(), chain.dims());
        for (i, (a, b)) in kernel.as_slice().iter().zip(chain.as_slice()).enumerate() {
            assert!(
                a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()),
                "{:?} element {i}: kernel {a:e}, chain {b:e}",
                x.dims()
            );
        }
        // The inference pass still binds γ and β (weight faults find their
        // segment through the bindings).
        assert_eq!(infer.bindings().len(), 2);
    }

    #[test]
    fn layernorm_row_kernel_is_the_composed_chain() {
        let mut rng = StdRng::seed_from_u64(6);
        for (dims, scale) in [
            (vec![8, 64, 48], 3.0),
            (vec![2, 4, 16], 0.5),
            (vec![13, 7], 1e3), // odd width; 8-row block plus 5 single rows
            (vec![5, 1], 2.0),  // width 1: every row is constant
            (vec![9, 33], 1e-30),
        ] {
            let dim = dims[dims.len() - 1];
            let mut x = tensor::Tensor::randn(dims.clone(), &mut rng);
            x.map_inplace(|v| v * scale + 0.25);
            assert_row_kernel_is_the_chain(&random_layernorm(dim, 7), &x);
        }
    }

    #[test]
    fn layernorm_row_kernel_matches_on_constant_and_non_finite_rows() {
        let ln = random_layernorm(6, 8);
        let rows: [[f32; 6]; 10] = [
            [1.5; 6], // variance 0
            [0.0; 6],
            [-0.0; 6],
            [f32::INFINITY, 1.0, 2.0, 3.0, 4.0, 5.0],
            [1.0, f32::NEG_INFINITY, 2.0, 3.0, 4.0, 5.0],
            [f32::INFINITY, f32::NEG_INFINITY, 0.0, 1.0, 2.0, 3.0],
            [1.0, 2.0, f32::NAN, 3.0, 4.0, 5.0],
            [f32::MAX, f32::MAX, -f32::MAX, 1.0, 0.0, 2.0], // sum overflows
            [1e-45, -1e-45, 0.0, 1e-45, 0.0, 0.0],          // subnormal
            [3.0, 3.0, 3.0, 3.0, 3.0, 3.000_001],
        ];
        // Nine rows: one 8-row block and one row on its own, then each row
        // alone so the single-row path sees them all too.
        for take in [9usize, 10] {
            let data: Vec<f32> = rows.iter().take(take).flatten().copied().collect();
            assert_row_kernel_is_the_chain(&ln, &tensor::Tensor::from_vec(data, [take, 6]));
        }
        for row in &rows {
            assert_row_kernel_is_the_chain(&ln, &tensor::Tensor::from_vec(row.to_vec(), [1, 6]));
        }
    }

    #[test]
    fn layernorm_3d_input() {
        let mut rng = StdRng::seed_from_u64(5);
        let ln = LayerNorm::new("ln", 8);
        let mut ctx = Ctx::inference();
        let x = ctx.input(tensor::Tensor::randn([2, 4, 8], &mut rng));
        let y = ln.forward(&x, &mut ctx);
        assert_eq!(y.shape().dims(), &[2, 4, 8]);
    }
}
