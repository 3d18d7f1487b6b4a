//! Differential tests of the compute kernels: the packed register-tiled
//! SGEMM against the naive reference, and the chunk-parallel quantise
//! kernels across intra-op thread budgets. Both contracts are *bitwise* —
//! the kernels are required to be exact drop-ins, not approximations
//! (DESIGN.md §10).

use formats::FormatSpec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tensor::linalg::kernels::{self, Kernel};
use tensor::linalg::{matmul, matmul_naive};
use tensor::{parallel, Tensor};

fn random_tensor(dims: [usize; 2], rng: &mut StdRng) -> Tensor {
    let n = dims[0] * dims[1];
    Tensor::from_vec((0..n).map(|_| rng.gen_range(-2.0f32..2.0)).collect(), dims)
}

/// Bitwise equality with the NaN-payload carve-out (DESIGN.md §15): every
/// non-NaN element must match exactly; NaNs must appear at identical
/// positions but their payload bits are not pinned across ISAs.
fn assert_bits_eq(a: &Tensor, b: &Tensor, what: &str) {
    assert_eq!(a.dims(), b.dims(), "{what}: shape");
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        assert!(
            x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
            "{what}: element {i}: {x} vs {y}"
        );
    }
}

/// Restores runtime kernel dispatch on drop (including on test failure).
struct ForceGuard;
impl Drop for ForceGuard {
    fn drop(&mut self) {
        kernels::force(None);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The packed kernel is bit-exact against the naive triple loop for
    /// arbitrary shapes up to 256, including degenerate 0/1 dims (the dim
    /// generator floors at 0 so ragged, empty, and single-row/col panels
    /// all appear).
    #[test]
    fn prop_matmul_bit_exact_vs_naive(
        m in 0usize..=256, k in 0usize..=256, n in 0usize..=256, seed in 0u64..1000,
    ) {
        // Soft-cap the work so the 48-case run stays fast: shrink the
        // largest dim until m·k·n fits, preserving degenerate shapes.
        let (mut m, mut k, mut n) = (m, k, n);
        while m * k * n > 1 << 21 {
            let biggest = m.max(k).max(n);
            if m == biggest { m /= 2 } else if k == biggest { k /= 2 } else { n /= 2 }
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_tensor([m, k], &mut rng);
        let b = random_tensor([k, n], &mut rng);
        let reference = matmul_naive(&a, &b);
        for threads in [1usize, 2, 8] {
            let _guard = parallel::with_threads(threads);
            let got = matmul(&a, &b);
            prop_assert_eq!(got.dims(), reference.dims());
            for (i, (x, y)) in got.as_slice().iter().zip(reference.as_slice()).enumerate() {
                prop_assert!(
                    x.to_bits() == y.to_bits(),
                    "({},{},{}) threads={}: element {}: {} vs {}", m, k, n, threads, i, x, y
                );
            }
        }
    }

    /// Chunk-parallel quantisation is byte-identical for every intra-op
    /// thread budget (the chunk grid is a function of length, never of
    /// worker count), for every format family.
    #[test]
    fn prop_quantize_identical_across_thread_budgets(
        len in 1usize..10_000, seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Tensor::from_vec(
            (0..len).map(|_| rng.gen_range(-50.0f32..50.0)).collect(),
            [len],
        );
        for spec in ["fp:e4m3", "fxp:1:3:4", "int:8", "bfp:e5m5:b4", "afp:e4m3", "posit8"] {
            let f = spec.parse::<FormatSpec>().unwrap().build();
            let serial = {
                let _g = parallel::with_threads(1);
                f.real_to_format_tensor(&x)
            };
            for threads in [2usize, 8] {
                let _g = parallel::with_threads(threads);
                let q = f.real_to_format_tensor(&x);
                prop_assert_eq!(&q.meta, &serial.meta, "{} meta, {} threads", spec, threads);
                for (i, (a, b)) in
                    q.values.as_slice().iter().zip(serial.values.as_slice()).enumerate()
                {
                    prop_assert!(
                        a.to_bits() == b.to_bits(),
                        "{} threads={}: element {}: {} vs {}", spec, threads, i, a, b
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The forced-fallback differential matrix: every supported micro-kernel
    /// (scalar / AVX2 / AVX-512 as the host allows) × thread budget must
    /// agree with the forced-scalar single-thread baseline byte-for-byte,
    /// ragged shapes included. This is the suite the CI `kernel-matrix` job
    /// replays under each `GOLDENEYE_KERNEL` value.
    #[test]
    fn prop_forced_kernels_match_scalar(
        m in 0usize..=80, k in 0usize..=80, n in 0usize..=80, seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_tensor([m, k], &mut rng);
        let b = random_tensor([k, n], &mut rng);
        // Pre-quantise the operands with a toy mid-precision quantiser,
        // as an emulated layer's inputs are.
        let quant = |x: f32| (x * 8.0).round() * 0.125;
        let (a, b) = (a.map(quant), b.map(quant));
        let _restore = ForceGuard;
        kernels::force(Some(Kernel::Scalar));
        let base = {
            let _g = parallel::with_threads(1);
            matmul(&a, &b)
        };
        for kern in kernels::supported_kernels() {
            kernels::force(Some(kern));
            for threads in [1usize, 2, 8] {
                let _g = parallel::with_threads(threads);
                let got = matmul(&a, &b);
                prop_assert_eq!(got.dims(), base.dims());
                for (i, (x, y)) in got.as_slice().iter().zip(base.as_slice()).enumerate() {
                    prop_assert!(
                        x.to_bits() == y.to_bits(),
                        "({},{},{}) {:?} threads={}: element {}: {} vs {}",
                        m, k, n, kern, threads, i, x, y
                    );
                }
            }
        }
    }
}

/// NaN and Inf flow through every forced kernel exactly like the scalar
/// loop (NaN-for-NaN at identical positions; payloads are not pinned
/// across ISAs — DESIGN.md §15). Ragged shape so edge tiles are hit too.
#[test]
fn forced_kernels_propagate_nan_inf_like_scalar() {
    let (m, k, n) = (6usize, 5, 19);
    let mut rng = StdRng::seed_from_u64(11);
    let mut av: Vec<f32> = (0..m * k).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
    let mut bv: Vec<f32> = (0..k * n).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
    av[0] = f32::NAN;
    av[k + 1] = f32::INFINITY;
    bv[2 * n + 3] = f32::NEG_INFINITY;
    bv[n - 1] = f32::NAN;
    let a = Tensor::from_vec(av, [m, k]);
    let b = Tensor::from_vec(bv, [k, n]);
    let _restore = ForceGuard;
    kernels::force(Some(Kernel::Scalar));
    let base = {
        let _g = parallel::with_threads(1);
        matmul(&a, &b)
    };
    assert!(base.as_slice().iter().any(|x| x.is_nan()), "fixture must produce NaNs");
    for kern in kernels::supported_kernels() {
        kernels::force(Some(kern));
        for threads in [1usize, 8] {
            let _g = parallel::with_threads(threads);
            assert_bits_eq(&matmul(&a, &b), &base, &format!("{kern:?} threads={threads}"));
        }
    }
}

/// End to end: the canonical per-trial campaign records are byte-identical
/// under every forced kernel. The kernel layer is a pure performance
/// lever — no campaign statistic may move.
#[test]
fn campaign_records_identical_across_kernels() {
    use goldeneye::{run_campaign, CampaignConfig, GoldenEye};
    use inject::SiteKind;
    let mut rng = StdRng::seed_from_u64(1);
    let model = models::ResNet::new(models::ResNetConfig::tiny(4), &mut rng);
    let data = models::SyntheticDataset::generate(16, 16, 4, 5);
    let (x, y) = data.head_batch(4);
    let ge = GoldenEye::parse("fp:e4m3").expect("valid spec");
    let cfg = CampaignConfig {
        injections_per_layer: 2,
        kind: SiteKind::Value,
        seed: 17,
        jobs: 1,
        ..Default::default()
    };
    let _restore = ForceGuard;
    kernels::force(Some(Kernel::Scalar));
    let reference = run_campaign(&ge, &model, &x, &y, &cfg).canonical_trial_jsonl();
    assert!(!reference.is_empty());
    for kern in kernels::supported_kernels() {
        kernels::force(Some(kern));
        let got = run_campaign(&ge, &model, &x, &y, &cfg).canonical_trial_jsonl();
        assert!(got == reference, "campaign records diverged under {kern:?}");
    }
}

/// The historical zero-skip dropped NaN/Inf propagation; the packed kernel
/// must not. Pinned here at the integration level on top of the unit test
/// in crates/tensor so a kernel swap can't silently regress it.
#[test]
fn matmul_propagates_nan_and_inf_through_zeros() {
    let a = Tensor::from_vec(vec![0.0, 1.0, f32::NAN, 0.0], [2, 2]);
    let b = Tensor::from_vec(vec![f32::INFINITY, 0.0, 0.0, 1.0], [2, 2]);
    let got = matmul(&a, &b);
    let reference = matmul_naive(&a, &b);
    // Row 0: 0·Inf + 1·0 = NaN; row 1: NaN·Inf + 0·0 = NaN.
    assert!(got.as_slice()[0].is_nan());
    assert!(got.as_slice()[2].is_nan());
    assert_bits_eq(&got, &reference, "NaN/Inf propagation");
}

/// conv2d through the workspace scratch pool stays bit-identical across
/// thread budgets too (its panel-streaming GEMM inherits the sgemm
/// contract).
#[test]
fn conv2d_bit_identical_across_thread_budgets() {
    let mut rng = StdRng::seed_from_u64(7);
    let x = Tensor::from_vec(
        (0..2 * 3 * 12 * 12).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
        [2, 3, 12, 12],
    );
    let w = Tensor::from_vec(
        (0..4 * 3 * 3 * 3).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
        [4, 3, 3, 3],
    );
    let spec = tensor::Conv2dSpec { kernel: 3, stride: 1, padding: 1 };
    let serial = {
        let _g = parallel::with_threads(1);
        tensor::conv::conv2d(&x, &w, None, spec)
    };
    for threads in [2usize, 8] {
        let _g = parallel::with_threads(threads);
        let got = tensor::conv::conv2d(&x, &w, None, spec);
        assert_bits_eq(&got, &serial, "conv2d");
    }
}
