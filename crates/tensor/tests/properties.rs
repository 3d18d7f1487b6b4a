//! Property-based tests of the tensor substrate: algebraic identities of
//! the kernels and gradient checks of the autograd tape on random inputs.

use proptest::prelude::*;
use tensor::{linalg, ops, Conv2dSpec, Tape, Tensor};

fn tensor_strategy(max_len: usize) -> impl Strategy<Value = Tensor> {
    prop::collection::vec(-10.0f32..10.0, 1..max_len).prop_map(|v| {
        let n = v.len();
        Tensor::from_vec(v, [n])
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn add_commutes(a in tensor_strategy(64)) {
        let b = a.map(|x| x * 0.5 - 1.0);
        prop_assert_eq!(ops::add(&a, &b), ops::add(&b, &a));
    }

    #[test]
    fn add_zero_is_identity(a in tensor_strategy(64)) {
        let z = Tensor::zeros(a.shape().clone());
        prop_assert_eq!(ops::add(&a, &z), a);
    }

    #[test]
    fn mul_distributes_over_add(a in tensor_strategy(32)) {
        let b = a.map(|x| x + 1.0);
        let c = a.map(|x| x - 2.0);
        let lhs = ops::mul(&a, &ops::add(&b, &c));
        let rhs = ops::add(&ops::mul(&a, &b), &ops::mul(&a, &c));
        prop_assert!(lhs.allclose(&rhs, 1e-3), "distributivity failed");
    }

    #[test]
    fn relu_is_idempotent_and_nonnegative(a in tensor_strategy(64)) {
        let r = ops::relu(&a);
        prop_assert_eq!(ops::relu(&r), r.clone());
        prop_assert!(r.min_all() >= 0.0);
    }

    #[test]
    fn softmax_rows_sum_to_one(rows in 1usize..5, cols in 1usize..8, seed in 0u64..100) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Tensor::randn([rows, cols], &mut rng);
        let s = ops::softmax_lastdim(&x);
        for row in s.as_slice().chunks(cols) {
            let sum: f32 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-5, "row sum {sum}");
            prop_assert!(row.iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }

    #[test]
    fn transpose_is_involution(rows in 1usize..6, cols in 1usize..6, seed in 0u64..100) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Tensor::randn([rows, cols], &mut rng);
        prop_assert_eq!(ops::transpose2(&ops::transpose2(&x)), x);
    }

    #[test]
    fn matmul_identity_left(n in 1usize..8, seed in 0u64..100) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Tensor::randn([n, n], &mut rng);
        let mut eye = Tensor::zeros([n, n]);
        for i in 0..n {
            eye.set(&[i, i], 1.0);
        }
        prop_assert!(linalg::matmul(&eye, &x).allclose(&x, 1e-5));
    }

    #[test]
    fn matmul_transpose_identity(m in 1usize..5, k in 1usize..5, n in 1usize..5, seed in 0u64..50) {
        // (A·B)ᵀ = Bᵀ·Aᵀ
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Tensor::randn([m, k], &mut rng);
        let b = Tensor::randn([k, n], &mut rng);
        let lhs = ops::transpose2(&linalg::matmul(&a, &b));
        let rhs = linalg::matmul(&ops::transpose2(&b), &ops::transpose2(&a));
        prop_assert!(lhs.allclose(&rhs, 1e-4));
    }

    #[test]
    fn conv_linearity(seed in 0u64..50) {
        // conv(x1 + x2, w) = conv(x1, w) + conv(x2, w)
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let spec = Conv2dSpec::new(3, 1, 1);
        let x1 = Tensor::randn([1, 2, 5, 5], &mut rng);
        let x2 = Tensor::randn([1, 2, 5, 5], &mut rng);
        let w = Tensor::randn([3, 2, 3, 3], &mut rng);
        let lhs = tensor::conv::conv2d(&ops::add(&x1, &x2), &w, None, spec);
        let rhs = ops::add(
            &tensor::conv::conv2d(&x1, &w, None, spec),
            &tensor::conv::conv2d(&x2, &w, None, spec),
        );
        prop_assert!(lhs.allclose(&rhs, 1e-3));
    }

    #[test]
    fn autograd_sum_of_composite_matches_finite_difference(seed in 0u64..40) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let x0 = Tensor::randn([6], &mut rng);
        // f(x) = sum(relu(x)·x + 2x)
        let f = |t: &Tensor| {
            ops::add(&ops::mul(&ops::relu(t), t), &ops::scale(t, 2.0)).sum_all()
        };
        let tape = Tape::new();
        let x = tape.leaf(x0.clone());
        let y = x.relu().mul(&x).add(&x.scale(2.0)).sum_all();
        let grads = y.backward();
        let gx = grads.get(&x).unwrap();
        let eps = 1e-2;
        for i in 0..6 {
            // Skip points near the ReLU kink where the FD estimate is bad.
            if x0.as_slice()[i].abs() < 0.05 {
                continue;
            }
            let mut xp = x0.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x0.clone();
            xm.as_mut_slice()[i] -= eps;
            let fd = (f(&xp) - f(&xm)) / (2.0 * eps);
            prop_assert!(
                (gx.as_slice()[i] - fd).abs() < 0.05,
                "grad[{i}] = {} vs fd {}", gx.as_slice()[i], fd
            );
        }
    }

    #[test]
    fn reduce_to_shape_preserves_total(seed in 0u64..50, rows in 1usize..4, cols in 1usize..4) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let g = Tensor::randn([rows, cols], &mut rng);
        // Reducing to any broadcastable shape preserves the gradient sum.
        let r1 = ops::reduce_to_shape(&g, &tensor::Shape::new(vec![cols]));
        let r2 = ops::reduce_to_shape(&g, &tensor::Shape::new(vec![rows, 1]));
        let r3 = ops::reduce_to_shape(&g, &tensor::Shape::scalar());
        prop_assert!((r1.sum_all() - g.sum_all()).abs() < 1e-3);
        prop_assert!((r2.sum_all() - g.sum_all()).abs() < 1e-3);
        prop_assert!((r3.sum_all() - g.sum_all()).abs() < 1e-3);
    }

    #[test]
    fn maxpool_output_bounded_by_input(seed in 0u64..50) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Tensor::randn([1, 2, 6, 6], &mut rng);
        let (y, _) = tensor::conv::maxpool2d(&x, 2, 2);
        prop_assert!(y.max_all() <= x.max_all());
        prop_assert!(y.min_all() >= x.min_all());
    }
}
