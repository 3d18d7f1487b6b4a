//! GEMM kernel benchmark: the explicit-SIMD micro-kernels (scalar /
//! AVX2 / AVX-512, whichever the host supports) forced one at a time,
//! plus runtime dispatch at 1 and N intra-op threads — all in GFLOP/s.
//!
//! Every timed cell is checked bit-identical to `matmul_naive` before it
//! is timed, so the numbers always describe the *correct* kernel — never
//! a fast-but-wrong variant. Forced kernels are additionally checked
//! byte-identical to the forced-scalar output, which is the divergence
//! gate the CI bench-smoke job relies on.
//!
//! A second table times `tensor::conv::conv2d` on each of ResNet-18's
//! conv shapes (CIFAR input, base width 8) and DeiT's 4×4/4 patch embed
//! at batch 8 and 32, under every
//! forced kernel and under dispatch, on one thread. Each conv cell is
//! checked byte-identical to the forced-scalar `conv2d` before it is
//! timed, and reports the median and quartiles of its samples.
//!
//! Writes `BENCH_gemm.json` (override with `--out`): the run manifest
//! with one row per GEMM cell (`cells`) and per conv cell
//! (`conv_cells`), per-kernel single-thread GFLOP/s and the measured
//! multicore scaling.
//!
//! Run with: `cargo run --release -p bench --bin gemm_bench
//! [--quick] [--jobs N] [--out PATH]`

use bench::BenchArgs;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tensor::conv::{conv2d, Conv2dSpec};
use tensor::linalg::kernels::{self, Kernel};
use tensor::linalg::{matmul_naive, sgemm};
use tensor::Tensor;
use trace::Json;

fn random_vec(n: usize, rng: &mut StdRng) -> Vec<f32> {
    (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

/// ResNet-18's conv shapes at CIFAR size, base width 8, and DeiT's patch
/// embed: `(label, C, O, H = W, kernel, stride, padding)`. Every one has
/// `H = stride·OH`, so every one reads its B rows in place: the stem and
/// the four stride-1 3×3 layers from the image itself, the stage-entry
/// 3×3s and 1×1 downsamples (stride 2) and the 4×4 patch embed (stride
/// 4) from the image's phase planes, split once per image.
const CONV_SHAPES: [(&str, usize, usize, usize, usize, usize, usize); 12] = [
    ("stem", 3, 8, 32, 3, 1, 1),
    ("s0.3x3", 8, 8, 32, 3, 1, 1),
    ("s1.3x3", 16, 16, 16, 3, 1, 1),
    ("s2.3x3", 32, 32, 8, 3, 1, 1),
    ("s3.3x3", 64, 64, 4, 3, 1, 1),
    ("s1.entry.3x3s2", 8, 16, 32, 3, 2, 1),
    ("s2.entry.3x3s2", 16, 32, 16, 3, 2, 1),
    ("s3.entry.3x3s2", 32, 64, 8, 3, 2, 1),
    ("s1.down.1x1s2", 8, 16, 32, 1, 2, 0),
    ("s2.down.1x1s2", 16, 32, 16, 1, 2, 0),
    ("s3.down.1x1s2", 32, 64, 8, 1, 2, 0),
    ("deit.patch.4x4s4", 3, 48, 32, 4, 4, 0),
];

/// Times `conv2d` on every [`CONV_SHAPES`] entry at batch 8 and 32, one
/// thread, under each supported kernel forced and under dispatch. Each
/// cell must first reproduce the forced-scalar output byte for byte.
fn conv_cells(quick: bool, supported: &[Kernel], rng: &mut StdRng) -> Vec<Json> {
    let samples = if quick { 5 } else { 25 };
    let mut rows = Vec::new();
    println!(
        "\nconv2d (ResNet-18 shapes, CIFAR input, base width 8, and DeiT's patch embed; \
         1 thread; GFLOP/s median [q1, q3] of {samples} samples)\n"
    );
    println!(
        "{:<16} {:>5} {:<10} {:>10} {:>10} {:>17}",
        "shape", "batch", "kernel", "median s", "GFLOP/s", "[q1, q3]"
    );
    let _one = tensor::parallel::with_threads(1);
    for (label, c, o, hw, k, stride, padding) in CONV_SHAPES {
        let spec = Conv2dSpec::new(k, stride, padding);
        let oh = spec.out_dim(hw);
        for n in [8usize, 32] {
            let x = Tensor::from_vec(random_vec(n * c * hw * hw, rng), [n, c, hw, hw]);
            let w = Tensor::from_vec(random_vec(o * c * k * k, rng), [o, c, k, k]);
            let flops = 2.0 * (n * o * oh * oh * c * k * k) as f64;
            kernels::force(Some(Kernel::Scalar));
            let scalar_out = conv2d(&x, &w, None, spec);
            let mut cells: Vec<(&str, Option<Kernel>)> =
                supported.iter().map(|&kern| (kern.name(), Some(kern))).collect();
            cells.push(("dispatch", None));
            for (kernel, forced) in cells {
                kernels::force(forced);
                let out = conv2d(&x, &w, None, spec);
                assert!(
                    out.as_slice()
                        .iter()
                        .zip(scalar_out.as_slice())
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "{kernel} conv2d diverged from forced scalar on {label} at batch {n}"
                );
                let t = bench::time(samples, 1, || drop(conv2d(&x, &w, None, spec)));
                let (q1, q3) = t.quartiles();
                let gflops = flops / t.median() / 1e9;
                let (g_q1, g_q3) = (flops / q3 / 1e9, flops / q1 / 1e9);
                println!(
                    "{label:<16} {n:>5} {kernel:<10} {:>10.5} {gflops:>10.2} [{g_q1:>6.2}, {g_q3:>6.2}]",
                    t.median()
                );
                rows.push(Json::obj([
                    ("shape", Json::from(label)),
                    ("c", Json::from(c)),
                    ("o", Json::from(o)),
                    ("hw", Json::from(hw)),
                    ("kernel_size", Json::from(k)),
                    ("stride", Json::from(stride)),
                    ("padding", Json::from(padding)),
                    ("batch", Json::from(n)),
                    ("kernel", Json::from(kernel)),
                    ("samples", Json::from(samples)),
                    ("seconds", Json::Num(t.median())),
                    ("gflops", Json::Num(gflops)),
                    ("gflops_q1", Json::Num(g_q1)),
                    ("gflops_q3", Json::Num(g_q3)),
                ]));
            }
            kernels::force(None);
        }
    }
    rows
}

fn main() {
    let args = BenchArgs::parse();
    let quick = args.quick;
    let max_threads = if args.jobs <= 1 {
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(4)
    } else {
        args.jobs
    };
    let sizes: &[usize] = if quick { &[64, 128, 256] } else { &[64, 128, 256, 512, 1024] };
    let reps = |m: usize| {
        if m <= 128 {
            40
        } else if m <= 512 {
            12
        } else {
            4
        }
    };
    let supported = kernels::supported_kernels();
    // The thread budget the pool actually grants for the N-thread cells.
    let threads_effective = {
        let _g = tensor::parallel::with_threads(max_threads.max(2));
        tensor::parallel::max_threads()
    };

    let mut manifest = trace::RunManifest::new("bench gemm_bench")
        .with_config("quick", quick)
        .with_config("max_threads", max_threads)
        .with_config("sizes", Json::Arr(sizes.iter().map(|&s| Json::from(s)).collect()))
        .with_config(
            "kernels_supported",
            Json::Arr(supported.iter().map(|k| Json::from(k.name())).collect()),
        );
    let mut rows: Vec<Json> = Vec::new();
    // (size -> GFLOP/s) cells feeding the summary ratios.
    let mut dispatch1 = std::collections::BTreeMap::new();
    let mut dispatch_n = std::collections::BTreeMap::new();
    let mut per_kernel1: std::collections::BTreeMap<(&'static str, usize), f64> =
        std::collections::BTreeMap::new();

    println!(
        "GEMM kernels (square m=k=n, f32, GFLOP/s; best of reps; dispatch = {:?})\n",
        kernels::active()
    );
    println!("{:<8} {:<18} {:>8} {:>10} {:>10}", "size", "kernel", "threads", "seconds", "GFLOP/s");
    let mut rng = StdRng::seed_from_u64(0x6E33);
    for &m in sizes {
        let (k, n) = (m, m);
        let a = random_vec(m * k, &mut rng);
        let b = random_vec(k * n, &mut rng);
        let flops = 2.0 * (m as f64) * (k as f64) * (n as f64);
        let reference = {
            let at = Tensor::from_vec(a.clone(), [m, k]);
            let bt = Tensor::from_vec(b.clone(), [k, n]);
            matmul_naive(&at, &bt)
        };
        // Divergence gate baseline: the forced-scalar kernel's output.
        let scalar_out = {
            kernels::force(Some(Kernel::Scalar));
            let _g = tensor::parallel::with_threads(1);
            let mut out = vec![0.0f32; m * n];
            sgemm(m, k, n, &a, &b, &mut out);
            kernels::force(None);
            out
        };
        assert!(
            scalar_out.iter().zip(reference.as_slice()).all(|(x, y)| x.to_bits() == y.to_bits()),
            "scalar kernel diverged from matmul_naive at {m}³"
        );

        // (label, forced kernel, threads). `None` = runtime dispatch.
        let mut cells: Vec<(String, Option<Kernel>, usize)> =
            supported.iter().map(|&kern| (kern.name().into(), Some(kern), 1)).collect();
        cells.push(("dispatch".into(), None, 1));
        cells.push(("dispatch".into(), None, max_threads.max(2)));
        for (label, forced, threads) in cells {
            kernels::force(forced);
            let _guard = tensor::parallel::with_threads(threads);
            let mut out = vec![0.0f32; m * n];
            sgemm(m, k, n, &a, &b, &mut out);
            // Correctness gates: bit-identical to the naive reference and
            // byte-identical to forced scalar.
            assert!(
                out.iter().zip(reference.as_slice()).all(|(x, y)| x.to_bits() == y.to_bits()),
                "{label} kernel diverged from matmul_naive at {m}³ ({threads} threads)"
            );
            assert!(
                out.iter().zip(&scalar_out).all(|(x, y)| x.to_bits() == y.to_bits()),
                "{label} kernel diverged from forced scalar at {m}³ ({threads} threads)"
            );
            // The minimum over repetitions damps scheduler noise.
            let secs = bench::time(reps(m), 1, || {
                out.fill(0.0);
                sgemm(m, k, n, &a, &b, &mut out);
            })
            .min();
            kernels::force(None);
            let gflops = flops / secs / 1e9;
            println!("{m:<8} {label:<18} {threads:>8} {secs:>10.4} {gflops:>10.2}");
            rows.push(Json::obj([
                ("size", Json::from(m)),
                ("kernel", Json::from(label.as_str())),
                ("threads", Json::from(threads)),
                ("seconds", Json::Num(secs)),
                ("gflops", Json::Num(gflops)),
            ]));
            match (label.as_str(), threads) {
                ("dispatch", 1) => drop(dispatch1.insert(m, gflops)),
                ("dispatch", _) => drop(dispatch_n.insert(m, gflops)),
                _ => {
                    if let Some(kern) = forced {
                        per_kernel1.insert((kern.name(), m), gflops);
                    }
                }
            }
        }
    }
    println!();

    // Per-kernel GFLOP/s is reported at 512³ (the largest size, 256³, in
    // --quick).
    let &pivot = dispatch1.keys().max().expect("no sizes ran");
    let pivot = if dispatch1.contains_key(&512) { 512 } else { pivot };
    // Thread scaling is reported at the largest size that ran: the
    // scoped-worker pool spawns per dispatch, so small GEMMs are overhead
    // dominated and the multicore claim is about large ones.
    let &scaling_size = dispatch_n.keys().max().expect("no sizes ran");
    let thread_scaling = dispatch_n[&scaling_size] / dispatch1[&scaling_size];
    let cores = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    println!(
        "dispatch {threads_effective} vs 1 thread, {scaling_size}³: {thread_scaling:.2}x \
         ({cores} core(s) available)"
    );
    let per_kernel_pivot: Vec<(&'static str, f64)> = per_kernel1
        .iter()
        .filter(|((_, size), _)| *size == pivot)
        .map(|((name, _), g)| (*name, *g))
        .collect();
    for (name, g) in &per_kernel_pivot {
        println!("  {name:<12} {g:>8.2} GFLOP/s (1 thread, {pivot}³)");
    }

    manifest = manifest
        .with_extra("cells", Json::Arr(rows))
        .with_extra("conv_cells", Json::Arr(conv_cells(quick, &supported, &mut rng)))
        .with_extra("pivot_size", Json::from(pivot))
        .with_extra("thread_scaling", Json::Num(thread_scaling))
        .with_extra("thread_scaling_size", Json::from(scaling_size))
        .with_extra("threads_effective", Json::from(threads_effective))
        .with_extra(
            "per_kernel_gflops",
            Json::Arr(
                per_kernel_pivot
                    .iter()
                    .map(|(name, g)| {
                        Json::obj([("kernel", Json::from(*name)), ("gflops", Json::Num(*g))])
                    })
                    .collect(),
            ),
        )
        .with_extra("cores_available", Json::from(cores))
        // The row-panel decomposition yields ⌈m/MR⌉ independent tasks, so
        // an N-core host has N-way parallel work whenever ⌈m/4⌉ ≥ N;
        // `thread_scaling` above is the scaling *measured* on this host
        // with `threads_effective` workers, not a structural claim.
        .with_extra("row_panel_tasks_at_pivot", Json::from(pivot.div_ceil(4)));
    args.finish_run(manifest, Some("BENCH_gemm.json"));
}
