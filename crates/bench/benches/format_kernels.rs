//! Criterion micro-benchmarks of the tensor-wide conversion kernels
//! (the paper's Method 1) and the scalar bitstring path (Methods 3/4),
//! supporting the Figure 3 analysis: FP/FxP/INT conversions are cheap
//! elementwise maps; BFP/MX/AFP pay a metadata pass; scalar ops are orders
//! of magnitude slower per element but used only once per injection.
//!
//! Every tensor row converts 64Ki elements, so ns/element = time / 65536.
//! `bfp:e5m5:b16` is the repository benchmark's BFP spec. The
//! `denormal_64k` group feeds FP8 inputs of magnitude around 2^−8, inside
//! e4m3's denormal range, where the fused bit-twiddling quantiser falls
//! back to the exact f64 path and its rounding helper.
//!
//! Run with: `cargo bench -p bench --bench format_kernels`

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use formats::{FormatSpec, Metadata};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tensor::Tensor;

fn conversion_benches(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let x = Tensor::randn([64 * 1024], &mut rng);
    let mut group = c.benchmark_group("real_to_format_tensor_64k");
    let specs = [
        "fp:e5m10",
        "fxp:1:7:8",
        "int:8",
        "bfp:e8m7:b16",
        "bfp:e5m5:b16",
        "mx:fp8e4m3:b32",
        "afp:e4m3",
    ];
    for spec in specs {
        let format = spec.parse::<FormatSpec>().unwrap().build();
        group.bench_with_input(BenchmarkId::from_parameter(spec), &x, |b, x| {
            b.iter(|| format.real_to_format_tensor(std::hint::black_box(x)))
        });
    }
    group.finish();

    // |x| spread over [2^−9, 2^−7): below e4m3's smallest normal 2^−6.
    let denormal = x.map(|v| v.signum() * (2.0f32).powf(-8.0 + v.tanh()));
    let mut group = c.benchmark_group("real_to_format_tensor_denormal_64k");
    let format = "fp:e4m3".parse::<FormatSpec>().unwrap().build();
    group.bench_with_input(BenchmarkId::from_parameter("fp:e4m3"), &denormal, |b, x| {
        b.iter(|| format.real_to_format_tensor(std::hint::black_box(x)))
    });
    group.finish();
}

fn scalar_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("scalar_bitstring_roundtrip");
    for spec in ["fp:e5m10", "int:8"] {
        let format = spec.parse::<FormatSpec>().unwrap().build();
        let meta = if spec == "int:8" { Metadata::Scale(0.01) } else { Metadata::None };
        group.bench_function(BenchmarkId::from_parameter(spec), |b| {
            b.iter(|| {
                let bits = format.real_to_format(std::hint::black_box(0.777), &meta, 0);
                format.format_to_real(&bits.with_flip(1), &meta, 0)
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = conversion_benches, scalar_benches
}
criterion_main!(benches);
