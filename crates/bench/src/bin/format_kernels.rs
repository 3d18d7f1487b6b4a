//! Per-element cost of the tensor-wide conversion kernels (the paper's
//! Method 1) and of the scalar bitstring path (Methods 3/4), supporting the
//! Figure 3 analysis: FP/FxP/INT conversions are cheap elementwise maps;
//! BFP/MX/AFP pay a metadata pass; scalar ops are orders of magnitude
//! slower per element but used only once per injection.
//!
//! The `*_64k` rows convert 64Ki elements. The `tensor_64k` rows feed
//! randn, which holds no zeros. `bfp:e5m5:b16` is the repository
//! benchmark's BFP spec; `p3109:e4m3` runs the same float kernel as
//! `fp:e5m10`; `fp:e3m9` and `fp:e2m8` are on the DSE's FP ladder, whose
//! normal ranges start at 2^−2 and 2^0, so most of randn lies in their
//! denormal range. The `relu_64k` rows feed the same randn with its
//! negatives set to `+0.0`, shaped like post-ReLU activations: half the
//! elements are zeros, which an FP quantiser must handle as cheaply as
//! normal values. The `denormal_64k` row feeds FP8 inputs of magnitude
//! around 2^−8, inside e4m3's denormal range. The `deit_linear_24k` rows
//! convert a `[512, 48]` randn tensor, about the size of a `deit_tiny` linear
//! output at batch 8 on 32×32 images, where a call's fixed cost and each
//! block's own work weigh more than in the 64Ki rows. A `scalar` row
//! converts one value to its bitstring, flips a bit and converts back.
//!
//! Each row is timed by `bench::time` in samples of back-to-back calls,
//! batched to run for at least 1 ms, 25 samples with `--quick` and 100
//! without. It reports ns per element as the minimum, median and
//! quartiles of its samples.
//!
//! Run with: `cargo run --release -p bench --bin format_kernels
//! [--quick] [--out PATH]`

use bench::{BenchArgs, Timing};
use formats::{FormatSpec, Metadata};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tensor::Tensor;
use trace::Json;

/// The shortest sample: long enough for the clock and the scheduler to
/// stay well below the kernel's own variation.
const SAMPLE_SECS: f64 = 1e-3;

/// The Method 1 rows, converting the same 64Ki-element tensor.
const TENSOR_SPECS: [&str; 10] = [
    "fp:e5m10",
    "fp:e3m9",
    "fp:e2m8",
    "fxp:1:7:8",
    "int:8",
    "bfp:e8m7:b16",
    "bfp:e5m5:b16",
    "mx:fp8e4m3:b32",
    "afp:e4m3",
    "p3109:e4m3",
];

/// The float rows repeated on post-ReLU input (half `+0.0`).
const RELU_SPECS: [&str; 4] = ["fp:e8m23", "fp:e5m10", "fp:e3m9", "fp:e2m8"];

/// The rows on a DeiT-sized linear output: the repository benchmark's BFP
/// spec, an MX spec and FP8.
const DEIT_SPECS: [&str; 3] = ["bfp:e5m5:b16", "mx:fp8e4m3:b32", "fp:e4m3"];

/// Times `f`, which converts `elements` elements per call, in samples of
/// at least [`SAMPLE_SECS`]: the calls per sample double until the fastest
/// of three samples is that long. Returns the calls per sample and the ns
/// per element.
fn ns_per_elem(samples: usize, elements: usize, mut f: impl FnMut()) -> (usize, Timing) {
    let mut calls = 1;
    while bench::time(3, calls, &mut f).min() * (calls as f64) < SAMPLE_SECS {
        calls *= 2;
    }
    (calls, bench::time(samples, calls, f).scaled(1e9 / elements as f64))
}

fn main() {
    let args = BenchArgs::parse();
    let samples = if args.quick { 25 } else { 100 };
    let mut rng = StdRng::seed_from_u64(1);
    let x = Tensor::randn([64 * 1024], &mut rng);
    // |x| spread over [2^−9, 2^−7): below e4m3's smallest normal 2^−6.
    let denormal = x.map(|v| v.signum() * (2.0f32).powf(-8.0 + v.tanh()));
    let relu = x.map(|v| if v > 0.0 { v } else { 0.0 });
    let deit = Tensor::randn([512, 48], &mut rng);

    let mut planned: Vec<(&str, &str)> = TENSOR_SPECS.iter().map(|&s| ("tensor_64k", s)).collect();
    planned.extend(RELU_SPECS.iter().map(|&s| ("relu_64k", s)));
    planned.push(("denormal_64k", "fp:e4m3"));
    planned.extend(DEIT_SPECS.iter().map(|&s| ("deit_linear_24k", s)));
    planned.extend([("scalar", "fp:e5m10"), ("scalar", "int:8")]);

    println!(
        "Conversion kernels (ns/element; {samples} samples of >= {:.0} ms; kernel {})\n",
        SAMPLE_SECS * 1e3,
        tensor::linalg::kernels::active().name()
    );
    println!(
        "{:<16} {:<16} {:>8} {:>9} {:>9} {:>9} {:>9}",
        "group", "spec", "calls", "min", "q1", "median", "q3"
    );
    let mut rows = Vec::new();
    for &(group, spec) in &planned {
        let format = spec.parse::<FormatSpec>().expect("valid spec").build();
        let (calls, t) = match group {
            "scalar" => {
                let meta = if spec == "int:8" { Metadata::Scale(0.01) } else { Metadata::None };
                ns_per_elem(samples, 1, || {
                    let bits = format.real_to_format(std::hint::black_box(0.777), &meta, 0);
                    std::hint::black_box(format.format_to_real(&bits.with_flip(1), &meta, 0));
                })
            }
            _ => {
                let input = match group {
                    "denormal_64k" => &denormal,
                    "relu_64k" => &relu,
                    "deit_linear_24k" => &deit,
                    _ => &x,
                };
                ns_per_elem(samples, input.numel(), || {
                    std::hint::black_box(format.real_to_format_tensor(std::hint::black_box(input)));
                })
            }
        };
        let (q1, q3) = t.quartiles();
        println!(
            "{group:<16} {spec:<16} {calls:>8} {:>9.3} {q1:>9.3} {:>9.3} {q3:>9.3}",
            t.min(),
            t.median()
        );
        rows.push(Json::obj([
            ("group", Json::from(group)),
            ("spec", Json::from(spec)),
            ("calls_per_sample", Json::from(calls)),
            ("samples", Json::from(t.count())),
            ("ns_per_elem_min", Json::Num(t.min())),
            ("ns_per_elem_q1", Json::Num(q1)),
            ("ns_per_elem_median", Json::Num(t.median())),
            ("ns_per_elem_q3", Json::Num(q3)),
        ]));
    }

    let specs = planned
        .iter()
        .map(|&(group, spec)| Json::obj([("group", Json::from(group)), ("spec", Json::from(spec))]))
        .collect();
    let m = trace::RunManifest::new("bench format_kernels")
        .with_config("samples", samples)
        .with_config("kernel", tensor::linalg::kernels::active().name())
        .with_config("specs", Json::Arr(specs))
        .with_extra("rows", Json::Arr(rows));
    args.finish_run(m, None);
}
