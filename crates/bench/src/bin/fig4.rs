//! Regenerates **Figure 4** — model accuracy vs. number format and bit
//! width, for a CNN (ResNet-18) and a transformer (DeiT-tiny).
//!
//! The paper's observations to reproduce: accuracy holds at high widths
//! and collapses format-dependently at low widths; the transformer
//! tolerates low-width FP better than the CNN; AFP rescues accuracy at
//! widths where plain FP has already collapsed (its bias metadata moves
//! the representable window onto each tensor's range).
//!
//! Run with: `cargo run --release -p bench --bin fig4`

use bench::{prepare_model, test_set, BenchArgs, ModelKind, TEST_N};
use goldeneye::accuracy_sweep;
use trace::Json;

/// The format ladder per family, highest to lowest width (the paper's 32,
/// 16, 12, 8, 4 series).
const LADDERS: &[(&str, &[&str])] = &[
    // fp:e2m5 is the paper's highlighted point: 8 bits with a starved
    // exponent — the transformer tolerates it, the CNN does not, and AFP
    // rescues it (its bias metadata re-centres the tiny window).
    ("FP", &["fp:e8m23", "fp:e5m10", "fp:e4m7", "fp:e4m3", "fp:e2m5", "fp:e2m5:nodn", "fp:e2m1"]),
    ("FxP", &["fxp:1:15:16", "fxp:1:7:8", "fxp:1:5:6", "fxp:1:3:4", "fxp:1:1:2"]),
    ("INT", &["int:32", "int:16", "int:12", "int:8", "int:4"]),
    ("BFP", &["bfp:e8m23:b16", "bfp:e8m15:b16", "bfp:e8m11:b16", "bfp:e8m7:b16", "bfp:e8m3:b16"]),
    ("AFP", &["afp:e8m23", "afp:e5m10", "afp:e4m7", "afp:e4m3", "afp:e2m5", "afp:e2m1"]),
];

fn main() {
    let args = BenchArgs::parse();
    let data = test_set();
    let mut rows: Vec<Json> = Vec::new();
    println!("Figure 4: accuracy vs bit width (eval on {TEST_N} held-out samples)\n");
    for kind in [ModelKind::Resnet18, ModelKind::DeitTiny] {
        let (model, native_acc) = prepare_model(kind);
        println!("== {} (native FP32: {:.1}%) ==", kind.name(), native_acc * 100.0);
        println!("{:<8} {:>16} {:>6} {:>10}", "family", "spec", "bits", "accuracy");
        for (family, specs) in LADDERS {
            let points = accuracy_sweep(model.as_ref(), &data, specs, TEST_N, 32)
                .expect("the ladders hold valid specs");
            for p in points {
                println!(
                    "{:<8} {:>16} {:>6} {:>9.1}%",
                    family,
                    p.spec,
                    p.bit_width,
                    p.accuracy * 100.0
                );
                rows.push(Json::obj([
                    ("model", Json::from(kind.name())),
                    ("family", Json::from(*family)),
                    ("spec", Json::from(p.spec.as_str())),
                    ("bits", Json::from(p.bit_width)),
                    ("accuracy", Json::from_f32(p.accuracy)),
                ]));
            }
        }
        println!();
    }
    println!("Expected shape (paper): wide formats match native; low-width FP");
    println!("hurts the CNN before the transformer; AFP holds accuracy at");
    println!("widths where FP has collapsed.");
    let m = trace::RunManifest::new("bench fig4")
        .with_config("eval_samples", TEST_N)
        .with_extra("rows", Json::Arr(rows));
    args.finish_run(m, None);
}
