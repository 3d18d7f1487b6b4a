//! Ablation: memory footprint per format — quantifies the paper's §II-A
//! motivation (BFP's shared exponent slashes storage) over a real model's
//! activation tensors.
//!
//! Run with: `cargo run --release -p bench --bin footprint`

use bench::{prepare_model, test_set, BenchArgs, ModelKind};
use formats::footprint::footprint;
use formats::FormatSpec;
use nn::{Ctx, ForwardHook, LayerInfo, LayerKind};
use std::sync::{Arc, Mutex};
use tensor::Tensor;
use trace::Json;

/// Captures every instrumented layer output of one inference.
struct Capture(Mutex<Vec<Tensor>>);

impl ForwardHook for Capture {
    fn on_output(&self, _l: &LayerInfo, out: &Tensor) -> Option<Tensor> {
        self.0.lock().unwrap().push(out.clone());
        None
    }
    fn applies_to(&self, kind: LayerKind) -> bool {
        matches!(kind, LayerKind::Conv | LayerKind::Linear)
    }
}

fn main() {
    let args = BenchArgs::parse();
    let mut rows: Vec<Json> = Vec::new();
    let (model, _) = prepare_model(ModelKind::Resnet18);
    let (x, _) = test_set().head_batch(8);
    let cap = Arc::new(Capture(Mutex::new(Vec::new())));
    let mut ctx = Ctx::inference();
    ctx.add_hook(cap.clone());
    let xv = ctx.input(x);
    model.forward(&xv, &mut ctx);
    let activations = cap.0.lock().unwrap();
    let elements: u64 = activations.iter().map(|t| t.numel() as u64).sum();
    println!(
        "Activation storage for one resnet18 inference batch ({} tensors, {} elements)\n",
        activations.len(),
        elements
    );
    println!(
        "{:<18} {:>12} {:>14} {:>12} {:>12}",
        "format", "data Kbit", "metadata bit", "bits/elem", "vs fp32"
    );
    for spec in [
        "fp32",
        "fp16",
        "bfloat16",
        "int:8",
        "fp:e4m3",
        "bfp:e8m7:b16",
        "bfp:e8m7:tensor",
        "afp:e4m3",
        "posit:8:0",
    ] {
        let format = spec.parse::<FormatSpec>().expect("valid spec").build();
        let mut data_bits = 0u64;
        let mut metadata_bits = 0u64;
        for t in activations.iter() {
            let f = footprint(format.as_ref(), t);
            data_bits += f.data_bits;
            metadata_bits += f.metadata_bits;
        }
        let total = data_bits + metadata_bits;
        println!(
            "{:<18} {:>12.0} {:>14} {:>12.3} {:>11.2}x",
            spec,
            data_bits as f64 / 1000.0,
            metadata_bits,
            total as f64 / elements as f64,
            (elements * 32) as f64 / total as f64
        );
        rows.push(Json::obj([
            ("spec", Json::from(spec)),
            ("data_bits", Json::from(data_bits)),
            ("metadata_bits", Json::from(metadata_bits)),
            ("bits_per_element", Json::Num(total as f64 / elements as f64)),
            ("vs_fp32", Json::Num((elements * 32) as f64 / total as f64)),
        ]));
    }
    println!("\nShape (paper §II-A): BFP stores one exponent per block/tensor,");
    println!("so its bits/element approaches 1 + mantissa; AFP pays 4 bits per");
    println!("tensor; INT pays one 32-bit scale per tensor.");
    let m = trace::RunManifest::new("bench footprint")
        .with_config("model", "resnet18")
        .with_extra("elements", elements)
        .with_extra("rows", Json::Arr(rows));
    args.finish_run(m, None);
}
