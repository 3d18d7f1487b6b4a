//! Ablation: ΔLoss per flipped bit position — the paper's §IV-C "through
//! additional analysis" finding that BFP magnifies the sign bit's
//! importance (the shared exponent removes exponent bits from the value,
//! so a larger fraction of flips land on high-impact bits).
//!
//! Run with: `cargo run --release -p bench --bin bitpos [--injections N]`

use bench::{prepare_model, test_set, BenchArgs, ModelKind};
use goldeneye::bitpos::bit_position_campaign;
use goldeneye::GoldenEye;
use trace::Json;

fn main() {
    let args = BenchArgs::parse();
    let trials = args.injections_per_layer(15);
    let mut rows: Vec<Json> = Vec::new();
    let (model, _) = prepare_model(ModelKind::Resnet18);
    let (x, y) = test_set().head_batch(8);
    let probe = GoldenEye::parse("fp16").expect("valid spec");
    let layers = probe.discover_layers(model.as_ref(), x.clone());
    let target = layers[1].index;
    println!("Per-bit-position delta-loss at layer {target} ({trials} trials/bit, batch 8)\n");
    for spec in ["fp:e5m10", "bfp:e5m10:tensor", "int:16", "fxp:1:7:8"] {
        let ge = GoldenEye::parse(spec).expect("valid spec");
        let res = bit_position_campaign(&ge, model.as_ref(), &x, &y, target, trials, 5);
        println!("== {spec} ({} value bits) ==", res.len());
        println!("{:>4} {:>12} {:>12}", "bit", "dLoss", "mismatch");
        let total: f32 = res.iter().map(|r| r.delta_loss.mean()).sum();
        for r in &res {
            println!(
                "{:>4} {:>12.4} {:>11.1}%",
                r.bit,
                r.delta_loss.mean(),
                r.mismatch.mean() * 100.0
            );
            rows.push(Json::obj([
                ("spec", Json::from(spec)),
                ("bit", Json::from(r.bit)),
                ("delta_loss", Json::from_f32(r.delta_loss.mean())),
                ("mismatch", Json::from_f32(r.mismatch.mean())),
            ]));
        }
        let sign_share = if total > 0.0 { res[0].delta_loss.mean() / total } else { 0.0 };
        println!("sign bit share of total damage: {:.1}%\n", sign_share * 100.0);
    }
    println!("Expected shape (paper): FP damage concentrates in exponent bits;");
    println!("BFP's value has no exponent, so its sign bit carries a larger");
    println!("share of the damage than FP's.");
    let m = trace::RunManifest::new("bench bitpos")
        .with_config("trials_per_bit", trials)
        .with_config("layer", target)
        .with_extra("rows", Json::Arr(rows));
    args.finish_run(m, None);
}
