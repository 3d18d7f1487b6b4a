//! Regenerates **Figure 7** — per-layer ΔLoss under single-bit injections,
//! for BFP (e5m5) and AFP (e5m2), value vs. metadata faults, on ResNet-50
//! and DeiT-base.
//!
//! The paper's observations: BFP layers show similar (low) vulnerability
//! to value flips, while metadata flips are far more damaging across the
//! board (one shared-exponent bit corrupts a whole block); AFP is on
//! average more resilient than BFP for both fault types, except its last
//! layer, whose wide value distribution stresses the movable window.
//!
//! Run with: `cargo run --release -p bench --bin fig7 [--full | --injections N]`
//! (quick default: 20 injections/layer; the paper uses 1000 → `--full`).

use bench::{prepare_model, test_set, BenchArgs, ModelKind};
use goldeneye::{run_campaign, CampaignConfig, GoldenEye};
use inject::SiteKind;
use trace::Json;

fn main() {
    let args = BenchArgs::parse();
    let n = args.injections_per_layer(20);
    let (x, y) = test_set().head_batch(8);
    let mut rows: Vec<Json> = Vec::new();
    println!("Figure 7: per-layer delta-loss, {n} injections/layer, batch 8\n");
    for kind in [ModelKind::Resnet50, ModelKind::DeitBase] {
        let (model, _) = prepare_model(kind);
        for spec in ["bfp:e5m5:tensor", "afp:e5m2"] {
            let ge = GoldenEye::parse(spec).expect("bad spec");
            println!("== {} / {} ==", kind.name(), spec);
            println!(
                "{:<6} {:<22} {:>14} {:>16}",
                "layer", "name", "dLoss(value)", "dLoss(metadata)"
            );
            let value = run_campaign(
                &ge,
                model.as_ref(),
                &x,
                &y,
                &CampaignConfig {
                    injections_per_layer: n,
                    kind: SiteKind::Value,
                    seed: 7,
                    jobs: 1,
                    ..Default::default()
                },
            );
            let meta = run_campaign(
                &ge,
                model.as_ref(),
                &x,
                &y,
                &CampaignConfig {
                    injections_per_layer: n,
                    kind: SiteKind::Metadata,
                    seed: 7,
                    jobs: 1,
                    ..Default::default()
                },
            );
            for (v, m) in value.layers.iter().zip(&meta.layers) {
                println!(
                    "{:<6} {:<22} {:>14.4} {:>16.4}",
                    v.layer,
                    v.name,
                    v.delta_loss.mean(),
                    m.delta_loss.mean()
                );
                rows.push(Json::obj([
                    ("model", Json::from(kind.name())),
                    ("spec", Json::from(spec)),
                    ("layer", Json::from(v.layer)),
                    ("name", Json::from(v.name.as_str())),
                    ("delta_loss_value", Json::from_f32(v.delta_loss.mean())),
                    ("delta_loss_metadata", Json::from_f32(m.delta_loss.mean())),
                ]));
            }
            println!(
                "{:<6} {:<22} {:>14.4} {:>16.4}\n",
                "avg",
                "(across layers)",
                value.avg_delta_loss(),
                meta.avg_delta_loss()
            );
        }
    }
    println!("Expected shape (paper): metadata >> value for BFP; AFP lower on");
    println!("average than BFP except its last layer.");
    let m = trace::RunManifest::new("bench fig7")
        .with_config("injections_per_layer", n)
        .with_config("seed", 7u64)
        .with_extra("rows", Json::Arr(rows));
    args.finish_run(m, None);
}
