//! Regenerates **Figure 9** — the accuracy / resilience / bit-width
//! trade-off scatter for ResNet-50 under BFP and AFP: each DSE-suggested
//! design point is plotted as (accuracy, average ΔLoss across layers,
//! bit width).
//!
//! The paper's observation: low-precision, high-accuracy, low-ΔLoss design
//! points exist in the top-left corner, and newer formats (AFP) reach them
//! at lower precision.
//!
//! Run with: `cargo run --release -p bench --bin fig9 [--injections N] [--jobs N]`

use bench::{prepare_model, test_set, BenchArgs, ModelKind, TEST_N};
use goldeneye::dse::{accuracy_eval, search, DseFamily};
use goldeneye::{run_campaign, CampaignConfig, GoldenEye};
use inject::SiteKind;
use trace::Json;

fn main() {
    let args = BenchArgs::parse();
    let n = args.injections_per_layer(10);
    let jobs = args.jobs;
    let data = test_set();
    let (model, baseline) = prepare_model(ModelKind::Resnet50);
    let (x, y) = data.head_batch(8);
    let mut rows: Vec<Json> = Vec::new();
    println!(
        "Figure 9: accuracy vs avg delta-loss for DSE-suggested BFP/AFP points\n\
         (ResNet-50, baseline {:.1}%, {} injections/layer)\n",
        baseline * 100.0,
        n
    );
    println!(
        "{:<18} {:>6} {:>10} {:>14} {:>16}",
        "format", "bits", "accuracy", "dLoss(value)", "dLoss(metadata)"
    );
    for family in [DseFamily::Bfp { block: usize::MAX }, DseFamily::Afp] {
        let result =
            search(family, accuracy_eval(model.as_ref(), &data, TEST_N, 32, jobs), baseline, 0.05);
        for node in result.accepted_nodes() {
            let ge = GoldenEye::new(node.spec.build());
            let value = run_campaign(
                &ge,
                model.as_ref(),
                &x,
                &y,
                &CampaignConfig {
                    injections_per_layer: n,
                    kind: SiteKind::Value,
                    seed: 9,
                    jobs,
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
                    seed: 9,
                    jobs,
                    ..Default::default()
                },
            );
            println!(
                "{:<18} {:>6} {:>9.1}% {:>14.4} {:>16.4}",
                node.spec.to_string(),
                ge.format().bit_width(),
                node.accuracy * 100.0,
                value.avg_delta_loss(),
                meta.avg_delta_loss()
            );
            rows.push(Json::obj([
                ("spec", Json::from(node.spec.to_string())),
                ("bits", Json::from(ge.format().bit_width())),
                ("accuracy", Json::from_f32(node.accuracy)),
                ("delta_loss_value", Json::from_f32(value.avg_delta_loss())),
                ("delta_loss_metadata", Json::from_f32(meta.avg_delta_loss())),
            ]));
        }
    }
    println!("\nExpected shape (paper): design points with high accuracy and low");
    println!("delta-loss exist at reduced precision; AFP reaches them with fewer bits.");
    let m = trace::RunManifest::new("bench fig9")
        .with_config("injections_per_layer", n)
        .with_config("jobs", jobs)
        .with_config("seed", 9u64)
        .with_extra("baseline_accuracy", baseline)
        .with_extra("points", Json::Arr(rows));
    args.finish_run(m, None);
}
