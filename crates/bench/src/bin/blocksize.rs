//! Block-size sweep — accuracy and fault resilience of the block-scaled
//! families (OCP MX and BFP) as the elements-per-scale ratio varies.
//!
//! Larger blocks amortise the shared scale over more elements (better
//! footprint) but force distant magnitudes onto one exponent (worse
//! accuracy) and widen a metadata flip's blast radius (one corrupted scale
//! hits the whole block). This sweep quantifies both sides: held-out
//! accuracy under each format, plus the average per-layer ΔLoss of value-
//! and metadata-site injection campaigns.
//!
//! Run with: `cargo run --release -p bench --bin blocksize
//! [--quick | --full | --injections N]`. Writes the manifest to
//! `results/BENCH_blocksize.json` (override with `--out`).

use bench::{prepare_model, test_set, BenchArgs, ModelKind};
use goldeneye::{evaluate_accuracy_jobs, run_campaign, CampaignConfig, GoldenEye};
use inject::SiteKind;
use trace::Json;

fn main() {
    let args = BenchArgs::parse();
    let n = args.injections_per_layer(if args.quick { 6 } else { 20 });
    let blocks: &[usize] = if args.quick { &[8, 32, 128] } else { &[8, 16, 32, 64, 128] };
    let eval_k = if args.quick { 32 } else { bench::TEST_N };
    let data = test_set();
    let (x, y) = data.head_batch(8);
    let (model, baseline) = prepare_model(ModelKind::Resnet18);

    println!(
        "Block-size sweep: MXFP8 (e4m3) vs BFP (e5m5), {n} injections/layer, \
         accuracy over {eval_k} samples\n"
    );
    println!(
        "{:<8} {:<20} {:>9} {:>13} {:>16}",
        "family", "spec", "accuracy", "dLoss(value)", "dLoss(metadata)"
    );
    let mut rows: Vec<Json> = Vec::new();
    for &block in blocks {
        for (family, spec) in
            [("mx", format!("mx:fp8e4m3:b{block}")), ("bfp", format!("bfp:e5m5:b{block}"))]
        {
            let ge = GoldenEye::parse(&spec).expect("bad sweep spec");
            let acc = evaluate_accuracy_jobs(&ge, model.as_ref(), &data, eval_k, 32, args.jobs);
            let campaign = |kind: SiteKind| {
                run_campaign(
                    &ge,
                    model.as_ref(),
                    &x,
                    &y,
                    &CampaignConfig {
                        injections_per_layer: n,
                        kind,
                        seed: 7,
                        jobs: args.jobs,
                        ..Default::default()
                    },
                )
            };
            let value = campaign(SiteKind::Value);
            let meta = campaign(SiteKind::Metadata);
            println!(
                "{:<8} {:<20} {:>8.1}% {:>13.4} {:>16.4}",
                family,
                spec,
                acc * 100.0,
                value.avg_delta_loss(),
                meta.avg_delta_loss()
            );
            rows.push(Json::obj([
                ("family", Json::from(family)),
                ("spec", Json::from(spec.as_str())),
                ("block", Json::from(block)),
                ("accuracy", Json::from_f32(acc)),
                ("delta_loss_value", Json::from_f32(value.avg_delta_loss())),
                ("delta_loss_metadata", Json::from_f32(meta.avg_delta_loss())),
            ]));
        }
    }
    println!("\nExpected shape: accuracy falls and the metadata blast radius grows");
    println!("as blocks widen; MXFP8's per-element mantissa holds accuracy better");
    println!("than BFP's shared-significand grid at the same block size.");

    let m = trace::RunManifest::new("bench blocksize")
        .with_config("model", ModelKind::Resnet18.name())
        .with_config("injections_per_layer", n)
        .with_config("eval_samples", eval_k)
        .with_config("seed", 7u64)
        .with_extra("baseline_accuracy", baseline)
        .with_extra("rows", Json::Arr(rows));
    let _ = std::fs::create_dir_all("results");
    args.finish_run(m, Some("results/BENCH_blocksize.json"));
}
