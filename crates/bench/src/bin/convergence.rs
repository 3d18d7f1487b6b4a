//! Extra experiment (§IV-C / §VI): the ΔLoss metric converges in fewer
//! injections than mismatch counting, while agreeing on the ranking —
//! the paper's justification for using ΔLoss in its campaigns.
//!
//! Runs one long value-injection campaign on a fixed layer and reports how
//! many injections each metric's running mean needs to settle within 10%
//! of its final value.
//!
//! Run with: `cargo run --release -p bench --bin convergence [--injections N]`

use bench::{prepare_model, test_set, BenchArgs, ModelKind};
use goldeneye::{GoldenEye, InjectionPlan};
use inject::SiteKind;
use metrics::{compare_outcomes, ConvergenceTrace};

fn main() {
    let args = BenchArgs::parse();
    let n = args.injections_per_layer(300);
    let (model, _) = prepare_model(ModelKind::Resnet18);
    let (x, y) = test_set().head_batch(8);
    let ge = GoldenEye::parse("fp:e4m3").expect("bad spec");
    let layers = ge.discover_layers(model.as_ref(), x.clone());
    let target = layers[layers.len() / 2].index;
    let golden = ge.run(model.as_ref(), x.clone());

    let mut mismatch = ConvergenceTrace::new();
    let mut delta = ConvergenceTrace::new();
    for i in 0..n {
        let plan = InjectionPlan::single(target, SiteKind::Value);
        let (faulty, rec) = ge.run_with_injection(model.as_ref(), x.clone(), plan, i as u64);
        if rec.is_none() {
            continue;
        }
        let o = compare_outcomes(&golden, &faulty, &y);
        mismatch.push(o.mismatch_rate);
        delta.push(o.delta_loss);
    }
    let cm = mismatch.samples_to_converge(0.10);
    let cd = delta.samples_to_converge(0.10);
    println!("Metric convergence over {n} value injections (fp:e4m3, layer {target}):");
    println!(
        "  mismatch: final mean {:.4} (CI95 ±{:.4}), converged after {} injections",
        mismatch.stats().mean(),
        mismatch.stats().ci95_half_width(),
        cm
    );
    println!(
        "  delta-loss: final mean {:.4} (CI95 ±{:.4}), converged after {} injections",
        delta.stats().mean(),
        delta.stats().ci95_half_width(),
        cd
    );
    println!(
        "\nExpected shape (paper): delta-loss settles in {} the injections of mismatch.",
        if cd <= cm { "no more than" } else { "UNEXPECTEDLY MORE than" }
    );
    let mut m = trace::RunManifest::new("bench convergence")
        .with_config("injections", n)
        .with_config("format", "fp_e4m3")
        .with_config("layer", target)
        .with_extra("mismatch_mean", trace::Json::from_f32(mismatch.stats().mean()))
        .with_extra("mismatch_converged_after", cm)
        .with_extra("delta_loss_mean", trace::Json::from_f32(delta.stats().mean()))
        .with_extra("delta_loss_converged_after", cd);
    m.convergence = delta.running_means().to_vec();
    args.finish_run(m, None);
}
