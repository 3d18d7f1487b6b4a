//! Quickstart: train a small CNN, emulate number formats on it, and
//! inject a fault — the whole GoldenEye pipeline in one file.
//!
//! Run with: `cargo run --release --example quickstart`

use goldeneye::{accuracy_sweep, GoldenEye, InjectionPlan};
use inject::SiteKind;
use models::{train, ResNet, ResNetConfig, SyntheticDataset, TrainConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // 1. A model and a dataset. The synthetic task stands in for ImageNet;
    //    everything is seeded and reproducible.
    let mut rng = StdRng::seed_from_u64(0);
    let model = ResNet::new(ResNetConfig::tiny(4), &mut rng);
    let train_data = SyntheticDataset::generate(128, 16, 4, 1);
    let test_data = SyntheticDataset::generate(64, 16, 4, 2);

    // 2. Train it briefly.
    println!("training a tiny ResNet...");
    let logs = train(
        &model,
        &train_data,
        &TrainConfig { epochs: 8, batch_size: 16, lr: 3e-3, ..Default::default() },
    );
    let native_acc = models::evaluate(&model, &test_data, 64, 32);
    println!(
        "trained: final train acc {:.1}%, held-out acc {:.1}%\n",
        logs.last().unwrap().accuracy * 100.0,
        native_acc * 100.0
    );

    // 3. Emulate number formats at layer granularity (weights + neurons)
    //    and measure accuracy under each — the paper's use case A.
    println!("accuracy under emulated formats:");
    let specs =
        ["fp32", "fp16", "bfloat16", "int:8", "fp:e4m3", "bfp:e5m5:b16", "afp:e4m3", "fp:e2m1"];
    for p in accuracy_sweep(&model, &test_data, &specs, 64, 32).expect("valid specs") {
        println!("  {:<14} ({:>2} bits): {:>5.1}%", p.spec, p.bit_width, p.accuracy * 100.0);
    }

    // 4. Inject a single bit flip into a layer output and see what
    //    happens to the logits — the paper's use case C in miniature.
    let ge = GoldenEye::parse("bfp:e5m5:b16").expect("valid spec");
    let (x, _) = test_data.head_batch(1);
    let golden = ge.run(&model, x.clone());
    let plan = InjectionPlan::single(0, SiteKind::Metadata);
    let (faulty, record) = ge.run_with_injection(&model, x, plan, 1234);
    println!("\ninjected: {:?}", record.expect("injection fired"));
    println!("golden logits: {:?}", golden.as_slice());
    println!("faulty logits: {:?}", faulty.as_slice());
}
