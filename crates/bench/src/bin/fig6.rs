//! Regenerates **Figure 6** — the DSE heuristic's visited nodes and their
//! accuracies, per format family, for ResNet-50 and DeiT-tiny.
//!
//! The paper's observations: the search completes within 16 nodes, more
//! than half the visited nodes are acceptable design points, and the
//! chosen configurations differ per model.
//!
//! Run with: `cargo run --release -p bench --bin fig6`

use bench::{prepare_model, test_set, BenchArgs, ModelKind, TEST_N};
use goldeneye::dse::{search, DseFamily};
use goldeneye::{evaluate_accuracy, GoldenEye};
use trace::Json;

fn main() {
    let args = BenchArgs::parse();
    let data = test_set();
    let threshold_drop = 0.02; // 2% of absolute accuracy
    let mut rows: Vec<Json> = Vec::new();
    println!("Figure 6: DSE node traversal (threshold: baseline − {threshold_drop})\n");
    for kind in [ModelKind::Resnet50, ModelKind::DeitTiny] {
        let (model, baseline) = prepare_model(kind);
        println!("== {} (baseline {:.1}%) ==", kind.name(), baseline * 100.0);
        for (label, family) in [
            ("FP", DseFamily::Fp),
            ("FxP", DseFamily::Fxp),
            ("INT", DseFamily::Int),
            ("BFP", DseFamily::Bfp { block: usize::MAX }),
            ("AFP", DseFamily::Afp),
        ] {
            let result = search(
                family,
                |spec| {
                    let ge = GoldenEye::new(spec.build());
                    evaluate_accuracy(&ge, model.as_ref(), &data, TEST_N, 32)
                },
                baseline,
                threshold_drop,
            );
            println!("-- {label}: {} nodes visited --", result.nodes.len());
            for n in &result.nodes {
                println!(
                    "   node {:>2}: {:<16} acc {:>5.1}%  {}",
                    n.index,
                    n.spec.to_string(),
                    n.accuracy * 100.0,
                    if n.accepted { "ok" } else { "REJECT" }
                );
                rows.push(Json::obj([
                    ("model", Json::from(kind.name())),
                    ("family", Json::from(label)),
                    ("node", Json::from(n.index)),
                    ("spec", Json::from(n.spec.to_string())),
                    ("accuracy", Json::from_f32(n.accuracy)),
                    ("accepted", Json::from(n.accepted)),
                ]));
            }
            match &result.best {
                Some(best) => println!("   best: {best}"),
                None => println!("   best: none (family unusable at threshold)"),
            }
        }
        println!();
    }
    println!("Expected shape (paper): ≤16 nodes per family; more than half accepted;");
    println!("optimal configs differ between the CNN and the transformer.");
    let m = trace::RunManifest::new("bench fig6")
        .with_config("threshold_drop", threshold_drop)
        .with_config("eval_samples", TEST_N)
        .with_extra("nodes", Json::Arr(rows));
    args.finish_run(m, None);
}
