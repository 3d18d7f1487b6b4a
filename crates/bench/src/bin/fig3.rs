//! Regenerates **Figure 3** — runtime performance of GoldenEye across
//! number formats, with error injection (EI) on/off.
//!
//! The paper's claim is relative, not absolute (their substrate is a GPU,
//! ours a CPU): native FP32 is fastest; emulated FP/FxP/INT run close to
//! native (their conversions are cheap elementwise kernels); BFP/AFP pay a
//! per-block/per-tensor metadata path and run a few times slower; the
//! *additional* cost of EI and EI-metadata is negligible because a single
//! flip per inference is amortised.
//!
//! Run with: `cargo run --release -p bench --bin fig3 [--full]`

use bench::{prepare_model, test_set, BenchArgs, ModelKind, Timing};
use goldeneye::{run_campaign, CampaignConfig, GoldenEye, InjectionPlan};
use inject::SiteKind;
use nn::Module;
use tensor::Tensor;

struct Config {
    label: &'static str,
    spec: Option<&'static str>,
    injection: Option<SiteKind>,
}

const CONFIGS: &[Config] = &[
    Config { label: "native_fp32", spec: None, injection: None },
    Config { label: "fp_e8m23", spec: Some("fp32"), injection: None },
    Config { label: "fp_e5m10", spec: Some("fp16"), injection: None },
    Config { label: "fp_e8m7 (bfloat16)", spec: Some("bfloat16"), injection: None },
    Config { label: "fp_e4m3 (fp8)", spec: Some("fp:e4m3"), injection: None },
    Config { label: "fp_e4m3 +EI", spec: Some("fp:e4m3"), injection: Some(SiteKind::Value) },
    Config { label: "fxp_1_3_12", spec: Some("fxp:1:3:12"), injection: None },
    Config { label: "fxp_1_3_12 +EI", spec: Some("fxp:1:3:12"), injection: Some(SiteKind::Value) },
    Config { label: "int8", spec: Some("int:8"), injection: None },
    Config { label: "int8 +EI", spec: Some("int:8"), injection: Some(SiteKind::Value) },
    Config { label: "int8 +EI-metadata", spec: Some("int:8"), injection: Some(SiteKind::Metadata) },
    Config { label: "bfp_e8m7_b16", spec: Some("bfp:e8m7:b16"), injection: None },
    Config {
        label: "bfp_e8m7_b16 +EI",
        spec: Some("bfp:e8m7:b16"),
        injection: Some(SiteKind::Value),
    },
    Config {
        label: "bfp_e8m7_b16 +EI-metadata",
        spec: Some("bfp:e8m7:b16"),
        injection: Some(SiteKind::Metadata),
    },
    Config { label: "afp_e4m3", spec: Some("afp:e4m3"), injection: None },
    Config { label: "afp_e4m3 +EI", spec: Some("afp:e4m3"), injection: Some(SiteKind::Value) },
    Config {
        label: "afp_e4m3 +EI-metadata",
        spec: Some("afp:e4m3"),
        injection: Some(SiteKind::Metadata),
    },
];

fn run_once(model: &dyn Module, x: &Tensor, ge: &Option<GoldenEye>, cfg: &Config, seed: u64) {
    match ge {
        None => {
            models::forward_logits(model, x.clone());
        }
        Some(ge) => match cfg.injection {
            None => {
                ge.run(model, x.clone());
            }
            Some(kind) => {
                let plan = InjectionPlan::single(0, kind);
                ge.run_with_injection(model, x.clone(), plan, seed);
            }
        },
    }
}

fn main() {
    let args = BenchArgs::parse();
    let runs = if args.full { 100 } else { 10 };
    let batch = 32;
    let mut rows: Vec<trace::Json> = Vec::new();
    println!("Figure 3: runtime per inference batch (batch={batch}, {runs} timed runs)\n");
    for kind in [ModelKind::Resnet18, ModelKind::DeitTiny] {
        let (model, _) = prepare_model(kind);
        let (x, _) = test_set().head_batch(batch);
        // Measure everything first, in milliseconds; report ratios against
        // the native row from the same pass (median is robust to scheduler
        // noise). Each run injects with a fresh seed.
        let measured: Vec<Timing> = CONFIGS
            .iter()
            .map(|cfg| {
                let ge = cfg.spec.map(|s| GoldenEye::parse(s).expect("bad spec"));
                let mut seed = 0;
                bench::time(runs, 1, || {
                    run_once(model.as_ref(), &x, &ge, cfg, seed);
                    seed += 1;
                })
                .scaled(1e3)
            })
            .collect();
        let native_ms = measured[0].median();
        println!("== {} ==", kind.name());
        println!(
            "{:<28} {:>11} {:>10} {:>8} {:>10}",
            "config", "median ms", "mean ms", "std %", "vs native"
        );
        for (cfg, t) in CONFIGS.iter().zip(&measured) {
            let (median, mean, std) = (t.median(), t.mean(), t.std_dev());
            println!(
                "{:<28} {:>11.2} {:>10.2} {:>7.1}% {:>9.2}x",
                cfg.label,
                median,
                mean,
                100.0 * std / mean,
                median / native_ms
            );
            rows.push(trace::Json::obj([
                ("model", trace::Json::from(kind.name())),
                ("config", trace::Json::from(cfg.label)),
                ("median_ms", trace::Json::Num(median)),
                ("mean_ms", trace::Json::Num(mean)),
                ("std_ms", trace::Json::Num(std)),
                ("vs_native", trace::Json::Num(median / native_ms)),
            ]));
        }
        println!();
    }
    println!("Expected shape (paper): native fastest; FP/FxP/INT near native;");
    println!("BFP/AFP slower (metadata path); +EI and +EI-metadata ~free.");

    // Campaign throughput: the paper's speedups come from batching many
    // independent faulty inferences; here the lever is `--jobs N` worker
    // threads (identical results, see `goldeneye::run_campaign`).
    if args.jobs != 1 {
        let (model, _) = prepare_model(ModelKind::Resnet18);
        let (x, y) = test_set().head_batch(8);
        let ge = GoldenEye::parse("fp:e4m3").expect("valid spec");
        let n = args.injections_per_layer(10);
        let serial = CampaignConfig {
            injections_per_layer: n,
            kind: SiteKind::Value,
            seed: 3,
            jobs: 1,
            ..Default::default()
        };
        let parallel = CampaignConfig { jobs: args.jobs, ..serial.clone() };
        println!("\nCampaign throughput ({n} injections/layer, resnet18):");
        let campaign = |cfg: &CampaignConfig| {
            run_campaign(&ge, model.as_ref(), &x, &y, cfg);
        };
        let p = bench::time_pairs(1, || campaign(&serial), || campaign(&parallel));
        let (serial, parallel) = (p.a.median(), p.b.median());
        println!(
            "  jobs=1: {serial:.2}s   jobs={}: {parallel:.2}s   speedup {:.2}x",
            args.jobs,
            serial / parallel
        );
    }
    let m = trace::RunManifest::new("bench fig3")
        .with_config("batch", batch)
        .with_config("runs", runs)
        .with_extra("rows", trace::Json::Arr(rows));
    args.finish_run(m, None);
}
