//! Ablation: accumulation error vs. reduction length and accumulator
//! format — the quantitative groundwork for the mixed-precision support
//! the paper lists as future work (§V-C).
//!
//! Run with: `cargo run --release -p bench --bin accum`

use bench::BenchArgs;
use formats::{FixedPoint, FloatingPoint, NumberFormat, Posit};
use goldeneye::accum::accumulation_error_study;
use trace::Json;

fn main() {
    let args = BenchArgs::parse();
    let mut rows: Vec<Json> = Vec::new();
    let lengths = [16usize, 64, 256, 1024, 4096];
    let formats: Vec<(&str, Box<dyn NumberFormat>)> = vec![
        ("fp32 (e8m23)", Box::new(FloatingPoint::fp32())),
        ("tf32 (e8m10)", Box::new(FloatingPoint::tensorfloat32())),
        ("fp16 (e5m10)", Box::new(FloatingPoint::fp16())),
        ("bfloat16 (e8m7)", Box::new(FloatingPoint::bfloat16())),
        ("fp8 (e4m3)", Box::new(FloatingPoint::fp8_e4m3())),
        ("fxp 1.15.16", Box::new(FixedPoint::new(15, 16))),
        ("posit16 (es1)", Box::new(Posit::posit16())),
    ];
    println!("Accumulation error vs reduction length (mean |err|/sqrt(len), 20 trials)\n");
    print!("{:<18}", "accumulator");
    for l in lengths {
        print!(" {l:>10}");
    }
    println!();
    for (label, f) in &formats {
        let pts = accumulation_error_study(f.as_ref(), &lengths, 20, 11);
        print!("{label:<18}");
        for p in &pts {
            print!(" {:>10.2e}", p.mean_rel_error);
        }
        println!();
        rows.push(Json::obj([
            ("accumulator", Json::from(*label)),
            (
                "mean_rel_error",
                Json::Arr(pts.iter().map(|p| Json::Num(p.mean_rel_error)).collect()),
            ),
        ]));
    }
    println!("\nShape: error grows with reduction length and shrinks with mantissa");
    println!("width — the accumulator-sizing data mixed-precision MACs need.");
    let m = trace::RunManifest::new("bench accum")
        .with_config("trials", 20u64)
        .with_config("seed", 11u64)
        .with_extra("lengths", Json::Arr(lengths.iter().map(|&l| Json::from(l)).collect()))
        .with_extra("rows", Json::Arr(rows));
    args.finish_run(m, None);
}
