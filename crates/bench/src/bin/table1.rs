//! Regenerates **Table I** — "Dynamic Range of Data Types".
//!
//! Run with: `cargo run --release -p bench --bin table1`

use bench::BenchArgs;

fn main() {
    let args = BenchArgs::parse();
    let table = formats::ranges::table1_text();
    println!("Table I: Dynamic Range of Data Types (paper vs computed)\n");
    print!("{table}");
    println!();
    println!("Notes:");
    println!("- paper prints FxP(1,15,16) max as 3.2768; 2^15 = 32768 (typo in the paper).");
    println!("- paper prints INT16 dB as 98.31; 20*log10(32767/1) = 90.31 (typo in the paper).");
    println!("- AFP8's window is movable via its exponent-bias metadata; the dB width matches FP8 w/o DN.");
    let m = trace::RunManifest::new("bench table1").with_extra("table", table.as_str());
    args.finish_run(m, None);
}
