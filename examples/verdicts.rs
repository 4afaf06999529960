//! Evaluate every paper claim on a freshly simulated machine and print
//! the verdict table: the executable EXPERIMENTS.md.
//!
//! ```text
//! cargo run --release --example verdicts -- [racks|full] [seed]
//! ```
//!
//! The default is 12 racks (one third of Astra) at seed 42; `full` runs
//! all 36 racks, the scale EXPERIMENTS.md records.

use astra_core::experiments::verdicts;
use astra_core::pipeline::{Analysis, Dataset};
use astra_core::tempcorr::TempCorrConfig;

fn main() {
    let mut args = std::env::args().skip(1);
    let racks = match args.next().as_deref() {
        Some("full") => 36,
        Some(s) => s.parse().expect("racks: a number or `full`"),
        None => 12,
    };
    let seed = args
        .next()
        .map_or(42, |s| s.parse().expect("seed: a number"));
    let ds = Dataset::generate(racks, seed);
    let analysis = Analysis::run(ds.system, ds.sim.ce_log.clone());
    let verdicts = verdicts::evaluate(&ds, &analysis, &TempCorrConfig::default());
    print!("{}", verdicts::render(&verdicts));
    println!(
        "{}/{} claims pass at {racks} racks (seed {seed})",
        verdicts::passing(&verdicts),
        verdicts.len()
    );
}
