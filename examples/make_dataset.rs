//! Produce a release-shaped dataset directory — the analog of the paper's
//! published measurement data (doi 10.14459/2022mp1687221): per-run CSVs,
//! the RRC message capture among them, from a small simulated campaign.
//!
//! ```sh
//! cargo run -p rpav-examples --release --bin make_dataset
//! # dataset lands in target/rpav-dataset/
//! ```

use rpav_core::dataset::{self, DatasetRun};
use rpav_core::prelude::*;

fn main() {
    let out = std::path::Path::new("target").join("rpav-dataset");

    // A small campaign: both environments, the three workloads, one run
    // each (`.runs(n)` for a fuller dataset) — expanded and executed as a
    // single matrix on the campaign engine's thread pool.
    let base = ExperimentConfig::builder()
        .environment(Environment::Urban)
        .cc(CcMode::Gcc)
        .seed(0xDA7A)
        .build();
    let spec = MatrixSpec::new(base)
        .environments([Environment::Urban, Environment::Rural])
        .paper_workloads();
    println!("running {} measurement flights...", spec.expand().len());
    let result = CampaignEngine::new().run(&spec);
    let runs: Vec<DatasetRun<'_>> = result
        .outcomes
        .iter()
        .map(|o| DatasetRun {
            config: &o.cell().config,
            metrics: o.metrics(),
        })
        .collect();
    dataset::export(&out, &runs).expect("dataset export");
    println!("{}", result.report.summary());

    println!("dataset written to {}:", out.display());
    for entry in std::fs::read_dir(&out).unwrap() {
        let e = entry.unwrap();
        println!(
            "  {:<16} {:>9} bytes",
            e.file_name().to_string_lossy(),
            e.metadata().unwrap().len()
        );
    }
}
