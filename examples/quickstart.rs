//! Quickstart: the paper's pipeline on one benchmark, end to end.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Loads ITC'99 b01, profiles the four paper operators, derives
//! test-oriented sampling weights, and compares the two sampling
//! strategies at a 10 % mutant budget.

use musa::circuits::Benchmark;
use musa::core::{run_sampling_experiment, BenchContext, ExperimentConfig, OperatorProfile};
use musa::mutation::MutationOperator;
use musa::testgen::SamplingStrategy;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let circuit = Benchmark::B01.load()?;
    println!(
        "{}: {} gates, {} flip-flops after synthesis",
        circuit.name,
        circuit.netlist.gate_count(),
        circuit.netlist.dff_count()
    );

    // The circuit's mutant population and fault list, derived once and
    // shared by every experiment below.
    let ctx = BenchContext::new(circuit, &ExperimentConfig::fast(0x5EED));

    // 1. Operator-efficiency profile (paper Table 1, one circuit).
    let profile = OperatorProfile::measure(&ctx, &MutationOperator::paper_set())?;
    println!("\nOperator efficiency (ΔFC%, ΔL%, NLFCE):");
    for row in &profile.rows {
        println!(
            "  {:<4} mutants={:<4} len={:<5} {}",
            row.operator.acronym(),
            row.mutants,
            row.data_len,
            row.metrics
        );
    }

    // 2. Sampling-strategy face-off (paper Table 2, one circuit).
    println!("\nFull mutant population: {}", ctx.population().len());
    let weights = profile.weights();
    for strategy in [
        SamplingStrategy::test_oriented(0.10, weights),
        SamplingStrategy::random(0.10),
    ] {
        let outcome = run_sampling_experiment(&ctx, strategy)?;
        println!(
            "  {:<13}: {} mutants -> {} vectors, MS = {:.2}%, NLFCE = {:+.0}",
            outcome.strategy,
            outcome.sampled,
            outcome.data_len,
            outcome.mutation_score_pct,
            outcome.nlfce
        );
    }
    Ok(())
}
