//! End-to-end pipeline integration tests: the paper's tables on real
//! benchmarks through the public facade, fast preset.

use musa::circuits::Benchmark;
use musa::core::{
    run_sampling_experiment, BenchContext, Campaign, ExperimentConfig, OperatorProfile, ReportData,
    Table2Row, Task,
};
use musa::mutation::MutationOperator;
use musa::netlist::write_bench;
use musa::synth::synthesize;
use musa::testgen::SamplingStrategy;

fn context(bench: Benchmark, config: &ExperimentConfig) -> BenchContext {
    BenchContext::new(bench.load().expect("benchmark loads"), config)
}

#[test]
fn table1_runs_on_a_paper_circuit() {
    let report = Campaign::new(Benchmark::B01)
        .config(ExperimentConfig::fast(0x1A))
        .task(Task::Table1 {
            operators: MutationOperator::paper_set().to_vec(),
        })
        .run()
        .expect("table 1 must run");
    let ReportData::Table1(table) = &report.data else {
        unreachable!()
    };
    // All four paper operators apply to b01.
    assert_eq!(table.rows.len(), 4);
    for row in &table.rows {
        assert_eq!(row.circuit, "b01");
        assert!(row.delta_fc_pct.is_finite());
        assert!(row.delta_l_pct.is_finite());
        assert!(row.nlfce.is_finite());
    }
    let rendered = table.render();
    assert!(rendered.contains("b01"));
}

#[test]
fn table2_strategies_share_budget_and_score_sanely() {
    let row = Table2Row::measure(
        &context(Benchmark::C17, &ExperimentConfig::fast(0x2B)),
        0.25,
    )
    .expect("table 2 must run");
    assert_eq!(row.test_oriented.sampled, row.random.sampled);
    for outcome in [&row.test_oriented, &row.random] {
        assert!(outcome.mutation_score_pct > 0.0);
        assert!(outcome.mutation_score_pct <= 100.0);
        assert!(outcome.data_len > 0);
        assert_eq!(outcome.population, row.test_oriented.population);
    }
}

#[test]
fn profile_weights_feed_sampling() {
    let ctx = context(Benchmark::C17, &ExperimentConfig::fast(0x3C));
    let profile = OperatorProfile::measure(&ctx, &MutationOperator::all()).expect("profiling runs");
    assert!(!profile.rows.is_empty());
    let weights = profile.weights();
    let outcome = run_sampling_experiment(&ctx, SamplingStrategy::test_oriented(0.20, weights))
        .expect("experiment runs");
    assert_eq!(outcome.strategy, "test-oriented");
    assert!(outcome.sampled > 0);
    assert!(outcome.sampled < ctx.population().len());
}

#[test]
fn growing_the_sample_never_hurts_the_mean_score() {
    let ctx = context(Benchmark::C17, &ExperimentConfig::fast(0x4D));
    let small = run_sampling_experiment(&ctx, SamplingStrategy::random(0.10)).unwrap();
    let full = run_sampling_experiment(&ctx, SamplingStrategy::random(1.0)).unwrap();
    assert!(
        full.mutation_score_pct + 1e-9 >= small.mutation_score_pct,
        "full {} < small {}",
        full.mutation_score_pct,
        small.mutation_score_pct
    );
}

#[test]
fn pipeline_is_deterministic_per_seed() {
    let config = ExperimentConfig::fast(0x5E);
    let a = Table2Row::measure(&context(Benchmark::C17, &config), 0.25).unwrap();
    let b = Table2Row::measure(&context(Benchmark::C17, &config), 0.25).unwrap();
    assert_eq!(
        a.test_oriented.mutation_score_pct,
        b.test_oriented.mutation_score_pct
    );
    assert_eq!(a.random.nlfce, b.random.nlfce);
}

#[test]
fn synthesis_is_reproducible_within_a_process() {
    // Every map the elaborator walks gets a fresh hash seed, so a walk
    // in hash order would give a different netlist on each call.
    for bench in Benchmark::all() {
        let circuit = bench.load().unwrap();
        let expected = write_bench(&circuit.netlist);
        for _ in 0..4 {
            let again = synthesize(&circuit.checked, &circuit.name).unwrap();
            assert_eq!(write_bench(&again), expected, "{bench}");
        }
    }
}
