//! End-to-end pipeline integration tests: the paper's tables on real
//! benchmarks through the public facade, fast preset.

use musa::circuits::Benchmark;
use musa::core::{
    run_sampling_experiment_on, ExperimentConfig, OperatorProfile, Table1, Table2,
};
use musa::mutation::{generate_mutants, GenerateOptions, MutationOperator};
use musa::netlist::write_bench;
use musa::synth::synthesize;
use musa::testgen::SamplingStrategy;

#[test]
fn table1_runs_on_a_paper_circuit() {
    let table = Table1::measure(
        &[Benchmark::B01],
        &MutationOperator::paper_set(),
        &ExperimentConfig::fast(0x1A),
    )
    .expect("table 1 must run");
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
    let table = Table2::measure(&[Benchmark::C17], 0.25, &ExperimentConfig::fast(0x2B))
        .expect("table 2 must run");
    let row = &table.rows[0];
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
    let circuit = Benchmark::C17.load().expect("benchmark loads");
    let config = ExperimentConfig::fast(0x3C);
    let profile = OperatorProfile::measure(&circuit, &MutationOperator::all(), &config)
        .expect("profiling runs");
    assert!(!profile.rows.is_empty());
    let weights = profile.weights();
    let population = generate_mutants(
        &circuit.checked,
        &circuit.name,
        &GenerateOptions::default(),
    );
    let outcome = run_sampling_experiment_on(
        &circuit,
        &population,
        SamplingStrategy::test_oriented(0.20, weights),
        &config,
    )
    .expect("experiment runs");
    assert_eq!(outcome.strategy, "test-oriented");
    assert!(outcome.sampled > 0);
    assert!(outcome.sampled < population.len());
}

#[test]
fn growing_the_sample_never_hurts_the_mean_score() {
    let circuit = Benchmark::C17.load().expect("benchmark loads");
    let config = ExperimentConfig::fast(0x4D);
    let population = generate_mutants(
        &circuit.checked,
        &circuit.name,
        &GenerateOptions::default(),
    );
    let small = run_sampling_experiment_on(
        &circuit,
        &population,
        SamplingStrategy::random(0.10),
        &config,
    )
    .unwrap();
    let full = run_sampling_experiment_on(
        &circuit,
        &population,
        SamplingStrategy::random(1.0),
        &config,
    )
    .unwrap();
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
    let a = Table2::measure(&[Benchmark::C17], 0.25, &config).unwrap();
    let b = Table2::measure(&[Benchmark::C17], 0.25, &config).unwrap();
    assert_eq!(
        a.rows[0].test_oriented.mutation_score_pct,
        b.rows[0].test_oriented.mutation_score_pct
    );
    assert_eq!(a.rows[0].random.nlfce, b.rows[0].random.nlfce);
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
