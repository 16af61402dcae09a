//! Differential tests for dominance fault-list reduction.
//!
//! The contract under test: reduced simulation reports the **same
//! detected/undetected verdict for every collapsed fault** as full
//! simulation — hence identical coverage, Table 1/2 numbers and
//! reports — while strictly fewer faults occupy simulation lanes on
//! the benches with reducible structure (the acceptance names b03 and
//! c432).

use musa_circuits::Benchmark;
use musa_core::{Campaign, ExperimentConfig, ReportData, Table1, Table2, Task};
use musa_mutation::MutationOperator;
use musa_netlist::{
    collapsed_faults, fault_simulate_sessions, fault_simulate_sessions_reduced, reduce_faults,
    FaultPlan, Pattern,
};
use musa_testgen::testbench_patterns;
use proptest::prelude::*;

/// Compares reduced against full simulation on one bench and vector
/// set; returns `faults_simulated` from the reduced run.
fn assert_reduced_matches_full(bench: Benchmark, sessions: &[Vec<Pattern>]) -> (usize, usize) {
    let circuit = bench.load().unwrap();
    let nl = &circuit.netlist;
    let faults = collapsed_faults(nl);
    let full = fault_simulate_sessions(nl, &faults, sessions);
    let reduction = reduce_faults(nl, &faults);
    let reduced = fault_simulate_sessions_reduced(nl, &reduction, sessions);

    assert_eq!(reduced.detected_count(), full.detected_count(), "{bench}");
    assert_eq!(
        reduced.coverage().to_bits(),
        full.coverage().to_bits(),
        "{bench}: coverage must be bit-identical"
    );
    for (i, (r, f)) in reduced
        .first_detected
        .iter()
        .zip(&full.first_detected)
        .enumerate()
    {
        match reduction.plan(i) {
            FaultPlan::Simulate | FaultPlan::Observe { .. } => assert_eq!(
                r,
                f,
                "{bench}: {} must be time-exact",
                faults[i].describe(nl)
            ),
            FaultPlan::Credit(_) => match (r, f) {
                (Some(rt), Some(ft)) => assert!(rt >= ft, "{bench}: credit is an upper bound"),
                (None, None) => {}
                _ => panic!(
                    "{bench}: verdict mismatch on {}: reduced {r:?} vs full {f:?}",
                    faults[i].describe(nl)
                ),
            },
        }
    }
    (reduced.faults_simulated, faults.len())
}

fn lfsr_sessions(bench: Benchmark, len: usize, seed: u64) -> Vec<Vec<Pattern>> {
    let circuit = bench.load().unwrap();
    let patterns = testbench_patterns(&circuit.netlist, len, seed);
    let half = patterns.len() / 2;
    vec![patterns[..half].to_vec(), patterns[half..].to_vec()]
}

#[test]
fn reduced_simulation_matches_full_on_every_bundled_bench() {
    for bench in Benchmark::all() {
        let sessions = lfsr_sessions(bench, 48, 0xD0_1234 ^ bench.name().len() as u64);
        let (simulated, total) = assert_reduced_matches_full(bench, &sessions);
        assert!(simulated <= total, "{bench}");
    }
}

#[test]
fn b03_and_c432_strictly_reduce_the_simulated_lane_count() {
    // The acceptance criterion: coverage identical (asserted inside the
    // helper) while fewer faults occupy lanes on b03 and c432.
    for bench in [Benchmark::B03, Benchmark::C432] {
        let sessions = lfsr_sessions(bench, 64, 0xACCE97);
        let (simulated, total) = assert_reduced_matches_full(bench, &sessions);
        assert!(
            simulated < total,
            "{bench}: expected a strict reduction, got {simulated} of {total}"
        );
    }
    // And the reduction itself drops faults statically on both.
    for bench in [Benchmark::B03, Benchmark::C432] {
        let circuit = bench.load().unwrap();
        let faults = collapsed_faults(&circuit.netlist);
        let reduction = reduce_faults(&circuit.netlist, &faults);
        assert!(reduction.dropped_count() > 0, "{bench}");
    }
}

/// Runs `task` on `benches` through the campaign front door, with
/// `config` taken as-is.
fn run(benches: &[Benchmark], config: ExperimentConfig, task: Task) -> ReportData {
    Campaign::new(benches[0])
        .benches(benches)
        .config(config)
        .task(task)
        .run()
        .unwrap()
        .data
}

fn table1(
    benches: &[Benchmark],
    operators: &[MutationOperator],
    config: ExperimentConfig,
) -> Table1 {
    let task = Task::Table1 {
        operators: operators.to_vec(),
    };
    let ReportData::Table1(table) = run(benches, config, task) else {
        unreachable!()
    };
    table
}

fn table2(benches: &[Benchmark], fraction: f64, config: ExperimentConfig) -> Table2 {
    let ReportData::Table2(table) = run(benches, config, Task::Table2 { fraction }) else {
        unreachable!()
    };
    table
}

#[test]
fn table1_is_bit_identical_with_reduction_on_and_off() {
    let operators = [MutationOperator::Lor, MutationOperator::Vr];
    let config = ExperimentConfig::fast(0x7AB1E);
    let benches = [Benchmark::C17, Benchmark::B01];
    let on = table1(&benches, &operators, config.with_fault_reduce(true));
    let off = table1(&benches, &operators, config.with_fault_reduce(false));
    // Everything except the lane-occupancy report must match bitwise
    // (Debug round-trips f64 exactly).
    assert_eq!(format!("{:?}", on.rows), format!("{:?}", off.rows));
    assert_eq!(on.render(), off.render());
    // The occupancy report itself differs: reduction found lanes to drop.
    let simulated = |fault_reduce: bool| -> usize {
        let task = Task::OperatorProfile { operators: operators.to_vec() };
        let ReportData::OperatorProfile(profiles) =
            run(&benches, config.with_fault_reduce(fault_reduce), task)
        else {
            unreachable!()
        };
        profiles.iter().flat_map(|p| &p.rows).map(|r| r.fault_sim.faults_simulated).sum()
    };
    assert!(simulated(true) < simulated(false));
}

#[test]
fn table2_is_bit_identical_with_reduction_on_and_off_on_b03_and_c432() {
    // A deliberately small custom config keeps the debug-build cost
    // sane; the identity claim is config-independent.
    let mut config = ExperimentConfig::fast(0x7AB2E);
    config.repetitions = 1;
    let benches = [Benchmark::B03, Benchmark::C432];
    let on = table2(&benches, 0.25, config.with_fault_reduce(true));
    let off = table2(&benches, 0.25, config.with_fault_reduce(false));
    for (row_on, row_off) in on.rows.iter().zip(&off.rows) {
        assert_eq!(row_on.circuit, row_off.circuit);
        assert_eq!(row_on.sampled, row_off.sampled);
        for (a, b) in [
            (&row_on.test_oriented, &row_off.test_oriented),
            (&row_on.random, &row_off.random),
        ] {
            assert_eq!(
                a.mutation_score_pct.to_bits(),
                b.mutation_score_pct.to_bits(),
                "{}", row_on.circuit
            );
            assert_eq!(a.nlfce.to_bits(), b.nlfce.to_bits(), "{}", row_on.circuit);
            assert_eq!(
                a.metrics.delta_fc_pct.to_bits(),
                b.metrics.delta_fc_pct.to_bits(),
                "{}", row_on.circuit
            );
            assert_eq!(
                a.metrics.delta_l_pct.to_bits(),
                b.metrics.delta_l_pct.to_bits(),
                "{}", row_on.circuit
            );
            assert_eq!(a.fault_sim.faults_total, b.fault_sim.faults_total);
            assert!(a.fault_sim.faults_simulated <= b.fault_sim.faults_simulated);
        }
        assert!(
            row_on.test_oriented.fault_sim.faults_simulated
                < row_off.test_oriented.fault_sim.faults_simulated,
            "{}: reduction must actually drop lanes",
            row_on.circuit
        );
    }
    assert_eq!(on.render(), off.render(), "rendered tables must not drift");
}

proptest! {
    /// Random vectors over bundled circuits: reduced-list simulation
    /// yields the same coverage and detected count as full
    /// collapsed-list simulation.
    #[test]
    fn reduced_coverage_equals_full_on_random_vectors(
        bench_pick in 0usize..4,
        len in 1usize..24,
        seed in proptest::any::<u64>(),
    ) {
        let bench = [Benchmark::C17, Benchmark::B01, Benchmark::B02, Benchmark::B06]
            [bench_pick];
        let circuit = bench.load().unwrap();
        let nl = &circuit.netlist;
        let faults = collapsed_faults(nl);
        let patterns = testbench_patterns(nl, len, seed);
        let half = patterns.len() / 2;
        let sessions = vec![patterns[..half].to_vec(), patterns[half..].to_vec()];
        let full = fault_simulate_sessions(nl, &faults, &sessions);
        let reduction = reduce_faults(nl, &faults);
        let reduced = fault_simulate_sessions_reduced(nl, &reduction, &sessions);
        prop_assert_eq!(reduced.detected_count(), full.detected_count());
        prop_assert_eq!(reduced.coverage().to_bits(), full.coverage().to_bits());
        for (r, f) in reduced.first_detected.iter().zip(&full.first_detected) {
            prop_assert_eq!(r.is_some(), f.is_some());
        }
    }
}
