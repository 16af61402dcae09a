//! Adequacy contracts: generated validation data must actually kill the
//! mutants it claims, and PODEM tests must actually detect their faults.

use musa::circuits::Benchmark;
use musa::circuits::Circuit;
use musa::hdl::Bits;
use musa::mutation::{
    execute_mutants_engine_opt, generate_mutants, Engine, GenerateOptions, KillResult, Mutant,
    OptLevel,
};
use musa::netlist::{collapsed_faults, fault_simulate};
use musa::testgen::{atpg_all, mutation_guided_tests, MgConfig, PodemResult};

/// The scalar engine's first kills of `mutants` over one session.
fn scalar_kills(circuit: &Circuit, mutants: &[Mutant], session: &[Vec<Bits>]) -> KillResult {
    let (engine, opt) = (Engine::Scalar, OptLevel::Full);
    execute_mutants_engine_opt(
        &circuit.checked,
        &circuit.name,
        mutants,
        session,
        1,
        engine,
        opt,
    )
    .expect("mutants belong to the design")
}

#[test]
fn validation_data_kill_claims_are_reproducible() {
    for bench in [Benchmark::C17, Benchmark::B01, Benchmark::B06] {
        let circuit = bench.load().expect("benchmark loads");
        let mutants = generate_mutants(
            &circuit.checked,
            &circuit.name,
            &GenerateOptions::default(),
        );
        let generated = mutation_guided_tests(
            &circuit.checked,
            &circuit.name,
            &mutants,
            &MgConfig::fast(0xAD),
        )
        .expect("generation runs");

        let mut confirmed = vec![false; mutants.len()];
        for session in &generated.sessions {
            let kills = scalar_kills(&circuit, &mutants, session);
            for (i, kill) in kills.first_kill.iter().enumerate() {
                if kill.is_some() {
                    confirmed[i] = true;
                }
            }
        }
        for (i, (&claimed, &found)) in generated.killed.iter().zip(&confirmed).enumerate() {
            assert_eq!(
                claimed, found,
                "{bench}: kill claim mismatch on mutant {i} ({})",
                mutants[i].description
            );
        }
    }
}

#[test]
fn podem_tests_detect_their_faults_on_synthesized_circuits() {
    for bench in [Benchmark::C17, Benchmark::C432] {
        let circuit = bench.load().expect("benchmark loads");
        let nl = &circuit.netlist;
        let faults = collapsed_faults(nl);
        let (results, stats) = atpg_all(nl, &faults, 20_000);
        // c432 contains a couple of genuinely redundant faults whose
        // redundancy proof exceeds the budget (the historical c432 is
        // famous for the same); they abort rather than misclassify.
        assert!(
            stats.aborted <= 4,
            "{bench}: too many aborts ({})",
            stats.aborted
        );
        for (fault, result) in faults.iter().zip(&results) {
            match result {
                PodemResult::Test(pattern) => {
                    let sim = fault_simulate(nl, &[*fault], std::slice::from_ref(pattern));
                    assert_eq!(
                        sim.detected_count(),
                        1,
                        "{bench}: PODEM pattern misses {}",
                        fault.describe(nl)
                    );
                }
                PodemResult::Untestable | PodemResult::Aborted => {
                    // Redundancy claims (and abort suspicions) must be
                    // consistent with random evidence: no detection in
                    // 512 patterns.
                    let patterns = musa::testgen::random_patterns(nl.inputs().len(), 512, 3);
                    let sim = fault_simulate(nl, &[*fault], &patterns);
                    assert_eq!(
                        sim.detected_count(),
                        0,
                        "{bench}: fault {} claimed hard/redundant but detected",
                        fault.describe(nl)
                    );
                }
            }
        }
    }
}

#[test]
fn mutation_score_never_counts_killed_as_equivalent() {
    let circuit = Benchmark::C17.load().expect("benchmark loads");
    let mutants = generate_mutants(
        &circuit.checked,
        &circuit.name,
        &GenerateOptions::default(),
    );
    let generated = mutation_guided_tests(
        &circuit.checked,
        &circuit.name,
        &mutants,
        &MgConfig::fast(0xE0),
    )
    .unwrap();
    // Re-derive kills from scratch and check the score's invariants.
    let mut killed = 0usize;
    for session in &generated.sessions {
        let kills = scalar_kills(&circuit, &mutants, session);
        killed = killed.max(kills.killed_count());
    }
    assert!(killed <= mutants.len());
}
