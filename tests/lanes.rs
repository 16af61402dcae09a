//! Differential tests of the bit-parallel lane engine against the
//! scalar simulator: first kills must be bit-identical on every bundled
//! circuit, for every lane count and job count.

use musa::circuits::{Benchmark, Circuit};
use musa::hdl::{Bits, Simulator};
use musa::mutation::{
    execute_mutants_engine_opt, first_kills_over, generate_mutants, Engine, GenerateOptions,
    KillResult, LaneOptions, LanePlan, LaneStats, Mutant, OptLevel, MAX_LANES,
};
use musa::prng::{Prng, SplitMix64};
use proptest::prelude::*;
use std::sync::OnceLock;

fn circuits() -> &'static Vec<(Circuit, Vec<Mutant>)> {
    static CACHE: OnceLock<Vec<(Circuit, Vec<Mutant>)>> = OnceLock::new();
    CACHE.get_or_init(|| {
        Benchmark::all()
            .into_iter()
            .map(|bench| {
                let circuit = bench.load().expect("benchmark loads");
                let population = generate_mutants(
                    &circuit.checked,
                    &circuit.name,
                    &GenerateOptions::default(),
                );
                assert!(!population.is_empty(), "{bench}: empty population");
                (circuit, population)
            })
            .collect()
    })
}

fn random_sequence_for(circuit: &Circuit, cycles: usize, seed: u64) -> Vec<Vec<Bits>> {
    let info = circuit.info();
    let mut rng = SplitMix64::new(seed);
    (0..cycles)
        .map(|_| {
            info.data_inputs
                .iter()
                .map(|&p| {
                    let w = info.symbol(p).width;
                    Bits::new(w, rng.bits(w))
                })
                .collect()
        })
        .collect()
}

/// Each mutant's first killing cycle over one sequence, from
/// `Mutant::apply` and the scalar `Simulator` alone: the oracle every
/// lane result here is compared with.
fn oracle_kills(
    circuit: &Circuit,
    mutants: &[Mutant],
    sequence: &[Vec<Bits>],
) -> Vec<Option<usize>> {
    let reference = Simulator::new(&circuit.checked, &circuit.name)
        .unwrap()
        .run(sequence);
    mutants
        .iter()
        .map(|mutant| {
            let mutated = mutant
                .apply(&circuit.checked)
                .expect("generated mutants apply");
            let mut sim = Simulator::new(&mutated, &circuit.name).unwrap();
            sequence
                .iter()
                .zip(&reference)
                .position(|(vector, expected)| sim.step(vector) != *expected)
        })
        .collect()
}

/// A fresh lane plan run once over `sequence` with every mutant live.
fn lane_kills(
    circuit: &Circuit,
    mutants: &[Mutant],
    sequence: &[Vec<Bits>],
    options: &LaneOptions,
) -> (KillResult, LaneStats) {
    LanePlan::new(&circuit.checked, &circuit.name, mutants, options)
        .unwrap()
        .first_kills(sequence, &vec![true; mutants.len()], options.jobs)
        .unwrap()
}

/// Every `stride`-th mutant: bounds the scalar baseline's cost on the
/// larger populations while touching every operator region of the walk.
fn subsample(population: &[Mutant], limit: usize) -> Vec<Mutant> {
    let stride = population.len().div_ceil(limit).max(1);
    population.iter().step_by(stride).cloned().collect()
}

#[test]
fn lane_engine_is_bit_identical_on_every_bundled_circuit() {
    for (circuit, population) in circuits() {
        let mutants = subsample(population, 48);
        let sequence = random_sequence_for(circuit, 16, 0x1A4E ^ circuit.name.len() as u64);
        let scalar = oracle_kills(circuit, &mutants, &sequence);
        for lanes_per_pass in [1, 2, 63] {
            for jobs in [1, 8] {
                let opts = LaneOptions { lanes_per_pass, jobs };
                let (lanes, _) = lane_kills(circuit, &mutants, &sequence, &opts);
                assert_eq!(
                    lanes.first_kill, scalar,
                    "{}: lanes={lanes_per_pass} jobs={jobs}",
                    circuit.name
                );
            }
        }
    }
}

#[test]
fn engine_dispatch_is_identical_through_the_public_entry_point() {
    let (circuit, population) = &circuits()[0]; // c17
    let sequence = random_sequence_for(circuit, 12, 0xC17);
    let run = |engine| {
        execute_mutants_engine_opt(
            &circuit.checked,
            &circuit.name,
            population,
            &sequence,
            2,
            engine,
            OptLevel::Full,
        )
        .unwrap()
    };
    let scalar = run(Engine::Scalar);
    assert_eq!(scalar.first_kill, run(Engine::Lanes).first_kill);
    assert_eq!(
        scalar.first_kill,
        oracle_kills(circuit, population, &sequence)
    );
}

/// The plain loop the first-kill sweep replaces: the sequences in
/// order, each from reset, over the mutants neither skipped nor killed
/// by an earlier sequence.
fn first_kills_by_loop(
    circuit: &Circuit,
    mutants: &[Mutant],
    sequences: &[Vec<Vec<Bits>>],
    skip: &[bool],
) -> Vec<Option<(usize, usize)>> {
    let mut first_kill = vec![None; mutants.len()];
    for (s, sequence) in sequences.iter().enumerate() {
        let live: Vec<usize> =
            (0..mutants.len()).filter(|&i| !skip[i] && first_kill[i].is_none()).collect();
        let subset: Vec<Mutant> = live.iter().map(|&i| mutants[i].clone()).collect();
        for (&i, kill) in live.iter().zip(oracle_kills(circuit, &subset, sequence)) {
            first_kill[i] = kill.map(|t| (s, t));
        }
    }
    first_kill
}

#[test]
fn first_kill_sweep_matches_the_per_sequence_loop_on_every_bundled_circuit() {
    // Eight lanes per pass give the lane plan a dozen groups, so the
    // sweep repacks its survivors as well as reusing one plan.
    for (circuit, population) in circuits() {
        let mutants = subsample(population, 100);
        let mut rng = SplitMix64::new(0x5EE9 ^ circuit.name.len() as u64);
        let sequences: Vec<Vec<Vec<Bits>>> = (0..3)
            .map(|_| {
                let cycles = 2 + rng.below(8) as usize;
                random_sequence_for(circuit, cycles, rng.next_u64())
            })
            .collect();
        let skip: Vec<bool> = (0..mutants.len()).map(|_| rng.below(5) == 0).collect();
        let expected = first_kills_by_loop(circuit, &mutants, &sequences, &skip);
        assert!(expected.iter().any(Option::is_some), "{}: nothing killed", circuit.name);
        let sweep = |engine, options: LaneOptions| {
            first_kills_over(
                &circuit.checked,
                &circuit.name,
                &mutants,
                &sequences,
                Some(&skip),
                engine,
                &options,
            )
            .unwrap()
        };
        let scalar = sweep(Engine::Scalar, LaneOptions::default());
        assert_eq!(scalar, expected, "{}: scalar", circuit.name);
        for jobs in [1, 2] {
            for lanes_per_pass in [8, MAX_LANES] {
                let options = LaneOptions { lanes_per_pass, jobs };
                assert_eq!(
                    sweep(Engine::Lanes, options),
                    expected,
                    "{}: lanes, {options:?}",
                    circuit.name
                );
            }
        }
    }
}

/// Per-circuit plans over the FULL population, compiled once and shared
/// by the two tests below.
fn full_plans() -> &'static Vec<LanePlan<'static>> {
    static CACHE: OnceLock<Vec<LanePlan<'static>>> = OnceLock::new();
    CACHE.get_or_init(|| {
        circuits()
            .iter()
            .map(|(circuit, population)| {
                LanePlan::new(&circuit.checked, &circuit.name, population, &LaneOptions::default())
                    .expect("plan compiles")
            })
            .collect()
    })
}

#[test]
fn full_population_plans_match_the_scalar_sweep() {
    // Every mutant live, so every group runs and packs as its lanes
    // die: the all-live run the property test below compares with.
    // A generated population compiles into ⌈N/63⌉ tape groups and takes
    // one pass per group: no mutant reaches the scalar fallback.
    for ((circuit, population), plan) in circuits().iter().zip(full_plans()) {
        let groups = population.len().div_ceil(MAX_LANES);
        assert_eq!(plan.group_count(), groups, "{}: groups", circuit.name);
        let sequence = random_sequence_for(circuit, 8, 0xF011 ^ circuit.name.len() as u64);
        let (lanes, stats) = plan.first_kills(&sequence, &vec![true; population.len()], 1).unwrap();
        assert_eq!(stats.passes, groups, "{}: passes", circuit.name);
        let scalar = first_kills_over(
            &circuit.checked,
            &circuit.name,
            population,
            &[&sequence],
            None,
            Engine::Scalar,
            &LaneOptions::default(),
        )
        .unwrap();
        let scalar: Vec<Option<usize>> =
            scalar.into_iter().map(|kill| kill.map(|(_, t)| t)).collect();
        assert_eq!(lanes.first_kill, scalar, "{}", circuit.name);
    }
}

/// A live mask over `n` mutants, in one of five shapes picked by
/// `kind`: every mutant, none, each with a random probability, only
/// slots ≥ 32 of each 63-mutant group, only the last slot of each
/// group. The sparse shapes make the lowered executor pack its groups at
/// power-on; kills then pack them further.
fn live_mask(n: usize, kind: u32, rng: &mut SplitMix64) -> Vec<bool> {
    let p = rng.unit_f64();
    (0..n)
        .map(|i| match kind {
            0 => true,
            1 => false,
            2 => rng.chance(p),
            3 => i % MAX_LANES >= 32,
            _ => i % MAX_LANES == MAX_LANES - 1 || i == n - 1,
        })
        .collect()
}

proptest! {
    /// Skipping dead tiles and packing survivors never changes a kill:
    /// on every bundled circuit's FULL mutant population, for random
    /// stimulus and a random live mask, the plan reports for each
    /// flagged mutant exactly what the same plan reports with every
    /// mutant live, and no kill for an unflagged one. The all-live run
    /// is pinned to the scalar sweep by the test above.
    #[test]
    fn optimizer_preserves_kills_on_full_populations(
        seed in any::<u64>(),
        cycles in 2usize..12,
        kind in 0u32..5,
    ) {
        let mut rng = SplitMix64::new(seed);
        for ((circuit, population), plan) in circuits().iter().zip(full_plans()) {
            let sequence = random_sequence_for(circuit, cycles, seed);
            let live = live_mask(population.len(), kind, &mut rng);
            // The all-live run, less the 63-mutant groups that hold no
            // flagged mutant: the mask discards their kills either way.
            let flagged_groups: Vec<bool> = live
                .chunks(MAX_LANES)
                .flat_map(|group| vec![group.contains(&true); group.len()])
                .collect();
            let (all, _) = plan.first_kills(&sequence, &flagged_groups, 1).unwrap();
            let (masked, _) = plan.first_kills(&sequence, &live, 1).unwrap();
            let expected: Vec<Option<usize>> = all
                .first_kill
                .iter()
                .zip(&live)
                .map(|(&kill, &flagged)| kill.filter(|_| flagged))
                .collect();
            prop_assert_eq!(
                &masked.first_kill, &expected,
                "{}: masked and all-live kills diverged (mask kind {})",
                circuit.name, kind,
            );
        }
    }
}

proptest! {
    /// For random circuits, mutant subsets and stimuli, the lane engine
    /// reproduces the scalar engine's first-kill vector bit for bit.
    #[test]
    fn lane_kill_results_match_scalar_for_random_sequences(
        seed in any::<u64>(),
        pick in 0usize..Benchmark::all().len(),
        cycles in 2usize..9,
    ) {
        let (circuit, population) = &circuits()[pick];
        let mut rng = SplitMix64::new(seed);
        let offset = (rng.next_u64() as usize) % population.len();
        let mutants: Vec<Mutant> = population
            .iter()
            .cycle()
            .skip(offset)
            .step_by((population.len() / 10).max(1))
            .take(10.min(population.len()))
            .cloned()
            .collect();
        let sequence = random_sequence_for(circuit, cycles, rng.next_u64());
        let scalar = oracle_kills(circuit, &mutants, &sequence);
        let (lanes, stats) = lane_kills(circuit, &mutants, &sequence, &LaneOptions::default());
        prop_assert_eq!(&lanes.first_kill, &scalar, "{}", circuit.name);
        prop_assert_eq!(stats.passes, 1, "10 mutants fit one pass");
    }
}
