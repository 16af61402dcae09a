//! Static equivalent-mutant pre-screening (`--screen static`):
//!
//! * **soundness** — every mutant the screen proves equivalent really
//!   does survive the scalar engine on arbitrary stimuli (proptest);
//! * **bit-identity** — screening on vs off yields identical sampling
//!   outcomes (kills, MS, NLFCE, every reported number) on every
//!   bundled benchmark, and identical Table 1 / Table 2 renders. The
//!   Table 2 rows *are* `run_sampling_experiment` outcomes, so the
//!   all-bench outcome sweep is the table-level guarantee;
//! * **usefulness** — the screen proves at least one equivalent on b01
//!   (the `if rst = 1` width-1 relational site), so the knob is
//!   exercised, not vacuous, and every bundled design's proven count is
//!   pinned.

use musa::analysis::screen_population;
use musa::circuits::Benchmark;
use musa::core::{
    run_sampling_experiment, BenchContext, Campaign, ExperimentConfig, ReportData, Task,
};
use musa::hdl::Bits;
use musa::mutation::{
    first_kills_over, generate_mutants, Engine, GenerateOptions, LaneOptions, Mutant,
    MutationOperator,
};
use musa::prng::{Prng, SplitMix64};
use musa::testgen::SamplingStrategy;
use proptest::prelude::*;
use std::sync::OnceLock;

fn circuits() -> &'static Vec<(musa::circuits::Circuit, Vec<Mutant>)> {
    static CACHE: OnceLock<Vec<(musa::circuits::Circuit, Vec<Mutant>)>> = OnceLock::new();
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
                (circuit, population)
            })
            .collect()
    })
}

fn random_sequence_for(
    circuit: &musa::circuits::Circuit,
    cycles: usize,
    seed: u64,
) -> Vec<Vec<Bits>> {
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

/// The screened mutants of one circuit, as (index, mutant) pairs.
fn proven_of(circuit_index: usize) -> Vec<(usize, Mutant)> {
    let (circuit, population) = &circuits()[circuit_index];
    screen_population(&circuit.checked, &circuit.name, population)
        .iter()
        .enumerate()
        .filter(|(_, class)| class.is_proven())
        .map(|(i, _)| (i, population[i].clone()))
        .collect()
}

#[test]
fn b01_static_screen_proves_equivalents() {
    let index = circuits()
        .iter()
        .position(|(c, _)| c.name == "b01")
        .expect("b01 is bundled");
    assert!(
        !proven_of(index).is_empty(),
        "the b01 width-1 relational sites must screen as equivalent"
    );
    // Every bundled design's proven count: the `screened` field of
    // `musa sample <bench> --json`.
    let expected = [
        ("c17", 0),
        ("b01", 3),
        ("b02", 2),
        ("b03", 3),
        ("b04", 1),
        ("b05", 3),
        ("b06", 9),
        ("b09", 2),
        ("c432", 2),
        ("c499", 2),
        ("c880", 0),
    ];
    let counts: Vec<(&str, usize)> = circuits()
        .iter()
        .enumerate()
        .map(|(i, (circuit, _))| (circuit.name.as_str(), proven_of(i).len()))
        .collect();
    assert_eq!(counts, expected);
}

/// Screening on vs off: byte-identical `Debug` of the full outcome —
/// every score, count and metric — once the field that *reports* the
/// screen (`screened`) is masked. Covers Table 2 for every bench, since
/// its rows are exactly these outcomes.
#[test]
fn sampling_outcomes_are_identical_with_screen_on_and_off() {
    for (circuit, _) in circuits() {
        let seed = 0x5C_4EE0 ^ circuit.name.len() as u64;
        let on_cfg = ExperimentConfig::fast(seed).with_screen(true);
        let off_cfg = ExperimentConfig::fast(seed).with_screen(false);
        let run = |config: &ExperimentConfig| {
            let ctx = BenchContext::new(circuit.clone(), config);
            run_sampling_experiment(&ctx, SamplingStrategy::random(0.3)).expect("experiment runs")
        };
        let on = run(&on_cfg);
        let off = run(&off_cfg);
        assert_eq!(off.screened, 0, "{}: off must not screen", circuit.name);
        let mut masked = on.clone();
        masked.screened = 0;
        assert_eq!(
            format!("{masked:?}"),
            format!("{off:?}"),
            "{}: screening changed a reported number",
            circuit.name
        );
    }
}

#[test]
fn table_renders_are_identical_with_screen_on_and_off() {
    let benches = [Benchmark::C17, Benchmark::B01];
    let render = |config: ExperimentConfig, task: Task| {
        let report = Campaign::new(benches[0])
            .benches(&benches)
            .config(config)
            .task(task)
            .run()
            .unwrap();
        match &report.data {
            ReportData::Table1(table) => table.render(),
            ReportData::Table2(table) => table.render(),
            _ => unreachable!(),
        }
    };
    let on_cfg = ExperimentConfig::fast(0x7AB1E).with_screen(true);
    let off_cfg = on_cfg.with_screen(false);
    let table1 = || Task::Table1 {
        operators: MutationOperator::paper_set().to_vec(),
    };
    assert_eq!(render(on_cfg, table1()), render(off_cfg, table1()));
    let table2 = Task::Table2 { fraction: 0.25 };
    assert_eq!(render(on_cfg, table2.clone()), render(off_cfg, table2));
}

proptest! {
    /// Soundness: a `ProvenEquivalentStatic` verdict is a promise that
    /// no stimulus distinguishes the mutant from the reference. Feed
    /// every proven mutant random sequences through the scalar engine
    /// and demand zero kills.
    #[test]
    fn proven_equivalent_mutants_survive_random_sequences(
        seed in any::<u64>(),
        pick in 0usize..Benchmark::all().len(),
        cycles in 2usize..9,
    ) {
        let (circuit, _) = &circuits()[pick];
        let proven = proven_of(pick);
        if !proven.is_empty() {
            let mutants: Vec<Mutant> =
                proven.iter().map(|(_, m)| m.clone()).take(32).collect();
            let sequence = random_sequence_for(circuit, cycles, seed);
            let kills = first_kills_over(
                &circuit.checked, &circuit.name, &mutants, &[sequence], None,
                Engine::Scalar, &LaneOptions::default(),
            ).unwrap();
            prop_assert!(
                kills.iter().all(Option::is_none),
                "{}: a statically-proven mutant was killed: {:?}",
                &circuit.name, kills
            );
        }
    }
}
