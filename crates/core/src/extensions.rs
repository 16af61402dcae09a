//! Extension experiments E1–E4.
//!
//! The paper's own motivation (§1: validation-data reuse should cut
//! ATPG effort; §5: "further experiments must be conducted") defines
//! these follow-ups:
//!
//! * **E1** — sampling-fraction sweep: MS and NLFCE of both strategies
//!   as the sample grows from 5 % to 100 %.
//! * **E2** — the coverage-versus-length curves behind `ΔFC`/`ΔL`.
//! * **E3** — ATPG top-up: deterministic test generation effort with and
//!   without re-used validation data.
//! * **E4** — equivalence-budget ablation: sensitivity of the Mutation
//!   Score to the equivalent-mutant presumption budget.
//!
//! Each runs on one bench's [`BenchContext`].

use crate::context::BenchContext;
use crate::experiment::{
    class_table, compare_strategies, kill_plan, kills_over_sessions, SamplingOutcome,
};
use crate::profile::OperatorProfile;
use musa_mutation::{EquivalencePolicy, MutationError, MutationOperator, MutationScore};
use musa_netlist::{fault_simulate_sessions, Fault, Pattern};
use musa_prng::{Prng, SplitMix64};
use musa_testgen::{
    atpg_all, lfsr_patterns, mutation_guided_tests, MgConfig, PodemResult, SamplingStrategy,
};

// ---------------------------------------------------------------------
// E1 — sampling-fraction sweep
// ---------------------------------------------------------------------

/// One sweep point: both strategies at one fraction.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// The sampling fraction.
    pub fraction: f64,
    /// Test-oriented outcome.
    pub test_oriented: SamplingOutcome,
    /// Random outcome.
    pub random: SamplingOutcome,
}

/// Runs E1 on one bench: both strategies at every fraction, with the
/// test-oriented weights of the bench's operator profile.
///
/// # Errors
///
/// Propagates [`MutationError`] from mutant execution.
pub fn sweep_fractions(
    ctx: &BenchContext,
    fractions: &[f64],
) -> Result<Vec<SweepPoint>, MutationError> {
    let weights = OperatorProfile::measure(ctx, &MutationOperator::all())?.weights();
    fractions
        .iter()
        .map(|&fraction| {
            let (test_oriented, random) = compare_strategies(ctx, fraction, &weights)?;
            Ok(SweepPoint {
                fraction,
                test_oriented,
                random,
            })
        })
        .collect()
}

// ---------------------------------------------------------------------
// E2 — coverage-versus-length curves
// ---------------------------------------------------------------------

/// The two curves behind one circuit's ΔFC/ΔL computation.
#[derive(Debug, Clone)]
pub struct CurvePair {
    /// Circuit name.
    pub circuit: String,
    /// `(length, coverage)` samples of the mutation-data curve (MFC).
    pub mutation: Vec<(usize, f64)>,
    /// `(length, coverage)` samples of the pseudo-random curve (RFC).
    pub random: Vec<(usize, f64)>,
}

/// Runs E2 on one bench: generates validation data from the whole
/// mutant population and samples both coverage curves. Both are fully
/// simulated, since the samples read the curves' interior.
///
/// # Errors
///
/// Propagates [`MutationError`] from mutant execution.
pub fn coverage_curves(ctx: &BenchContext, points: usize) -> Result<CurvePair, MutationError> {
    let (circuit, config) = (ctx.circuit(), ctx.config());
    let mg = MgConfig {
        seed: config.seed ^ 0xE2,
        ..config.mg
    };
    let generated = mutation_guided_tests(&circuit.checked, &circuit.name, ctx.population(), &mg)?;
    let mutation = ctx.coverage(&ctx.patterns(&generated.sessions));
    let random = ctx.baseline_curve(config.baseline_len(mutation.len()), config.seed ^ 0xE2E2);
    Ok(CurvePair {
        circuit: circuit.name.clone(),
        mutation: mutation.sample(points),
        random: random.sample(points),
    })
}

// ---------------------------------------------------------------------
// E3 — ATPG top-up
// ---------------------------------------------------------------------

/// The initial test set handed to the ATPG stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopUpMode {
    /// No initial data: ATPG targets every fault.
    Scratch,
    /// A pseudo-random prefix (the industry default the paper cites).
    RandomFirst,
    /// Re-used mutation validation data (the paper's proposal).
    ValidationFirst,
}

impl TopUpMode {
    /// Table label.
    pub fn label(self) -> &'static str {
        match self {
            TopUpMode::Scratch => "scratch",
            TopUpMode::RandomFirst => "random-first",
            TopUpMode::ValidationFirst => "validation-first",
        }
    }
}

/// Result of one E3 run.
#[derive(Debug, Clone)]
pub struct TopUpOutcome {
    /// Which initial data was used.
    pub mode: TopUpMode,
    /// Vectors applied before ATPG.
    pub initial_vectors: usize,
    /// Faults still undetected after the initial data (= ATPG targets).
    pub atpg_targets: usize,
    /// PODEM backtracks spent (the paper's "test generation effort").
    pub backtracks: u64,
    /// Deterministic vectors ATPG added.
    pub atpg_vectors: usize,
    /// Faults proven untestable.
    pub untestable: usize,
    /// Faults aborted at the backtrack limit.
    pub aborted: usize,
    /// Final fault coverage over the whole universe.
    pub final_coverage: f64,
}

/// Runs E3 on one *combinational* bench for all three modes.
///
/// # Errors
///
/// Propagates [`MutationError`] from mutant execution.
///
/// # Panics
///
/// Panics if the circuit is sequential (PODEM is combinational; the
/// paper's c432/c499 are the E3 targets).
pub fn atpg_topup(
    ctx: &BenchContext,
    backtrack_limit: u64,
) -> Result<Vec<TopUpOutcome>, MutationError> {
    let (circuit, config) = (ctx.circuit(), ctx.config());
    assert!(
        circuit.is_combinational(),
        "E3 targets combinational circuits"
    );
    let mut seeder = SplitMix64::new(config.seed ^ 0xE3);

    // Validation data from the full mutant population.
    let mg = MgConfig {
        seed: seeder.next_u64(),
        ..config.mg
    };
    let generated = mutation_guided_tests(&circuit.checked, &circuit.name, ctx.population(), &mg)?;
    let validation_patterns: Vec<Pattern> =
        ctx.patterns(&generated.sessions).into_iter().flatten().collect();
    let random_patterns = lfsr_patterns(
        circuit.netlist.inputs().len(),
        validation_patterns.len().max(1),
        seeder.next_u64(),
    );

    let modes: [(TopUpMode, Vec<Pattern>); 3] = [
        (TopUpMode::Scratch, Vec::new()),
        (TopUpMode::RandomFirst, random_patterns),
        (TopUpMode::ValidationFirst, validation_patterns),
    ];
    Ok(modes
        .into_iter()
        .map(|(mode, initial)| top_up_once(ctx, mode, initial, backtrack_limit))
        .collect())
}

fn top_up_once(
    ctx: &BenchContext,
    mode: TopUpMode,
    initial: Vec<Pattern>,
    backtrack_limit: u64,
) -> TopUpOutcome {
    let (nl, faults) = (&ctx.circuit().netlist, ctx.faults());
    let initial_vectors = initial.len();
    let after_initial = fault_simulate_sessions(nl, faults, &[initial]);
    let mut undetected: Vec<Fault> = after_initial.undetected();
    let atpg_targets = undetected.len();

    let mut backtracks = 0u64;
    let mut untestable = 0usize;
    let mut aborted = 0usize;
    let mut atpg_vectors = 0usize;
    let mut detected_total = after_initial.detected_count();

    while let Some(fault) = undetected.first().copied() {
        let (results, stats) = atpg_all(nl, &[fault], backtrack_limit);
        backtracks += stats.backtracks;
        match &results[0] {
            PodemResult::Test(pattern) => {
                atpg_vectors += 1;
                // Fault-drop the new pattern against everything pending.
                let drop = fault_simulate_sessions(nl, &undetected, &[vec![pattern.clone()]]);
                let still: Vec<Fault> = drop.undetected();
                detected_total += undetected.len() - still.len();
                undetected = still;
            }
            PodemResult::Untestable => {
                untestable += 1;
                undetected.remove(0);
            }
            PodemResult::Aborted => {
                aborted += 1;
                undetected.remove(0);
            }
        }
    }
    TopUpOutcome {
        mode,
        initial_vectors,
        atpg_targets,
        backtracks,
        atpg_vectors,
        untestable,
        aborted,
        final_coverage: detected_total as f64 / faults.len().max(1) as f64,
    }
}

// ---------------------------------------------------------------------
// E4 — equivalence-budget ablation
// ---------------------------------------------------------------------

/// One E4 point: the Mutation Score under a given equivalence budget.
#[derive(Debug, Clone)]
pub struct AblationPoint {
    /// Random-simulation budget used for the presumption.
    pub budget: usize,
    /// Mutants classified equivalent under this budget.
    pub equivalent: usize,
    /// The resulting score.
    pub score: MutationScore,
}

/// Runs E4 on one bench: fixed validation data (random 10 % sample),
/// varying equivalence budget.
///
/// # Errors
///
/// Propagates [`MutationError`] from mutant execution.
pub fn equivalence_ablation(
    ctx: &BenchContext,
    budgets: &[usize],
) -> Result<Vec<AblationPoint>, MutationError> {
    let (circuit, population, config) = (ctx.circuit(), ctx.population(), ctx.config());
    let mut seeder = SplitMix64::new(config.seed ^ 0xE4);
    let selected = musa_testgen::sample_mutants(
        population,
        &SamplingStrategy::random(0.10),
        seeder.next_u64(),
    );
    let subset: Vec<_> = selected.iter().map(|&i| population[i].clone()).collect();
    let mg = MgConfig {
        seed: seeder.next_u64(),
        ..config.mg
    };
    let generated = mutation_guided_tests(&circuit.checked, &circuit.name, &subset, &mg)?;
    // The ablation varies the *classification budget*; screening would
    // remove exactly the mutants whose class the budget decides, so the
    // whole population runs unscreened here.
    let kills = {
        let plan = kill_plan(ctx, None)?;
        kills_over_sessions(&plan, &generated.sessions, config.jobs, None)?
    };

    let survivors = kills.alive();
    budgets
        .iter()
        .map(|&budget| {
            let policy = EquivalencePolicy {
                budget,
                ..config.equivalence
            };
            let classes = class_table(ctx, &[&survivors], &policy, None)?;
            let score = MutationScore::from_results(&kills, &classes);
            Ok(AblationPoint {
                budget,
                equivalent: score.equivalent,
                score,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExperimentConfig;
    use musa_circuits::Benchmark;

    fn c17(seed: u64) -> BenchContext {
        BenchContext::new(
            Benchmark::C17.load().unwrap(),
            &ExperimentConfig::fast(seed),
        )
    }

    #[test]
    fn e1_sweep_runs_and_counts_scale() {
        let points = sweep_fractions(&c17(0xE1), &[0.2, 1.0]).unwrap();
        assert_eq!(points.len(), 2);
        assert!(points[0].test_oriented.sampled < points[1].test_oriented.sampled);
        assert_eq!(points[1].test_oriented.sampled, points[1].random.sampled);
    }

    #[test]
    fn e2_curves_have_samples() {
        let pair = coverage_curves(&c17(0xE2), 16).unwrap();
        assert_eq!(pair.circuit, "c17");
        assert!(!pair.mutation.is_empty());
        assert!(!pair.random.is_empty());
        // Random baseline is longer than the mutation data.
        assert!(pair.random.last().unwrap().0 >= pair.mutation.last().unwrap().0);
    }

    #[test]
    fn e3_validation_first_reduces_effort() {
        let outcomes = atpg_topup(&c17(0xE3), 10_000).unwrap();
        assert_eq!(outcomes.len(), 3);
        let scratch = &outcomes[0];
        let validation = &outcomes[2];
        assert_eq!(scratch.mode, TopUpMode::Scratch);
        assert_eq!(validation.mode, TopUpMode::ValidationFirst);
        // Everything ends at (near) full coverage on c17.
        for o in &outcomes {
            assert!(o.final_coverage > 0.99, "{:?}", o);
        }
        // Re-used data leaves fewer ATPG targets than starting from
        // scratch.
        assert!(validation.atpg_targets < scratch.atpg_targets);
    }

    #[test]
    fn e4_ablation_is_monotone_in_budget() {
        let points = equivalence_ablation(&c17(0xE4), &[10, 500]).unwrap();
        assert_eq!(points.len(), 2);
        // More budget can only reduce (or keep) the equivalent count:
        // survivors get more chances to be killed in classification.
        assert!(points[1].equivalent <= points[0].equivalent);
    }
}
