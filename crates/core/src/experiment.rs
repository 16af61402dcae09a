//! The sampling experiment — the machinery behind Table 2.
//!
//! Paper §4: sample a fixed fraction of the mutant population (10 %),
//! generate validation data from the *sampled* mutants only, then
//! measure (a) the Mutation Score of that data against the **entire**
//! population and (b) its gate-level NLFCE versus the pseudo-random
//! baseline.

use crate::config::ExperimentConfig;
use crate::context::{BenchContext, FaultSimStats};
use crate::parallel::{par_map, split_jobs, try_par_map};
use musa_metrics::Nlfce;
use musa_mutation::{
    classify_mutants_jobs, first_kills_from, survivor_class, EquivalenceClass, EquivalencePolicy,
    KillResult, LaneOptions, LanePlan, Mutant, MutationError, MutationScore,
};
use musa_prng::{Prng, SplitMix64};
use musa_testgen::{
    mutation_guided_tests, sample_mutants, MgConfig, OperatorWeights, SamplingStrategy,
};

/// Outcome of one sampling experiment (one Table 2 cell pair).
#[derive(Debug, Clone)]
pub struct SamplingOutcome {
    /// Strategy label (`random` / `test-oriented`).
    pub strategy: &'static str,
    /// Total mutant population size (`M`).
    pub population: usize,
    /// Number of sampled mutants the data was generated from.
    pub sampled: usize,
    /// Mutation Score of the generated data on the full population, in
    /// percent (paper's `MS%`).
    pub mutation_score_pct: f64,
    /// The full score breakdown.
    pub score: MutationScore,
    /// Gate-level metrics of the generated data vs the random baseline.
    pub metrics: Nlfce,
    /// NLFCE convenience copy (`metrics.nlfce`).
    pub nlfce: f64,
    /// Total validation-data length.
    pub data_len: usize,
    /// Lane occupancy of the mutation-data fault simulation:
    /// `faults_simulated < faults_total` when dominance reduction
    /// ([`ExperimentConfig::fault_reduce`]) credited faults out of the
    /// lanes. Coverage numbers are identical either way.
    pub fault_sim: FaultSimStats,
    /// Mutants the static pre-screen ([`ExperimentConfig::screen`])
    /// proved equivalent without simulation. They skip every execution
    /// stage and fold into the `E` term with the class full execution
    /// would report, so every score is identical with screening off.
    pub screened: usize,
}

/// Runs one sampling experiment on a bench.
///
/// Averages `ctx.config().repetitions` independent repetitions (fresh sample,
/// data and baseline seeds each time): single 10 % samples are noisy.
/// Every repetition's three seeds are pre-drawn from the `SplitMix64`
/// stream in serial order, before any worker exists.
///
/// The repetitions run in three phases:
///
/// 1. per repetition, sharded across `config.jobs` worker threads:
///    sample, generate the validation data, kill. Every kill phase runs
///    the same unscreened population, so its lane plan is compiled
///    once, with the whole thread budget, before the repetitions fork,
///    and dropped once they are done;
/// 2. **one** equivalence classification of the union of every
///    repetition's unscreened survivors, in ascending population order
///    (a mutant's class is a pure function of the circuit, the mutant
///    and the policy, so classifying it once serves every repetition
///    that saw it survive);
/// 3. per repetition, sharded again: score against the shared class
///    table, fault-simulate the data, grade the random baseline.
///
/// Each phase merges by repetition index, so the returned aggregate is
/// bit-identical for every thread count (see [`crate::parallel`]).
///
/// # Errors
///
/// Propagates [`MutationError`] from mutant execution.
pub fn run_sampling_experiment(
    ctx: &BenchContext,
    strategy: SamplingStrategy,
) -> Result<SamplingOutcome, MutationError> {
    if ctx.screened().is_some() {
        musa_trace::count("screened", ctx.screened_count() as u64);
    }
    SamplingRun {
        ctx,
        strategy,
        seeds: repetition_seed_schedule(ctx.config()),
    }
    .run_all()
}

/// Both Table 2 strategies at one `fraction`: test-oriented sampling
/// with `weights`, then random sampling.
///
/// # Errors
///
/// Propagates [`MutationError`] from mutant execution.
pub(crate) fn compare_strategies(
    ctx: &BenchContext,
    fraction: f64,
    weights: &OperatorWeights,
) -> Result<(SamplingOutcome, SamplingOutcome), MutationError> {
    let test_oriented = run_sampling_experiment(
        ctx,
        SamplingStrategy::test_oriented(fraction, weights.clone()),
    )?;
    let random = run_sampling_experiment(ctx, SamplingStrategy::random(fraction))?;
    Ok((test_oriented, random))
}

/// The repetition seed schedule: triple `i` — `[sample, mg, baseline]`
/// — is exactly what serial repetition `i` draws from the `SplitMix64`
/// stream. Seed assignment is position-based and drawn before any
/// worker exists, so every thread count hands repetition `i` identical
/// seeds.
fn repetition_seed_schedule(config: &ExperimentConfig) -> Vec<[u64; 3]> {
    let mut seeder = SplitMix64::new(config.seed ^ 0xA5A5_5A5A_1234_4321);
    (0..config.repetitions.max(1))
        .map(|_| [seeder.next_u64(), seeder.next_u64(), seeder.next_u64()])
        .collect()
}

/// One sampling experiment: the bench's shared state (population, fault
/// list, dominance plan and screen, borrowed from the context) plus the
/// strategy and seed schedule, and the phase helpers of
/// [`run_sampling_experiment`].
struct SamplingRun<'a> {
    ctx: &'a BenchContext,
    strategy: SamplingStrategy,
    seeds: Vec<[u64; 3]>,
}

impl SamplingRun<'_> {
    /// Every repetition, in the three phases documented on
    /// [`run_sampling_experiment`].
    fn run_all(&self) -> Result<SamplingOutcome, MutationError> {
        let ctx = self.ctx;
        let name = &ctx.circuit().name;
        let repetitions = self.seeds.len();
        // Repetitions get the outer share of the thread budget; each
        // repetition's mutant executions split what remains. The one
        // classification between the phases has the whole budget.
        let (outer_jobs, inner_jobs) = split_jobs(ctx.config().jobs, repetitions);
        let _trace = musa_trace::span_detail("repetitions", || name.clone());
        let killed = {
            let plan = kill_plan(ctx, ctx.screened())?;
            try_par_map(outer_jobs, &self.seeds, |_, &[sample, mg, _]| {
                self.kill_phase(&plan, sample, mg, inner_jobs)
            })?
        };
        let survivor_sets: Vec<&[usize]> = killed.iter().map(|k| k.survivors.as_slice()).collect();
        let table = {
            let _trace = musa_trace::span("classify");
            class_table(
                ctx,
                &survivor_sets,
                &ctx.config().equivalence,
                ctx.screened(),
            )?
        };
        let outcomes = par_map(outer_jobs, &killed, |rep, killed| {
            let outcome = self.finish(killed, &table, self.seeds[rep][2]);
            musa_trace::progress(|| format!("{name}: repetition {}/{repetitions} done", rep + 1));
            outcome
        });
        let mut aggregate = SamplingAggregate::new();
        for (repetition, outcome) in outcomes.into_iter().enumerate() {
            aggregate.push(repetition, outcome);
        }
        Ok(aggregate.finish())
    }

    /// Phase 1 of one repetition: sample the population, generate
    /// validation data from the sample, and run the **full** population
    /// against it, from the experiment's kill `plan`. Statically
    /// screened mutants never enter the simulator: they stay unkilled
    /// and are classified directly with the class execution would
    /// report.
    fn kill_phase(
        &self,
        plan: &LanePlan<'_>,
        sample_seed: u64,
        mg_seed: u64,
        jobs: usize,
    ) -> Result<Killed, MutationError> {
        let ctx = self.ctx;
        let (circuit, population) = (ctx.circuit(), ctx.population());
        let selected = {
            let _trace = musa_trace::span("sample");
            sample_mutants(population, &self.strategy, sample_seed)
        };
        let subset: Vec<Mutant> = selected.iter().map(|&i| population[i].clone()).collect();
        let mg = MgConfig {
            seed: mg_seed,
            ..ctx.config().mg
        };
        let generated = {
            let _trace = musa_trace::span("generate_data");
            mutation_guided_tests(&circuit.checked, &circuit.name, &subset, &mg)?
        };
        let kills = {
            let _trace = musa_trace::span("mutant_exec");
            kills_over_sessions(plan, &generated.sessions, jobs, ctx.screened())?
        };
        Ok(Killed {
            sampled: subset.len(),
            sessions: generated.sessions,
            survivors: kills.alive(),
        })
    }

    /// Phase 3 of one repetition: the Mutation Score on the full
    /// population, and the gate-level grade of the same data
    /// ([`BenchContext::grade_data`]).
    fn finish(
        &self,
        killed: &Killed,
        table: &[EquivalenceClass],
        baseline_seed: u64,
    ) -> SamplingOutcome {
        let ctx = self.ctx;
        let generated = ctx.population().len();
        // `MutationScore::from_results` over this repetition's kills:
        // only survivors can count towards `E`.
        let score = MutationScore {
            generated,
            killed: generated - killed.survivors.len(),
            equivalent: killed
                .survivors
                .iter()
                .filter(|&&i| table[i].is_equivalent())
                .count(),
        };
        let grade = ctx.grade_data(&killed.sessions, baseline_seed);
        SamplingOutcome {
            strategy: self.strategy.label(),
            population: generated,
            sampled: killed.sampled,
            mutation_score_pct: score.percent(),
            score,
            metrics: grade.metrics,
            nlfce: grade.metrics.nlfce,
            data_len: killed.sessions.iter().map(Vec::len).sum(),
            fault_sim: grade.fault_sim,
            screened: ctx.screened_count(),
        }
    }
}

/// One repetition between its kill phase and its scoring.
struct Killed {
    /// Mutants the validation data was generated from.
    sampled: usize,
    /// The validation data (one reset-started session each).
    sessions: Vec<musa_mutation::TestSequence>,
    /// Population indices no generated vector killed, ascending —
    /// statically screened mutants included.
    survivors: Vec<usize>,
}

/// Index-ordered merge of per-repetition [`SamplingOutcome`]s.
///
/// Replaces the former clone-the-last-repetition-and-patch-some-fields
/// scheme, which silently reported repetition *N*'s values for every
/// field it forgot to re-average. Here every field has an explicit,
/// audited policy:
///
/// | field | aggregation |
/// |---|---|
/// | `strategy`, `population` | invariant across repetitions (asserted) |
/// | `mutation_score_pct`, `metrics.delta_fc_pct`, `metrics.delta_l_pct`, `metrics.nlfce` | arithmetic mean (`nlfce` copies `metrics.nlfce`) |
/// | `sampled`, `data_len`, `metrics.mutation_len`, `score.killed`, `score.equivalent`, `fault_sim.faults_simulated` | mean, rounded via [`SamplingAggregate::mean_rounded`] |
/// | `score.generated`, `fault_sim.faults_total` | invariant across repetitions (asserted) |
/// | `metrics.random_len_at_equal_fc` | rounded mean when every repetition reports `Some`, else `None` (a single saturated baseline makes the mean meaningless) |
///
/// The `metrics` and `fault_sim` rows are `mean_grade`, which the
/// operator profile averages its repetitions by as well.
///
/// Outcomes are keyed by repetition index and [`finish`] always reduces
/// in index order, so the merge is **order-independent**: push order —
/// hence worker scheduling — cannot change a single output bit.
///
/// [`finish`]: SamplingAggregate::finish
#[derive(Debug, Default)]
pub struct SamplingAggregate {
    outcomes: Vec<(usize, SamplingOutcome)>,
}

impl SamplingAggregate {
    /// Creates an empty aggregate.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the outcome of repetition `repetition`.
    ///
    /// # Panics
    ///
    /// Panics if the same repetition index is pushed twice.
    pub fn push(&mut self, repetition: usize, outcome: SamplingOutcome) {
        assert!(
            self.outcomes.iter().all(|(r, _)| *r != repetition),
            "repetition {repetition} pushed twice"
        );
        self.outcomes.push((repetition, outcome));
    }

    /// Number of repetitions recorded so far.
    pub fn len(&self) -> usize {
        self.outcomes.len()
    }

    /// Whether no repetition has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
    }

    /// The workspace-wide rounding policy for averaged integer counts:
    /// **round half up** (`⌊mean + 1/2⌋`), computed in exact integer
    /// arithmetic so half-way cases can never wobble with float
    /// representation. `mean_rounded(3, 2)` — lengths 1 and 2 — is 2.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn mean_rounded(sum: usize, n: usize) -> usize {
        assert!(n > 0, "mean of zero repetitions");
        (2 * sum + n) / (2 * n)
    }

    /// Reduces the recorded repetitions, in repetition-index order, to
    /// one aggregated [`SamplingOutcome`].
    ///
    /// # Panics
    ///
    /// Panics if no outcome was pushed, or if a field documented as
    /// invariant differs between repetitions.
    pub fn finish(mut self) -> SamplingOutcome {
        assert!(!self.outcomes.is_empty(), "no repetitions to aggregate");
        self.outcomes.sort_by_key(|(repetition, _)| *repetition);
        let outcomes: Vec<SamplingOutcome> =
            self.outcomes.into_iter().map(|(_, o)| o).collect();
        let first = &outcomes[0];
        let n = outcomes.len();
        let nf = n as f64;
        for o in &outcomes[1..] {
            assert_eq!(o.strategy, first.strategy, "strategy varies between repetitions");
            assert_eq!(
                o.population, first.population,
                "population varies between repetitions"
            );
            assert_eq!(
                o.score.generated, first.score.generated,
                "generated count varies between repetitions"
            );
            assert_eq!(
                o.fault_sim.faults_total, first.fault_sim.faults_total,
                "fault universe varies between repetitions"
            );
            assert_eq!(
                o.screened, first.screened,
                "static screen verdicts vary between repetitions"
            );
        }
        let mean_n = |field: fn(&SamplingOutcome) -> usize| -> usize {
            Self::mean_rounded(outcomes.iter().map(field).sum(), n)
        };
        let grades: Vec<(Nlfce, FaultSimStats)> =
            outcomes.iter().map(|o| (o.metrics, o.fault_sim)).collect();
        let (metrics, fault_sim) = Self::mean_grade(&grades);
        SamplingOutcome {
            strategy: first.strategy,
            population: first.population,
            sampled: mean_n(|o| o.sampled),
            mutation_score_pct: outcomes.iter().map(|o| o.mutation_score_pct).sum::<f64>() / nf,
            score: MutationScore {
                generated: first.score.generated,
                killed: mean_n(|o| o.score.killed),
                equivalent: mean_n(|o| o.score.equivalent),
            },
            metrics,
            nlfce: metrics.nlfce,
            data_len: mean_n(|o| o.data_len),
            fault_sim,
            screened: first.screened,
        }
    }

    /// The mean of per-repetition gate-level grades, in the order
    /// given: `ΔFC%`, `ΔL%` and `NLFCE` summed and divided by the
    /// count, `mutation_len` and `faults_simulated` rounded by
    /// [`Self::mean_rounded`], and `random_len_at_equal_fc` only when
    /// every repetition has one. `faults_total` is the first grade's.
    pub(crate) fn mean_grade(grades: &[(Nlfce, FaultSimStats)]) -> (Nlfce, FaultSimStats) {
        let n = grades.len();
        let mean_f = |field: fn(&Nlfce) -> f64| -> f64 {
            grades.iter().map(|(m, _)| field(m)).sum::<f64>() / n as f64
        };
        let metrics = Nlfce {
            delta_fc_pct: mean_f(|m| m.delta_fc_pct),
            delta_l_pct: mean_f(|m| m.delta_l_pct),
            nlfce: mean_f(|m| m.nlfce),
            mutation_len: Self::mean_rounded(grades.iter().map(|(m, _)| m.mutation_len).sum(), n),
            random_len_at_equal_fc: grades
                .iter()
                .map(|(m, _)| m.random_len_at_equal_fc)
                .collect::<Option<Vec<usize>>>()
                .map(|lens| Self::mean_rounded(lens.iter().sum(), n)),
        };
        let fault_sim = FaultSimStats {
            faults_simulated: Self::mean_rounded(
                grades.iter().map(|(_, s)| s.faults_simulated).sum(),
                n,
            ),
            faults_total: grades[0].1.faults_total,
        };
        (metrics, fault_sim)
    }
}

/// The kill phase's lane plan: every mutant of the bench's population
/// that `screened` does not flag, in population order — the first plan
/// a [`musa_mutation::first_kills_over`] sweep under that mask
/// compiles, so its groups, passes and lane-ops are that sweep's — with
/// `config.jobs` threads sharding the compile.
///
/// # Errors
///
/// Returns [`MutationError::EntityNotFound`] when the circuit has no
/// entity of its name.
pub(crate) fn kill_plan<'c>(
    ctx: &'c BenchContext,
    screened: Option<&[bool]>,
) -> Result<LanePlan<'c>, MutationError> {
    let (circuit, population) = (ctx.circuit(), ctx.population());
    let members = (0..population.len())
        .filter(|&i| !screened.is_some_and(|mask| mask[i]))
        .collect();
    let options = LaneOptions::default().with_jobs(ctx.config().jobs);
    LanePlan::over(&circuit.checked, &circuit.name, population, members, &options)
}

/// Executes the bench's whole population against multi-session data,
/// one [`first_kills_from`] sweep from `plan` ([`kill_plan`] under the
/// same `screened` mask) with the sessions in order: a mutant killed
/// by one session is not simulated again, and `first_kill` indexes the
/// concatenated data. `jobs` shards each session's lane groups across
/// worker threads; the plan itself is not recompiled, so a caller
/// grading many session sets compiles it once.
/// Mutants flagged in `screened` are statically proven unkillable and
/// never occupy a simulation slot (their `first_kill` stays `None`,
/// exactly as exhaustive execution would leave it).
pub(crate) fn kills_over_sessions(
    plan: &LanePlan<'_>,
    sessions: &[musa_mutation::TestSequence],
    jobs: usize,
    screened: Option<&[bool]>,
) -> Result<KillResult, MutationError> {
    let kills = first_kills_from(plan, sessions, screened, jobs)?;
    let starts: Vec<usize> = sessions
        .iter()
        .scan(0, |offset, session| {
            let start = *offset;
            *offset += session.len();
            Some(start)
        })
        .collect();
    Ok(KillResult {
        first_kill: kills
            .into_iter()
            .map(|kill| kill.map(|(session, t)| starts[session] + t))
            .collect(),
    })
}

/// The equivalence class under `policy` of every mutant that survives
/// in any of `survivor_sets` (population indices), indexed like the
/// bench's population; every other entry is
/// [`EquivalenceClass::Killable`].
///
/// Each distinct unscreened survivor is classified **once**, on the lane
/// engine with `config.jobs` threads, in ascending population order —
/// a mutant's class depends only on the circuit, the mutant and the
/// policy, so one verdict serves every set it appears in. Mutants
/// flagged in `screened` are assigned [`survivor_class`] directly — the
/// class [`classify_mutants_jobs`] reports for any mutant that survives
/// every sequence, which a statically proven-equivalent mutant is
/// guaranteed to do — so the budget is spent only on the mutants that
/// genuinely need it.
///
/// Counts `classify_mutants` (distinct mutants simulated) and
/// `classify_cache_hits` (survivor lookups beyond the first per mutant).
pub(crate) fn class_table(
    ctx: &BenchContext,
    survivor_sets: &[&[usize]],
    policy: &EquivalencePolicy,
    screened: Option<&[bool]>,
) -> Result<Vec<EquivalenceClass>, MutationError> {
    let (circuit, population) = (ctx.circuit(), ctx.population());
    let is_screened = |i: usize| screened.is_some_and(|mask| mask[i]);
    let mut wanted = vec![false; population.len()];
    let mut lookups = 0usize;
    for &i in survivor_sets.iter().flat_map(|set| set.iter()) {
        if !is_screened(i) {
            wanted[i] = true;
            lookups += 1;
        }
    }
    let distinct: Vec<usize> = (0..population.len()).filter(|&i| wanted[i]).collect();
    musa_trace::count("classify_mutants", distinct.len() as u64);
    musa_trace::count("classify_cache_hits", (lookups - distinct.len()) as u64);
    let subset: Vec<Mutant> = distinct.iter().map(|&i| population[i].clone()).collect();
    let classes = classify_mutants_jobs(
        &circuit.checked,
        &circuit.name,
        &subset,
        policy,
        ctx.config().jobs,
    )?;
    let mut table = vec![EquivalenceClass::Killable; population.len()];
    for (&mi, class) in distinct.iter().zip(classes) {
        table[mi] = class;
    }
    if let Some(mask) = screened {
        let info = circuit
            .checked
            .entity_info(&circuit.name)
            .ok_or_else(|| MutationError::EntityNotFound(circuit.name.clone()))?;
        let class = survivor_class(info, policy);
        for (entry, _) in table.iter_mut().zip(mask).filter(|(_, &s)| s) {
            *entry = class;
        }
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use musa_circuits::Benchmark;
    use musa_mutation::{first_kills_over, Engine};
    use proptest::prelude::*;

    fn context(bench: Benchmark, config: &ExperimentConfig) -> BenchContext {
        BenchContext::new(bench.load().unwrap(), config)
    }

    /// A synthetic outcome whose every field is derived from `k`, so
    /// repetitions are guaranteed to differ wherever aggregation must
    /// actually aggregate.
    fn synthetic(k: usize) -> SamplingOutcome {
        SamplingOutcome {
            strategy: "random",
            population: 100,
            sampled: 10 + k,
            mutation_score_pct: 50.0 + k as f64,
            score: MutationScore {
                generated: 100,
                killed: 40 + 2 * k,
                equivalent: k,
            },
            metrics: Nlfce {
                delta_fc_pct: 1.0 + k as f64,
                delta_l_pct: 10.0 + k as f64,
                nlfce: 100.0 + k as f64,
                mutation_len: 20 + k,
                random_len_at_equal_fc: Some(200 + k),
            },
            nlfce: 100.0 + k as f64,
            data_len: 30 + k,
            fault_sim: FaultSimStats {
                faults_simulated: 50 + k,
                faults_total: 80,
            },
            // Invariant across repetitions (screening is one pass over
            // the shared population), like `population` above.
            screened: 7,
        }
    }

    /// Byte-identical comparison: `Debug` for `f64` round-trips the
    /// exact bit pattern, so equal strings mean equal bits everywhere.
    fn assert_identical(a: &SamplingOutcome, b: &SamplingOutcome, what: &str) {
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "{what}");
    }

    #[test]
    fn aggregate_averages_every_field_not_just_the_headline_ones() {
        // Regression: the old merge cloned the LAST repetition and only
        // re-averaged MS/NLFCE/ΔFC/ΔL/data_len, so sampled, kill
        // counts and curve lengths silently reported repetition N.
        let mut agg = SamplingAggregate::new();
        agg.push(0, synthetic(0));
        agg.push(1, synthetic(4));
        let mean = agg.finish();
        assert_eq!(mean.strategy, "random");
        assert_eq!(mean.population, 100);
        assert_eq!(mean.sampled, 12, "sampled must be the mean, not rep N's");
        assert_eq!(mean.score.generated, 100);
        assert_eq!(mean.score.killed, 44, "killed must be the mean, not rep N's");
        assert_eq!(mean.score.equivalent, 2);
        assert_eq!(mean.metrics.mutation_len, 22);
        assert_eq!(mean.metrics.random_len_at_equal_fc, Some(202));
        assert_eq!(mean.data_len, 32);
        assert_eq!(mean.fault_sim.faults_simulated, 52);
        assert_eq!(mean.fault_sim.faults_total, 80);
        assert_eq!(mean.screened, 7);
        assert!((mean.mutation_score_pct - 52.0).abs() < 1e-12);
        assert!((mean.nlfce - 102.0).abs() < 1e-12);
        assert!((mean.metrics.nlfce - 102.0).abs() < 1e-12);
        assert!((mean.metrics.delta_fc_pct - 3.0).abs() < 1e-12);
        assert!((mean.metrics.delta_l_pct - 12.0).abs() < 1e-12);
    }

    #[test]
    fn aggregate_drops_saturation_length_when_any_rep_lacks_it() {
        let mut agg = SamplingAggregate::new();
        agg.push(0, synthetic(0));
        let mut unsaturated = synthetic(2);
        unsaturated.metrics.random_len_at_equal_fc = None;
        agg.push(1, unsaturated);
        assert_eq!(agg.finish().metrics.random_len_at_equal_fc, None);
    }

    #[test]
    fn mean_rounding_policy_is_half_up_in_exact_arithmetic() {
        // Lengths 1 and 2 average to 1.5: policy says round half UP.
        assert_eq!(SamplingAggregate::mean_rounded(3, 2), 2);
        // And never half-down on the other side of an integer.
        assert_eq!(SamplingAggregate::mean_rounded(5, 2), 3);
        assert_eq!(SamplingAggregate::mean_rounded(4, 2), 2);
        assert_eq!(SamplingAggregate::mean_rounded(0, 3), 0);
        assert_eq!(SamplingAggregate::mean_rounded(10, 4), 3); // 2.5 -> 3
        // The half-way case that decides Table 1's vector-count column.
        let mut agg = SamplingAggregate::new();
        let mut a = synthetic(0);
        a.data_len = 1;
        let mut b = synthetic(1);
        b.data_len = 2;
        agg.push(0, a);
        agg.push(1, b);
        assert_eq!(agg.finish().data_len, 2);
    }

    #[test]
    #[should_panic(expected = "no repetitions to aggregate")]
    fn finish_on_the_empty_aggregate_panics_with_a_clear_message() {
        // The contract is explicit: an aggregate holds at least one
        // repetition before `finish` (the experiment loop guarantees
        // `repetitions.max(1)`); finishing empty is a caller bug and
        // must fail loudly, not return a fabricated outcome.
        let agg = SamplingAggregate::new();
        assert!(agg.is_empty());
        assert_eq!(agg.len(), 0);
        let _ = agg.finish();
    }

    #[test]
    #[should_panic(expected = "pushed twice")]
    fn aggregate_rejects_duplicate_repetition_indices() {
        let mut agg = SamplingAggregate::new();
        agg.push(0, synthetic(0));
        agg.push(0, synthetic(1));
    }

    #[test]
    fn parallel_jobs_are_bit_identical_to_serial_on_c17_and_b01() {
        for bench in [Benchmark::C17, Benchmark::B01] {
            let config = ExperimentConfig::fast(0xD0_0D);
            let run = |jobs: usize| {
                run_sampling_experiment(
                    &context(bench, &config.with_jobs(jobs)),
                    SamplingStrategy::random(0.4),
                )
                .unwrap()
            };
            let serial = run(1);
            for jobs in [2, 8] {
                assert_identical(
                    &serial,
                    &run(jobs),
                    &format!("{bench}: jobs=1 vs jobs={jobs}"),
                );
            }
        }
    }

    /// The counters `run` leaves in a tracer of its own: the four
    /// [`musa_mutation::LaneStats`] ones, and `lane_groups_compiled`.
    fn lane_counters<T>(run: impl FnOnce() -> T) -> (T, [u64; 4], u64) {
        let tracer = musa_trace::Tracer::new();
        let out = {
            let _install = tracer.install();
            run()
        };
        let data = tracer.finish();
        let counter = |name: &str| {
            data.counters.iter().find(|(n, _)| *n == name).map_or(0, |&(_, v)| v)
        };
        let stats = ["lane_passes", "lane_steps", "lane_ops", "lane_live_ops"].map(counter);
        (out, stats, counter("lane_groups_compiled"))
    }

    #[test]
    fn lane_engine_outcome_is_bit_identical_to_scalar() {
        // The kill phase sweeps the unscreened population on the lane
        // engine from one plan per experiment, which every repetition
        // runs with data of its own; the scalar sweep over the same
        // sessions is its oracle. Each bench reuses one plan for three
        // session sets, and each set's lane counters equal those of a
        // sweep that compiles its own first plan. c432 keeps every
        // eighth mutant live, so its plan's slots are not population
        // indices, and holds several groups; b05's sessions kill enough
        // for the sweep to repack onto a plan of its own after the
        // shared one.
        for (bench, stride) in [
            (Benchmark::C17, 1),
            (Benchmark::B01, 1),
            (Benchmark::B05, 1),
            (Benchmark::C432, 8),
        ] {
            let ctx = context(bench, &ExperimentConfig::fast(0xE6));
            let (circuit, population) = (ctx.circuit(), ctx.population());
            let skip: Vec<bool> = (0..population.len())
                .map(|i| i % stride != 0 || ctx.screened().is_some_and(|mask| mask[i]))
                .collect();
            let plan = kill_plan(&ctx, Some(&skip)).unwrap();
            assert!(stride == 1 || plan.group_count() >= 3, "{bench}: groups");
            let sweep = |sessions: &[musa_mutation::TestSequence], engine| {
                first_kills_over(
                    &circuit.checked,
                    &circuit.name,
                    population,
                    sessions,
                    Some(&skip),
                    engine,
                    &LaneOptions::default(),
                )
                .unwrap()
            };
            let mut repacks = 0;
            for set in 0..3u64 {
                let lens = [5, 1, 9, 3];
                let sessions: Vec<_> = (0..lens.len())
                    .map(|s| {
                        let seed = 0xE6 + 16 * set + s as u64;
                        musa_testgen::random_sequence(circuit.info(), lens[s], seed)
                    })
                    .collect();
                let starts = [0, 5, 6, 15];
                let scalar: Vec<Option<usize>> = sweep(&sessions, Engine::Scalar)
                    .into_iter()
                    .map(|kill| kill.map(|(s, t)| starts[s] + t))
                    .collect();
                assert!(scalar.iter().any(Option::is_some), "{bench}: nothing killed");
                let (_, fresh, _) = lane_counters(|| sweep(&sessions, Engine::Lanes));
                for jobs in [1, 4] {
                    let (lanes, stats, compiled) = lane_counters(|| {
                        kills_over_sessions(&plan, &sessions, jobs, Some(&skip)).unwrap()
                    });
                    let what = format!("{bench}: session set {set}, jobs={jobs}");
                    assert_eq!(lanes.first_kill, scalar, "{what}: scalar vs lanes");
                    assert_eq!(stats, fresh, "{what}: lane counters vs a fresh sweep");
                    repacks += compiled;
                }
            }
            if bench == Benchmark::B05 {
                assert!(repacks > 0, "b05: the sweep never left the shared plan");
            }
        }
    }

    #[test]
    fn kill_results_are_identical_across_job_counts_on_b01_and_c17() {
        for bench in [Benchmark::B01, Benchmark::C17] {
            let ctx = context(bench, &ExperimentConfig::fast(0));
            let (circuit, population) = (ctx.circuit(), ctx.population());
            let sequence = musa_testgen::random_sequence(circuit.info(), 24, 0xBEEF);
            let run = |jobs, engine| {
                musa_mutation::execute_mutants_engine_opt(
                    &circuit.checked,
                    &circuit.name,
                    population,
                    &sequence,
                    jobs,
                    engine,
                    musa_mutation::OptLevel::Full,
                )
                .unwrap()
            };
            let serial = run(1, Engine::Scalar);
            for engine in [Engine::Scalar, Engine::Lanes] {
                for jobs in [0, 2, 8] {
                    assert_eq!(
                        run(jobs, engine).first_kill,
                        serial.first_kill,
                        "{bench}: {engine:?}, jobs={jobs}"
                    );
                }
            }
        }
    }

    proptest! {
        /// The merge is order-independent: pushing the same repetitions
        /// in any arrival order yields a byte-identical aggregate —
        /// the property that makes worker scheduling unobservable.
        #[test]
        fn aggregate_is_push_order_independent(
            values in proptest::collection::vec(0usize..1000, 2..9),
            rotation in 1usize..8,
        ) {
            let n = values.len();
            let mut in_order = SamplingAggregate::new();
            for (i, &v) in values.iter().enumerate() {
                in_order.push(i, synthetic(v));
            }
            let mut rotated = SamplingAggregate::new();
            for off in 0..n {
                let i = (off + rotation) % n;
                rotated.push(i, synthetic(values[i]));
            }
            let a = in_order.finish();
            let b = rotated.finish();
            prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
    }

    #[test]
    fn random_sampling_experiment_runs_on_c17() {
        let ctx = context(Benchmark::C17, &ExperimentConfig::fast(0x21));
        let outcome = run_sampling_experiment(&ctx, SamplingStrategy::random(0.5)).unwrap();
        assert_eq!(outcome.strategy, "random");
        assert!(outcome.population > 0);
        assert_eq!(
            outcome.sampled,
            ((outcome.population as f64 * 0.5).round() as usize).max(1)
        );
        assert!(outcome.mutation_score_pct > 0.0);
        assert!(outcome.mutation_score_pct <= 100.0);
        assert!(outcome.data_len > 0);
    }

    #[test]
    fn full_fraction_scores_at_least_any_subset() {
        let ctx = context(Benchmark::C17, &ExperimentConfig::fast(0x33));
        let all = run_sampling_experiment(&ctx, SamplingStrategy::random(1.0)).unwrap();
        let tenth = run_sampling_experiment(&ctx, SamplingStrategy::random(0.10)).unwrap();
        assert!(
            all.mutation_score_pct + 1e-9 >= tenth.mutation_score_pct,
            "all={} tenth={}",
            all.mutation_score_pct,
            tenth.mutation_score_pct
        );
    }

    #[test]
    fn strategies_share_the_population_and_budget() {
        let ctx = context(Benchmark::C17, &ExperimentConfig::fast(0x44));
        let (oriented, random) = compare_strategies(&ctx, 0.25, &OperatorWeights::new()).unwrap();
        assert_eq!(random.population, oriented.population);
        assert_eq!(random.sampled, oriented.sampled);
        assert_eq!(oriented.strategy, "test-oriented");
    }

    #[test]
    fn sequential_circuit_experiment_runs() {
        let ctx = context(Benchmark::B01, &ExperimentConfig::fast(0x55));
        let outcome = run_sampling_experiment(&ctx, SamplingStrategy::random(0.3)).unwrap();
        assert!(outcome.mutation_score_pct > 0.0);
        assert!(outcome.data_len > 0);
    }
}
