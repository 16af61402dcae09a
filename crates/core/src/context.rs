//! The per-bench state every experiment on one circuit shares.
//!
//! Table 2 compares two sampling strategies on one circuit: both draw
//! from that circuit's mutant population, are graded against its
//! stuck-at fault list, and the test-oriented weights come from its
//! Table 1 operator profile. A [`BenchContext`] derives that shared
//! state once per bench — the population, the collapsed fault list, the
//! dominance plan and the static screen — and every experiment borrows
//! it instead of re-deriving it. It is also the one place validation
//! data becomes gate-level metrics ([`BenchContext::grade_data`]).

use crate::config::ExperimentConfig;
use musa_analysis::screen_population;
use musa_circuits::Circuit;
use musa_metrics::{CoverageCurve, Nlfce, NlfceInputs};
use musa_mutation::{
    generate_mutants, GenerateOptions, Mutant, MutantId, MutationOperator, TestSequence,
};
use musa_netlist::{
    collapsed_faults, fault_simulate_sessions, fault_simulate_sessions_reduced,
    fault_simulate_until, reduce_faults, Fault, FaultReduction, FaultSimResult, Pattern,
};
use musa_synth::flatten_sequence;
use musa_testgen::testbench_patterns;

/// Lane occupancy of one fault-simulation measurement: how many faults
/// actually occupied simulation lanes versus the full collapsed list.
/// `faults_simulated == faults_total` whenever dominance reduction is
/// off (or credit never landed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSimStats {
    /// Faults that occupied simulation lanes (representatives plus
    /// residuals).
    pub faults_simulated: usize,
    /// Size of the full collapsed fault list the coverage numbers are
    /// quoted against.
    pub faults_total: usize,
}

impl FaultSimStats {
    /// Stats for a full (unreduced) run over `total` faults.
    pub fn full(total: usize) -> Self {
        Self {
            faults_simulated: total,
            faults_total: total,
        }
    }
}

/// What [`BenchContext::grade_data`] measures of one set of validation
/// data.
#[derive(Debug)]
pub(crate) struct DataGrade {
    /// `ΔFC%`, `ΔL%` and `NLFCE` against the pseudo-random baseline.
    pub(crate) metrics: Nlfce,
    /// The data's final gate-level fault coverage.
    pub(crate) coverage: f64,
    /// Lane occupancy of the data's fault simulation.
    pub(crate) fault_sim: FaultSimStats,
}

/// One loaded circuit, the configuration it runs under, and the state
/// derived from both that every experiment on it shares.
///
/// ```
/// use musa_circuits::Benchmark;
/// use musa_core::{BenchContext, ExperimentConfig};
/// use musa_mutation::MutationOperator;
///
/// let ctx = BenchContext::new(Benchmark::C17.load()?, &ExperimentConfig::fast(7));
/// let lor = ctx.operator_population(MutationOperator::Lor);
/// assert!(!lor.is_empty() && lor.len() < ctx.population().len());
/// assert_eq!(lor[0].id.0, 0, "views are renumbered from 0");
/// # Ok::<(), musa_circuits::CircuitError>(())
/// ```
#[derive(Debug)]
pub struct BenchContext {
    circuit: Circuit,
    config: ExperimentConfig,
    population: Vec<Mutant>,
    faults: Vec<Fault>,
    reduction: Option<FaultReduction>,
    screened: Option<Vec<bool>>,
}

impl BenchContext {
    /// Derives the shared state inside one `setup` trace span: the full
    /// mutant population (enumerated and validated once), the collapsed
    /// fault list, the dominance plan when
    /// [`ExperimentConfig::fault_reduce`] is on, and the static screen
    /// when [`ExperimentConfig::screen`] is on.
    pub fn new(circuit: Circuit, config: &ExperimentConfig) -> Self {
        let _trace = musa_trace::span("setup");
        let population =
            generate_mutants(&circuit.checked, &circuit.name, &GenerateOptions::default());
        let faults = collapsed_faults(&circuit.netlist);
        let reduction = config
            .fault_reduce
            .then(|| reduce_faults(&circuit.netlist, &faults));
        let screened = config.screen.then(|| {
            screen_population(&circuit.checked, &circuit.name, &population)
                .iter()
                .map(|class| class.is_proven())
                .collect()
        });
        Self {
            circuit,
            config: *config,
            population,
            faults,
            reduction,
            screened,
        }
    }

    /// The circuit.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// The configuration every experiment on this bench runs under.
    pub fn config(&self) -> &ExperimentConfig {
        &self.config
    }

    /// The full mutant population, ids `0..n`.
    pub fn population(&self) -> &[Mutant] {
        &self.population
    }

    /// One operator's mutants, filtered from the full population and
    /// renumbered `0..n` in population order — the population
    /// `generate_mutants` returns for `GenerateOptions::only(operator)`.
    pub fn operator_population(&self, operator: MutationOperator) -> Vec<Mutant> {
        self.population
            .iter()
            .filter(|m| m.operator == operator)
            .enumerate()
            .map(|(i, m)| Mutant {
                id: MutantId(i as u32),
                ..m.clone()
            })
            .collect()
    }

    /// The collapsed single stuck-at fault list.
    pub(crate) fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// The static pre-screen, when [`ExperimentConfig::screen`] is on:
    /// `mask[i]` flags mutant `i` as statically proven equivalent.
    pub(crate) fn screened(&self) -> Option<&[bool]> {
        self.screened.as_deref()
    }

    /// Mutants the static pre-screen proved equivalent (0 when off).
    pub(crate) fn screened_count(&self) -> usize {
        self.screened()
            .map_or(0, |mask| mask.iter().filter(|&&s| s).count())
    }

    /// Grades behavioral validation data against the paper's
    /// pseudo-random baseline (§3), the one sequence both tables score
    /// by: the data's coverage ([`Self::data_fault_sim`]) inside a
    /// `fault_sim` span, the `faults_simulated` and `faults_total`
    /// counters, the baseline inside a `baseline` span, then `ΔFC%`,
    /// `ΔL%` and `NLFCE`.
    ///
    /// The baseline declares [`ExperimentConfig::baseline_len`]`(L)`
    /// LFSR vectors seeded by `baseline_seed`, for the data length `L`,
    /// but is fault-simulated only until both numbers the metrics read
    /// from it are known ([`fault_simulate_until`]): it stops at the
    /// first boundary by which `L` patterns are applied and as many
    /// faults are detected as the data detects. `RFC(L)` lies inside
    /// that prefix, and so does the shortest prefix reaching the data's
    /// coverage, since reaching it means detecting that many faults. A
    /// baseline that never gets there runs to its end, whose length is
    /// then `ΔL%`'s fallback. So every metric equals the full curve's.
    /// The `fsim_baseline_patterns` and `fsim_baseline_declared`
    /// counters show the patterns simulated against those declared.
    pub(crate) fn grade_data(&self, sessions: &[TestSequence], baseline_seed: u64) -> DataGrade {
        let (data, detected, fault_sim) = {
            let _trace = musa_trace::span("fault_sim");
            let result = self.data_fault_sim(sessions);
            let stats = FaultSimStats {
                faults_simulated: result.faults_simulated,
                faults_total: result.faults.len(),
            };
            let curve = CoverageCurve::new(result.coverage_curve());
            (curve, result.detected_count(), stats)
        };
        musa_trace::count("faults_simulated", fault_sim.faults_simulated as u64);
        musa_trace::count("faults_total", fault_sim.faults_total as u64);
        let declared = self.config.baseline_len(data.len());
        let baseline = {
            let _trace = musa_trace::span("baseline");
            let nl = &self.circuit.netlist;
            let patterns = testbench_patterns(nl, declared, baseline_seed);
            let result = fault_simulate_until(nl, &self.faults, &patterns, data.len(), detected);
            musa_trace::count("fsim_baseline_patterns", result.vectors_applied as u64);
            musa_trace::count("fsim_baseline_declared", declared as u64);
            CoverageCurve::new(result.coverage_curve())
        };
        let metrics = NlfceInputs {
            mutation: &data,
            random: &baseline,
        }
        .compute();
        debug_assert!(
            data.is_empty()
                || metrics.random_len_at_equal_fc.is_some()
                || baseline.len() == declared,
            "a baseline that never reaches the data's coverage runs to its end"
        );
        DataGrade {
            metrics,
            coverage: data.final_coverage(),
            fault_sim,
        }
    }

    /// The gate-level fault simulation of behavioral validation data, on
    /// the dominance plan when there is one: only representatives and
    /// residuals occupy lanes. The detected count, hence final coverage,
    /// is exact either way, and it is all the metrics read from the
    /// data; credited faults' interior indices are upper bounds (see
    /// [`musa_netlist::fault_simulate_sessions_reduced`]), and only the
    /// lane occupancy differs.
    fn data_fault_sim(&self, sessions: &[TestSequence]) -> FaultSimResult {
        let (nl, patterns) = (&self.circuit.netlist, self.patterns(sessions));
        match &self.reduction {
            Some(reduction) => fault_simulate_sessions_reduced(nl, reduction, &patterns),
            None => fault_simulate_sessions(nl, &self.faults, &patterns),
        }
    }

    /// The pseudo-random baseline's whole coverage curve (paper §3's
    /// `RFC`): `len` LFSR vectors under the testbench reset convention,
    /// every fault simulated over every vector, for E2, which samples
    /// the curve's interior. [`Self::grade_data`] simulates only the
    /// prefix its metrics read.
    pub(crate) fn baseline_curve(&self, len: usize, seed: u64) -> CoverageCurve {
        self.coverage(&[testbench_patterns(&self.circuit.netlist, len, seed)])
    }

    /// The cumulative coverage curve of gate-level pattern sessions,
    /// fully fault-simulated over the collapsed fault list.
    pub(crate) fn coverage(&self, sessions: &[Vec<Pattern>]) -> CoverageCurve {
        let result = fault_simulate_sessions(&self.circuit.netlist, &self.faults, sessions);
        CoverageCurve::new(result.coverage_curve())
    }

    /// Flattens behavioral test sessions into gate-level pattern
    /// sessions.
    pub(crate) fn patterns(&self, sessions: &[TestSequence]) -> Vec<Vec<Pattern>> {
        let info = self.circuit.info();
        sessions.iter().map(|s| flatten_sequence(info, s)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use musa_circuits::Benchmark;
    use musa_hdl::Bits;

    fn context(bench: Benchmark) -> BenchContext {
        BenchContext::new(bench.load().unwrap(), &ExperimentConfig::fast(1))
    }

    #[test]
    fn universe_is_nonempty_and_stable() {
        let (u1, u2) = (context(Benchmark::C17), context(Benchmark::C17));
        assert!(!u1.faults().is_empty());
        assert_eq!(u1.faults(), u2.faults());
    }

    #[test]
    fn coverage_of_exhaustive_c17_sessions_is_full() {
        let ctx = context(Benchmark::C17);
        // All 32 patterns as one behavioral session.
        let session: TestSequence = (0..32u64)
            .map(|p| (0..5).map(|i| Bits::new(1, (p >> i) & 1)).collect())
            .collect();
        let curve = ctx.coverage(&ctx.patterns(std::slice::from_ref(&session)));
        assert!((curve.final_coverage() - 1.0).abs() < 1e-12);
        assert_eq!(curve.len(), 32);
        // The dominance plan reaches the same final coverage.
        let reduced = ctx.data_fault_sim(&[session]);
        assert_eq!(reduced.coverage(), curve.final_coverage());
        assert_eq!(reduced.faults.len(), ctx.faults().len());
    }

    #[test]
    fn random_baseline_improves_with_length() {
        let ctx = context(Benchmark::C17);
        let short = ctx.baseline_curve(4, 9);
        let long = ctx.baseline_curve(64, 9);
        assert!(long.final_coverage() >= short.final_coverage());
        assert!(long.final_coverage() > 0.9, "64 LFSR patterns saturate c17");
    }

    #[test]
    fn sequential_sessions_flatten_correctly() {
        let ctx = context(Benchmark::B01);
        let session: TestSequence = (0..16u64)
            .map(|i| {
                vec![
                    Bits::new(1, u64::from(i == 0)), // reset pulse first
                    Bits::new(1, i & 1),
                    Bits::new(1, (i >> 1) & 1),
                ]
            })
            .collect();
        let curve = ctx.coverage(&ctx.patterns(&[session.clone(), session]));
        assert_eq!(curve.len(), 32);
        assert!(curve.final_coverage() > 0.0);
    }

    #[test]
    fn operator_views_equal_per_operator_generation() {
        // Ids, sites, rewrites and descriptions: the view must be the
        // population a generation pass restricted to the operator
        // enumerates and numbers.
        let config = ExperimentConfig::fast(0)
            .with_fault_reduce(false)
            .with_screen(false);
        for bench in Benchmark::all() {
            let ctx = BenchContext::new(bench.load().unwrap(), &config);
            let circuit = ctx.circuit();
            for operator in MutationOperator::all() {
                let generated = generate_mutants(
                    &circuit.checked,
                    &circuit.name,
                    &GenerateOptions::only(operator),
                );
                assert_eq!(
                    format!("{:?}", ctx.operator_population(operator)),
                    format!("{generated:?}"),
                    "{bench} {operator}"
                );
            }
        }
    }
}
