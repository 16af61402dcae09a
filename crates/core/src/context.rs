//! The per-bench state every experiment on one circuit shares.
//!
//! Table 2 compares two sampling strategies on one circuit: both draw
//! from that circuit's mutant population, are graded against its
//! stuck-at fault list, and the test-oriented weights come from its
//! Table 1 operator profile. A [`BenchContext`] derives that shared
//! state once per bench — the population, the collapsed fault list, the
//! dominance plan and the static screen — and every experiment borrows
//! it instead of re-deriving it.

use crate::config::ExperimentConfig;
use crate::data::{coverage_of_sessions, coverage_of_sessions_reduced, FaultSimStats};
use musa_analysis::screen_population;
use musa_circuits::Circuit;
use musa_metrics::CoverageCurve;
use musa_mutation::{
    generate_mutants, GenerateOptions, Mutant, MutantId, MutationOperator, TestSequence,
};
use musa_netlist::{collapsed_faults, reduce_faults, Fault, FaultReduction};

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

    /// The gate-level coverage curve of behavioral mutation data, on the
    /// dominance plan when there is one. Final coverage is exact either
    /// way, and it is the only point the ΔFC/ΔL metrics read from this
    /// curve; only the lane occupancy in the stats differs.
    pub(crate) fn data_coverage(
        &self,
        sessions: &[TestSequence],
    ) -> (CoverageCurve, FaultSimStats) {
        match &self.reduction {
            Some(reduction) => coverage_of_sessions_reduced(&self.circuit, reduction, sessions),
            None => (
                coverage_of_sessions(&self.circuit, &self.faults, sessions),
                FaultSimStats::full(self.faults.len()),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use musa_circuits::Benchmark;

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
