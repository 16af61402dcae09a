//! Operator-efficiency profiling — the machinery behind Table 1.
//!
//! For each mutation operator, validation data is generated from that
//! operator's mutants alone, fault-simulated at gate level and compared
//! against the pseudo-random baseline, yielding `ΔFC%`, `ΔL%` and
//! `NLFCE` (paper §3). The resulting profile drives the test-oriented
//! sampling weights (paper §4).

use crate::context::{BenchContext, DataGrade, FaultSimStats};
use crate::experiment::SamplingAggregate;
use crate::parallel::try_par_map;
use musa_metrics::Nlfce;
use musa_mutation::{Mutant, MutationError, MutationOperator};
use musa_prng::{Prng, SplitMix64};
use musa_testgen::{mutation_guided_tests, MgConfig, OperatorWeights};

/// One operator's measured efficiency on one circuit.
#[derive(Debug, Clone)]
pub struct OperatorEfficiency {
    /// The operator.
    pub operator: MutationOperator,
    /// Number of (valid) mutants the operator produced.
    pub mutants: usize,
    /// Length of the validation data generated from those mutants.
    pub data_len: usize,
    /// Gate-level coverage achieved by that data.
    pub mutation_fault_coverage: f64,
    /// The paper's three metrics versus the pseudo-random baseline.
    pub metrics: Nlfce,
    /// Lane occupancy of the mutation-data fault simulation (see
    /// [`crate::ExperimentConfig::fault_reduce`]).
    pub fault_sim: FaultSimStats,
}

/// A per-circuit operator-efficiency profile (Table 1 rows for one
/// circuit).
#[derive(Debug, Clone)]
pub struct OperatorProfile {
    /// Circuit name.
    pub circuit: String,
    /// Rows for each operator that produced at least one mutant.
    pub rows: Vec<OperatorEfficiency>,
}

impl OperatorProfile {
    /// Measures the given operators on a bench, each on its view of
    /// the bench's population ([`BenchContext::operator_population`]).
    ///
    /// Operators with an empty mutant population are omitted — the paper
    /// notes "all mutation operators are not necessarily applied on
    /// every benchmark circuit" (e.g. CR needs a constant declaration).
    ///
    /// # Errors
    ///
    /// Propagates [`MutationError`] from mutant execution.
    pub fn measure(
        ctx: &BenchContext,
        operators: &[MutationOperator],
    ) -> Result<Self, MutationError> {
        let (circuit, config) = (ctx.circuit(), ctx.config());
        let mut seeder = SplitMix64::new(config.seed ^ 0x9E3779B97F4A7C15);
        let repetitions = config.repetitions.max(1);

        // Take each operator's mutants, then pre-draw every repetition's
        // (data, baseline) seed pair in exactly the order the serial
        // loop consumed them — operator-major, repetition-minor, empty
        // operators drawing nothing. The flattened (operator ×
        // repetition) cells are then embarrassingly parallel.
        struct Cell {
            op_slot: usize,
            mg_seed: u64,
            baseline_seed: u64,
        }
        let mut populations: Vec<(MutationOperator, Vec<Mutant>)> = Vec::new();
        let mut cells: Vec<Cell> = Vec::new();
        for &operator in operators {
            let mutants = ctx.operator_population(operator);
            if mutants.is_empty() {
                continue;
            }
            for _ in 0..repetitions {
                cells.push(Cell {
                    op_slot: populations.len(),
                    mg_seed: seeder.next_u64(),
                    baseline_seed: seeder.next_u64(),
                });
            }
            populations.push((operator, mutants));
        }

        let grades = try_par_map(config.jobs, &cells, |_, cell| {
            let _trace = musa_trace::span("profile_cell");
            let (_, mutants) = &populations[cell.op_slot];
            let mg = MgConfig {
                seed: cell.mg_seed,
                ..config.mg
            };
            let generated =
                mutation_guided_tests(&circuit.checked, &circuit.name, mutants, &mg)?;
            Ok::<DataGrade, MutationError>(ctx.grade_data(&generated.sessions, cell.baseline_seed))
        })?;

        // Cells come back in (operator, repetition) order, each
        // operator's repetitions contiguous, and average by the
        // sampling experiment's rule (`SamplingAggregate::mean_grade`).
        // Each repetition's curve length is its data length, so the mean
        // `mutation_len` is the row's data length.
        let rows = populations
            .iter()
            .zip(grades.chunks(repetitions))
            .map(|((operator, mutants), reps)| {
                let pairs: Vec<(Nlfce, FaultSimStats)> =
                    reps.iter().map(|g| (g.metrics, g.fault_sim)).collect();
                let (metrics, fault_sim) = SamplingAggregate::mean_grade(&pairs);
                OperatorEfficiency {
                    operator: *operator,
                    mutants: mutants.len(),
                    data_len: metrics.mutation_len,
                    mutation_fault_coverage: reps.iter().map(|g| g.coverage).sum::<f64>()
                        / reps.len() as f64,
                    metrics,
                    fault_sim,
                }
            })
            .collect();
        Ok(Self {
            circuit: circuit.name.clone(),
            rows,
        })
    }

    /// The row for one operator, if present.
    pub fn row(&self, operator: MutationOperator) -> Option<&OperatorEfficiency> {
        self.rows.iter().find(|r| r.operator == operator)
    }

    /// Derives test-oriented sampling weights from the measured NLFCE
    /// values (clamped to a small positive floor so no operator is shut
    /// out entirely).
    pub fn weights(&self) -> OperatorWeights {
        OperatorWeights::from_pairs(
            self.rows
                .iter()
                .map(|r| (r.operator, r.metrics.nlfce.max(1.0))),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExperimentConfig;
    use musa_circuits::Benchmark;

    /// The profile of `operators` on c17 under `config`.
    fn c17_profile(operators: &[MutationOperator], config: &ExperimentConfig) -> OperatorProfile {
        let ctx = BenchContext::new(Benchmark::C17.load().unwrap(), config);
        OperatorProfile::measure(&ctx, operators).unwrap()
    }

    #[test]
    fn profile_covers_applicable_operators() {
        let profile = c17_profile(&MutationOperator::all(), &ExperimentConfig::fast(0xAB));
        assert_eq!(profile.circuit, "c17");
        // c17 has NAND logic and variables, but no relational/arith ops
        // and no constant declarations: LOR/VR/UOI… apply, ROR/AOR don't.
        assert!(profile.row(MutationOperator::Lor).is_some());
        assert!(profile.row(MutationOperator::Ror).is_none());
        assert!(profile.row(MutationOperator::Aor).is_none());
        for row in &profile.rows {
            assert!(row.mutants > 0);
            assert!(row.data_len > 0, "{}: empty data", row.operator);
            assert!(row.mutation_fault_coverage > 0.0);
        }
    }

    #[test]
    fn weights_are_positive_and_reflect_nlfce() {
        let profile = c17_profile(
            &[MutationOperator::Lor, MutationOperator::Vr],
            &ExperimentConfig::fast(0xCD),
        );
        let weights = profile.weights();
        for row in &profile.rows {
            assert!(weights.weight(row.operator) >= 1.0);
        }
    }

    #[test]
    fn profile_is_deterministic() {
        let config = ExperimentConfig::fast(0x11);
        let p1 = c17_profile(&[MutationOperator::Lor], &config);
        let p2 = c17_profile(&[MutationOperator::Lor], &config);
        assert_eq!(p1.rows[0].data_len, p2.rows[0].data_len);
        assert_eq!(p1.rows[0].metrics.nlfce, p2.rows[0].metrics.nlfce);
    }

    #[test]
    fn profile_is_bit_identical_for_every_job_count() {
        let config = ExperimentConfig::fast(0x2B);
        let operators = [MutationOperator::Lor, MutationOperator::Vr];
        let serial = c17_profile(&operators, &config.with_jobs(1));
        for jobs in [2, 8] {
            let parallel = c17_profile(&operators, &config.with_jobs(jobs));
            assert_eq!(
                format!("{:?}", serial.rows),
                format!("{:?}", parallel.rows),
                "jobs={jobs}"
            );
        }
    }
}
