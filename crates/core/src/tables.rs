//! The paper's two tables, assembled from per-bench measurements.

use crate::context::BenchContext;
use crate::experiment::{compare_strategies, SamplingOutcome};
use crate::profile::OperatorProfile;
use musa_circuits::CircuitError;
use musa_metrics::{f2, signed0, Align, Table};
use musa_mutation::{MutationError, MutationOperator};
use std::fmt;

/// Why one bench of a campaign failed.
#[derive(Debug)]
pub enum TableError {
    /// A benchmark failed to load (packaging bug).
    Circuit(CircuitError),
    /// Mutation analysis failed.
    Mutation(MutationError),
}

impl fmt::Display for TableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableError::Circuit(e) => write!(f, "table driver: {e}"),
            TableError::Mutation(e) => write!(f, "table driver: {e}"),
        }
    }
}

impl std::error::Error for TableError {}

impl From<CircuitError> for TableError {
    fn from(e: CircuitError) -> Self {
        TableError::Circuit(e)
    }
}

impl From<MutationError> for TableError {
    fn from(e: MutationError) -> Self {
        TableError::Mutation(e)
    }
}

/// One row of Table 1.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Circuit name.
    pub circuit: String,
    /// Operator acronym.
    pub operator: MutationOperator,
    /// `ΔFC%`.
    pub delta_fc_pct: f64,
    /// `ΔL%`.
    pub delta_l_pct: f64,
    /// `NLFCE`.
    pub nlfce: f64,
}

/// The full Table 1 result.
#[derive(Debug, Clone)]
pub struct Table1 {
    /// Rows in circuit-major, operator-minor order.
    pub rows: Vec<Table1Row>,
}

impl Table1 {
    /// Table 1 from per-circuit operator profiles (paper: b01, b03,
    /// c432, c499 with operators LOR/VR/CVR/CR), one row per profiled
    /// operator in circuit-major order.
    pub fn from_profiles(profiles: &[OperatorProfile]) -> Self {
        let rows = profiles
            .iter()
            .flat_map(|profile| {
                profile.rows.iter().map(|r| Table1Row {
                    circuit: profile.circuit.clone(),
                    operator: r.operator,
                    delta_fc_pct: r.metrics.delta_fc_pct,
                    delta_l_pct: r.metrics.delta_l_pct,
                    nlfce: r.metrics.nlfce,
                })
            })
            .collect();
        Self { rows }
    }

    /// Renders the table in the paper's layout.
    pub fn render(&self) -> String {
        let mut table = Table::new(vec![
            ("Circuit", Align::Left),
            ("Operator", Align::Left),
            ("dFC%", Align::Right),
            ("dL%", Align::Right),
            ("NLFCE", Align::Right),
        ]);
        for row in &self.rows {
            table.row(vec![
                row.circuit.clone(),
                row.operator.acronym().to_string(),
                f2(row.delta_fc_pct),
                f2(row.delta_l_pct),
                signed0(row.nlfce),
            ]);
        }
        table.render()
    }
}

/// One row of Table 2.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Circuit name.
    pub circuit: String,
    /// Number of mutants both strategies selected.
    pub sampled: usize,
    /// Test-oriented sampling outcome.
    pub test_oriented: SamplingOutcome,
    /// Random sampling outcome.
    pub random: SamplingOutcome,
}

/// The full Table 2 result.
#[derive(Debug, Clone)]
pub struct Table2 {
    /// One row per circuit.
    pub rows: Vec<Table2Row>,
}

impl Table2Row {
    /// Compares the two sampling strategies on one bench at the given
    /// fraction (paper: 10 %), deriving the test-oriented weights from
    /// the bench's operator profile over every operator.
    ///
    /// # Errors
    ///
    /// Propagates [`MutationError`] from mutant execution.
    pub fn measure(ctx: &BenchContext, fraction: f64) -> Result<Self, MutationError> {
        let profile = OperatorProfile::measure(ctx, &MutationOperator::all())?;
        let (test_oriented, random) = compare_strategies(ctx, fraction, &profile.weights())?;
        Ok(Self {
            circuit: ctx.circuit().name.clone(),
            sampled: test_oriented.sampled,
            test_oriented,
            random,
        })
    }
}

impl Table2 {
    /// Renders the table in the paper's layout.
    pub fn render(&self) -> String {
        let mut table = Table::new(vec![
            ("Circuit", Align::Left),
            ("Mutants", Align::Right),
            ("TO MS%", Align::Right),
            ("TO NLFCE", Align::Right),
            ("RS MS%", Align::Right),
            ("RS NLFCE", Align::Right),
        ]);
        for row in &self.rows {
            table.row(vec![
                row.circuit.clone(),
                row.sampled.to_string(),
                f2(row.test_oriented.mutation_score_pct),
                signed0(row.test_oriented.nlfce),
                f2(row.random.mutation_score_pct),
                signed0(row.random.nlfce),
            ]);
        }
        table.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExperimentConfig;
    use musa_circuits::Benchmark;

    fn c17(config: &ExperimentConfig) -> BenchContext {
        BenchContext::new(Benchmark::C17.load().unwrap(), config)
    }

    #[test]
    fn table1_fast_on_c17() {
        let ctx = c17(&ExperimentConfig::fast(0x71));
        let profile =
            OperatorProfile::measure(&ctx, &[MutationOperator::Lor, MutationOperator::Vr]).unwrap();
        let t = Table1::from_profiles(&[profile]);
        assert_eq!(t.rows.len(), 2);
        let rendered = t.render();
        assert!(rendered.contains("c17"));
        assert!(rendered.contains("LOR"));
        assert!(rendered.contains("NLFCE"));
    }

    #[test]
    fn table2_fast_on_c17() {
        let row = Table2Row::measure(&c17(&ExperimentConfig::fast(0x72)), 0.5).unwrap();
        assert_eq!(row.test_oriented.sampled, row.random.sampled);
        assert_eq!(row.sampled, row.test_oriented.sampled);
        let rendered = Table2 { rows: vec![row] }.render();
        assert!(rendered.contains("TO MS%"));
        assert!(rendered.contains("c17"));
    }
}
