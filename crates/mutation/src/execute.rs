//! Mutant execution: differential simulation against the original.
//!
//! A mutant is **killed** by a test sequence when, starting from reset,
//! any primary output differs from the original design at any cycle —
//! the strong-mutation criterion the paper's Mutation Score uses.

use crate::mutant::{Mutant, MutationError};
use musa_hdl::{Bits, CheckedDesign, EntityInfo, Simulator};
use musa_prng::Prng;
use std::str::FromStr;

/// Which mutant-execution engine a [`crate::first_kills_over`] sweep
/// runs on.
///
/// Both engines produce **bit-identical** [`KillResult`]s for every
/// population, sequence, lane count and job count. Every production
/// sweep — the kill phase, mutation-guided generation and equivalence
/// classification — runs on [`Engine::Lanes`]; nothing selects an
/// engine at run time. [`Engine::Scalar`] stays as the lane engine's
/// differential oracle in the tests and in `musa bench`'s `scalar`
/// cells. The lane engine itself falls back to the scalar per-mutant
/// run for a rewrite a tape cannot represent, which also reproduces the
/// exact error of a stillborn mutant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub enum Engine {
    /// One full `Simulator` pass per mutant, early-exiting at its first
    /// kill. The reference baseline.
    Scalar,
    /// The bit-parallel lane engine ([`crate::lanes`]): up to 63 mutants
    /// plus the reference machine per simulation pass. The production
    /// engine, and the default.
    #[default]
    Lanes,
}

impl Engine {
    /// The name a bench report records (`scalar` / `lanes`).
    pub fn name(self) -> &'static str {
        match self {
            Engine::Scalar => "scalar",
            Engine::Lanes => "lanes",
        }
    }
}

impl FromStr for Engine {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "scalar" => Ok(Engine::Scalar),
            "lanes" => Ok(Engine::Lanes),
            other => Err(format!("unknown engine `{other}` (expected scalar|lanes)")),
        }
    }
}

/// The lane executor's level: one level, [`OptLevel::Full`], the
/// lowered executor.
///
/// It has no CLI spelling and selects nothing. It survives only as a
/// shim for `campaign_bench`, which passes `ExperimentConfig::opt` to
/// [`execute_mutants_engine_opt`] and hashes `"opt": "full"` in every
/// recorded digest; the benchmark change that re-records those digests
/// deletes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub enum OptLevel {
    /// The lowered executor. The only level.
    #[default]
    Full,
}

impl OptLevel {
    /// The name a report prints (`full`).
    pub fn name(self) -> &'static str {
        match self {
            OptLevel::Full => "full",
        }
    }
}

/// A test sequence: one `Vec<Bits>` (data inputs, declaration order) per
/// clock cycle. Combinational circuits treat each vector independently.
pub type TestSequence = Vec<Vec<Bits>>;

/// Probability (as `1/RESET_SPARSITY`) of a reset-like input being
/// asserted on any given cycle.
///
/// Uniformly toggling a reset wipes sequential state every other cycle;
/// every practical testbench pulses it sparsely instead. The same
/// convention is applied to mutation candidates, the pseudo-random
/// baseline and equivalence classification, keeping comparisons fair.
pub const RESET_SPARSITY: u64 = 16;

/// Draws one pseudo-random input vector (one [`TestSequence`] cycle)
/// under the testbench convention: uniform bits, except reset-like
/// ports (see [`EntityInfo::reset_like`]), which are asserted with
/// probability `1/`[`RESET_SPARSITY`].
pub fn random_vector(info: &EntityInfo, rng: &mut impl Prng) -> Vec<Bits> {
    info.data_inputs
        .iter()
        .map(|&p| {
            if info.reset_like(p) {
                Bits::new(1, u64::from(rng.below(RESET_SPARSITY) == 0))
            } else {
                let w = info.symbol(p).width;
                Bits::new(w, rng.bits(w))
            }
        })
        .collect()
}

/// Result of executing a mutant population against one test sequence.
#[derive(Debug, Clone)]
pub struct KillResult {
    /// For every mutant (by index), the first killing vector, if any.
    pub first_kill: Vec<Option<usize>>,
}

impl KillResult {
    /// Number of killed mutants.
    pub fn killed_count(&self) -> usize {
        self.first_kill.iter().filter(|k| k.is_some()).count()
    }

    /// Indices of the mutants still alive.
    pub fn alive(&self) -> Vec<usize> {
        self.first_kill
            .iter()
            .enumerate()
            .filter(|(_, k)| k.is_none())
            .map(|(i, _)| i)
            .collect()
    }
}

/// Runs the original design over `sequence` and returns its output
/// transcript.
///
/// # Errors
///
/// Returns an error when the entity does not exist.
pub(crate) fn reference_transcript(
    checked: &CheckedDesign,
    entity: &str,
    sequence: &[Vec<Bits>],
) -> Result<Vec<Vec<Bits>>, MutationError> {
    let mut sim = Simulator::new(checked, entity)
        .map_err(|_| MutationError::EntityNotFound(entity.to_string()))?;
    Ok(sim.run(sequence))
}

/// Each mutant's first killing vector over one `sequence`: the
/// one-sequence case of [`crate::first_kills_over`]. `jobs` shards
/// mutants (scalar) or whole lane groups (lanes) across worker threads.
/// The outcome is bit-identical across engines and job counts.
///
/// `engine` picks the tests' scalar oracle or the lane engine; the only
/// other caller, `campaign_bench`, passes `ExperimentConfig::engine`,
/// which is always [`Engine::Lanes`]. The last parameter is accepted and
/// ignored: `campaign_bench` passes it, and the benchmark change that
/// retires [`OptLevel`] drops it.
///
/// # Errors
///
/// Propagates [`MutationError`] from mutant application (a mutant that
/// does not belong to this design), lowest mutant index first.
pub fn execute_mutants_engine_opt(
    checked: &CheckedDesign,
    entity: &str,
    mutants: &[Mutant],
    sequence: &[Vec<Bits>],
    jobs: usize,
    engine: Engine,
    _opt: OptLevel,
) -> Result<KillResult, MutationError> {
    let kills = crate::sweep::first_kills_over(
        checked,
        entity,
        mutants,
        &[sequence],
        None,
        engine,
        &crate::lanes::LaneOptions::default().with_jobs(jobs),
    )?;
    Ok(KillResult { first_kill: kills.into_iter().map(|kill| kill.map(|(_, t)| t)).collect() })
}

/// Executes a single mutant; returns the first killing vector index.
///
/// # Errors
///
/// Propagates [`MutationError`] from mutant application.
pub(crate) fn run_one(
    checked: &CheckedDesign,
    entity: &str,
    mutant: &Mutant,
    sequence: &[Vec<Bits>],
    reference: &[Vec<Bits>],
) -> Result<Option<usize>, MutationError> {
    let mutated = mutant.apply(checked)?;
    let mut sim = Simulator::new(&mutated, entity)
        .map_err(|_| MutationError::EntityNotFound(entity.to_string()))?;
    sim.reset();
    for (t, vector) in sequence.iter().enumerate() {
        let outs = sim.step(vector);
        if outs != reference[t] {
            return Ok(Some(t));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{generate_mutants, GenerateOptions};
    use crate::operator::MutationOperator;
    use musa_hdl::parse;

    fn checked(src: &str) -> CheckedDesign {
        CheckedDesign::new(parse(src).unwrap()).unwrap()
    }

    fn bit(v: u64) -> Bits {
        Bits::new(1, v)
    }

    /// Scalar first kills of `mutants` over one sequence, on one thread.
    fn scalar_kills(
        d: &CheckedDesign,
        entity: &str,
        mutants: &[Mutant],
        sequence: &[Vec<Bits>],
    ) -> KillResult {
        execute_mutants_engine_opt(
            d,
            entity,
            mutants,
            sequence,
            1,
            Engine::Scalar,
            OptLevel::Full,
        )
        .unwrap()
    }

    const GATE: &str = "
        entity g is
          port(a : in bit; b : in bit; y : out bit);
        comb begin
          y <= a and b;
        end;
        end;
    ";

    #[test]
    fn exhaustive_vectors_kill_all_and_gate_lor_mutants() {
        let d = checked(GATE);
        let mutants = generate_mutants(&d, "g", &GenerateOptions::only(MutationOperator::Lor));
        assert_eq!(mutants.len(), 5);
        let sequence: TestSequence = (0..4u64)
            .map(|p| vec![bit(p & 1), bit((p >> 1) & 1)])
            .collect();
        let result = scalar_kills(&d, "g", &mutants, &sequence);
        // and→{or,xor,nand,nor,xnor} all differ from AND somewhere.
        assert_eq!(result.killed_count(), 5);
        assert!(result.alive().is_empty());
    }

    #[test]
    fn insufficient_vectors_leave_survivors() {
        let d = checked(GATE);
        let mutants = generate_mutants(&d, "g", &GenerateOptions::only(MutationOperator::Lor));
        // a=0,b=0: AND=0, OR=0, XOR=0 — only NAND/NOR/XNOR (value 1) die.
        let sequence: TestSequence = vec![vec![bit(0), bit(0)]];
        let result = scalar_kills(&d, "g", &mutants, &sequence);
        assert_eq!(result.killed_count(), 3);
        assert_eq!(result.alive().len(), 2);
    }

    #[test]
    fn first_kill_is_earliest_cycle() {
        let d = checked(GATE);
        let mutants = generate_mutants(&d, "g", &GenerateOptions::only(MutationOperator::Lor));
        // or-mutant (index 0) first differs at a=1,b=0 (cycle 2 here).
        let sequence: TestSequence = vec![
            vec![bit(0), bit(0)],
            vec![bit(1), bit(1)],
            vec![bit(1), bit(0)],
        ];
        let result = scalar_kills(&d, "g", &mutants, &sequence);
        let or_idx = mutants
            .iter()
            .position(|m| m.description.contains("-> or"))
            .unwrap();
        assert_eq!(result.first_kill[or_idx], Some(2));
    }

    #[test]
    fn sequential_mutants_respect_state_history() {
        let src = "
            entity t is
              port(clk : in bit; en : in bit; q : out bit);
            signal r : bit;
            seq(clk) begin
              if en = 1 then r <= not r; end if;
            end;
            comb begin q <= r; end;
            end;
        ";
        let d = checked(src);
        let mutants = generate_mutants(&d, "t", &GenerateOptions::only(MutationOperator::Csr));
        assert_eq!(mutants.len(), 2); // en stuck 0 / stuck 1
        // Toggle twice: the stuck-0 mutant freezes q at 0 (differs at
        // t=1); stuck-1 behaves identically while en=1.
        let sequence: TestSequence = vec![vec![bit(1)], vec![bit(1)], vec![bit(1)]];
        let result = scalar_kills(&d, "t", &mutants, &sequence);
        let stuck0 = mutants
            .iter()
            .position(|m| m.description.contains("stuck at 0"))
            .unwrap();
        let stuck1 = 1 - stuck0;
        assert_eq!(result.first_kill[stuck0], Some(1));
        assert_eq!(result.first_kill[stuck1], None, "stuck-1 identical when en held high");
    }

    #[test]
    fn sharded_execution_matches_serial_for_every_job_count() {
        let d = checked(GATE);
        let mutants = generate_mutants(&d, "g", &GenerateOptions::default());
        assert!(mutants.len() > 4, "need a population worth sharding");
        let sequence: TestSequence = (0..4u64)
            .map(|p| vec![bit(p & 1), bit((p >> 1) & 1)])
            .collect();
        let serial = scalar_kills(&d, "g", &mutants, &sequence);
        for jobs in [0, 2, 3, 8, 64] {
            let sharded = execute_mutants_engine_opt(
                &d,
                "g",
                &mutants,
                &sequence,
                jobs,
                Engine::Scalar,
                OptLevel::Full,
            )
            .unwrap();
            assert_eq!(sharded.first_kill, serial.first_kill, "jobs={jobs}");
        }
    }

    #[test]
    fn engine_knob_parses_and_dispatches_identically() {
        assert_eq!("scalar".parse::<Engine>().unwrap(), Engine::Scalar);
        assert_eq!("lanes".parse::<Engine>().unwrap(), Engine::Lanes);
        assert!("turbo".parse::<Engine>().is_err());
        assert_eq!(Engine::default(), Engine::Lanes);
        assert_eq!(Engine::Lanes.name(), "lanes");

        let d = checked(GATE);
        let mutants = generate_mutants(&d, "g", &GenerateOptions::default());
        let sequence: TestSequence = (0..4u64)
            .map(|p| vec![bit(p & 1), bit((p >> 1) & 1)])
            .collect();
        let scalar = scalar_kills(&d, "g", &mutants, &sequence);
        for jobs in [1, 4] {
            let lanes = execute_mutants_engine_opt(
                &d,
                "g",
                &mutants,
                &sequence,
                jobs,
                Engine::Lanes,
                OptLevel::Full,
            )
            .unwrap();
            assert_eq!(lanes.first_kill, scalar.first_kill, "jobs={jobs}");
        }
    }

    #[test]
    fn reference_transcript_errors_on_bad_entity() {
        let d = checked(GATE);
        assert!(reference_transcript(&d, "zz", &[]).is_err());
    }

    #[test]
    fn empty_sequence_kills_nothing() {
        let d = checked(GATE);
        let mutants = generate_mutants(&d, "g", &GenerateOptions::default());
        let result = scalar_kills(&d, "g", &mutants, &[]);
        assert_eq!(result.killed_count(), 0);
    }
}
