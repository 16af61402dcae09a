//! Mutation-guided generation of validation data (paper §2).
//!
//! "To generate validation data with mutation testing, we select vectors
//! that can distinguish a program from a set of faulty versions" — the
//! generator proposes pseudo-random candidates and keeps, in generation
//! order, each candidate that kills a mutant no earlier kept candidate
//! killed, so the emitted data is *mutation-adequate* by construction.
//!
//! Each round grades its candidate pool with one
//! [`first_kills_over`] sweep on the lane engine over the mutants still
//! live; a candidate is admitted exactly when it is some live mutant's
//! first kill.
//!
//! * Combinational entities: the pool is one sequence of independent
//!   candidate vectors; the admitted vectors, across every round, form
//!   one session.
//! * Sequential entities: each candidate is a short subsequence applied
//!   from reset; each admitted subsequence becomes its own session,
//!   whole.

use musa_hdl::CheckedDesign;
use musa_mutation::{first_kills_over, Engine, LaneOptions, Mutant, MutationError, TestSequence};
use musa_prng::{Prng, SplitMix64};

use crate::random::random_sequence;

/// Configuration of the mutation-guided generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MgConfig {
    /// Candidate vectors (combinational) or subsequences (sequential)
    /// proposed per round.
    pub pool_size: usize,
    /// Length of each sequential candidate subsequence.
    pub subseq_len: usize,
    /// Rounds without a new kill before giving up on the survivors.
    pub max_rounds: usize,
    /// PRNG seed.
    pub seed: u64,
}

impl Default for MgConfig {
    fn default() -> Self {
        Self {
            pool_size: 128,
            subseq_len: 24,
            max_rounds: 12,
            seed: 0x6D67,
        }
    }
}

impl MgConfig {
    /// A light-weight configuration for unit tests and quick runs.
    pub fn fast(seed: u64) -> Self {
        Self {
            pool_size: 48,
            subseq_len: 12,
            max_rounds: 6,
            seed,
        }
    }
}

/// The generator's output.
#[derive(Debug, Clone)]
pub struct GeneratedTests {
    /// Test sessions; each is applied from the reset state.
    pub sessions: Vec<TestSequence>,
    /// Per input mutant: killed by the emitted data?
    pub killed: Vec<bool>,
    /// Rounds actually executed.
    pub rounds: usize,
}

impl GeneratedTests {
    /// Total number of vectors across all sessions (the paper's test
    /// *length*).
    pub fn total_len(&self) -> usize {
        self.sessions.iter().map(|s| s.len()).sum()
    }

    /// Number of mutants killed.
    pub fn killed_count(&self) -> usize {
        self.killed.iter().filter(|&&k| k).count()
    }
}

/// Generates mutation-adequate validation data for `mutants`.
///
/// # Errors
///
/// Propagates [`MutationError`] when a mutant does not belong to the
/// design or the entity is unknown.
pub fn mutation_guided_tests(
    checked: &CheckedDesign,
    entity: &str,
    mutants: &[Mutant],
    config: &MgConfig,
) -> Result<GeneratedTests, MutationError> {
    let info = checked
        .entity_info(entity)
        .ok_or_else(|| MutationError::EntityNotFound(entity.to_string()))?;
    let combinational = info.is_combinational();
    // Sequential pools are smaller: each candidate costs subseq_len steps.
    let pool_count = (config.pool_size / 4).max(4);
    let options = LaneOptions::default();
    let mut rng = SplitMix64::new(config.seed);
    let mut killed = vec![false; mutants.len()];
    let mut vectors: TestSequence = Vec::new();
    let mut sessions: Vec<TestSequence> = Vec::new();
    let mut rounds = 0usize;

    while killed.contains(&false) && rounds < config.max_rounds {
        rounds += 1;
        let pool: Vec<TestSequence> = if combinational {
            vec![random_sequence(info, config.pool_size, rng.next_u64())]
        } else {
            (0..pool_count)
                .map(|_| random_sequence(info, config.subseq_len, rng.next_u64()))
                .collect()
        };
        let kills = first_kills_over(
            checked,
            entity,
            mutants,
            &pool,
            Some(&killed),
            Engine::Lanes,
            &options,
        )?;
        // The admitted candidates: every live mutant's first kill, once
        // each, in generation order — a vector of the one combinational
        // pool sequence, or a whole sequential subsequence.
        let mut admitted: Vec<usize> = kills
            .iter()
            .flatten()
            .map(|&(candidate, cycle)| if combinational { cycle } else { candidate })
            .collect();
        admitted.sort_unstable();
        admitted.dedup();
        if admitted.is_empty() {
            break; // pool exhausted without progress: survivors stay live
        }
        for (flag, kill) in killed.iter_mut().zip(&kills) {
            *flag |= kill.is_some();
        }
        if combinational {
            vectors.extend(admitted.iter().map(|&t| pool[0][t].clone()));
        } else {
            sessions.extend(admitted.iter().map(|&c| pool[c].clone()));
        }
    }

    if !vectors.is_empty() {
        sessions.push(vectors);
    }
    Ok(GeneratedTests {
        sessions,
        killed,
        rounds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use musa_hdl::parse;
    use musa_hdl::Bits;
    use musa_mutation::{
        execute_mutants_engine_opt, generate_mutants, GenerateOptions, KillResult, MutationOperator,
        OptLevel,
    };

    fn checked(src: &str) -> CheckedDesign {
        CheckedDesign::new(parse(src).unwrap()).unwrap()
    }

    /// The scalar engine's first kills over one sequence: the oracle the
    /// generated data is replayed on.
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

    #[test]
    fn combinational_data_is_mutation_adequate() {
        let d = checked(
            "entity g is
               port(a : in bits(4); b : in bits(4); y : out bits(4); f : out bit);
             comb begin
               y <= a and b;
               f <= a < b;
             end;
             end;",
        );
        let mutants = generate_mutants(&d, "g", &GenerateOptions::default());
        let result =
            mutation_guided_tests(&d, "g", &mutants, &MgConfig::default()).unwrap();
        // Verify adequacy independently: re-execute the emitted data.
        let mut confirmed = vec![false; mutants.len()];
        for session in &result.sessions {
            let kills = scalar_kills(&d, "g", &mutants, session);
            for (i, k) in kills.first_kill.iter().enumerate() {
                if k.is_some() {
                    confirmed[i] = true;
                }
            }
        }
        for (i, (&claimed, &found)) in result.killed.iter().zip(&confirmed).enumerate() {
            assert_eq!(
                claimed, found,
                "kill claim mismatch on mutant {i}: {}",
                mutants[i].description
            );
        }
        // Random 4-bit data kills the overwhelming majority quickly.
        assert!(
            result.killed_count() * 10 >= mutants.len() * 8,
            "{}/{} killed",
            result.killed_count(),
            mutants.len()
        );
        assert!(result.total_len() > 0);
    }

    #[test]
    fn sequential_sessions_start_from_reset_and_kill() {
        let d = checked(
            "entity t is
               port(clk : in bit; rst : in bit; en : in bit; q : out bits(3));
             signal c : bits(3);
             seq(clk) begin
               if rst = 1 then
                 c <= 0;
               elsif en = 1 then
                 c <= c + 1;
               end if;
             end;
             comb begin q <= c; end;
             end;",
        );
        let mutants = generate_mutants(&d, "t", &GenerateOptions::default());
        let result =
            mutation_guided_tests(&d, "t", &mutants, &MgConfig::fast(3)).unwrap();
        assert!(result.killed_count() > mutants.len() / 2);
        // Confirm claims session by session.
        let mut confirmed = vec![false; mutants.len()];
        for session in &result.sessions {
            let kills = scalar_kills(&d, "t", &mutants, session);
            for (i, k) in kills.first_kill.iter().enumerate() {
                if k.is_some() {
                    confirmed[i] = true;
                }
            }
        }
        for (i, (&claimed, &found)) in result.killed.iter().zip(&confirmed).enumerate() {
            assert!(
                !claimed || found,
                "claimed kill not reproducible for mutant {i}"
            );
        }
    }

    /// Every bundled benchmark's MiniHDL source, by entity name.
    const BUNDLED: [(&str, &str); 11] = [
        ("c17", include_str!("../../circuits/src/hdl/c17.mhdl")),
        ("b01", include_str!("../../circuits/src/hdl/b01.mhdl")),
        ("b02", include_str!("../../circuits/src/hdl/b02.mhdl")),
        ("b03", include_str!("../../circuits/src/hdl/b03.mhdl")),
        ("b04", include_str!("../../circuits/src/hdl/b04.mhdl")),
        ("b05", include_str!("../../circuits/src/hdl/b05.mhdl")),
        ("b06", include_str!("../../circuits/src/hdl/b06.mhdl")),
        ("b09", include_str!("../../circuits/src/hdl/b09.mhdl")),
        ("c432", include_str!("../../circuits/src/hdl/c432.mhdl")),
        ("c499", include_str!("../../circuits/src/hdl/c499.mhdl")),
        ("c880", include_str!("../../circuits/src/hdl/c880.mhdl")),
    ];

    /// Replays the admitted data on the scalar engine, one admission at
    /// a time in order — each vector on its own (combinational), each
    /// session from reset (sequential): every admission must kill a
    /// mutant no earlier one kills, and together they must kill exactly
    /// the claimed mutants.
    fn assert_first_come(
        d: &CheckedDesign,
        entity: &str,
        mutants: &[Mutant],
        data: &GeneratedTests,
    ) {
        let admissions: Vec<TestSequence> = if d.entity_info(entity).unwrap().is_combinational() {
            data.sessions.iter().flatten().map(|vector| vec![vector.clone()]).collect()
        } else {
            data.sessions.clone()
        };
        let mut killed = vec![false; mutants.len()];
        for (k, admission) in admissions.iter().enumerate() {
            let kills = scalar_kills(d, entity, mutants, admission);
            let fresh = kills
                .first_kill
                .iter()
                .zip(&killed)
                .filter(|(kill, &done)| kill.is_some() && !done)
                .count();
            assert!(fresh > 0, "{entity}: admission {k} kills nothing new");
            for (flag, kill) in killed.iter_mut().zip(&kills.first_kill) {
                *flag |= kill.is_some();
            }
        }
        assert_eq!(killed, data.killed, "{entity}: kill claims differ from the replay");
    }

    #[test]
    fn lane_engine_generates_bit_identical_data() {
        // The lane engine grades every candidate pool: replayed on the
        // scalar engine, every admission must kill something new and
        // the kill claims must match, on both generator paths. The
        // wide circuits take a strided subset to keep the scalar
        // replay cheap in debug builds.
        let toys = [
            (
                "g",
                "entity g is
                   port(a : in bits(4); b : in bits(4); y : out bits(4); f : out bit);
                 comb begin
                   y <= a and b;
                   f <= a < b;
                 end;
                 end;",
            ),
            (
                "t",
                "entity t is
                   port(clk : in bit; rst : in bit; en : in bit; q : out bits(3));
                 signal c : bits(3);
                 seq(clk) begin
                   if rst = 1 then
                     c <= 0;
                   elsif en = 1 then
                     c <= c + 1;
                   end if;
                 end;
                 comb begin q <= c; end;
                 end;",
            ),
        ];
        for (entity, src) in toys.into_iter().chain(BUNDLED) {
            let d = checked(src);
            let population = generate_mutants(&d, entity, &GenerateOptions::default());
            let stride = population.len().div_ceil(40).max(1);
            let mutants: Vec<Mutant> = population.into_iter().step_by(stride).collect();
            let data = mutation_guided_tests(&d, entity, &mutants, &MgConfig::fast(7)).unwrap();
            assert!(data.killed_count() > 0, "{entity}: nothing killed");
            assert_first_come(&d, entity, &mutants, &data);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let d = checked(
            "entity g is port(a : in bits(4); y : out bits(4));
             comb begin y <= not a; end;
             end;",
        );
        let mutants = generate_mutants(&d, "g", &GenerateOptions::only(MutationOperator::Uod));
        let r1 = mutation_guided_tests(&d, "g", &mutants, &MgConfig::fast(5)).unwrap();
        let r2 = mutation_guided_tests(&d, "g", &mutants, &MgConfig::fast(5)).unwrap();
        assert_eq!(r1.sessions, r2.sessions);
        assert_eq!(r1.killed, r2.killed);
    }

    #[test]
    fn empty_mutant_list_yields_empty_data() {
        let d = checked(
            "entity g is port(a : in bit; y : out bit);
             comb begin y <= a; end;
             end;",
        );
        let result = mutation_guided_tests(&d, "g", &[], &MgConfig::fast(1)).unwrap();
        assert_eq!(result.total_len(), 0);
        assert_eq!(result.killed_count(), 0);
    }

    #[test]
    fn unknown_entity_errors() {
        let d = checked(
            "entity g is port(a : in bit; y : out bit);
             comb begin y <= a; end;
             end;",
        );
        assert!(mutation_guided_tests(&d, "zz", &[], &MgConfig::fast(1)).is_err());
    }
}
