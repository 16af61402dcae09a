//! Equivalent-mutant identification.
//!
//! Mutant equivalence is undecidable in general; like every practical
//! mutation tool, this module uses a budgeted policy:
//!
//! * **Proof by exhaustion** — combinational entities with at most
//!   [`EquivalencePolicy::exhaustive_limit`] input bits are checked over
//!   the full input space: a surviving mutant is *proven* equivalent.
//! * **Presumption by budget** — otherwise the mutant faces
//!   [`EquivalencePolicy::budget`] random vectors (several independent
//!   sequences from reset for sequential designs); survivors are
//!   *presumed* equivalent.
//!
//! Classification is one [`first_kills_over`] sweep on the bit-parallel
//! lane engine through the policy's sequences, in order: a mutant
//! killed by an earlier sequence drops out of every later one, lane
//! groups with nothing left undecided are skipped without recompiling,
//! and the undecided mutants are repacked into a smaller plan once they
//! fit in half of its groups. Because every lane is bit-identical to a
//! scalar run of its mutant, the classes — and the error reported for
//! a mutant that cannot be applied — are exactly those of the scalar
//! one-mutant-at-a-time loop, which is kept in this module's tests as
//! the differential oracle.
//!
//! The experiment crate's E4 ablation quantifies how the budget choice
//! perturbs the Mutation Score.

use crate::execute::{random_vector, Engine};
use crate::lanes::LaneOptions;
use crate::mutant::{Mutant, MutationError};
use crate::sweep::first_kills_over;
use musa_hdl::{Bits, CheckedDesign, EntityInfo};
use musa_prng::SplitMix64;

/// How a mutant relates to the original design.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EquivalenceClass {
    /// Some test distinguishes the mutant (a killing input is known).
    Killable,
    /// The full input space was enumerated without a difference.
    ProvenEquivalent,
    /// The random budget was exhausted without a difference.
    PresumedEquivalent,
}

impl EquivalenceClass {
    /// `true` for both proven and presumed equivalence — the `E` term of
    /// the paper's `MS = K/(M−E)`.
    pub fn is_equivalent(self) -> bool {
        matches!(
            self,
            EquivalenceClass::ProvenEquivalent | EquivalenceClass::PresumedEquivalent
        )
    }
}

/// Configuration of the equivalence analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EquivalencePolicy {
    /// Total random vectors applied before presuming equivalence.
    pub budget: usize,
    /// Number of independent reset sequences the budget is split across
    /// (sequential designs explore more reachable state this way).
    pub sequences: usize,
    /// Combinational input-space size (in bits) up to which exhaustive
    /// enumeration is used instead of random vectors.
    pub exhaustive_limit: u32,
    /// PRNG seed.
    pub seed: u64,
}

impl Default for EquivalencePolicy {
    fn default() -> Self {
        Self {
            budget: 2_000,
            sequences: 8,
            exhaustive_limit: 14,
            seed: 0x0E0C_0A11,
        }
    }
}

impl EquivalencePolicy {
    /// A light-weight policy for unit tests and quick runs.
    pub fn fast(seed: u64) -> Self {
        Self {
            budget: 300,
            sequences: 4,
            exhaustive_limit: 10,
            seed,
        }
    }
}

/// Classifies every mutant of a population, on one thread.
///
/// # Errors
///
/// Propagates [`MutationError`] when a mutant does not belong to the
/// design or the entity is unknown.
pub fn classify_mutants(
    checked: &CheckedDesign,
    entity: &str,
    mutants: &[Mutant],
    policy: &EquivalencePolicy,
) -> Result<Vec<EquivalenceClass>, MutationError> {
    classify_mutants_jobs(checked, entity, mutants, policy, 1)
}

/// [`classify_mutants`] with the lane groups sharded across `jobs`
/// worker threads (`0` = one per CPU), exactly like
/// [`crate::first_kills_over`] shards a sweep. The classes are
/// identical for every job count.
///
/// # Errors
///
/// Propagates [`MutationError`] when a mutant does not belong to the
/// design (the lowest-index failing mutant is reported) or the entity
/// is unknown.
pub fn classify_mutants_jobs(
    checked: &CheckedDesign,
    entity: &str,
    mutants: &[Mutant],
    policy: &EquivalencePolicy,
    jobs: usize,
) -> Result<Vec<EquivalenceClass>, MutationError> {
    let info = checked
        .entity_info(entity)
        .ok_or_else(|| MutationError::EntityNotFound(entity.to_string()))?;
    if mutants.is_empty() {
        return Ok(Vec::new());
    }
    let exhaustive = info.is_combinational() && info.input_bits() <= policy.exhaustive_limit;
    let sequences = build_sequences(info, policy, exhaustive);
    let kills = first_kills_over(
        checked,
        entity,
        mutants,
        &sequences,
        None,
        Engine::Lanes,
        &LaneOptions::default().with_jobs(jobs),
    )?;
    let survivor = survivor_class(info, policy);
    Ok(kills
        .into_iter()
        .map(|kill| if kill.is_some() { EquivalenceClass::Killable } else { survivor })
        .collect())
}

/// The class [`classify_mutants`] would assign to a mutant that
/// survives every sequence: proven on exhaustively-enumerable
/// combinational entities, presumed otherwise.
///
/// The static pre-screen uses this to fold proven-unkillable mutants
/// into the `E` term with the exact class full execution would report.
pub fn survivor_class(info: &EntityInfo, policy: &EquivalencePolicy) -> EquivalenceClass {
    if info.is_combinational() && info.input_bits() <= policy.exhaustive_limit {
        EquivalenceClass::ProvenEquivalent
    } else {
        EquivalenceClass::PresumedEquivalent
    }
}

fn build_sequences(
    info: &EntityInfo,
    policy: &EquivalencePolicy,
    exhaustive: bool,
) -> Vec<Vec<Vec<Bits>>> {
    if exhaustive {
        let widths: Vec<u32> = info
            .data_inputs
            .iter()
            .map(|&p| info.symbol(p).width)
            .collect();
        let total: u32 = widths.iter().sum();
        let sequence: Vec<Vec<Bits>> = (0..(1u64 << total))
            .map(|pattern| {
                let mut cursor = 0u32;
                widths
                    .iter()
                    .map(|&w| {
                        let v = (pattern >> cursor) & Bits::mask_of(w);
                        cursor += w;
                        Bits::new(w, v)
                    })
                    .collect()
            })
            .collect();
        return vec![sequence];
    }
    let mut rng = SplitMix64::new(policy.seed);
    let sequences = policy.sequences.max(1);
    let per_sequence = (policy.budget / sequences).max(1);
    (0..sequences)
        .map(|_| (0..per_sequence).map(|_| random_vector(info, &mut rng)).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::execute::{execute_mutants_engine_opt, reference_transcript, run_one, OptLevel};
    use crate::generate::{generate_mutants, GenerateOptions};
    use crate::lanes::MAX_LANES;
    use crate::mutant::{MutantId, Rewrite};
    use crate::operator::MutationOperator;
    use crate::BUNDLED;
    use musa_hdl::ast::{BinOp, Expr, NodeId};
    use musa_hdl::parse;

    fn checked(src: &str) -> CheckedDesign {
        CheckedDesign::new(parse(src).unwrap()).unwrap()
    }

    /// The scalar classifier the lane sweep replaced, kept as the
    /// differential oracle: every mutant on its own `Simulator`, through
    /// the sequences in order, stopping at its first kill.
    fn classify_mutants_scalar(
        checked: &CheckedDesign,
        entity: &str,
        mutants: &[Mutant],
        policy: &EquivalencePolicy,
    ) -> Result<Vec<EquivalenceClass>, MutationError> {
        let info = checked
            .entity_info(entity)
            .ok_or_else(|| MutationError::EntityNotFound(entity.to_string()))?;
        let exhaustive = info.is_combinational() && info.input_bits() <= policy.exhaustive_limit;
        let sequences = build_sequences(info, policy, exhaustive);
        let references: Vec<Vec<Vec<Bits>>> = sequences
            .iter()
            .map(|s| reference_transcript(checked, entity, s))
            .collect::<Result<_, _>>()?;
        let mut classes = Vec::with_capacity(mutants.len());
        for mutant in mutants {
            let mut killed = false;
            for (sequence, reference) in sequences.iter().zip(&references) {
                if run_one(checked, entity, mutant, sequence, reference)?.is_some() {
                    killed = true;
                    break;
                }
            }
            classes.push(if killed {
                EquivalenceClass::Killable
            } else {
                survivor_class(info, policy)
            });
        }
        Ok(classes)
    }

    /// The lane classifier equals the scalar oracle, class for class, on
    /// the survivors of a short random sequence — the population the
    /// sampling experiment actually classifies. c17 takes the exhaustive
    /// path; the wide combinational circuits run the fast policy only,
    /// to keep debug-build runtime low.
    #[test]
    fn lane_classification_matches_the_scalar_oracle_on_every_bundled_circuit() {
        for (entity, source) in BUNDLED {
            let d = checked(source);
            let info = d.entity_info(entity).unwrap();
            let population = generate_mutants(&d, entity, &GenerateOptions::default());
            // 32 random vectors leave nothing of c17 (5 input bits) to classify.
            let budget = if entity == "c17" { 16 } else { 32 };
            let short = EquivalencePolicy { budget, sequences: 1, exhaustive_limit: 0, seed: 3 };
            let sequence = build_sequences(info, &short, false).remove(0);
            let kills = execute_mutants_engine_opt(
                &d,
                entity,
                &population,
                &sequence,
                1,
                Engine::Scalar,
                OptLevel::Full,
            )
            .unwrap();
            // Two lane groups' worth keeps the wide circuits' oracle cheap.
            let survivors: Vec<Mutant> =
                kills.alive().iter().take(80).map(|&i| population[i].clone()).collect();
            assert!(!survivors.is_empty(), "{entity}: nothing survived {budget} vectors");
            let wide = matches!(entity, "c432" | "c499" | "c880");
            let policies = if wide {
                vec![EquivalencePolicy::fast(0x5EED)]
            } else {
                vec![EquivalencePolicy::default(), EquivalencePolicy::fast(0x5EED)]
            };
            for policy in policies {
                let oracle = classify_mutants_scalar(&d, entity, &survivors, &policy).unwrap();
                for jobs in [1, 2] {
                    let lanes =
                        classify_mutants_jobs(&d, entity, &survivors, &policy, jobs).unwrap();
                    assert_eq!(lanes, oracle, "{entity}: {policy:?}, jobs={jobs}");
                }
                assert!(
                    oracle.contains(&EquivalenceClass::Killable),
                    "{entity}: the budget must kill some survivor"
                );
            }
        }
    }

    #[test]
    fn undecided_mutants_are_repacked_into_a_smaller_plan() {
        // Three lane groups' worth of mutants, most of them killed by the
        // first random sequence: the rest must move to a fresh plan of
        // fewer groups, and the classes must not notice.
        let d = checked(
            "entity g is port(a : in bits(4); b : in bits(4); y : out bits(4));
             comb begin y <= (a and a) + (b or b); end;
             end;",
        );
        let once = generate_mutants(&d, "g", &GenerateOptions::default());
        let policy = EquivalencePolicy { exhaustive_limit: 0, ..EquivalencePolicy::fast(5) };
        let classes = classify_mutants_scalar(&d, "g", &once, &policy).unwrap();
        let killable = once
            .iter()
            .zip(&classes)
            .filter(|(_, class)| **class == EquivalenceClass::Killable)
            .map(|(mutant, _)| mutant);
        let mutants: Vec<Mutant> = once
            .iter()
            .chain(killable.cycle().take(3 * MAX_LANES - once.len()))
            .cloned()
            .collect();
        let tracer = musa_trace::Tracer::new();
        let lanes = {
            let _install = tracer.install();
            classify_mutants(&d, "g", &mutants, &policy).unwrap()
        };
        assert_eq!(lanes, classify_mutants_scalar(&d, "g", &mutants, &policy).unwrap());
        let compiles = tracer
            .finish()
            .spans
            .iter()
            .filter(|s| s.name == "lane_compile")
            .count();
        assert!(compiles > 3, "no repack: {compiles} group compiles");
        assert!(lanes.contains(&EquivalenceClass::PresumedEquivalent));
    }

    #[test]
    fn stillborn_mutants_error_exactly_like_the_scalar_oracle() {
        // Deleting the only driver of a combinational output is rejected
        // at apply time; both classifiers must report that very error,
        // for the lowest failing index, even behind a valid mutant.
        let d = checked(
            "entity g is port(a : in bit; b : in bit; y : out bit);
             comb begin y <= a and b; end;
             end;",
        );
        let mut mutants = generate_mutants(&d, "g", &GenerateOptions::only(MutationOperator::Lor));
        mutants.truncate(1);
        mutants.push(Mutant {
            id: MutantId(1),
            operator: MutationOperator::Sdl,
            site: d.design().entities[0].processes[0].body[0].id(),
            rewrite: Rewrite::DeleteStmt,
            description: "delete the y driver".into(),
        });
        for policy in [EquivalencePolicy::default(), EquivalencePolicy::fast(1)] {
            let oracle = classify_mutants_scalar(&d, "g", &mutants, &policy);
            let lanes = classify_mutants(&d, "g", &mutants, &policy);
            assert!(matches!(oracle, Err(MutationError::Stillborn(_))), "{oracle:?}");
            assert_eq!(format!("{lanes:?}"), format!("{oracle:?}"));
        }
    }

    #[test]
    fn an_empty_population_classifies_to_nothing() {
        let d = checked(
            "entity g is port(a : in bit; y : out bit);
             comb begin y <= a; end;
             end;",
        );
        let policy = EquivalencePolicy::default();
        assert!(classify_mutants(&d, "g", &[], &policy).unwrap().is_empty());
        assert!(matches!(
            classify_mutants(&d, "zz", &[], &policy),
            Err(MutationError::EntityNotFound(_))
        ));
    }

    #[test]
    fn truly_equivalent_mutant_is_proven_on_small_comb() {
        // y <= a or a: VR b→a gives y <= a or a ≡ replacing `a or b`'s b
        // with... craft directly: y <= a and a. Mutate `and`→`or`:
        // a and a ≡ a or a — equivalent.
        let d = checked(
            "entity e is port(a : in bit; y : out bit);
             comb begin y <= a and a; end;
             end;",
        );
        // Find the and site.
        let mut site = None;
        for entity in &d.design().entities {
            for process in &entity.processes {
                musa_hdl::ast::walk_exprs(&process.body, &mut |e| {
                    if let Expr::Binary { id, op: BinOp::And, .. } = e {
                        site = Some(*id);
                    }
                });
            }
        }
        let mutant = Mutant {
            id: MutantId(0),
            operator: MutationOperator::Lor,
            site: site.unwrap(),
            rewrite: Rewrite::BinOp { new: BinOp::Or },
            description: "and->or on idempotent operands".into(),
        };
        let classes =
            classify_mutants(&d, "e", &[mutant], &EquivalencePolicy::default()).unwrap();
        assert_eq!(classes[0], EquivalenceClass::ProvenEquivalent);
        assert!(classes[0].is_equivalent());
    }

    #[test]
    fn killable_mutants_are_detected() {
        let d = checked(
            "entity g is port(a : in bit; b : in bit; y : out bit);
             comb begin y <= a and b; end;
             end;",
        );
        let mutants = generate_mutants(&d, "g", &GenerateOptions::only(MutationOperator::Lor));
        let classes =
            classify_mutants(&d, "g", &mutants, &EquivalencePolicy::default()).unwrap();
        assert!(classes.iter().all(|c| *c == EquivalenceClass::Killable));
    }

    #[test]
    fn sequential_designs_use_presumption() {
        let d = checked(
            "entity t is
               port(clk : in bit; en : in bit; q : out bit);
             signal r : bit;
             seq(clk) begin
               if en = 1 then r <= not r; end if;
             end;
             comb begin q <= r; end;
             end;",
        );
        let mutants = generate_mutants(&d, "t", &GenerateOptions::default());
        let classes =
            classify_mutants(&d, "t", &mutants, &EquivalencePolicy::fast(7)).unwrap();
        // No ProvenEquivalent possible on a sequential design.
        assert!(classes
            .iter()
            .all(|c| *c != EquivalenceClass::ProvenEquivalent));
        // The toggle FSM is simple: most mutants must be killable.
        let killable = classes
            .iter()
            .filter(|c| **c == EquivalenceClass::Killable)
            .count();
        assert!(killable * 2 > classes.len(), "{killable}/{}", classes.len());
    }

    #[test]
    fn unknown_entity_errors() {
        let d = checked(
            "entity g is port(a : in bit; y : out bit);
             comb begin y <= a; end;
             end;",
        );
        let mutant = Mutant {
            id: MutantId(0),
            operator: MutationOperator::Cr,
            site: NodeId(0),
            rewrite: Rewrite::Literal { value: 0 },
            description: String::new(),
        };
        assert!(classify_mutants(&d, "zz", &[mutant], &EquivalencePolicy::default()).is_err());
    }

    #[test]
    fn classification_is_deterministic() {
        let d = checked(
            "entity g is port(a : in bits(4); b : in bits(4); y : out bits(4));
             comb begin y <= a + b; end;
             end;",
        );
        let mutants = generate_mutants(&d, "g", &GenerateOptions::default());
        let p = EquivalencePolicy::fast(99);
        let c1 = classify_mutants(&d, "g", &mutants, &p).unwrap();
        let c2 = classify_mutants(&d, "g", &mutants, &p).unwrap();
        assert_eq!(c1, c2);
    }
}
