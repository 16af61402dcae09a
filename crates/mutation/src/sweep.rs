//! The first-kill sweep: when does each mutant first die over an
//! ordered list of test sequences, each applied from reset?
//!
//! Equivalence classification, the kill phase of an experiment and
//! mutation-guided generation all ask that one question, and all ask
//! it here. A mutant retires at its first kill: no later sequence
//! simulates it again.
//!
//! On the lane engine the live mutants are packed into one
//! [`LanePlan`], which is swept through the sequences with a live mask
//! ([`LanePlan::first_kills`]): a sequence costs one pass per lane
//! group that still holds a live mutant, and nothing is recompiled.
//! Once the live mutants would fit in half the plan's groups, they are
//! repacked into a fresh, smaller plan for the remaining sequences.
//! [`first_kills_over`] compiles the first plan itself;
//! [`first_kills_from`] starts from one the caller compiled over
//! exactly the live mutants, so a population graded against many
//! independent session sets (an experiment's repetitions) compiles it
//! once. Both run the one sweep loop below, and their repacked plans
//! are their own.
//!
//! Every production sweep runs on the lane engine. The scalar engine,
//! the tests' oracle, runs each live mutant on its own simulator,
//! sequence by sequence. Both engines report identical kills, and the
//! same error for a mutant that cannot be applied.

use crate::execute::{reference_transcript, run_one, Engine};
use crate::lanes::{LaneOptions, LanePlan};
use crate::mutant::{Mutant, MutationError};
use musa_hdl::{Bits, CheckedDesign};

/// Each mutant's first killing `(sequence index, cycle)` when
/// `sequences` run in order, each from reset: `None` for a mutant that
/// no sequence kills and for every mutant flagged in `skip`.
///
/// `options.jobs` shards the mutants (scalar engine) or lane groups
/// (lane engine) of each sequence across worker threads;
/// `options.lanes_per_pass` applies to the lane engine only. The result
/// is identical for every engine and option.
///
/// # Errors
///
/// Returns [`MutationError::EntityNotFound`] for an unknown entity
/// before any work. Otherwise propagates [`MutationError`] from mutant
/// application: the lowest-index failing live mutant of the first
/// sequence on which one fails.
///
/// # Panics
///
/// Panics if `skip` holds a different number of flags than `mutants`.
pub fn first_kills_over<S: AsRef<[Vec<Bits>]>>(
    checked: &CheckedDesign,
    entity: &str,
    mutants: &[Mutant],
    sequences: &[S],
    skip: Option<&[bool]>,
    engine: Engine,
    options: &LaneOptions,
) -> Result<Vec<Option<(usize, usize)>>, MutationError> {
    if checked.entity_info(entity).is_none() {
        return Err(MutationError::EntityNotFound(entity.to_string()));
    }
    let mut sweep = Sweep::new(checked, entity, mutants, skip);
    match engine {
        Engine::Scalar => sweep.scalar(sequences, options.jobs)?,
        Engine::Lanes => sweep.lanes(sequences, None, options)?,
    }
    Ok(sweep.first_kill)
}

/// [`first_kills_over`] on the lane engine over `plan`'s population,
/// starting from `plan` instead of compiling the first plan: the same
/// kills, passes, steps and lane-ops, with the plan's lanes per pass
/// and `jobs` worker threads. A repack compiles its own plan, as ever.
///
/// # Errors
///
/// As [`first_kills_over`], past the entity check `plan` already made.
///
/// # Panics
///
/// Panics if `skip` holds a different number of flags than the plan's
/// population, or if the mutants it leaves live are not exactly the
/// plan's members, in population order.
pub fn first_kills_from<S: AsRef<[Vec<Bits>]>>(
    plan: &LanePlan<'_>,
    sequences: &[S],
    skip: Option<&[bool]>,
    jobs: usize,
) -> Result<Vec<Option<(usize, usize)>>, MutationError> {
    let mut sweep = Sweep::new(plan.checked, &plan.entity, plan.mutants, skip);
    assert!(
        plan.members == sweep.members(),
        "the plan covers exactly the sweep's live mutants"
    );
    let options = LaneOptions { lanes_per_pass: plan.lanes, jobs };
    sweep.lanes(sequences, Some(plan), &options)?;
    Ok(sweep.first_kill)
}

/// The state of one sweep: which mutants are still live, and the first
/// kill of each retired one.
struct Sweep<'a> {
    checked: &'a CheckedDesign,
    entity: &'a str,
    mutants: &'a [Mutant],
    live: Vec<bool>,
    first_kill: Vec<Option<(usize, usize)>>,
}

impl<'a> Sweep<'a> {
    fn new(
        checked: &'a CheckedDesign,
        entity: &'a str,
        mutants: &'a [Mutant],
        skip: Option<&[bool]>,
    ) -> Self {
        Sweep {
            checked,
            entity,
            mutants,
            live: match skip {
                Some(skip) => {
                    assert_eq!(skip.len(), mutants.len(), "one skip flag per mutant");
                    skip.iter().map(|&skipped| !skipped).collect()
                }
                None => vec![true; mutants.len()],
            },
            first_kill: vec![None; mutants.len()],
        }
    }

    /// Population indices of the live mutants, ascending.
    fn members(&self) -> Vec<usize> {
        (0..self.mutants.len()).filter(|&i| self.live[i]).collect()
    }

    fn retire(&mut self, mutant: usize, sequence: usize, cycle: usize) {
        self.live[mutant] = false;
        self.first_kill[mutant] = Some((sequence, cycle));
    }

    fn scalar<S: AsRef<[Vec<Bits>]>>(
        &mut self,
        sequences: &[S],
        jobs: usize,
    ) -> Result<(), MutationError> {
        for (s, sequence) in sequences.iter().enumerate() {
            let members = self.members();
            if members.is_empty() {
                break;
            }
            let sequence = sequence.as_ref();
            let reference = reference_transcript(self.checked, self.entity, sequence)?;
            let kills = musa_trace::try_fork_map(jobs, members.len(), |k| {
                run_one(
                    self.checked,
                    self.entity,
                    &self.mutants[members[k]],
                    sequence,
                    &reference,
                )
            })?;
            for (&i, kill) in members.iter().zip(kills) {
                if let Some(t) = kill {
                    self.retire(i, s, t);
                }
            }
        }
        Ok(())
    }

    /// The lane sweep: `given`, a plan over exactly the live mutants,
    /// serves the first sequences, and every repack compiles a plan
    /// over the survivors.
    fn lanes<S: AsRef<[Vec<Bits>]>>(
        &mut self,
        sequences: &[S],
        mut given: Option<&LanePlan<'_>>,
        options: &LaneOptions,
    ) -> Result<(), MutationError> {
        let mut next = 0;
        while next < sequences.len() {
            let members = self.members();
            if members.is_empty() {
                break;
            }
            let repacked;
            let plan = match given.take() {
                Some(plan) => plan,
                None => {
                    repacked =
                        LanePlan::over(self.checked, self.entity, self.mutants, members, options)?;
                    &repacked
                }
            };
            let mut plan_live = vec![true; plan.members.len()];
            while next < sequences.len() {
                let (kills, _) =
                    plan.first_kills(sequences[next].as_ref(), &plan_live, options.jobs)?;
                for (slot, kill) in kills.first_kill.iter().enumerate() {
                    if let Some(t) = *kill {
                        plan_live[slot] = false;
                        self.retire(plan.members[slot], next, t);
                    }
                }
                next += 1;
                let remaining = plan_live.iter().filter(|&&live| live).count();
                if remaining == 0 || 2 * remaining.div_ceil(options.lanes()) <= plan.group_count() {
                    break;
                }
            }
        }
        Ok(())
    }
}
