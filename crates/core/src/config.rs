//! Experiment configuration shared by every pipeline stage.

use musa_mutation::{Engine, EquivalencePolicy, OptLevel};
use musa_testgen::MgConfig;

/// Knobs of the end-to-end experiments.
///
/// Two presets exist: [`ExperimentConfig::paper`] approximates the
/// paper's conditions and is used by the bench binaries;
/// [`ExperimentConfig::fast`] is a scaled-down version for unit tests
/// and examples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExperimentConfig {
    /// Master seed; every stage derives its own sub-seed from it.
    pub seed: u64,
    /// Mutation-guided test-generation knobs.
    pub mg: MgConfig,
    /// Equivalent-mutant policy.
    pub equivalence: EquivalencePolicy,
    /// Pseudo-random baseline length = `baseline_multiple ×` mutation
    /// data length, but at least `baseline_floor` vectors.
    pub baseline_multiple: usize,
    /// Minimum baseline length.
    pub baseline_floor: usize,
    /// Independent repetitions averaged per measurement (different
    /// derived seeds). Small NLFCE values are noisy single-shot; the
    /// mean stabilises operator orderings.
    pub repetitions: usize,
    /// Worker threads for the parallel experiment paths (`0` = one per
    /// available CPU). Results are bit-identical for every value — see
    /// [`crate::parallel`] — so this is purely a wall-clock knob.
    pub jobs: usize,
    /// [`Engine::Lanes`] in both presets. No pipeline stage reads it:
    /// every sweep runs on the lane engine. Only `campaign_bench` does,
    /// passing it to `execute_mutants_engine_opt`; the benchmark change
    /// that re-records its digests deletes the field.
    pub engine: Engine,
    /// Dominance fault-list reduction for the mutation-data fault
    /// simulation (the Table 1/2 hot path): dominating faults are
    /// dropped from the lanes and credited from the representatives
    /// they dominate, with an exact residual pass for anything credit
    /// cannot resolve. Detected/undetected verdicts — hence every
    /// reported coverage number — are identical with the knob on or
    /// off; on is the default. The pseudo-random baseline, whose curve
    /// interior the ΔFC/ΔL metrics read, is never reduced: it simulates
    /// every fault, up to the prefix those metrics read.
    pub fault_reduce: bool,
    /// Static equivalent-mutant pre-screening (`musa_analysis`): mutants
    /// proven unkillable by dataflow analysis — dead mutation sites or
    /// local rewrites that constant-fold to the original — skip
    /// simulation entirely and fold straight into the `E` term of
    /// `MS = K/(M−E)` with the exact class full execution would report.
    /// Every reported number is bit-identical with the knob on or off;
    /// on is the default.
    pub screen: bool,
    /// The lane executor's one level, [`OptLevel::Full`]: nothing
    /// reads it but `campaign_bench` and the `"opt"` line of a report's
    /// `meta`, which every recorded benchmark digest hashes. The
    /// benchmark change that re-records those digests deletes it.
    pub opt: OptLevel,
}

impl ExperimentConfig {
    /// Paper-scale preset (bench binaries; release builds).
    pub fn paper(seed: u64) -> Self {
        Self {
            seed,
            // Generation effort is deliberately bounded: the paper's
            // premise is that mutation analysis is the expensive resource
            // being economised, and its Table 2 Mutation Scores (64–94 %)
            // show an *unsaturated* regime. An unbounded generator drives
            // every strategy to ≈100 % MS and erases the comparison.
            mg: MgConfig {
                pool_size: 32,
                subseq_len: 16,
                max_rounds: 2,
                seed,
            },
            equivalence: EquivalencePolicy {
                budget: 2_000,
                sequences: 8,
                exhaustive_limit: 14,
                seed,
            },
            baseline_multiple: 20,
            baseline_floor: 512,
            repetitions: 15,
            jobs: 0,
            engine: Engine::default(),
            fault_reduce: true,
            screen: true,
            opt: OptLevel::default(),
        }
    }

    /// Scaled-down preset for tests and examples.
    pub fn fast(seed: u64) -> Self {
        Self {
            seed,
            mg: MgConfig::fast(seed),
            equivalence: EquivalencePolicy::fast(seed),
            baseline_multiple: 8,
            baseline_floor: 128,
            repetitions: 2,
            jobs: 0,
            engine: Engine::default(),
            fault_reduce: true,
            screen: true,
            opt: OptLevel::default(),
        }
    }

    /// Returns a copy with the given worker-thread count (`0` = auto).
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Returns a copy with dominance fault-list reduction on or off.
    #[must_use]
    pub fn with_fault_reduce(mut self, fault_reduce: bool) -> Self {
        self.fault_reduce = fault_reduce;
        self
    }

    /// Returns a copy with static equivalent-mutant pre-screening on or
    /// off.
    #[must_use]
    pub fn with_screen(mut self, screen: bool) -> Self {
        self.screen = screen;
        self
    }

    /// The baseline length for a given mutation-data length.
    pub fn baseline_len(&self, mutation_len: usize) -> usize {
        (self.baseline_multiple * mutation_len).max(self.baseline_floor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_in_effort() {
        let fast = ExperimentConfig::fast(1);
        let paper = ExperimentConfig::paper(1);
        // The paper preset spends more on statistics and classification;
        // its *generation* pool is deliberately bounded (see the preset's
        // regime comment), so repetitions and budget are the axis.
        assert!(fast.repetitions < paper.repetitions);
        assert!(fast.equivalence.budget < paper.equivalence.budget);
        assert!(fast.baseline_floor < paper.baseline_floor);
    }

    #[test]
    fn baseline_len_has_floor() {
        let c = ExperimentConfig::fast(1);
        assert_eq!(c.baseline_len(0), c.baseline_floor);
        assert_eq!(c.baseline_len(1000), 8 * 1000);
    }

    #[test]
    fn seed_propagates() {
        let c = ExperimentConfig::paper(77);
        assert_eq!(c.seed, 77);
        assert_eq!(c.mg.seed, 77);
        assert_eq!(c.equivalence.seed, 77);
    }
}
