//! Bit-parallel behavioral mutant lanes: up to 63 mutants + the
//! reference machine evaluated in **one** simulation pass.
//!
//! This is the behavioral-layer counterpart of `musa_netlist::fsim`'s
//! 63-faults-plus-good-machine word packing. The population is batched
//! into lane groups of at most 63 mutants of the same entity; each
//! group compiles the entity **once** into a flat instruction tape over
//! 64-lane words with every mutation site folded in as a mask-driven
//! lane select, then steps all lanes through reset
//! and the test sequence together. Per-lane first-kill cycles fall out
//! of XOR-ing each output lane against lane 0, so a population of `N`
//! mutants costs `⌈N/63⌉` simulation passes instead of `N` — and lane
//! groups shard across worker threads, so lanes compose multiplicatively
//! with `jobs`.
//!
//! The pipeline has two stages: `compile` turns the entity into a
//! comb/edge tape pair, and `exec` lowers that pair as it is, one op
//! per instruction (constant pool, uniform scalar prefix), and runs
//! it. That executor is the only one; the scalar engine is its oracle.
//!
//! First kills are the only thing the engine reports: a lane retires at
//! its first differing cycle, and a group stops once all its lanes have.
//! In between, the lowered executor computes only the 16-lane tiles
//! that hold a live lane (and tile 0, the reference's), and a group
//! packs its survivors into the lowest positions whenever that frees a
//! tile, at power-on and after kills. A pack moves state lanes and
//! rewrites the group's `MaskSel` masks; nothing is recompiled, and a
//! position → slot map tells whose lane each position holds.
//! A [`LanePlan`] compiles a population once and runs it against any
//! number of sequences through its one run method,
//! [`LanePlan::first_kills`], with a live mask that skips mutants
//! already decided. Each worker of a call runs every group it takes on
//! one lane VM, which a group fits (register files and stride),
//! re-seeds (constant pool) and resets in place, so no group run
//! allocates a VM of its own. [`crate::first_kills_over`] is the one
//! sweep built on the plan; classification, the kill phase and test
//! generation all go through that sweep, and the kill phase starts it
//! from one plan per sampling experiment ([`crate::first_kills_from`]),
//! which every repetition shares.
//!
//! Results are **bit-identical** to the scalar engine (the
//! [`crate::Engine::Scalar`] arm of the same sweep) for every lane
//! count and job count. Mutants the tape cannot represent (an unknown
//! site, a rewrite that does not fit its node, a replacement the
//! checker would reject) are executed through the scalar engine
//! lane-by-lane, so even pathological inputs keep exact behavioural
//! parity; populations from [`crate::generate_mutants`] never need that
//! path.

mod compile;
mod exec;
mod tape;
// The structural tape checker runs (and therefore compiles) only in
// debug builds, mirroring the `debug_assertions` hook in `compile`.
#[cfg(debug_assertions)]
mod verify;

use crate::execute::{reference_transcript, run_one, KillResult};
use crate::mutant::{Mutant, MutationError};
use compile::{compile_group, BaseCompile, Compiled, Cycle};
use exec::{tiles_of, ExecTape, TILE};
use musa_hdl::{Bits, CheckedDesign};
use std::convert::Infallible;
use tape::{LaneVm, LaneWord, LANES};

/// Maximum number of mutants per simulation pass (lane 0 is the
/// reference machine).
pub const MAX_LANES: usize = LANES - 1;

/// Knobs of the lane engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneOptions {
    /// Mutants packed per pass, clamped to `1..=`[`MAX_LANES`]. Lower
    /// values exist for differential testing; 63 is the throughput
    /// setting.
    pub lanes_per_pass: usize,
    /// Worker threads sharding the lane groups (`0` = one per CPU): a
    /// plan's compiles, and a sweep's runs of them.
    pub jobs: usize,
}

impl Default for LaneOptions {
    fn default() -> Self {
        Self { lanes_per_pass: MAX_LANES, jobs: 1 }
    }
}

impl LaneOptions {
    /// Options with the given worker-thread count.
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    pub(crate) fn lanes(&self) -> usize {
        self.lanes_per_pass.clamp(1, MAX_LANES)
    }
}

/// Execution counters, used by tests and benchmarks to assert the
/// engine's complexity claims.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneStats {
    /// Simulation passes executed: `⌈N/lanes⌉` on the happy path, plus
    /// one per scalar-fallback mutant (whether from an uncompilable
    /// rewrite inside a compiled group or a single-mutant cycle split).
    pub passes: usize,
    /// Total simulation steps executed across all passes; early exit
    /// (lane groups stop once every mutant is killed, scalar fallbacks
    /// at their own first kill) makes this less than
    /// `passes × sequence_len`.
    pub steps: usize,
    /// Lane-op evaluations: each lane-stream sweep's op count times the
    /// lanes it computed (the lanes of the tiles it ran).
    pub ops: u64,
    /// The share of [`LaneStats::ops`] that fell on a live lane or the
    /// reference: each sweep's op count times its live lanes plus one.
    pub live_ops: u64,
}

impl LaneStats {
    /// Publishes the totals into the installed tracer's counter
    /// registry (`lane_passes` / `lane_steps` / `lane_ops` /
    /// `lane_live_ops`); a no-op when tracing is off. Called once per
    /// execution, after the per-group merge, so the counters always
    /// equal the returned stats exactly.
    fn emit(self) {
        musa_trace::count("lane_passes", self.passes as u64);
        musa_trace::count("lane_steps", self.steps as u64);
        musa_trace::count("lane_ops", self.ops);
        musa_trace::count("lane_live_ops", self.live_ops);
    }

    /// Folds one group's counters into the execution totals.
    fn absorb(&mut self, group: LaneStats) {
        self.passes += group.passes;
        self.steps += group.steps;
        self.ops += group.ops;
        self.live_ops += group.live_ops;
    }
}

/// A population compiled once and executable against **any number of
/// test sequences** — the compiled-tape cache behind the lane engine.
///
/// Grading the *same* population against many sequences — what
/// [`crate::first_kills_over`] does for classification, the kill phase
/// and test generation — takes one `LanePlan` and amortises
/// compilation:
///
/// * the group-independent *reference prefix* (read-dependency sets,
///   base evaluation order, power-on lanes) is computed **once per
///   population** and shared by every ≤63-mutant group compile, and
/// * each group's mutant-folded tape is compiled **once per plan** and
///   re-run per sequence (compile-time cycle splitting included), so a
///   pool of `P` candidate sequences costs one compile instead of `P`.
///
/// A plan refers to the caller's mutants by population index (its
/// members, one per slot) and keeps one copy of the power-on lanes for
/// all its groups; a group holds only where its CR lanes differ. It
/// holds no thread budget: [`LanePlan::first_kills`] takes one per
/// call, so a plan compiled once with every thread can run inside
/// workers that each have a share of them
/// ([`crate::first_kills_from`]).
///
/// Results are bit-identical to the scalar engine for every sequence,
/// lane count and job count.
#[derive(Debug)]
pub struct LanePlan<'a> {
    pub(crate) checked: &'a CheckedDesign,
    pub(crate) entity: String,
    /// The caller's population: slot `k` runs `mutants[members[k]]`.
    pub(crate) mutants: &'a [Mutant],
    pub(crate) members: Vec<usize>,
    /// Mutants per group, as compiled (`LaneOptions::lanes`).
    pub(crate) lanes: usize,
    /// Power-on lanes every group starts from, before its CR entries.
    power_on: Vec<LaneWord>,
    groups: Vec<PlanGroup>,
}

/// One executable unit of a [`LanePlan`].
///
/// Nearly every group is a `Tape`, so boxing the compiled payload to
/// shrink the rare `ScalarOne` variant would buy nothing but an extra
/// indirection on the hot path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum PlanGroup {
    /// A compiled lane group covering slots `start..start + len`.
    Tape {
        compiled: Compiled,
        start: usize,
        len: usize,
    },
    /// A single mutant whose union dependency graph cycles even alone;
    /// the scalar engine reports it (stillborn under re-checking).
    ScalarOne { slot: usize },
}

impl<'a> LanePlan<'a> {
    /// Compiles every mutant of `mutants` into lane groups: the plan
    /// over all of them ([`LanePlan::over`]).
    ///
    /// # Errors
    ///
    /// As [`LanePlan::over`].
    pub fn new(
        checked: &'a CheckedDesign,
        entity: &str,
        mutants: &'a [Mutant],
        options: &LaneOptions,
    ) -> Result<Self, MutationError> {
        Self::over(checked, entity, mutants, (0..mutants.len()).collect(), options)
    }

    /// Compiles `mutants[members[k]]` into slot `k` of the plan's lane
    /// groups, sharding the groups across `options.jobs` worker threads
    /// (merged back by group index). `members` are population indices;
    /// a sweep's plans take them ascending.
    ///
    /// Counts the groups it compiles (`lane_groups_compiled`; a range
    /// split on a joint cycle counts each half that compiles), once per
    /// plan.
    ///
    /// # Errors
    ///
    /// Returns [`MutationError::EntityNotFound`] when the design has no
    /// such entity — before touching any mutant, exactly like the
    /// scalar engine's up-front reference transcript does. Per-mutant
    /// failures (unknown sites, stillborn rewrites) surface at
    /// execution time, matching the scalar engine's error behaviour.
    ///
    /// # Panics
    ///
    /// Panics if a member is not an index of `mutants`.
    pub fn over(
        checked: &'a CheckedDesign,
        entity: &str,
        mutants: &'a [Mutant],
        members: Vec<usize>,
        options: &LaneOptions,
    ) -> Result<Self, MutationError> {
        let base = BaseCompile::new(checked, entity)
            .ok_or_else(|| MutationError::EntityNotFound(entity.to_string()))?;
        let planned: Vec<&Mutant> = members.iter().map(|&i| &mutants[i]).collect();
        let lanes = options.lanes();
        let ranges: Vec<(usize, usize)> = (0..planned.len())
            .step_by(lanes)
            .map(|start| (start, lanes.min(planned.len() - start)))
            .collect();
        let nested = musa_trace::try_fork_map(options.jobs, ranges.len(), |i| {
            let _trace = musa_trace::span("lane_compile");
            let compiled = compile_range(&planned, ranges[i], &base);
            musa_trace::progress(|| {
                format!("{entity}: lane group {}/{} compiled", i + 1, ranges.len())
            });
            Ok::<_, Infallible>(compiled)
        })
        .unwrap_or_else(|never| match never {});
        let groups: Vec<PlanGroup> = nested.into_iter().flatten().collect();
        let compiled = groups.iter().filter(|g| matches!(g, PlanGroup::Tape { .. })).count();
        if compiled > 0 {
            musa_trace::count("lane_groups_compiled", compiled as u64);
        }
        Ok(Self {
            checked,
            entity: entity.to_string(),
            mutants,
            members,
            lanes,
            power_on: base.init,
            groups,
        })
    }

    /// Number of executable groups (compiled tapes plus scalar
    /// fallbacks) in the plan.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// The mutant in `slot`.
    fn mutant(&self, slot: usize) -> &Mutant {
        &self.mutants[self.members[slot]]
    }

    /// First killing vector of each mutant flagged in `live` (indexed
    /// by slot: flag `k` is the `k`-th member's), re-using the compiled
    /// tapes: a flagged mutant's `first_kill` is exactly what the
    /// scalar engine reports for it, an unflagged one reports `None` at
    /// no cost. Unflagged lanes drop out of the output scan, scalar
    /// fallbacks for unflagged mutants never run, and a group with no
    /// flagged mutant is skipped outright (0 passes, 0 steps) — so a
    /// caller sweeping one plan through several sequences pays only for
    /// what is still undecided, without recompiling.
    ///
    /// `jobs` worker threads shard the groups; each runs all the groups
    /// it takes on one lane VM, reset in place per group and dropped
    /// with the call.
    ///
    /// # Errors
    ///
    /// Propagates [`MutationError`] exactly as the scalar engine does
    /// over the flagged mutants: the lowest-index failing one is
    /// reported.
    ///
    /// # Panics
    ///
    /// Panics if `live.len()` differs from the plan's member count.
    pub fn first_kills(
        &self,
        sequence: &[Vec<Bits>],
        live: &[bool],
        jobs: usize,
    ) -> Result<(KillResult, LaneStats), MutationError> {
        assert_eq!(live.len(), self.members.len(), "one live flag per planned mutant");
        let reference = self.reference_if_needed(sequence, live)?;
        let per_group =
            musa_trace::try_fork_map_init(jobs, self.groups.len(), LaneVm::default, |vm, i| {
                self.run_first_kill(vm, &self.groups[i], sequence, reference.as_deref(), live)
            })?;
        let mut first_kill = Vec::with_capacity(self.members.len());
        let mut stats = LaneStats::default();
        for (kills, group_stats) in per_group {
            first_kill.extend(kills);
            stats.absorb(group_stats);
        }
        // Counter emission happens here, on the calling context, so the
        // totals land once per execution whatever the job count.
        stats.emit();
        Ok((KillResult { first_kill }, stats))
    }

    /// The scalar reference transcript, computed **once per sequence**
    /// and shared by every group that needs a scalar fallback. Only
    /// fallbacks of `live` mutants count.
    fn reference_if_needed(
        &self,
        sequence: &[Vec<Bits>],
        live: &[bool],
    ) -> Result<Option<Vec<Vec<Bits>>>, MutationError> {
        let needed = self.groups.iter().any(|g| match g {
            PlanGroup::Tape { compiled, start, .. } => {
                compiled.fallback.iter().any(|&slot| live[start + slot])
            }
            PlanGroup::ScalarOne { slot } => live[*slot],
        });
        if !needed {
            return Ok(None);
        }
        reference_transcript(self.checked, &self.entity, sequence).map(Some)
    }

    fn run_first_kill(
        &self,
        vm: &mut LaneVm,
        group: &PlanGroup,
        sequence: &[Vec<Bits>],
        reference: Option<&[Vec<Bits>]>,
        live: &[bool],
    ) -> Result<(Vec<Option<usize>>, LaneStats), MutationError> {
        match group {
            PlanGroup::ScalarOne { slot } if !live[*slot] => {
                Ok((vec![None], LaneStats::default()))
            }
            PlanGroup::ScalarOne { slot } => {
                let _trace = musa_trace::span("scalar_fallback");
                let reference = reference.expect("scalar groups force a reference");
                let kill =
                    run_one(self.checked, &self.entity, self.mutant(*slot), sequence, reference)?;
                let steps = kill.map_or(sequence.len(), |t| t + 1);
                Ok((vec![kill], LaneStats { passes: 1, steps, ..LaneStats::default() }))
            }
            PlanGroup::Tape { compiled, start, len } => {
                let mut live_mask = 0u64;
                for slot in (0..*len).filter(|&slot| live[start + slot]) {
                    live_mask |= 1u64 << (slot + 1);
                }
                if live_mask == 0 {
                    // Nothing left to decide here: no pass, no steps.
                    return Ok((vec![None; *len], LaneStats::default()));
                }
                let mut fallback_mask = 0u64;
                for &slot in &compiled.fallback {
                    fallback_mask |= 1u64 << (slot + 1);
                }
                let mut sim = GroupSim::new(vm, compiled, &self.power_on, *len);
                let mut stats = LaneStats { passes: 1, ..LaneStats::default() };
                let mut first_kill = vec![None; *len];
                let mut alive = sim.used_mask & !fallback_mask & live_mask;
                {
                    let _trace = musa_trace::span("lane_interpret");
                    // From here on `alive` holds lane positions: a pack
                    // moves the survivors, and `sim.slot` says whose
                    // lane each position holds.
                    alive = sim.reset(alive);
                    for (t, vector) in sequence.iter().enumerate() {
                        if alive == 0 {
                            break; // every mutant in the batch is killed
                        }
                        // Killed lanes drop out of the diff scan entirely.
                        let newly = sim.step(vector, alive);
                        stats.steps += 1;
                        for position in lanes_of(newly) {
                            first_kill[usize::from(sim.slot[position]) - 1] = Some(t);
                        }
                        alive = sim.pack(alive & !newly);
                    }
                }
                stats.ops = sim.ops;
                stats.live_ops = sim.live_ops;
                if compiled.fallback.iter().any(|&slot| live[start + slot]) {
                    let _trace = musa_trace::span("scalar_fallback");
                    for &slot in compiled.fallback.iter().filter(|&&slot| live[start + slot]) {
                        let reference = reference.expect("fallbacks force a reference");
                        let kill = run_one(
                            self.checked,
                            &self.entity,
                            self.mutant(start + slot),
                            sequence,
                            reference,
                        )?;
                        stats.passes += 1;
                        stats.steps += kill.map_or(sequence.len(), |t| t + 1);
                        first_kill[slot] = kill;
                    }
                }
                Ok((first_kill, stats))
            }
        }
    }
}

/// Compiles one contiguous range of planned mutants, bisecting on joint
/// combinational cycles: two mutants' added read edges can cycle
/// jointly even though each alone is fine.
fn compile_range(
    planned: &[&Mutant],
    (start, len): (usize, usize),
    base: &BaseCompile,
) -> Vec<PlanGroup> {
    match compile_group(&planned[start..start + len], base) {
        Ok(compiled) => vec![PlanGroup::Tape { compiled, start, len }],
        Err(Cycle) if len > 1 => {
            let mid = len / 2;
            let mut left = compile_range(planned, (start, mid), base);
            left.extend(compile_range(planned, (start + mid, len - mid), base));
            left
        }
        Err(Cycle) => vec![PlanGroup::ScalarOne { slot: start }],
    }
}

/// One compiled lane group stepping through a test sequence, on a lane
/// VM it borrows: the worker's one VM, which the group fits, re-seeds
/// and powers on for itself.
///
/// Only the tiles holding a live lane run, and the group packs its
/// survivors into the lowest positions whenever that frees a tile (see
/// [`GroupSim::pack`]), so after a pack a lane's position is no longer
/// its mutant's slot: [`GroupSim::slot`] maps one to the other.
struct GroupSim<'a, 'v> {
    vm: &'v mut LaneVm,
    compiled: &'a Compiled,
    /// The plan's shared power-on lanes.
    power_on: &'a [LaneWord],
    used_mask: u64,
    /// The compiled lane each position holds: position 0 always holds
    /// the reference, and lane `k` is slot `k - 1` of the group.
    slot: [u8; LANES],
    /// The lane streams (`comb.main`, `edge.main`) with their masks
    /// rewritten for the positions in `slot`; copied at the first pack.
    packed: Option<(ExecTape, ExecTape)>,
    /// Lane-op evaluations, as [`LaneStats::ops`] counts them.
    ops: u64,
    /// Live lane-op evaluations, as [`LaneStats::live_ops`] counts them.
    live_ops: u64,
}

/// The lanes set in `mask`, ascending.
fn lanes_of(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let lane = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            lane
        })
    })
}

impl<'a, 'v> GroupSim<'a, 'v> {
    /// Readies `vm`, whatever group ran on it before, for `compiled`:
    /// fits its register files and stride and seeds the group's
    /// constant pool. [`GroupSim::reset`] then powers it on.
    fn new(
        vm: &'v mut LaneVm,
        compiled: &'a Compiled,
        power_on: &'a [LaneWord],
        group_len: usize,
    ) -> Self {
        let lowered = &compiled.lowered;
        vm.fit(lowered.scratch, lowered.scratch_scalar);
        // The pool registers sit below every op destination and are
        // loop-invariant, so one seeding serves all sweeps.
        vm.seed_consts(&lowered.consts);
        let used_mask = if group_len + 1 >= LANES {
            !1u64
        } else {
            ((1u64 << (group_len + 1)) - 1) & !1
        };
        Self {
            vm,
            compiled,
            power_on,
            used_mask,
            slot: std::array::from_fn(|p| p as u8),
            packed: None,
            ops: 0,
            live_ops: 0,
        }
    }

    /// Counts one lane-stream sweep of `len` ops that computed
    /// `computed` lanes for the live lanes in `lanes`.
    fn count(&mut self, len: usize, computed: usize, lanes: u64) {
        self.ops += (len * computed) as u64;
        self.live_ops += len as u64 * u64::from(lanes.count_ones());
    }

    /// One combinational settle of the lanes in `lanes` (lane 0
    /// included).
    fn settle(&mut self, lanes: u64) {
        let comb = &self.compiled.lowered.comb;
        self.vm.run_scalar(&comb.pre);
        let main = self.packed.as_ref().map_or(&comb.main, |(comb, _)| comb);
        let computed = self.vm.run_exec(main, lanes);
        self.count(main.ops.len(), computed, lanes);
    }

    /// Ends a cycle for the lanes in `lanes`: one clock edge (next-state
    /// computation plus register commit) and the settle after it. A
    /// combinational entity has no edge.
    fn clock(&mut self, lanes: u64) {
        if self.compiled.combinational {
            return;
        }
        let edge = &self.compiled.lowered.edge;
        self.vm.run_scalar(&edge.pre);
        let main = self.packed.as_ref().map_or(&edge.main, |(_, edge)| edge);
        let computed = self.vm.run_exec(main, lanes);
        self.count(main.ops.len(), computed, lanes);
        self.settle(lanes);
    }

    /// Powers a fresh group on with the lanes in `alive` live: the
    /// plan's power-on lanes with the group's CR entries over them,
    /// packed first when the live mask is sparse, then settled. Returns
    /// the live lanes' positions. Each sequence starts from a fresh
    /// group, so no earlier pack has to be undone.
    fn reset(&mut self, alive: u64) -> u64 {
        self.vm.reset(self.power_on, &self.compiled.power_on);
        let alive = self.pack(alive);
        self.settle(alive | 1);
        alive
    }

    /// Packs the lanes in `alive` into positions `1..=n` when they span
    /// more tiles than `n` lanes and the reference need, and returns
    /// their positions (`alive` itself when nothing moves).
    ///
    /// Every lane moves down, in ascending order, in every symbol word
    /// of the state, so the copy is safe in place; the slot map follows
    /// and the lane streams' `MaskSel` masks are rewritten for the new
    /// positions `0..=n`. That is exact because every other lowered op
    /// works lane by lane, scratch registers are rewritten before every
    /// read within a sweep, and the pool registers hold one value in
    /// every lane; the positions left behind are never read again.
    fn pack(&mut self, alive: u64) -> u64 {
        let live = alive.count_ones() as usize;
        if tiles_of(alive | 1).count() <= (live + 1).div_ceil(TILE) {
            return alive;
        }
        for word in &mut self.vm.state {
            for (from, to) in lanes_of(alive).zip(1..) {
                word[to] = word[from];
            }
        }
        for (from, to) in lanes_of(alive).zip(1..) {
            self.slot[to] = self.slot[from];
        }
        let lowered = &self.compiled.lowered;
        let (comb, edge) = (&lowered.comb.main, &lowered.edge.main);
        let (c, e) = self.packed.get_or_insert_with(|| (comb.clone(), edge.clone()));
        c.remap_masks(comb, &self.slot, live);
        e.remap_masks(edge, &self.slot, live);
        // Packing frees a tile, so fewer than 63 lanes are live.
        ((1u64 << live) - 1) << 1
    }

    /// Drives one test vector onto the data inputs and settles the
    /// lanes in `lanes`: their outputs are then ready to sample, before
    /// [`GroupSim::clock`].
    fn apply(&mut self, inputs: &[Bits], lanes: u64) {
        assert_eq!(
            inputs.len(),
            self.compiled.data_inputs.len(),
            "expected {} input values",
            self.compiled.data_inputs.len()
        );
        for (&(sym, width), bits) in self.compiled.data_inputs.iter().zip(inputs) {
            assert_eq!(width, bits.width(), "width mismatch on data input");
            self.vm.state[sym.0 as usize] = [bits.raw(); LANES];
        }
        self.settle(lanes);
    }

    /// Applies one test vector with the scalar simulator's protocol
    /// (inputs, settle, sample, clock) to the lanes in `alive` and
    /// returns the mask of those whose sampled outputs differ from
    /// lane 0.
    ///
    /// Only the live lanes and the reference are computed, and only
    /// they are compared, so long sequences stop paying for dead
    /// mutants mid-sequence. Positions are the packed ones; the caller
    /// maps them through [`GroupSim::slot`].
    fn step(&mut self, inputs: &[Bits], alive: u64) -> u64 {
        self.apply(inputs, alive | 1);
        let mut diff = 0u64;
        let scan = alive & self.used_mask;
        for &sym in &self.compiled.outputs {
            let lanes = &self.vm.state[sym.0 as usize];
            let reference = lanes[0];
            let mut pending = scan & !diff;
            while pending != 0 {
                let l = pending.trailing_zeros() as usize;
                diff |= u64::from(lanes[l] != reference) << l;
                pending &= pending - 1;
            }
        }
        self.clock(alive | 1);
        diff
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::execute::{execute_mutants_engine_opt, Engine, OptLevel, TestSequence};
    use crate::generate::{generate_mutants, GenerateOptions};
    use crate::mutant::{MutantId, Rewrite};
    use crate::operator::MutationOperator;
    use musa_hdl::{parse, Simulator};
    use musa_prng::{Prng, SplitMix64};
    use proptest::prelude::*;
    use std::sync::OnceLock;

    fn checked(src: &str) -> CheckedDesign {
        CheckedDesign::new(parse(src).unwrap()).unwrap()
    }

    fn bit(v: u64) -> Bits {
        Bits::new(1, v)
    }

    const GATE: &str = "
        entity g is
          port(a : in bit; b : in bit; y : out bit);
        comb begin
          y <= a and b;
        end;
        end;
    ";

    const COUNTER: &str = "
        entity t is
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
        end;
    ";

    /// The scalar engine's first kills over one sequence: the oracle
    /// every lane result here is compared with.
    fn scalar_kills(
        d: &CheckedDesign,
        entity: &str,
        mutants: &[Mutant],
        sequence: &[Vec<Bits>],
    ) -> Result<KillResult, MutationError> {
        execute_mutants_engine_opt(d, entity, mutants, sequence, 1, Engine::Scalar, OptLevel::Full)
    }

    /// A fresh plan run once over `sequence` with every mutant live.
    fn lane_kills(
        d: &CheckedDesign,
        entity: &str,
        mutants: &[Mutant],
        sequence: &[Vec<Bits>],
        options: &LaneOptions,
    ) -> Result<(KillResult, LaneStats), MutationError> {
        let plan = LanePlan::new(d, entity, mutants, options)?;
        plan.first_kills(sequence, &vec![true; mutants.len()], options.jobs)
    }

    fn exhaustive_pairs() -> TestSequence {
        (0..4u64).map(|p| vec![bit(p & 1), bit((p >> 1) & 1)]).collect()
    }

    #[test]
    fn lane_engine_matches_scalar_on_the_gate() {
        let d = checked(GATE);
        let mutants = generate_mutants(&d, "g", &GenerateOptions::default());
        let sequence = exhaustive_pairs();
        let scalar = scalar_kills(&d, "g", &mutants, &sequence).unwrap();
        let lanes = lane_kills(&d, "g", &mutants, &sequence, &LaneOptions::default()).unwrap().0;
        assert_eq!(lanes.first_kill, scalar.first_kill);
    }

    #[test]
    fn lane_engine_matches_scalar_on_a_sequential_counter() {
        let d = checked(COUNTER);
        let mutants = generate_mutants(&d, "t", &GenerateOptions::default());
        assert!(mutants.len() > 20, "population {}", mutants.len());
        let mut rng = 0x1234_5678_9ABC_DEF0u64;
        let sequence: TestSequence = (0..24)
            .map(|_| {
                rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
                vec![bit((rng >> 60) & 1), bit((rng >> 61) & 1)]
            })
            .collect();
        let scalar = scalar_kills(&d, "t", &mutants, &sequence).unwrap();
        for lanes_per_pass in [1, 2, 63] {
            let opts = LaneOptions { lanes_per_pass, jobs: 1 };
            let (lanes, _) = lane_kills(&d, "t", &mutants, &sequence, &opts).unwrap();
            assert_eq!(
                lanes.first_kill, scalar.first_kill,
                "lanes_per_pass={lanes_per_pass}"
            );
        }
    }

    #[test]
    fn population_of_n_takes_ceil_n_over_63_passes() {
        let d = checked(COUNTER);
        let mutants = generate_mutants(&d, "t", &GenerateOptions::default());
        let n = mutants.len();
        let sequence: TestSequence = vec![vec![bit(0), bit(1)]; 4];
        let opts = LaneOptions::default();
        let (_, stats) = lane_kills(&d, "t", &mutants, &sequence, &opts).unwrap();
        assert_eq!(
            stats.passes,
            n.div_ceil(MAX_LANES),
            "population {n} must take ⌈N/63⌉ passes"
        );
        // And at one mutant per pass the engine degenerates to N passes.
        let opts = LaneOptions { lanes_per_pass: 1, jobs: 1 };
        let (_, stats) = lane_kills(&d, "t", &mutants, &sequence, &opts).unwrap();
        assert_eq!(stats.passes, n);
    }

    #[test]
    fn lane_group_early_exits_once_every_mutant_is_killed() {
        let d = checked(GATE);
        let mutants = generate_mutants(&d, "g", &GenerateOptions::only(MutationOperator::Lor));
        // The exhaustive four vectors kill all five LOR mutants by t=2;
        // padding the sequence must not cost extra steps.
        let mut sequence = exhaustive_pairs();
        let kill_by = {
            let scalar = scalar_kills(&d, "g", &mutants, &sequence).unwrap();
            scalar.first_kill.iter().map(|k| k.unwrap()).max().unwrap()
        };
        for _ in 0..100 {
            sequence.push(vec![bit(0), bit(0)]);
        }
        let (lanes, stats) = lane_kills(
            &d,
            "g",
            &mutants,
            &sequence,
            &LaneOptions::default(),
        )
        .unwrap();
        assert_eq!(lanes.killed_count(), mutants.len());
        assert_eq!(
            stats.steps,
            kill_by + 1,
            "group must stop right after its last first-kill"
        );
    }

    #[test]
    fn two_mutants_on_the_same_site_stay_in_their_lanes() {
        // Mask-select correctness: several rewrites of the SAME binary
        // site must not bleed into each other's lanes (regression guard
        // for the MaskSel chaining order).
        let d = checked(GATE);
        let mutants = generate_mutants(&d, "g", &GenerateOptions::only(MutationOperator::Lor));
        assert_eq!(mutants.len(), 5, "five same-site alternatives");
        assert!(
            mutants.windows(2).all(|w| w[0].site == w[1].site),
            "all five target one site"
        );
        let sequence = exhaustive_pairs();
        let scalar = scalar_kills(&d, "g", &mutants, &sequence).unwrap();
        let lanes = lane_kills(&d, "g", &mutants, &sequence, &LaneOptions::default()).unwrap().0;
        assert_eq!(lanes.first_kill, scalar.first_kill);
        // And per-kill cycles differ between the alternatives, so a
        // lane-bleed would be visible.
        assert!(scalar.first_kill.iter().collect::<std::collections::HashSet<_>>().len() > 1);
    }

    #[test]
    fn same_site_uoi_and_lor_mix_is_lane_exact() {
        let d = checked(GATE);
        let mut mutants = generate_mutants(&d, "g", &GenerateOptions::only(MutationOperator::Lor));
        let site = mutants[0].site;
        mutants.push(Mutant {
            id: MutantId(99),
            operator: MutationOperator::Uoi,
            site,
            rewrite: Rewrite::InsertNot,
            description: "UOI on the shared site".into(),
        });
        let sequence = exhaustive_pairs();
        let scalar = scalar_kills(&d, "g", &mutants, &sequence).unwrap();
        let lanes = lane_kills(&d, "g", &mutants, &sequence, &LaneOptions::default()).unwrap().0;
        assert_eq!(lanes.first_kill, scalar.first_kill);
    }

    #[test]
    fn slice_targets_dynamic_indices_and_reductions_match_scalar() {
        // Constructs no bundled benchmark exercises together: slice
        // writes, a dynamically indexed write under a guard, reductions
        // and shifts — with the full operator population (including CR
        // mutants inside the target index expression).
        let d = checked(
            "entity m is
               port(clk : in bit; a : in bits(4); s : in bits(2); y : out bits(8); p : out bit);
             signal r : bits(8);
             signal hot : bits(4);
             seq(clk) begin
               r[7:4] <= a;
               r[3:0] <= r[7:4];
             end;
             comb begin
               hot <= 0;
               if orr(a) = 1 then
                 hot[s] <= 1;
               end if;
             end;
             comb begin
               y <= r xor (hot & (a srl 1));
               p <= xorr(r) xor andr(a);
             end;
             end;",
        );
        let mutants = generate_mutants(&d, "m", &GenerateOptions::default());
        assert!(mutants.len() > 40, "population {}", mutants.len());
        let mut rng = 0xFEEDu64;
        let sequence: TestSequence = (0..20)
            .map(|_| {
                rng = rng.wrapping_mul(6364136223846793005).wrapping_add(99);
                vec![Bits::new(4, rng >> 50), Bits::new(2, rng >> 40)]
            })
            .collect();
        let scalar = scalar_kills(&d, "m", &mutants, &sequence).unwrap();
        for lanes_per_pass in [1, 63] {
            let opts = LaneOptions { lanes_per_pass, jobs: 1 };
            let (lanes, _) = lane_kills(&d, "m", &mutants, &sequence, &opts).unwrap();
            assert_eq!(
                lanes.first_kill, scalar.first_kill,
                "lanes_per_pass={lanes_per_pass}"
            );
        }
    }

    #[test]
    fn jobs_shard_lane_groups_identically() {
        let d = checked(COUNTER);
        let mutants = generate_mutants(&d, "t", &GenerateOptions::default());
        let sequence: TestSequence =
            (0..16).map(|i| vec![bit(u64::from(i % 7 == 0)), bit(1)]).collect();
        let serial = lane_kills(&d, "t", &mutants, &sequence, &LaneOptions::default()).unwrap().0;
        for jobs in [0, 2, 8] {
            let opts = LaneOptions { lanes_per_pass: 4, jobs };
            let (sharded, _) = lane_kills(&d, "t", &mutants, &sequence, &opts).unwrap();
            assert_eq!(sharded.first_kill, serial.first_kill, "jobs={jobs}");
        }
    }

    #[test]
    fn lane_plan_is_reusable_across_sequences() {
        // The compiled-tape cache: one plan graded against several
        // sequences must match a fresh engine call per sequence.
        let d = checked(COUNTER);
        let mutants = generate_mutants(&d, "t", &GenerateOptions::default());
        let plan = LanePlan::new(&d, "t", &mutants, &LaneOptions::default()).unwrap();
        assert_eq!(plan.group_count(), mutants.len().div_ceil(MAX_LANES));
        let mut rng = 0xCAFEu64;
        for round in 0..3 {
            let sequence: TestSequence = (0..10)
                .map(|_| {
                    rng = rng.wrapping_mul(6364136223846793005).wrapping_add(7);
                    vec![bit((rng >> 60) & 1), bit((rng >> 61) & 1)]
                })
                .collect();
            let (fresh, _) =
                lane_kills(&d, "t", &mutants, &sequence, &LaneOptions::default()).unwrap();
            let (cached, _) = plan.first_kills(&sequence, &vec![true; mutants.len()], 1).unwrap();
            assert_eq!(cached.first_kill, fresh.first_kill, "round {round}");
        }
    }

    #[test]
    fn live_sweep_reports_flagged_mutants_like_first_kills_and_none_otherwise() {
        let d = checked(COUNTER);
        let mutants = generate_mutants(&d, "t", &GenerateOptions::default());
        let plan = LanePlan::new(&d, "t", &mutants, &LaneOptions::default()).unwrap();
        let sequence: TestSequence =
            (0..12).map(|i| vec![bit(u64::from(i % 5 == 0)), bit(u64::from(i % 3 != 1))]).collect();
        let (full, _) = plan.first_kills(&sequence, &vec![true; mutants.len()], 1).unwrap();
        for stride in [1, 2, 3] {
            let live: Vec<bool> = (0..mutants.len()).map(|i| i % stride == 0).collect();
            let (partial, _) = plan.first_kills(&sequence, &live, 1).unwrap();
            for (i, &flagged) in live.iter().enumerate() {
                let expected = if flagged { full.first_kill[i] } else { None };
                assert_eq!(partial.first_kill[i], expected, "stride {stride}, mutant {i}");
            }
        }
    }

    #[test]
    fn a_group_with_no_live_lane_takes_no_pass_and_no_step() {
        let d = checked(COUNTER);
        let mutants = generate_mutants(&d, "t", &GenerateOptions::default());
        let opts = LaneOptions { lanes_per_pass: 4, ..LaneOptions::default() };
        let plan = LanePlan::new(&d, "t", &mutants, &opts).unwrap();
        assert!(plan.group_count() > 2);
        let sequence: TestSequence = vec![vec![bit(0), bit(1)]; 6];
        let (kills, stats) = plan.first_kills(&sequence, &vec![false; mutants.len()], 1).unwrap();
        assert_eq!(kills.killed_count(), 0);
        assert_eq!(stats, LaneStats::default(), "no live lane anywhere: no work at all");
        // Only the first group's lanes live: exactly one pass runs.
        let live: Vec<bool> = (0..mutants.len()).map(|i| i < 4).collect();
        let (_, stats) = plan.first_kills(&sequence, &live, 1).unwrap();
        assert_eq!(stats.passes, 1);
        assert!(stats.steps <= sequence.len());
    }

    #[test]
    fn unflagged_scalar_fallbacks_never_run() {
        use musa_hdl::ast::{walk_exprs, Expr, NodeId};
        // A valid LOR mutant, a VR mutant that closes a combinational
        // loop (`a` -> `z`, which reads `x`) and so plans as a lone
        // scalar group, and a bogus-site mutant the tape cannot
        // represent (a fallback inside a compiled group). Either broken
        // mutant errors when it runs; unflagged, neither may run.
        let d = checked(
            "entity p is
               port(a : in bit; b : in bit; y : out bit);
             signal x : bit;
             signal z : bit;
             comb begin x <= a and b; end;
             comb begin z <= not x; end;
             comb begin y <= z; end;
             end;",
        );
        let mut a_site = None;
        walk_exprs(&d.design().entities[0].processes[0].body, &mut |e| {
            if let Expr::Ref { id, name } = e {
                if name.name == "a" {
                    a_site = Some(*id);
                }
            }
        });
        let valid = generate_mutants(&d, "p", &GenerateOptions::only(MutationOperator::Lor))
            .remove(0);
        let cyclic = Mutant {
            id: MutantId(1),
            operator: MutationOperator::Vr,
            site: a_site.unwrap(),
            rewrite: Rewrite::Ref { new: "z".into() },
            description: "a -> z closes a combinational loop".into(),
        };
        let bogus = Mutant {
            id: MutantId(2),
            operator: MutationOperator::Cr,
            site: NodeId(999_999),
            rewrite: Rewrite::Literal { value: 0 },
            description: String::new(),
        };
        let sequence: TestSequence = (0..4u64).map(|p| vec![bit(p & 1), bit(p >> 1)]).collect();
        // The loop splits the pair into two groups; the bogus site stays
        // a fallback inside one compiled group.
        for (broken, groups) in [(cyclic, 2), (bogus, 1)] {
            let mutants = vec![valid.clone(), broken];
            let plan = LanePlan::new(&d, "p", &mutants, &LaneOptions::default()).unwrap();
            assert_eq!(plan.group_count(), groups);
            let scalar = scalar_kills(&d, "p", &mutants, &sequence);
            assert!(scalar.is_err(), "the broken mutant must fail on the scalar engine");
            let all = plan.first_kills(&sequence, &[true, true], 1);
            assert_eq!(format!("{all:?}"), format!("{scalar:?}"));
            let (kills, stats) = plan.first_kills(&sequence, &[true, false], 1).unwrap();
            assert_eq!(kills.first_kill[1], None);
            assert!(kills.first_kill[0].is_some(), "the LOR mutant dies on 4 vectors");
            assert_eq!(stats.passes, 1, "only the valid mutant's lane group runs");
        }
    }

    /// `n` drawn two-input sessions of `len` vectors for `COUNTER`.
    fn counter_sessions(n: usize, len: usize, seed: u64) -> Vec<TestSequence> {
        let mut rng = SplitMix64::new(seed);
        (0..n)
            .map(|_| (0..len).map(|_| vec![bit(rng.bits(1)), bit(rng.bits(1))]).collect())
            .collect()
    }

    #[test]
    fn a_given_plan_sweeps_like_the_plan_the_sweep_compiles() {
        // One plan over the mutants a mask leaves live, reused for
        // several session sets: each set's kills equal those of a sweep
        // that compiles its own plans, repacks included (four mutants
        // per group, so survivors repack onto fewer groups).
        let d = checked(COUNTER);
        let mutants = generate_mutants(&d, "t", &GenerateOptions::default());
        let skip: Vec<bool> = (0..mutants.len()).map(|i| i % 3 == 1).collect();
        let members: Vec<usize> = (0..mutants.len()).filter(|&i| !skip[i]).collect();
        let options = LaneOptions { lanes_per_pass: 4, jobs: 2 };
        let plan = LanePlan::over(&d, "t", &mutants, members.clone(), &options).unwrap();
        assert_eq!(plan.members, members);
        for set in 0..3 {
            let sessions = counter_sessions(4, 3, set);
            let compiled = crate::first_kills_over(
                &d,
                "t",
                &mutants,
                &sessions,
                Some(&skip),
                Engine::Lanes,
                &options,
            )
            .unwrap();
            for jobs in [1, 3] {
                let given = crate::first_kills_from(&plan, &sessions, Some(&skip), jobs).unwrap();
                assert_eq!(given, compiled, "session set {set}, jobs={jobs}");
            }
            assert!(compiled.iter().any(Option::is_some), "session set {set}: no kill");
        }
    }

    #[test]
    #[should_panic(expected = "the plan covers exactly the sweep's live mutants")]
    fn a_sweep_refuses_a_plan_built_under_another_mask() {
        // The plan leaves mutant 0 out and the sweep's mask mutant 1:
        // as many members either way, but slot 0 would grade the wrong
        // mutant.
        let d = checked(COUNTER);
        let mutants = generate_mutants(&d, "t", &GenerateOptions::default());
        let members = (1..mutants.len()).collect();
        let plan = LanePlan::over(&d, "t", &mutants, members, &LaneOptions::default()).unwrap();
        let skip: Vec<bool> = (0..mutants.len()).map(|i| i == 1).collect();
        let _ = crate::first_kills_from(&plan, &counter_sessions(2, 4, 7), Some(&skip), 1);
    }

    /// A sequential entity whose constants drive both its state and an
    /// output: its CR mutants of constant declarations are power-on
    /// lanes of their own.
    const CONSTANTS: &str = "
        entity k is
          port(clk : in bit; a : in bits(4); y : out bits(4); f : out bit);
        constant LIM : bits(4) := 9;
        constant STEP : bits(4) := 3;
        signal c : bits(4);
        seq(clk) begin
          if c > LIM then
            c <= 0;
          else
            c <= c + STEP;
          end if;
        end;
        comb begin
          y <= c xor a;
          f <= a > LIM;
        end;
        end;
    ";

    #[test]
    fn constant_lanes_power_on_over_the_shared_lanes_in_every_group() {
        // At four mutants per group every group runs on the one VM of a
        // single-job call, each after another group's CR lanes: each
        // reset must lay the shared power-on lanes down again and then
        // only its own group's CR entries.
        let d = checked(CONSTANTS);
        let mutants = generate_mutants(&d, "k", &GenerateOptions::default());
        let is_constant = |m: &Mutant| matches!(m.rewrite, Rewrite::ConstDecl { .. });
        assert!(mutants.iter().filter(|m| is_constant(m)).count() >= 4);
        let mut rng = SplitMix64::new(0xC0);
        for lanes_per_pass in [4, MAX_LANES] {
            let options = LaneOptions { lanes_per_pass, jobs: 1 };
            let plan = LanePlan::new(&d, "k", &mutants, &options).unwrap();
            for round in 0..3 {
                let sequence: TestSequence =
                    (0..12).map(|_| vec![Bits::new(4, rng.bits(4))]).collect();
                let scalar = scalar_kills(&d, "k", &mutants, &sequence).unwrap();
                let live = vec![true; mutants.len()];
                let (lanes, _) = plan.first_kills(&sequence, &live, 1).unwrap();
                let what = format!("lanes_per_pass={lanes_per_pass}, round {round}");
                assert_eq!(lanes.first_kill, scalar.first_kill, "{what}");
                let killed = mutants.iter().zip(&scalar.first_kill);
                assert!(
                    killed.filter(|(m, _)| is_constant(m)).any(|(_, k)| k.is_some()),
                    "{what}: no constant mutant killed"
                );
            }
        }
    }

    #[test]
    fn lane_plan_rejects_unknown_entities_up_front() {
        let d = checked(GATE);
        let err = LanePlan::new(&d, "zz", &[], &LaneOptions::default()).unwrap_err();
        assert!(matches!(err, MutationError::EntityNotFound(_)));
    }

    #[test]
    fn invalid_mutants_fall_back_to_scalar_errors() {
        use musa_hdl::ast::NodeId;
        let d = checked(GATE);
        let bogus = Mutant {
            id: MutantId(0),
            operator: MutationOperator::Cr,
            site: NodeId(999_999),
            rewrite: Rewrite::Literal { value: 0 },
            description: String::new(),
        };
        let err = lane_kills(&d, "g", &[bogus], &exhaustive_pairs(), &LaneOptions::default())
            .unwrap_err();
        assert!(matches!(err, MutationError::SiteNotFound(_)), "{err}");
    }

    #[test]
    fn stillborn_sdl_mutant_errors_exactly_like_scalar() {
        // Deleting the only driver of a combinational output violates
        // full assignment: the scalar engine rejects the mutant as
        // stillborn at apply time, and the lane engine must report the
        // very same error instead of silently simulating the deletion.
        let d = checked(GATE);
        let site = d.design().entities[0].processes[0].body[0].id();
        let sdl = lone(MutationOperator::Sdl, site, Rewrite::DeleteStmt);
        assert_stillborn_on_both_engines(&d, "g", sdl);
    }

    /// A lone mutant on both engines over a few vectors: the scalar
    /// engine must reject it as stillborn, and the lane engine report
    /// that very error instead of silently simulating the rewrite.
    fn assert_stillborn_on_both_engines(d: &CheckedDesign, entity: &str, mutant: Mutant) {
        let info = d.entity_info(entity).unwrap();
        let sequence: TestSequence = (0..4u64)
            .map(|v| {
                info.data_inputs
                    .iter()
                    .map(|&input| Bits::new(info.symbol(input).width, v & 1))
                    .collect()
            })
            .collect();
        let scalar = scalar_kills(d, entity, std::slice::from_ref(&mutant), &sequence);
        let lanes = lane_kills(d, entity, &[mutant], &sequence, &LaneOptions::default())
            .map(|(kills, _)| kills);
        assert!(
            matches!(scalar, Err(MutationError::Stillborn(_))),
            "scalar: {scalar:?}"
        );
        assert_eq!(
            format!("{scalar:?}"),
            format!("{lanes:?}"),
            "engines must agree on the stillborn error"
        );
    }

    fn lone(operator: MutationOperator, site: musa_hdl::ast::NodeId, rewrite: Rewrite) -> Mutant {
        Mutant { id: MutantId(0), operator, site, rewrite, description: String::new() }
    }

    #[test]
    fn stillborn_clocked_sdl_errors_exactly_like_scalar() {
        // Registers hold their value, but deleting a clocked process's
        // only assignment to an output port leaves the port undriven.
        let d = checked(
            "entity r is port(clk : in bit; a : in bit; q : out bit);
             seq(clk) begin q <= a; end;
             end;",
        );
        let site = d.design().entities[0].processes[0].body[0].id();
        let sdl = lone(MutationOperator::Sdl, site, Rewrite::DeleteStmt);
        assert_stillborn_on_both_engines(&d, "r", sdl);
    }

    #[test]
    fn stillborn_relational_swap_errors_exactly_like_scalar() {
        // `and` -> `lt` gives a 2-bit context a 1-bit expression.
        let d = checked(
            "entity x is port(a : in bits(2); b : in bits(2); y : out bits(2));
             comb begin y <= a and b; end;
             end;",
        );
        let musa_hdl::ast::Stmt::Assign { value, .. } = &d.design().entities[0].processes[0].body[0]
        else {
            panic!("the body is one assignment");
        };
        let lt = Rewrite::BinOp { new: musa_hdl::ast::BinOp::Lt };
        let swap = lone(MutationOperator::Lor, value.id(), lt);
        assert_stillborn_on_both_engines(&d, "x", swap);
    }

    #[test]
    fn stillborn_out_of_range_index_cr_errors_exactly_like_scalar() {
        // The checker bounds a literal index by the indexed width, in a
        // read and in an assignment target alike, so a CR past it is
        // stillborn although the (32-bit) literal itself fits.
        for src in [
            "entity x is port(a : in bits(3); y : out bit);
             comb begin y <= a[1]; end;
             end;",
            "entity x is port(a : in bit; y : out bits(3));
             comb begin y <= 0; y[1] <= a; end;
             end;",
        ] {
            let d = checked(src);
            let mut site = None;
            musa_hdl::ast::walk_exprs(&d.design().entities[0].processes[0].body, &mut |e| {
                if let musa_hdl::ast::Expr::Literal { id, value: 1, .. } = e {
                    site = Some(*id);
                }
            });
            let cr = lone(MutationOperator::Cr, site.unwrap(), Rewrite::Literal { value: 3 });
            assert_stillborn_on_both_engines(&d, "x", cr);
        }
    }

    #[test]
    fn stillborn_partial_target_index_cr_errors_exactly_like_scalar() {
        // Moving a combinational target index to another bit in range
        // leaves the bit it left unassigned: full assignment fails.
        let d = checked(
            "entity x is port(a : in bit; y : out bits(2));
             comb begin y[0] <= a; y[1] <= not a; end;
             end;",
        );
        let musa_hdl::ast::Stmt::Assign { target, .. } = &d.design().entities[0].processes[0].body[1]
        else {
            panic!("the second statement is an assignment");
        };
        let Some(musa_hdl::ast::Select::Index(index)) = &target.sel else {
            panic!("the target is indexed");
        };
        let cr = lone(MutationOperator::Cr, index.id(), Rewrite::Literal { value: 0 });
        assert_stillborn_on_both_engines(&d, "x", cr);
    }

    #[test]
    fn stillborn_read_index_rewrites_error_exactly_like_scalar() {
        // A CVR that turns an index into a literal past the indexed
        // width, and a UOI on a decimal literal index, whose width the
        // checker cannot infer.
        let d = checked(
            "entity x is port(a : in bits(3); s : in bits(2); y : out bit; z : out bit);
             comb begin y <= a[s]; z <= a[1]; end;
             end;",
        );
        let mut sites = (None, None);
        musa_hdl::ast::walk_exprs(&d.design().entities[0].processes[0].body, &mut |e| match e {
            musa_hdl::ast::Expr::Ref { id, name } if name.name == "s" => sites.0 = Some(*id),
            musa_hdl::ast::Expr::Literal { id, .. } => sites.1 = Some(*id),
            _ => {}
        });
        let cvr = Rewrite::RefToConst { value: 3, width: 2 };
        assert_stillborn_on_both_engines(&d, "x", lone(MutationOperator::Cvr, sites.0.unwrap(), cvr));
        let uoi = lone(MutationOperator::Uoi, sites.1.unwrap(), Rewrite::InsertNot);
        assert_stillborn_on_both_engines(&d, "x", uoi);
    }

    #[test]
    fn uoi_on_a_typed_literal_index_matches_scalar() {
        // `not 0b01` is 2 bits wide, not the 32 bits of a bare literal
        // index: the lanes leave it to the scalar engine. Read as 32
        // bits it would index past `a` and read 0, where `a[2]` is 1 on
        // the first vector.
        for src in [
            "entity x is port(a : in bits(3); y : out bit);
             comb begin y <= a[0b01]; end;
             end;",
            "entity x is port(a : in bit; y : out bits(3));
             comb begin y <= 0; y[0b01] <= a; end;
             end;",
        ] {
            let d = checked(src);
            let mut site = None;
            musa_hdl::ast::walk_exprs(&d.design().entities[0].processes[0].body, &mut |e| {
                if let musa_hdl::ast::Expr::Literal { id, value: 1, .. } = e {
                    site = Some(*id);
                }
            });
            let uoi = lone(MutationOperator::Uoi, site.unwrap(), Rewrite::InsertNot);
            assert!(uoi.apply(&d).is_ok(), "the checker accepts `not 0b01` as an index");
            let info = d.entity_info("x").unwrap();
            let sequence: TestSequence = (0..8u64)
                .map(|v| {
                    let width = info.symbol(info.data_inputs[0]).width;
                    vec![Bits::new(width, (v + 4) & Bits::mask_of(width))]
                })
                .collect();
            let scalar = scalar_kills(&d, "x", std::slice::from_ref(&uoi), &sequence);
            let lanes = lane_kills(&d, "x", &[uoi], &sequence, &LaneOptions::default())
                .map(|(kills, _)| kills);
            assert_eq!(format!("{scalar:?}"), format!("{lanes:?}"));
        }
    }

    #[test]
    fn stillborn_duplicate_case_choice_errors_exactly_like_scalar() {
        let d = checked(
            "entity c is
               port(a : in bits(2); y : out bit);
             comb begin
               case a is
                 when 0 => y <= 1;
                 when 1 => y <= 0;
                 when others => y <= 0;
               end case;
             end;
             end;",
        );
        // Rewriting choice 0 to 1 collides with the second arm: stillborn.
        let entity = d.design().entities[0].clone();
        let mut arm_site = None;
        musa_hdl::ast::walk_stmts(&entity.processes[0].body, &mut |s| {
            if let musa_hdl::ast::Stmt::Case { arms, .. } = s {
                arm_site = Some(arms[0].id);
            }
        });
        let choice = Rewrite::CaseChoice { index: 0, value: 1 };
        let dup = lone(MutationOperator::Cr, arm_site.unwrap(), choice);
        assert_stillborn_on_both_engines(&d, "c", dup);
    }

    #[test]
    fn unknown_entity_is_reported_before_any_work() {
        let d = checked(GATE);
        for engine in [Engine::Scalar, Engine::Lanes] {
            let sequences = [exhaustive_pairs()];
            let options = LaneOptions::default();
            let err = crate::first_kills_over(&d, "zz", &[], &sequences, None, engine, &options)
                .unwrap_err();
            assert!(matches!(err, MutationError::EntityNotFound(_)), "{engine:?}");
        }
    }

    #[test]
    fn empty_population_and_empty_sequence_are_harmless() {
        let d = checked(GATE);
        let (kills, _) =
            lane_kills(&d, "g", &[], &exhaustive_pairs(), &LaneOptions::default()).unwrap();
        assert!(kills.first_kill.is_empty());
        let mutants = generate_mutants(&d, "g", &GenerateOptions::default());
        let kills = lane_kills(&d, "g", &mutants, &[], &LaneOptions::default()).unwrap().0;
        assert_eq!(kills.killed_count(), 0);
    }

    /// The central pipeline contract: for every entity shape the suite
    /// exercises, the lane executor and the scalar engine agree
    /// bit-for-bit on first kills.
    #[test]
    fn optimizer_is_bit_identical_to_unoptimized_and_scalar() {
        let dyn_entity = "entity m is
           port(clk : in bit; a : in bits(4); s : in bits(2); y : out bits(8); p : out bit);
         signal r : bits(8);
         signal hot : bits(4);
         seq(clk) begin
           r[7:4] <= a;
           r[3:0] <= r[7:4];
         end;
         comb begin
           hot <= 0;
           if orr(a) = 1 then
             hot[s] <= 1;
           end if;
         end;
         comb begin
           y <= r xor (hot & (a srl 1));
           p <= xorr(r) xor andr(a);
         end;
         end;";
        let mut rng = 0x0D15_EA5Eu64;
        for (src, entity, widths) in [
            (GATE, "g", vec![1u32, 1]),
            (COUNTER, "t", vec![1, 1]),
            (dyn_entity, "m", vec![4, 2]),
        ] {
            let d = checked(src);
            let mutants = generate_mutants(&d, entity, &GenerateOptions::default());
            let sequence: TestSequence = (0..24)
                .map(|_| {
                    rng = rng.wrapping_mul(6364136223846793005).wrapping_add(13);
                    widths
                        .iter()
                        .enumerate()
                        .map(|(i, &w)| Bits::new(w, rng >> (40 + 4 * i)))
                        .collect()
                })
                .collect();
            let scalar = scalar_kills(&d, entity, &mutants, &sequence).unwrap();
            let options = LaneOptions::default();
            let (lanes, _) = lane_kills(&d, entity, &mutants, &sequence, &options).unwrap();
            assert_eq!(lanes.first_kill, scalar.first_kill, "{entity}: lanes vs scalar");
        }
    }

    /// One bundled circuit for the lane oracle below: a strided sample of
    /// its population (a full lane group and a tail group), each sampled
    /// mutant applied for the scalar simulator, and the sample's plan.
    /// Built once per test process.
    struct OracleCircuit {
        entity: &'static str,
        checked: &'static CheckedDesign,
        applied: Vec<CheckedDesign>,
        plan: LanePlan<'static>,
    }

    fn oracle_circuits() -> &'static [OracleCircuit] {
        static CACHE: OnceLock<Vec<OracleCircuit>> = OnceLock::new();
        CACHE.get_or_init(|| {
            crate::BUNDLED
                .iter()
                .map(|&(entity, source)| {
                    let checked: &'static CheckedDesign = Box::leak(Box::new(checked(source)));
                    let population = generate_mutants(checked, entity, &GenerateOptions::default());
                    let n = population.len().min(MAX_LANES + 1);
                    let sample: &'static [Mutant] = (0..n)
                        .map(|k| population[k * population.len() / n].clone())
                        .collect::<Vec<_>>()
                        .leak();
                    let applied = sample
                        .iter()
                        .map(|mutant| mutant.apply(checked).expect("generated mutants apply"))
                        .collect();
                    let plan =
                        LanePlan::new(checked, entity, sample, &LaneOptions::default()).unwrap();
                    OracleCircuit { entity, checked, applied, plan }
                })
                .collect()
        })
    }

    /// `mask` with each lane retired with probability `p`.
    fn retire(mask: u64, p: f64, rng: &mut SplitMix64) -> u64 {
        lanes_of(mask)
            .filter(|_| !rng.chance(p))
            .fold(0, |kept, lane| kept | 1 << lane)
    }

    /// `cycles` drawn vectors for `circuit`'s data inputs.
    fn draw_sequence(circuit: &OracleCircuit, cycles: usize, rng: &mut SplitMix64) -> TestSequence {
        let info = circuit.checked.entity_info(circuit.entity).unwrap();
        (0..cycles)
            .map(|_| {
                info.data_inputs
                    .iter()
                    .map(|&input| {
                        let width = info.symbol(input).width;
                        Bits::new(width, rng.bits(width))
                    })
                    .collect()
            })
            .collect()
    }

    /// Runs `group` of `circuit`'s plan on `vm` over `sequence`, as a
    /// first-kill run steps it, and hands `sampled` each cycle's outputs
    /// of every live position (the reference's included) with the lane
    /// it holds. Each live lane retires with probability `p` at power-on
    /// and after every cycle, and the group packs its survivors through
    /// [`GroupSim::pack`].
    fn drive(
        vm: &mut LaneVm,
        circuit: &OracleCircuit,
        group: &PlanGroup,
        sequence: &TestSequence,
        (p, rng): (f64, &mut SplitMix64),
        mut sampled: impl FnMut(usize, usize, usize, Vec<u64>),
    ) {
        let PlanGroup::Tape { compiled, len, .. } = group else {
            panic!("{}: a generated mutant planned as a scalar group", circuit.entity);
        };
        prop_assert!(compiled.fallback.is_empty(), "{}: fallback", circuit.entity);
        let mut sim = GroupSim::new(vm, compiled, &circuit.plan.power_on, *len);
        let mut alive = retire(sim.used_mask, p, rng);
        alive = sim.reset(alive);
        for (t, vector) in sequence.iter().enumerate() {
            sim.apply(vector, alive | 1);
            for position in lanes_of(alive | 1) {
                let outputs =
                    compiled.outputs.iter().map(|sym| sim.vm.state[sym.0 as usize][position]);
                sampled(t, usize::from(sim.slot[position]), position, outputs.collect());
            }
            sim.clock(alive | 1);
            alive = sim.pack(retire(alive, p, rng));
        }
    }

    proptest! {
        /// Every live lane of every compiled group samples on every
        /// cycle exactly the outputs a `Simulator` run of its mutant
        /// produces (lane 0: of the original design). The
        /// comparison goes on past each lane's first kill, so the lane
        /// engine is checked output for output, not only where it first
        /// differs.
        ///
        /// Each case draws a retire probability (`retire_tenths` tenths). At 0
        /// every lane stays live and is compared on every cycle. Above
        /// 0, each live lane retires with that probability at power-on
        /// and after every cycle, and the group packs its survivors
        /// through [`GroupSim::pack`], as a first-kill run does: each
        /// survivor is then found through the slot map at whatever
        /// position it holds.
        ///
        /// All the groups of a case run on one VM, as a worker runs all
        /// the groups it takes in one `first_kills` call, and a drawn
        /// group of another drawn design runs on it first. So every
        /// group starts from what a wider or narrower group left in the
        /// state, the registers, the constant pool and the stride.
        #[test]
        fn every_lane_matches_its_mutant_on_every_cycle(
            seed in any::<u64>(),
            pick in 0usize..crate::BUNDLED.len(),
            before in 0usize..crate::BUNDLED.len(),
            cycles in 1usize..10,
            retire_tenths in 0u32..5,
        ) {
            let circuit = &oracle_circuits()[pick];
            let mut rng = SplitMix64::new(seed);
            let sequence = draw_sequence(circuit, cycles, &mut rng);
            let p = f64::from(retire_tenths) / 10.0;
            // Transcript 0 is the original design's, 1 + k mutant k's.
            let transcripts: Vec<Vec<Vec<Bits>>> = std::iter::once(circuit.checked)
                .chain(&circuit.applied)
                .map(|d| Simulator::new(d, circuit.entity).unwrap().run(&sequence))
                .collect();
            let mut vm = LaneVm::default();
            let other = &oracle_circuits()[before];
            let group = &other.plan.groups[rng.below(other.plan.groups.len() as u64) as usize];
            let warm_up = draw_sequence(other, cycles, &mut rng);
            drive(&mut vm, other, group, &warm_up, (p, &mut rng), |_, _, _, _| {});
            for group in &circuit.plan.groups {
                let PlanGroup::Tape { start, .. } = group else { unreachable!("drive panics") };
                let rng = (p, &mut rng);
                drive(&mut vm, circuit, group, &sequence, rng, |t, lane, position, sampled| {
                    let expected = &transcripts[if lane == 0 { 0 } else { start + lane }][t];
                    let expected: Vec<u64> = expected.iter().map(Bits::raw).collect();
                    prop_assert_eq!(
                        sampled, expected,
                        "{}: lane {} (at position {}) of the group at {}, cycle {}",
                        circuit.entity, lane, position, start, t
                    );
                });
            }
        }
    }
}
