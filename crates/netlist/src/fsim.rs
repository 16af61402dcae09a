//! Stuck-at fault simulation with fault dropping, compiled onto the
//! netlist's flat levelized form.
//!
//! Two engines behind one entry point, [`fault_simulate`], both running
//! on the CSR arrays that [`Netlist::freeze`] builds, with dense
//! per-site forces — no gate evaluation hashes or allocates:
//!
//! * **combinational** circuits use *parallel-pattern single-fault
//!   propagation* (PPSFP) by region roots: the good machine is
//!   evaluated once per 64-pattern batch. Inside each fanout-free region
//!   that [`Netlist::freeze`] records, a fault flips the region's root
//!   in the lanes where it is excited and its path is sensitised, which
//!   a backward trace over the good words gives (critical-path tracing,
//!   Abramovici, Menon & Miller, IEEE D&T 1984). Only the roots are
//!   propagated, each once per batch in the lanes some fault flips it,
//!   in topological order through its fanout cone only (Lee & Ha, ITC
//!   1991), dropping every gate whose word equals the good word on the
//!   lanes no output has shown yet;
//! * **sequential** circuits use *time-major* parallel-fault simulation:
//!   frame by frame from the reset state, words of up to 63 faulty
//!   machines beside the good machine in lane 0, with `[sa0, sa1]` lane
//!   masks per net, per fan-in slot and per flop D pin. Each live fault
//!   keeps its flop state as a sparse difference from the good state
//!   (PROOFS, Niermann, Cheng & Patel, IEEE TCAD 1992), and a frame
//!   packs into its words only the faults it can affect: those whose
//!   state differs and those whose site the good machine excites (the
//!   activity screen of HOPE, Lee & Ha, IEEE TCAD 1996). Every other
//!   fault's machine equals the good machine in that frame. Detected
//!   faults leave at the frame that detects them.
//!
//! Both record, for every fault, the index of the **first** detecting
//! vector, from which coverage-versus-length curves are derived. The
//! interpretive [`LogicSim`](crate::LogicSim) with
//! [`Injections`](crate::Injections) is the reference model the tests
//! compare both engines against.
//!
//! Both also take one stop rule, which [`fault_simulate_until`] sets: a
//! run may end at a *boundary* (the end of a 64-pattern batch, or of a
//! frame) once enough patterns are applied and enough faults detected.
//! Every other entry point passes a rule that never fires.
//!
//! Every `fault_simulate*` call adds its work to trace counters, once:
//! `fsim_gate_evals` counts the gate evaluations it executed
//! (good-machine sweeps plus root-cone events for PPSFP, whose backward
//! trace evaluates no gate and is not counted; one full sweep per
//! simulated word per frame for sequential circuits). On combinational
//! circuits, `fsim_roots_propagated` sums the region roots propagated
//! over the batches. On sequential circuits, `fsim_fault_frames` sums
//! the live faults over the frames and `fsim_active_fault_frames` the
//! faults that rode a word. Each kind emits only its own counters.

use crate::dominance::{FaultPlan, FaultReduction};
use crate::fault::Fault;
use crate::flat::{broadcast, Flat, Site};
use crate::netlist::Netlist;

/// One primary-input assignment (one bit per PI, in `Netlist::inputs`
/// order).
pub type Pattern = Vec<bool>;

/// Result of a fault-simulation run.
#[derive(Debug, Clone)]
pub struct FaultSimResult {
    /// The graded fault list (as passed in).
    pub faults: Vec<Fault>,
    /// For every fault, the index of the first detecting vector.
    pub first_detected: Vec<Option<usize>>,
    /// Number of vectors applied.
    pub vectors_applied: usize,
    /// Number of faults that actually occupied simulation lanes. Equal
    /// to `faults.len()` for the full engines; smaller under dominance
    /// reduction ([`fault_simulate_sessions_reduced`]), where credited
    /// faults never enter a lane.
    pub faults_simulated: usize,
}

impl FaultSimResult {
    /// Number of detected faults.
    pub fn detected_count(&self) -> usize {
        self.first_detected.iter().filter(|d| d.is_some()).count()
    }

    /// Final fault coverage in `[0, 1]` (detected / total).
    ///
    /// Returns 1.0 for an empty fault list (nothing to detect).
    pub fn coverage(&self) -> f64 {
        if self.faults.is_empty() {
            1.0
        } else {
            self.detected_count() as f64 / self.faults.len() as f64
        }
    }

    /// Cumulative coverage after each applied vector:
    /// `curve()[t]` = coverage achieved by vectors `0..=t`.
    ///
    /// For an empty fault list the curve is 1.0 throughout, matching
    /// [`FaultSimResult::coverage`] (nothing to detect), so
    /// `curve.last()` always agrees with the final coverage.
    pub fn coverage_curve(&self) -> Vec<f64> {
        if self.faults.is_empty() {
            return vec![1.0; self.vectors_applied];
        }
        let total = self.faults.len() as f64;
        let mut per_vector = vec![0usize; self.vectors_applied];
        for first in self.first_detected.iter().flatten() {
            // A first-detection index at or past `vectors_applied` means
            // a caller's session accounting drifted; silently skipping
            // it would under-count coverage.
            debug_assert!(
                *first < per_vector.len(),
                "first_detected index {first} >= vectors_applied {}",
                self.vectors_applied
            );
            if *first < per_vector.len() {
                per_vector[*first] += 1;
            }
        }
        let mut cumulative = 0usize;
        per_vector
            .into_iter()
            .map(|d| {
                cumulative += d;
                cumulative as f64 / total
            })
            .collect()
    }

    /// The undetected faults.
    pub fn undetected(&self) -> Vec<Fault> {
        self.faults
            .iter()
            .zip(&self.first_detected)
            .filter(|(_, d)| d.is_none())
            .map(|(&f, _)| f)
            .collect()
    }
}

/// Simulates `faults` against `vectors` and reports first detections.
///
/// Dispatches to PPSFP for combinational circuits and time-major
/// parallel-fault simulation for sequential ones. Detection means: some
/// primary output differs from the good circuit at some vector
/// (sequential machines start from reset and never re-synchronise).
///
/// # Panics
///
/// Panics if any pattern length differs from the circuit's input count.
pub fn fault_simulate(nl: &Netlist, faults: &[Fault], vectors: &[Pattern]) -> FaultSimResult {
    simulate_single(nl, faults, vectors, Stop::NEVER)
}

/// [`fault_simulate`] cut short: the run stops at the first boundary
/// (the end of a 64-pattern batch on a combinational circuit, of a frame
/// on a sequential one) by which at least `min_len` patterns are applied
/// and at least `target` faults detected. If no boundary qualifies,
/// every pattern is applied.
///
/// `vectors_applied` is the length of the prefix simulated, and
/// `first_detected` is a full run's with every index past that prefix
/// set to `None`. So the prefix's coverage curve is the full curve's
/// first `vectors_applied` points.
///
/// # Panics
///
/// Panics if any pattern length differs from the circuit's input count.
pub fn fault_simulate_until(
    nl: &Netlist,
    faults: &[Fault],
    vectors: &[Pattern],
    min_len: usize,
    target: usize,
) -> FaultSimResult {
    simulate_single(nl, faults, vectors, Stop { min_len, target })
}

/// One session from reset under `stop`, inside a `fault_simulate` span.
fn simulate_single(
    nl: &Netlist,
    faults: &[Fault],
    vectors: &[Pattern],
    stop: Stop,
) -> FaultSimResult {
    let _trace = musa_trace::span("fault_simulate");
    let mut work = Work::default();
    let (first_detected, applied) = simulate(nl, faults, vectors, stop, &mut work);
    work.emit(nl);
    FaultSimResult {
        faults: faults.to_vec(),
        first_detected,
        vectors_applied: applied,
        faults_simulated: faults.len(),
    }
}

/// Simulates `faults` against a *test set*: several vector sequences,
/// each applied from the reset state, with fault dropping across
/// sessions. First-detection indices are cumulative over the
/// concatenation of all sessions.
///
/// # Panics
///
/// Panics if any pattern length differs from the circuit's input count.
pub fn fault_simulate_sessions(
    nl: &Netlist,
    faults: &[Fault],
    sessions: &[Vec<Pattern>],
) -> FaultSimResult {
    let indices: Vec<usize> = (0..faults.len()).collect();
    let _trace = musa_trace::span("fault_simulate");
    let mut work = Work::default();
    let (first_detected, total) =
        simulate_subset_sessions(nl, faults, &indices, sessions, &mut work);
    work.emit(nl);
    FaultSimResult {
        faults: faults.to_vec(),
        first_detected,
        vectors_applied: total,
        faults_simulated: faults.len(),
    }
}

/// Simulates the faults at `indices` (into `faults`) across `sessions`
/// with fault dropping; returns their cumulative first-detection
/// indices (parallel to `indices`) and the total vector count.
fn simulate_subset_sessions(
    nl: &Netlist,
    faults: &[Fault],
    indices: &[usize],
    sessions: &[Vec<Pattern>],
    work: &mut Work,
) -> (Vec<Option<usize>>, usize) {
    let mut first: Vec<Option<usize>> = vec![None; indices.len()];
    let mut base = 0usize;
    // Slots (into `indices`) still alive.
    let mut alive: Vec<usize> = (0..indices.len()).collect();
    for session in sessions {
        if alive.is_empty() {
            base += session.len();
            continue;
        }
        let subset: Vec<Fault> = alive.iter().map(|&s| faults[indices[s]]).collect();
        let (detected, _) = simulate(nl, &subset, session, Stop::NEVER, work);
        let mut still = Vec::with_capacity(alive.len());
        for (lane, &slot) in alive.iter().enumerate() {
            match detected[lane] {
                Some(t) => first[slot] = Some(base + t),
                None => still.push(slot),
            }
        }
        alive = still;
        base += session.len();
    }
    (first, base)
}

/// [`fault_simulate_sessions`] over a dominance-reduced fault list.
///
/// Four stages:
///
/// 1. the reduction's kept representatives are simulated exactly as the
///    full engine would simulate them (per-fault results are
///    independent of batch composition, so their first-detection
///    indices are bit-identical to a full run);
/// 2. observed faults (stems with a NOT/BUF-only path to a primary
///    output) get their **exact** first-detection index — or their
///    undetected verdict — from the good-machine output trace, since
///    such a fault is detected precisely at its first excitation;
/// 3. every dropped fault whose credit set saw a detection is credited
///    the earliest such index — by dominance the same test prefix
///    detects it, so the *verdict* is sound and the index is an upper
///    bound on its true first detection;
/// 4. dropped faults with **no** detected credit source are residually
///    simulated, so no verdict is ever guessed.
///
/// Hence `detected_count()`, `coverage()` and `undetected()` match full
/// simulation exactly, while [`FaultSimResult::faults_simulated`]
/// (kept + residuals) stays below `faults_total` whenever credit
/// lands. Only credited faults' `first_detected` indices may exceed
/// their full-simulation values; consumers reading coverage-curve
/// interiors should use the full engine.
///
/// # Panics
///
/// Panics if any pattern length differs from the circuit's input count.
pub fn fault_simulate_sessions_reduced(
    nl: &Netlist,
    reduction: &FaultReduction,
    sessions: &[Vec<Pattern>],
) -> FaultSimResult {
    let faults = reduction.faults();
    let kept = reduction.simulated_indices();
    let mut work = Work::default();
    let (kept_first, total) = {
        let _trace = musa_trace::span("fault_simulate");
        simulate_subset_sessions(nl, faults, &kept, sessions, &mut work)
    };
    let mut first_detected: Vec<Option<usize>> = vec![None; faults.len()];
    for (slot, &fi) in kept.iter().enumerate() {
        first_detected[fi] = kept_first[slot];
    }

    // Observed faults: exact results from the good-machine output
    // trace (a fault on a directly-observed net is detected at its
    // first excitation, which the good trace pinpoints).
    let observed: Vec<(usize, usize, bool)> = (0..faults.len())
        .filter_map(|i| match *reduction.plan(i) {
            FaultPlan::Observe { output, expect } => Some((i, output, expect)),
            _ => None,
        })
        .collect();
    if !observed.is_empty() {
        let mut base = 0usize;
        for session in sessions {
            if observed.iter().all(|&(i, ..)| first_detected[i].is_some()) {
                base += session.len();
                continue;
            }
            let good = good_trace(nl, session, &mut work.gate_evals);
            for &(i, output, expect) in &observed {
                if first_detected[i].is_some() {
                    continue;
                }
                if let Some(t) = good.iter().position(|outs| outs[output] == expect) {
                    first_detected[i] = Some(base + t);
                }
            }
            base += session.len();
        }
    }

    // Credit dropped faults from their dominated representatives.
    let mut residual: Vec<usize> = Vec::new();
    for i in 0..faults.len() {
        if let FaultPlan::Credit(sources) = reduction.plan(i) {
            match sources.iter().filter_map(|&s| first_detected[s]).min() {
                Some(t) => first_detected[i] = Some(t),
                None => residual.push(i),
            }
        }
    }

    // Residual pass: uncredited drops get real lanes — their verdict
    // (typically "undetected") is never inferred.
    let _trace = musa_trace::span("fault_residual");
    let (residual_first, residual_total) =
        simulate_subset_sessions(nl, faults, &residual, sessions, &mut work);
    work.emit(nl);
    debug_assert!(residual.is_empty() || residual_total == total);
    for (slot, &fi) in residual.iter().enumerate() {
        first_detected[fi] = residual_first[slot];
    }

    FaultSimResult {
        faults: faults.to_vec(),
        first_detected,
        vectors_applied: total,
        faults_simulated: kept.len() + residual.len(),
    }
}

/// Good-circuit output transcript (used by test generators for response
/// comparison and by the dominance-reduced engine for observed faults).
///
/// # Panics
///
/// Panics if any pattern length differs from the circuit's input count.
pub fn good_outputs(nl: &Netlist, vectors: &[Pattern]) -> Vec<Vec<bool>> {
    good_trace(nl, vectors, &mut 0)
}

/// [`good_outputs`], adding the gate evaluations to `evals`:
/// combinational circuits settle 64 vectors per sweep, sequential ones
/// step the unforced machine from reset.
fn good_trace(nl: &Netlist, vectors: &[Pattern], evals: &mut u64) -> Vec<Vec<bool>> {
    check_widths(nl, vectors);
    let flat = nl.flat();
    let mut values = vec![0u64; flat.net_count()];
    let mut trace = Vec::with_capacity(vectors.len());
    if nl.is_combinational() {
        for batch in vectors.chunks(64) {
            load_batch(nl, &mut values, batch);
            flat.sweep(&mut values);
            *evals += flat.gate_count() as u64;
            trace.extend((0..batch.len()).map(|lane| {
                nl.outputs()
                    .iter()
                    .map(|o| values[o.0 as usize] >> lane & 1 == 1)
                    .collect()
            }));
        }
    } else {
        let forces = Forces::new(flat);
        let mut state = reset_state(flat);
        for bits in vectors {
            step(nl, &mut values, &mut state, &forces, bits);
            *evals += flat.gate_count() as u64;
            trace.push(
                nl.outputs()
                    .iter()
                    .map(|o| values[o.0 as usize] & 1 == 1)
                    .collect(),
            );
        }
    }
    trace
}

/// Asserts every pattern has one bit per primary input.
fn check_widths(nl: &Netlist, vectors: &[Pattern]) {
    for v in vectors {
        assert_eq!(v.len(), nl.inputs().len(), "pattern width mismatch");
    }
}

/// One session from reset: the first detections of `faults` over
/// `vectors` and the number of patterns applied before `stop` fired,
/// adding the work done to `work`.
fn simulate(
    nl: &Netlist,
    faults: &[Fault],
    vectors: &[Pattern],
    stop: Stop,
    work: &mut Work,
) -> (Vec<Option<usize>>, usize) {
    check_widths(nl, vectors);
    if nl.is_combinational() {
        ppsfp(nl, faults, vectors, stop, work)
    } else {
        time_major(nl, faults, vectors, stop, work)
    }
}

/// When a session may end before its last pattern: at a boundary by
/// which at least `min_len` patterns are applied and at least `target`
/// faults detected.
#[derive(Debug, Clone, Copy)]
struct Stop {
    min_len: usize,
    target: usize,
}

impl Stop {
    /// A rule that never fires: the session applies every pattern.
    const NEVER: Stop = Stop {
        min_len: usize::MAX,
        target: usize::MAX,
    };

    /// Whether a boundary with `applied` patterns applied and `detected`
    /// faults detected ends the session.
    fn fires(self, applied: usize, detected: usize) -> bool {
        applied >= self.min_len && detected >= self.target
    }
}

/// The work counters of one `fault_simulate*` call, emitted once at its
/// end.
#[derive(Debug, Default)]
struct Work {
    /// Gate evaluations (`fsim_gate_evals`).
    gate_evals: u64,
    /// Region roots propagated, summed over the combinational batches
    /// (`fsim_roots_propagated`).
    roots_propagated: u64,
    /// Live faults summed over the sequential frames
    /// (`fsim_fault_frames`).
    fault_frames: u64,
    /// Faults that rode a word, summed over the sequential frames
    /// (`fsim_active_fault_frames`).
    active_fault_frames: u64,
}

impl Work {
    /// Adds the counters to the trace; the root counter only for a
    /// combinational netlist and the frame counters only for a
    /// sequential one, the only kinds that have roots or frames.
    fn emit(&self, nl: &Netlist) {
        musa_trace::count("fsim_gate_evals", self.gate_evals);
        if nl.is_combinational() {
            musa_trace::count("fsim_roots_propagated", self.roots_propagated);
        } else {
            musa_trace::count("fsim_fault_frames", self.fault_frames);
            musa_trace::count("fsim_active_fault_frames", self.active_fault_frames);
        }
    }
}

/// The lowest `len` lanes of a word.
fn lane_mask(len: usize) -> u64 {
    if len >= 64 {
        u64::MAX
    } else {
        (1u64 << len) - 1
    }
}

/// Sets the constants and packs up to 64 patterns into the input words
/// (lane `k` = `batch[k]`).
fn load_batch(nl: &Netlist, values: &mut [u64], batch: &[Pattern]) {
    for &(net, word) in &nl.flat().consts {
        values[net as usize] = word;
    }
    for (slot, input) in nl.inputs().iter().enumerate() {
        values[input.0 as usize] = batch.iter().enumerate().fold(0, |word, (lane, pattern)| {
            word | u64::from(pattern[slot]) << lane
        });
    }
}

/// Parallel-pattern single-fault propagation for combinational circuits,
/// by region roots. Its boundaries are the ends of the 64-pattern
/// batches.
///
/// Per batch, after the one good sweep, each live fault gets its *local
/// mask*: the lanes its site is excited in (the good word differs from
/// the stuck word) and sensitised to its fanout-free region's root
/// ([`Paths`]). Inside a region each site has one path to its root, so
/// those are exactly the lanes in which the fault flips the root, and
/// nothing else outside the region. The masks are ORed per root, and
/// each root with a non-empty mask is flipped in those lanes and
/// propagated once through its fanout cone ([`Cone::observe`]). Lanes
/// are independent, so a fault is detected in the lanes of its mask in
/// which its root's flip reaches an output, and its first detection is
/// the lowest of them.
fn ppsfp(
    nl: &Netlist,
    faults: &[Fault],
    vectors: &[Pattern],
    stop: Stop,
    work: &mut Work,
) -> (Vec<Option<usize>>, usize) {
    let flat = nl.flat();
    let mut first_detected: Vec<Option<usize>> = vec![None; faults.len()];
    // (fault index, site, stuck word) of every fault still undetected.
    let mut live: Vec<(usize, Site, u64)> = faults
        .iter()
        .enumerate()
        .map(|(i, f)| (i, flat.site(f), broadcast(f.stuck_at_one)))
        .filter(|&(_, site, _)| matches!(site, Site::Net(_) | Site::Pin { .. }))
        .collect();
    let mut cone = Cone::new(flat);
    let mut paths = Paths::new(flat);
    // Each live fault's (root, local mask) in the current batch.
    let mut local: Vec<(u32, u64)> = Vec::new();
    // Per root: the lanes flipped, then the lanes an output observed.
    let mut flips = vec![0u64; flat.net_count()];
    // The roots with a non-empty mask in the current batch.
    let mut roots: Vec<u32> = Vec::new();
    let mut detected = 0;
    for (batch_index, batch) in vectors.chunks(64).enumerate() {
        // Once every fault is dropped, a batch only moves the boundary.
        if !live.is_empty() {
            load_batch(nl, &mut cone.values, batch);
            flat.sweep(&mut cone.values);
            work.gate_evals += flat.gate_count() as u64;
            let lanes = lane_mask(batch.len());
            paths.clear();
            local.clear();
            for &(_, site, stuck) in &live {
                let (root, mask) = paths.local(flat, &cone.values, site, stuck);
                let mask = mask & lanes;
                if mask != 0 {
                    if flips[root as usize] == 0 {
                        roots.push(root);
                    }
                    flips[root as usize] |= mask;
                }
                local.push((root, mask));
            }
            work.roots_propagated += roots.len() as u64;
            for &root in &roots {
                let flip = flips[root as usize];
                flips[root as usize] = cone.observe(flat, root, flip, &mut work.gate_evals);
            }
            let mut local = local.iter();
            live.retain(|&(fi, ..)| {
                let (root, mask) = local.next().expect("one local mask per live fault");
                match mask & flips[*root as usize] {
                    0 => true,
                    hit => {
                        first_detected[fi] = Some(batch_index * 64 + hit.trailing_zeros() as usize);
                        detected += 1;
                        false
                    }
                }
            });
            for root in roots.drain(..) {
                flips[root as usize] = 0;
            }
        }
        let applied = batch_index * 64 + batch.len();
        if stop.fires(applied, detected) {
            return (first_detected, applied);
        }
    }
    (first_detected, vectors.len())
}

/// The backward trace of one batch: the lanes in which each region
/// member is sensitised to its root over the good words, memoised per
/// batch. A member's sensitivity is its reader's
/// [`Flat::sensitivity`] on its slot, ANDed with the sensitivity of the
/// net that reader drives; a root's is every lane. The trace executes
/// no gate evaluation, so `fsim_gate_evals` does not count it.
struct Paths {
    /// Sensitivity of each member traced in the current batch.
    sens: Vec<u64>,
    /// The batch (`epoch`) in which each member's `sens` was traced.
    stamp: Vec<u32>,
    epoch: u32,
    /// Members on the way up to a traced net, with their reading
    /// `(gate, slot)`, scratch.
    chain: Vec<(u32, usize, usize)>,
}

impl Paths {
    fn new(flat: &Flat) -> Self {
        Paths {
            sens: vec![0; flat.net_count()],
            stamp: vec![0; flat.net_count()],
            epoch: 0,
            chain: Vec::new(),
        }
    }

    /// Forgets the last batch's trace.
    fn clear(&mut self) {
        self.epoch += 1;
    }

    /// A fault's region root and the lanes in which it flips that root:
    /// its excitation ANDed with its site's sensitivity to the root. A
    /// pin fault also passes its own pin's sensitivity.
    fn local(&mut self, flat: &Flat, values: &[u64], site: Site, stuck: u64) -> (u32, u64) {
        match site {
            Site::Net(net) => {
                let excited = values[net as usize] ^ stuck;
                let root = flat.region_root[net as usize];
                (root, excited & self.sensitised(flat, values, net))
            }
            Site::Pin { gate, slot } => {
                let (g, slot) = (gate as usize, slot as usize);
                let excited = values[flat.fanin[slot] as usize] ^ stuck;
                let out = flat.out[g].0;
                let sens = flat.sensitivity(g, slot, values) & self.sensitised(flat, values, out);
                (flat.region_root[out as usize], excited & sens)
            }
            Site::DPin(_) | Site::Inert => unreachable!("PPSFP holds only net and pin faults"),
        }
    }

    /// The lanes in which `net` is sensitised to its region root: walks
    /// up to the root or to a member already traced this batch, then
    /// records each member on the way back down.
    fn sensitised(&mut self, flat: &Flat, values: &[u64], net: u32) -> u64 {
        let mut n = net;
        let mut sens = loop {
            match flat.region_reader(n) {
                None => break u64::MAX,
                Some(_) if self.stamp[n as usize] == self.epoch => break self.sens[n as usize],
                Some((g, slot)) => {
                    self.chain.push((n, g, slot));
                    n = flat.out[g].0;
                }
            }
        };
        for &(m, g, slot) in self.chain.iter().rev() {
            sens &= flat.sensitivity(g, slot, values);
            self.sens[m as usize] = sens;
            self.stamp[m as usize] = self.epoch;
        }
        self.chain.clear();
        sens
    }
}

/// Root propagation scratch over one batch's good machine.
struct Cone {
    /// Net words: the good machine, overwritten inside the current
    /// root's cone and restored afterwards.
    values: Vec<u64>,
    /// Nets overwritten for the current root, with their good words.
    saved: Vec<(u32, u64)>,
    /// Gates awaiting evaluation, as a bitset over gate indices.
    pending: Vec<u64>,
}

impl Cone {
    fn new(flat: &Flat) -> Self {
        Cone {
            values: vec![0; flat.net_count()],
            saved: Vec::new(),
            pending: vec![0; flat.gate_count().div_ceil(64)],
        }
    }

    /// The lanes of `flip` in which flipping `root` changes a primary
    /// output; leaves `values` as it found it. A root that is itself an
    /// output is observed in every flipped lane, with no evaluation.
    ///
    /// Events run in gate (topological) order, so each gate is evaluated
    /// at most once, after all its changed inputs. `search` holds the
    /// flipped lanes not yet seen at an output. A gate whose new word
    /// equals its good word on `search` stops the event there: lanes are
    /// independent, so whatever it would change downstream lies in lanes
    /// already seen.
    fn observe(&mut self, flat: &Flat, root: u32, flip: u64, evals: &mut u64) -> u64 {
        let mut search = flip;
        let mut seen = 0u64;
        let word = self.values[root as usize] ^ flip;
        self.change(flat, root, word, &mut seen, &mut search);
        // Readers are ascending, so no gate before the first one's word
        // is ever pending.
        let mut w = flat
            .readers(root)
            .first()
            .map_or(self.pending.len(), |&g| g as usize / 64);
        while w < self.pending.len() && search != 0 {
            let bits = self.pending[w];
            if bits == 0 {
                w += 1;
                continue;
            }
            self.pending[w] = bits & (bits - 1);
            let g = w * 64 + bits.trailing_zeros() as usize;
            *evals += 1;
            let word = flat.eval(g, &self.values);
            let out = flat.out[g].0;
            if (word ^ self.values[out as usize]) & search != 0 {
                self.change(flat, out, word, &mut seen, &mut search);
            }
        }
        // An early stop leaves events behind.
        self.pending[w..].fill(0);
        for (net, good) in self.saved.drain(..).rev() {
            self.values[net as usize] = good;
        }
        seen
    }

    /// Writes a word that differs from the good one on `search`: at a
    /// primary output, moves the lanes it differs in from `search` to
    /// `seen`; then schedules the readers.
    fn change(&mut self, flat: &Flat, net: u32, word: u64, seen: &mut u64, search: &mut u64) {
        let slot = net as usize;
        if flat.is_output[slot] {
            let hit = (word ^ self.values[slot]) & *search;
            *seen |= hit;
            *search &= !hit;
        }
        self.saved.push((net, self.values[slot]));
        self.values[slot] = word;
        for &g in flat.readers(net) {
            self.pending[g as usize / 64] |= 1 << (g % 64);
        }
    }
}

/// Dense per-lane stuck-at forces of one sequential word, set and
/// cleared site by site.
struct Forces {
    /// `[sa0, sa1]` lane masks per net.
    net: Vec<[u64; 2]>,
    /// `[sa0, sa1]` lane masks per fan-in slot.
    pin: Vec<[u64; 2]>,
    /// `[sa0, sa1]` lane masks per flop D pin.
    dpin: Vec<[u64; 2]>,
    /// Gates with a forced fan-in slot (the only ones that read `pin`).
    pinned: Vec<bool>,
}

impl Forces {
    /// No forces: every lane is the good machine.
    fn new(flat: &Flat) -> Self {
        Forces {
            net: vec![[0; 2]; flat.net_count()],
            pin: vec![[0; 2]; flat.fanin.len()],
            dpin: vec![[0; 2]; flat.flops.len()],
            pinned: vec![false; flat.gate_count()],
        }
    }

    /// Forces `site` stuck at `stuck` in `lanes`.
    fn add(&mut self, site: Site, stuck: bool, lanes: u64) {
        let masks = match site {
            Site::Net(net) => &mut self.net[net as usize],
            Site::Pin { gate, slot } => {
                self.pinned[gate as usize] = true;
                &mut self.pin[slot as usize]
            }
            Site::DPin(flop) => &mut self.dpin[flop as usize],
            Site::Inert => return,
        };
        masks[usize::from(stuck)] |= lanes;
    }

    /// Removes every force at `site` (and the per-pin path of its gate).
    fn clear(&mut self, site: Site) {
        match site {
            Site::Net(net) => self.net[net as usize] = [0; 2],
            Site::Pin { gate, slot } => {
                self.pinned[gate as usize] = false;
                self.pin[slot as usize] = [0; 2];
            }
            Site::DPin(flop) => self.dpin[flop as usize] = [0; 2],
            Site::Inert => {}
        }
    }
}

/// `word` under `[sa0, sa1]` forces.
#[inline]
fn force(word: u64, [sa0, sa1]: [u64; 2]) -> u64 {
    (word | sa1) & !sa0
}

/// Every flop at its power-on value, in all lanes.
fn reset_state(flat: &Flat) -> Vec<u64> {
    flat.flops.iter().map(|f| broadcast(f.init)).collect()
}

/// One clock cycle: settles the combinational core under `forces` with
/// `bits` broadcast on the inputs, then clocks the flops. `values` keeps
/// the settled words, so the primary outputs are read afterwards.
fn step(nl: &Netlist, values: &mut [u64], state: &mut [u64], forces: &Forces, bits: &[bool]) {
    let flat = nl.flat();
    for &(net, word) in &flat.consts {
        values[net as usize] = force(word, forces.net[net as usize]);
    }
    for (flop, &word) in flat.flops.iter().zip(state.iter()) {
        values[flop.q as usize] = force(word, forces.net[flop.q as usize]);
    }
    for (input, &bit) in nl.inputs().iter().zip(bits) {
        let net = input.0 as usize;
        values[net] = force(broadcast(bit), forces.net[net]);
    }
    for g in 0..flat.gate_count() {
        let word = if forces.pinned[g] {
            flat.eval_pins(g, values, |slot, w| force(w, forces.pin[slot]))
        } else {
            flat.eval(g, values)
        };
        let out = flat.out[g].0 as usize;
        values[out] = force(word, forces.net[out]);
    }
    for ((flop, word), &masks) in flat.flops.iter().zip(state.iter_mut()).zip(&forces.dpin) {
        *word = force(values[flop.d as usize], masks);
    }
}

/// Faults per word: lane 0 of every word is the good machine.
const WORD: usize = 63;

/// A live fault of the sequential engine.
struct Live {
    /// Position in the simulated fault list.
    index: usize,
    site: Site,
    stuck: bool,
    /// The net whose good value excites the fault when it differs from
    /// `stuck`: the net itself, a pin's source net or a flop's D net.
    watch: u32,
    /// The flops whose faulty state differs from the good state: the
    /// fault's whole state, kept as a difference, as the range
    /// `start..end` of the machine's difference pool (`(0, 0)` when
    /// there is none).
    diff: (usize, usize),
}

impl Live {
    /// Whether the fault's state equals the good state.
    fn quiet(&self) -> bool {
        self.diff == (0, 0)
    }
}

/// Time-major fault simulation for sequential circuits.
///
/// Each frame simulates only the faults it can affect, 63 to a word
/// beside the good machine in lane 0. A fault rides a word when its
/// state differs from the good state or when the good machine excites
/// its site; any other fault's machine *is* the good machine in that
/// frame, so its state stays equal and no output can tell them apart.
/// The first word carries the diverged faults first and fills up with
/// unscreened ones; its lane 0 then supplies the good values that
/// screen the rest. A fault leaves at the frame that detects it. Once
/// every live fault fits one word, that word stays in place for the
/// rest of the session, one sweep a frame. Its boundaries are the ends
/// of the frames.
fn time_major(
    nl: &Netlist,
    faults: &[Fault],
    vectors: &[Pattern],
    stop: Stop,
    work: &mut Work,
) -> (Vec<Option<usize>>, usize) {
    let flat = nl.flat();
    let mut first_detected: Vec<Option<usize>> = vec![None; faults.len()];
    let mut live: Vec<Live> = faults
        .iter()
        .enumerate()
        .filter_map(|(index, f)| {
            let site = flat.site(f);
            let watch = match site {
                Site::Net(net) => net,
                Site::Pin { slot, .. } => flat.fanin[slot as usize],
                Site::DPin(flop) => flat.flops[flop as usize].d,
                Site::Inert => return None,
            };
            Some(Live {
                index,
                site,
                stuck: f.stuck_at_one,
                watch,
                diff: (0, 0),
            })
        })
        .collect();
    let mut machine = Machine::new(flat);
    // Positions in `live`: the frame's words in order, and the faults
    // whose state equals the good state.
    let mut order: Vec<usize> = Vec::new();
    let mut quiet: Vec<usize> = Vec::new();
    let mut found = 0;
    let mut frames = vectors.iter().enumerate();
    while live.len() > WORD {
        let Some((t, bits)) = frames.next() else {
            return (first_detected, vectors.len());
        };
        work.fault_frames += live.len() as u64;
        order.clear();
        quiet.clear();
        for (i, fault) in live.iter().enumerate() {
            if fault.quiet() {
                quiet.push(i);
            } else {
                order.push(i);
            }
        }
        let fill = WORD.saturating_sub(order.len()).min(quiet.len());
        order.extend(quiet.drain(..fill));
        let first = order.len().min(WORD);
        let mut detected =
            machine.frame(nl, bits, t, &mut live, &order[..first], &mut first_detected);
        // Screen the quiet rest on the first word's good values (lane 0).
        order.extend(quiet.iter().copied().filter(|&i| machine.excites(&live[i])));
        for word in order[first..].chunks(WORD) {
            detected += machine.frame(nl, bits, t, &mut live, word, &mut first_detected);
        }
        work.active_fault_frames += order.len() as u64;
        work.gate_evals += (order.len().div_ceil(WORD) * flat.gate_count()) as u64;
        if detected > 0 {
            live.retain(|f| first_detected[f.index].is_none());
            found += detected;
        }
        machine.advance();
        if stop.fires(t + 1, found) {
            return (first_detected, t + 1);
        }
    }
    // One word holds every live fault: it runs the rest of the session
    // in place, and a detected fault only leaves its lane. Once every
    // fault is dropped, a frame only moves the boundary.
    machine.load(&live);
    for (t, bits) in frames {
        if machine.active != 0 {
            let riders = u64::from(machine.active.count_ones());
            work.fault_frames += riders;
            work.active_fault_frames += riders;
            work.gate_evals += flat.gate_count() as u64;
            found += machine.step(nl, bits, t, &mut first_detected).count_ones() as usize;
        }
        if stop.fires(t + 1, found) {
            return (first_detected, t + 1);
        }
    }
    (first_detected, vectors.len())
}

/// The word the sequential engine steps, and the good state and the
/// live faults' state differences the frame starts from and ends in.
struct Machine {
    values: Vec<u64>,
    state: Vec<u64>,
    forces: Forces,
    /// `(fault index, site)` of each loaded lane, from lane 1 on.
    lanes: Vec<(usize, Site)>,
    /// The loaded lanes whose fault is still undetected.
    active: u64,
    /// The good flop state at the start of the frame, in every lane.
    good: Vec<u64>,
    /// The differing flops of every live fault at the start of the
    /// frame, fault by fault (`Live::diff` ranges).
    pool: Vec<u32>,
    /// The same at the end of the frame, filled word by word.
    spare: Vec<u32>,
}

impl Machine {
    fn new(flat: &Flat) -> Self {
        Machine {
            values: vec![0; flat.net_count()],
            state: vec![0; flat.flops.len()],
            forces: Forces::new(flat),
            lanes: Vec::with_capacity(WORD),
            active: 0,
            good: reset_state(flat),
            pool: Vec::new(),
            spare: Vec::new(),
        }
    }

    /// Loads `faults` (at most 63) into lanes 1.. in place of the last
    /// word: their forces, site by site, and their state, the good state
    /// with each fault's difference.
    fn load<'a>(&mut self, faults: impl IntoIterator<Item = &'a Live>) {
        for &(_, site) in &self.lanes {
            self.forces.clear(site);
        }
        self.lanes.clear();
        self.state.copy_from_slice(&self.good);
        for (lane, fault) in faults.into_iter().enumerate() {
            self.forces.add(fault.site, fault.stuck, 2 << lane);
            self.lanes.push((fault.index, fault.site));
            for &flop in &self.pool[fault.diff.0..fault.diff.1] {
                self.state[flop as usize] ^= 2 << lane;
            }
        }
        self.active = lane_mask(self.lanes.len() + 1) & !1;
    }

    /// One clock cycle of the loaded word on `bits`. Returns the active
    /// lanes an output detects, records them at `t` and retires them.
    fn step(
        &mut self,
        nl: &Netlist,
        bits: &[bool],
        t: usize,
        first_detected: &mut [Option<usize>],
    ) -> u64 {
        step(nl, &mut self.values, &mut self.state, &self.forces, bits);
        // Lanes differing from lane 0 (the good machine).
        let detected = nl.outputs().iter().fold(0u64, |diff, o| {
            let word = self.values[o.0 as usize];
            diff | (word ^ 0u64.wrapping_sub(word & 1))
        }) & self.active;
        let mut rest = detected;
        while rest != 0 {
            let lane = rest.trailing_zeros() as usize;
            first_detected[self.lanes[lane - 1].0] = Some(t);
            rest &= rest - 1;
        }
        self.active &= !detected;
        detected
    }

    /// One frame of the faults at `word`: loads, steps, and stores each
    /// fault's next state difference in `spare`. Returns how many of
    /// them an output detected.
    fn frame(
        &mut self,
        nl: &Netlist,
        bits: &[bool],
        t: usize,
        live: &mut [Live],
        word: &[usize],
        first_detected: &mut [Option<usize>],
    ) -> usize {
        self.load(word.iter().map(|&i| &live[i]));
        let detected = self.step(nl, bits, t, first_detected);
        // Count each lane's differing flops, give each fault its range
        // of `spare`, then fill the ranges in flop order.
        let flips = |state: u64| state ^ broadcast(state & 1 == 1);
        let mut cursor = [0usize; 64];
        for &state in &self.state {
            let mut rest = flips(state);
            while rest != 0 {
                cursor[rest.trailing_zeros() as usize] += 1;
                rest &= rest - 1;
            }
        }
        let mut end = self.spare.len();
        for (lane, &i) in word.iter().enumerate() {
            let start = end;
            end += cursor[lane + 1];
            // A quiet fault keeps the empty range at 0, valid in any pool.
            live[i].diff = if start == end { (0, 0) } else { (start, end) };
            cursor[lane + 1] = start;
        }
        self.spare.resize(end, 0);
        for (flop, &state) in self.state.iter().enumerate() {
            let mut rest = flips(state);
            while rest != 0 {
                let lane = rest.trailing_zeros() as usize;
                self.spare[cursor[lane]] = flop as u32;
                cursor[lane] += 1;
                rest &= rest - 1;
            }
        }
        detected.count_ones() as usize
    }

    /// Whether the good machine of the last step (lane 0) drives the
    /// net `fault` watches opposite to its stuck value.
    fn excites(&self, fault: &Live) -> bool {
        (self.values[fault.watch as usize] & 1 == 1) != fault.stuck
    }

    /// Ends a frame: its good state (lane 0 of the last word after the
    /// clock) and state differences are the next one's start. Every
    /// fault whose state differed rode a word, so every non-empty
    /// `Live::diff` now points into `spare`.
    fn advance(&mut self) {
        for (good, &state) in self.good.iter_mut().zip(&self.state) {
            *good = broadcast(state & 1 == 1);
        }
        std::mem::swap(&mut self.pool, &mut self.spare);
        self.spare.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::{parse_bench, C17};
    use crate::fault::{collapsed_faults, full_faults, Fault};
    use crate::netlist::{GateKind, Netlist};
    use crate::sim::{Injections, LogicSim};

    fn exhaustive_patterns(n: usize) -> Vec<Pattern> {
        (0..1u64 << n)
            .map(|p| (0..n).map(|i| (p >> i) & 1 == 1).collect())
            .collect()
    }

    #[test]
    fn c17_exhaustive_reaches_full_coverage() {
        let nl = parse_bench(C17, "c17").unwrap();
        let faults = collapsed_faults(&nl);
        let result = fault_simulate(&nl, &faults, &exhaustive_patterns(5));
        assert_eq!(
            result.detected_count(),
            faults.len(),
            "undetected: {:?}",
            result
                .undetected()
                .iter()
                .map(|f| f.describe(&nl))
                .collect::<Vec<_>>()
        );
        assert!((result.coverage() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn c17_full_universe_also_covered() {
        let nl = parse_bench(C17, "c17").unwrap();
        let faults = full_faults(&nl);
        let result = fault_simulate(&nl, &faults, &exhaustive_patterns(5));
        assert_eq!(result.detected_count(), faults.len());
    }

    #[test]
    fn coverage_curve_is_monotone_and_ends_at_coverage() {
        let nl = parse_bench(C17, "c17").unwrap();
        let faults = collapsed_faults(&nl);
        let result = fault_simulate(&nl, &faults, &exhaustive_patterns(5));
        let curve = result.coverage_curve();
        assert_eq!(curve.len(), 32);
        for w in curve.windows(2) {
            assert!(w[0] <= w[1] + 1e-12);
        }
        assert!((curve.last().unwrap() - result.coverage()).abs() < 1e-12);
    }

    #[test]
    fn no_vectors_detects_nothing() {
        let nl = parse_bench(C17, "c17").unwrap();
        let faults = collapsed_faults(&nl);
        let result = fault_simulate(&nl, &faults, &[]);
        assert_eq!(result.detected_count(), 0);
        assert_eq!(result.coverage(), 0.0);
        assert!(result.coverage_curve().is_empty());
    }

    #[test]
    fn empty_fault_list_is_fully_covered() {
        let nl = parse_bench(C17, "c17").unwrap();
        let result = fault_simulate(&nl, &[], &exhaustive_patterns(5));
        assert_eq!(result.coverage(), 1.0);
    }

    #[test]
    fn empty_fault_list_curve_is_one_throughout() {
        // Regression: coverage() reports 1.0 for an empty list but the
        // curve used to divide by max(1) and end at 0.0 — the two must
        // agree.
        let nl = parse_bench(C17, "c17").unwrap();
        let result = fault_simulate(&nl, &[], &exhaustive_patterns(5));
        let curve = result.coverage_curve();
        assert_eq!(curve.len(), 32);
        assert!(curve.iter().all(|&c| c == 1.0), "{curve:?}");
        assert_eq!(*curve.last().unwrap(), result.coverage());
        // No vectors: both the curve and the vector count stay empty.
        let empty = fault_simulate(&nl, &[], &[]);
        assert!(empty.coverage_curve().is_empty());
        assert_eq!(empty.coverage(), 1.0);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "first_detected index")]
    fn out_of_range_first_detection_fails_loudly_in_debug() {
        // Session-accounting drift (a first-detection index at or past
        // vectors_applied) must not silently under-count coverage.
        let nl = parse_bench(C17, "c17").unwrap();
        let faults = collapsed_faults(&nl);
        let mut result = fault_simulate(&nl, &faults, &exhaustive_patterns(5));
        result.first_detected[0] = Some(result.vectors_applied);
        let _ = result.coverage_curve();
    }

    #[test]
    fn first_detection_is_earliest() {
        // y = AND(a,b); fault y s-a-0 detected only by a=b=1.
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.add_gate("y", GateKind::And, vec![a, b]);
        nl.mark_output(y);
        let nl = nl.freeze().unwrap();
        let fault = vec![Fault::net_sa0(y)];
        let vectors: Vec<Pattern> = vec![
            vec![false, false],
            vec![true, true], // first detecting vector: index 1
            vec![true, true],
        ];
        let result = fault_simulate(&nl, &fault, &vectors);
        assert_eq!(result.first_detected[0], Some(1));
    }

    #[test]
    fn detection_across_batch_boundary() {
        // 70 vectors: only vector 68 detects (exercises the second batch).
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.add_gate("y", GateKind::And, vec![a, b]);
        nl.mark_output(y);
        let nl = nl.freeze().unwrap();
        let fault = vec![Fault::net_sa0(y)];
        let mut vectors: Vec<Pattern> = vec![vec![false, false]; 70];
        vectors[68] = vec![true, true];
        let result = fault_simulate(&nl, &fault, &vectors);
        assert_eq!(result.first_detected[0], Some(68));
    }

    #[test]
    fn sequential_fault_detection() {
        // Toggle flop: q = DFF(xor(q, en)), output q.
        let src = "
INPUT(en)
OUTPUT(q)
q = DFF(d)
d = XOR(q, en)
";
        let nl = parse_bench(src, "t").unwrap();
        let faults = collapsed_faults(&nl);
        // en=1 for 4 cycles toggles q: 0,1,0,1 — plenty to expose faults.
        let vectors: Vec<Pattern> = vec![vec![true]; 4];
        let result = fault_simulate(&nl, &faults, &vectors);
        assert!(
            result.detected_count() > 0,
            "at least some faults must be detected"
        );
        // q s-a-1: good q starts 0, faulty shows 1 at t=0.
        let q = nl.net_by_name("q").unwrap();
        let idx = faults
            .iter()
            .position(|f| *f == Fault::net_sa1(q))
            .expect("q s-a-1 must be a representative");
        assert_eq!(result.first_detected[idx], Some(0));
    }

    #[test]
    fn sequential_matches_single_fault_reference() {
        // Cross-check parallel-fault against naive one-fault-at-a-time.
        let src = "
INPUT(a)
INPUT(b)
OUTPUT(q)
OUTPUT(y)
q = DFF(d)
d = AND(a, q2)
q2 = NAND(b, q)
y = OR(q, b)
";
        let nl = parse_bench(src, "m").unwrap();
        let faults = collapsed_faults(&nl);
        let vectors: Vec<Pattern> = vec![
            vec![true, false],
            vec![true, true],
            vec![false, true],
            vec![true, true],
            vec![false, false],
            vec![true, true],
        ];
        let fast = fault_simulate(&nl, &faults, &vectors);

        // Naive reference: run each fault alone in lane 1.
        let good = good_outputs(&nl, &vectors);
        for (fi, fault) in faults.iter().enumerate() {
            let mut sim = LogicSim::new(&nl);
            sim.reset();
            let inj = Injections::single(fault);
            let mut first = None;
            for (t, v) in vectors.iter().enumerate() {
                let outs = sim.step_broadcast(v, &inj);
                let bad: Vec<bool> = outs.iter().map(|w| w & 1 == 1).collect();
                if bad != good[t] {
                    first = Some(t);
                    break;
                }
            }
            assert_eq!(
                fast.first_detected[fi],
                first,
                "fault {} disagrees",
                fault.describe(&nl)
            );
        }
    }

    #[test]
    fn ppsfp_matches_naive_serial_reference() {
        // Regression guard: fault forcing during one injection must not
        // corrupt the applied stimulus for later injections in the same
        // batch (input-net faults are the sensitive case).
        let nl = parse_bench(C17, "c17").unwrap();
        let faults = full_faults(&nl);
        let patterns: Vec<Pattern> = (0..20u64)
            .map(|p| (0..5).map(|i| (p.wrapping_mul(0x9E37) >> i) & 1 == 1).collect())
            .collect();
        let fast = fault_simulate(&nl, &faults, &patterns);
        for (fi, fault) in faults.iter().enumerate() {
            let mut first = None;
            for (t, p) in patterns.iter().enumerate() {
                let mut sim = LogicSim::new(&nl);
                sim.set_inputs_broadcast(p);
                sim.eval(&Injections::none());
                let good: Vec<u64> = sim.outputs().iter().map(|w| w & 1).collect();
                sim.eval(&Injections::single(fault));
                let bad: Vec<u64> = sim.outputs().iter().map(|w| w & 1).collect();
                if good != bad {
                    first = Some(t);
                    break;
                }
            }
            assert_eq!(
                fast.first_detected[fi],
                first,
                "fault {} disagrees with the serial reference",
                fault.describe(&nl)
            );
        }
    }

    #[test]
    fn sessions_accumulate_with_fault_dropping() {
        let nl = parse_bench(C17, "c17").unwrap();
        let faults = collapsed_faults(&nl);
        let all = exhaustive_patterns(5);
        // Split the exhaustive set into two sessions.
        let s1: Vec<Pattern> = all[..10].to_vec();
        let s2: Vec<Pattern> = all[10..].to_vec();
        let split = fault_simulate_sessions(&nl, &faults, &[s1, s2]);
        let whole = fault_simulate(&nl, &faults, &all);
        assert_eq!(split.vectors_applied, 32);
        // Combinational circuits: session boundaries are irrelevant, so
        // first-detection indices must match the single-run result.
        assert_eq!(split.first_detected, whole.first_detected);
    }

    #[test]
    fn sessions_reset_sequential_state() {
        let src = "
INPUT(en)
OUTPUT(q)
q = DFF(d)
d = XOR(q, en)
";
        let nl = parse_bench(src, "t").unwrap();
        let faults = collapsed_faults(&nl);
        // Two short sessions; the second starts from reset again.
        let sessions = vec![vec![vec![true]; 2], vec![vec![false]; 2]];
        let result = fault_simulate_sessions(&nl, &faults, &sessions);
        assert_eq!(result.vectors_applied, 4);
        assert!(result.detected_count() > 0);
        // Indices from the second session land at 2 and 3.
        for d in result.first_detected.iter().flatten() {
            assert!(*d < 4);
        }
    }

    /// Asserts the reduced-simulation contract against full simulation:
    /// identical verdicts for every fault, exact indices for kept and
    /// residual faults, and upper-bound indices for credited ones.
    fn assert_reduced_matches(
        nl: &Netlist,
        faults: &[Fault],
        sessions: &[Vec<Pattern>],
        expect_reduction: bool,
    ) -> usize {
        use crate::dominance::{reduce_faults, FaultPlan};
        let full = fault_simulate_sessions(nl, faults, sessions);
        let red = reduce_faults(nl, faults);
        let reduced = fault_simulate_sessions_reduced(nl, &red, sessions);
        assert_eq!(reduced.faults, full.faults);
        assert_eq!(reduced.vectors_applied, full.vectors_applied);
        assert_eq!(
            reduced.detected_count(),
            full.detected_count(),
            "detected counts must match exactly"
        );
        assert_eq!(reduced.coverage().to_bits(), full.coverage().to_bits());
        for (i, (r, f)) in reduced
            .first_detected
            .iter()
            .zip(&full.first_detected)
            .enumerate()
        {
            match red.plan(i) {
                FaultPlan::Simulate => {
                    assert_eq!(r, f, "kept fault {} must be exact", faults[i].describe(nl));
                }
                FaultPlan::Observe { .. } => {
                    assert_eq!(
                        r,
                        f,
                        "observed fault {} must be exact",
                        faults[i].describe(nl)
                    );
                }
                FaultPlan::Credit(_) => match (r, f) {
                    (Some(rt), Some(ft)) => assert!(
                        rt >= ft,
                        "credited index is an upper bound ({} : {rt} < {ft})",
                        faults[i].describe(nl)
                    ),
                    (None, None) => {}
                    _ => panic!(
                        "verdict mismatch on {}: reduced {r:?} vs full {f:?}",
                        faults[i].describe(nl)
                    ),
                },
            }
        }
        assert!(reduced.faults_simulated <= reduced.faults.len());
        assert_eq!(full.faults_simulated, full.faults.len());
        if expect_reduction {
            assert!(
                reduced.faults_simulated < reduced.faults.len(),
                "expected a strict lane reduction: {} of {}",
                reduced.faults_simulated,
                reduced.faults.len()
            );
        }
        reduced.faults_simulated
    }

    #[test]
    fn reduced_matches_full_on_c17_exhaustive_and_sparse() {
        let nl = parse_bench(C17, "c17").unwrap();
        let faults = collapsed_faults(&nl);
        let all = exhaustive_patterns(5);
        assert_reduced_matches(&nl, &faults, std::slice::from_ref(&all), true);
        // Split sessions and a sparse prefix (leaves undetected faults,
        // exercising the residual pass; credit may or may not land, so
        // no strict-reduction expectation).
        assert_reduced_matches(&nl, &faults, &[all[..3].to_vec(), all[3..7].to_vec()], true);
        assert_reduced_matches(&nl, &faults, &[vec![vec![false; 5]; 2]], false);
        // No vectors at all: nothing is credited, every dropped fault
        // is residually simulated — exactness beats lane savings.
        assert_reduced_matches(&nl, &faults, &[], false);
    }

    #[test]
    fn reduced_matches_full_on_a_sequential_machine() {
        let src = "
INPUT(a)
INPUT(b)
OUTPUT(q)
OUTPUT(y)
q = DFF(d)
d = AND(a, q2)
q2 = NAND(b, q)
y = OR(q, b)
";
        let nl = parse_bench(src, "m").unwrap();
        let faults = collapsed_faults(&nl);
        // Several deterministic sequences, including ones that leave
        // faults undetected.
        let mut rng = 0x5EED_CAFE_u64;
        let mut best = usize::MAX;
        for len in [1usize, 3, 6, 12] {
            let vectors: Vec<Pattern> = (0..len)
                .map(|_| {
                    rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
                    vec![(rng >> 61) & 1 == 1, (rng >> 62) & 1 == 1]
                })
                .collect();
            best = best.min(assert_reduced_matches(
                &nl,
                &faults,
                std::slice::from_ref(&vectors),
                false,
            ));
            let half = vectors.len() / 2;
            best = best.min(assert_reduced_matches(
                &nl,
                &faults,
                &[vectors[..half].to_vec(), vectors[half..].to_vec()],
                false,
            ));
        }
        // The state-free output cone (y = OR(q, b)) must reduce once
        // its dominated representatives are detected.
        assert!(best < faults.len(), "no sequence achieved a lane reduction");
    }

    #[test]
    fn reduced_matches_full_on_the_uncollapsed_universe() {
        let nl = parse_bench(C17, "c17").unwrap();
        let faults = full_faults(&nl);
        assert_reduced_matches(&nl, &faults, &[exhaustive_patterns(5)], true);
    }

    #[test]
    fn more_than_63_sequential_faults_are_batched() {
        // Enough structure to exceed one parallel-fault batch.
        let mut src = String::from("INPUT(x0)\nOUTPUT(q)\n");
        let mut prev = "x0".to_string();
        for i in 0..40 {
            src.push_str(&format!("g{i} = NOT({prev})\n"));
            prev = format!("g{i}");
        }
        src.push_str(&format!("q = DFF({prev})\n"));
        let nl = parse_bench(&src, "chain").unwrap();
        let faults = full_faults(&nl);
        assert!(faults.len() > 63);
        let vectors: Vec<Pattern> = (0..6).map(|i| vec![i % 2 == 0]).collect();
        let result = fault_simulate(&nl, &faults, &vectors);
        // The inverter chain propagates everything to the flop; most
        // faults must be seen within a few cycles.
        assert!(result.detected_count() > faults.len() / 2);
    }
}
