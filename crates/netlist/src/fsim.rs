//! Stuck-at fault simulation with fault dropping, compiled onto the
//! netlist's flat levelized form.
//!
//! Two engines behind one entry point, [`fault_simulate`], both running
//! on the CSR arrays that [`Netlist::freeze`] builds, with dense
//! per-site forces — no gate evaluation hashes or allocates:
//!
//! * **combinational** circuits use *parallel-pattern single-fault
//!   propagation* (PPSFP): the good machine is evaluated once per
//!   64-pattern batch; then each live fault is seeded at its site (the
//!   stem, or the one forced gate pin) and propagated in topological
//!   order through that site's fanout cone only, dropping every gate
//!   whose faulty word equals the good word on the lanes that could
//!   still lower the fault's first detection;
//! * **sequential** circuits use *parallel-fault* simulation: the good
//!   machine in lane 0 and up to 63 faulty machines in the remaining
//!   lanes, all driven by the same vector sequence from the reset state,
//!   with `[sa0, sa1]` lane masks per net, per fan-in slot and per flop
//!   D pin.
//!
//! Both record, for every fault, the index of the **first** detecting
//! vector, from which coverage-versus-length curves are derived. The
//! interpretive [`LogicSim`](crate::LogicSim) with
//! [`Injections`](crate::Injections) is the reference model the tests
//! compare both engines against.
//!
//! Every `fault_simulate*` call adds the gate evaluations it executed
//! (good-machine sweeps plus faulty-cone events for PPSFP, full sweeps
//! for parallel-fault) to the `fsim_gate_evals` trace counter, once.

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
    /// reduction ([`fault_simulate_reduced`]), where credited faults
    /// never enter a lane.
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
/// Dispatches to PPSFP for combinational circuits and parallel-fault for
/// sequential ones. Detection means: some primary output differs from the
/// good circuit at some vector (sequential machines start from reset and
/// never re-synchronise).
///
/// # Panics
///
/// Panics if any pattern length differs from the circuit's input count.
pub fn fault_simulate(nl: &Netlist, faults: &[Fault], vectors: &[Pattern]) -> FaultSimResult {
    let mut evals = 0;
    let first_detected = simulate(nl, faults, vectors, &mut evals);
    musa_trace::count("fsim_gate_evals", evals);
    FaultSimResult {
        faults: faults.to_vec(),
        first_detected,
        vectors_applied: vectors.len(),
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
    let mut evals = 0;
    let (first_detected, total) =
        simulate_subset_sessions(nl, faults, &indices, sessions, &mut evals);
    musa_trace::count("fsim_gate_evals", evals);
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
    evals: &mut u64,
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
        let detected = simulate(nl, &subset, session, evals);
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

/// [`fault_simulate`] over a dominance-reduced fault list: only
/// representatives (and residuals) occupy lanes, while the result
/// still covers **every** fault of the list. See
/// [`fault_simulate_sessions_reduced`] for the exactness contract.
///
/// # Panics
///
/// Panics if any pattern length differs from the circuit's input count.
pub fn fault_simulate_reduced(
    nl: &Netlist,
    reduction: &FaultReduction,
    vectors: &[Pattern],
) -> FaultSimResult {
    fault_simulate_sessions_reduced(nl, reduction, std::slice::from_ref(&vectors.to_vec()))
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
    let mut evals = 0;
    let (kept_first, total) = {
        let _trace = musa_trace::span("fault_simulate");
        simulate_subset_sessions(nl, faults, &kept, sessions, &mut evals)
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
            let good = good_trace(nl, session, &mut evals);
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
        simulate_subset_sessions(nl, faults, &residual, sessions, &mut evals);
    musa_trace::count("fsim_gate_evals", evals);
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
/// step the unforced parallel-fault machine from reset.
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
/// `vectors`, adding the gate evaluations to `evals`.
fn simulate(
    nl: &Netlist,
    faults: &[Fault],
    vectors: &[Pattern],
    evals: &mut u64,
) -> Vec<Option<usize>> {
    check_widths(nl, vectors);
    if nl.is_combinational() {
        ppsfp(nl, faults, vectors, evals)
    } else {
        parallel_fault(nl, faults, vectors, evals)
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

/// Parallel-pattern single-fault propagation for combinational circuits.
fn ppsfp(
    nl: &Netlist,
    faults: &[Fault],
    vectors: &[Pattern],
    evals: &mut u64,
) -> Vec<Option<usize>> {
    let flat = nl.flat();
    let mut first_detected: Vec<Option<usize>> = vec![None; faults.len()];
    // (fault index, site, stuck word) of every fault still undetected.
    let mut live: Vec<(usize, Site, u64)> = faults
        .iter()
        .enumerate()
        .map(|(i, f)| (i, flat.site(f), broadcast(f.stuck_at_one)))
        .filter(|&(_, site, _)| site != Site::Inert)
        .collect();
    let mut cone = Cone::new(flat);
    for (batch_index, batch) in vectors.chunks(64).enumerate() {
        if live.is_empty() {
            break; // every fault dropped
        }
        load_batch(nl, &mut cone.values, batch);
        flat.sweep(&mut cone.values);
        *evals += flat.gate_count() as u64;
        let lanes = lane_mask(batch.len());
        live.retain(
            |&(fi, site, stuck)| match cone.first_lane(flat, site, stuck, lanes, evals) {
                Some(lane) => {
                    first_detected[fi] = Some(batch_index * 64 + lane);
                    false
                }
                None => true,
            },
        );
    }
    first_detected
}

/// Single-fault propagation scratch over one batch's good machine.
struct Cone {
    /// Net words: the good machine, overwritten inside the current
    /// fault's cone and restored afterwards.
    values: Vec<u64>,
    /// Nets overwritten for the current fault, with their good words.
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

    /// The lowest lane of `lanes` in which the fault at `site`, stuck at
    /// `stuck`, flips a primary output; leaves `values` as it found it.
    ///
    /// Events run in gate (topological) order, so each gate is evaluated
    /// at most once, after all its changed inputs. `search` holds the
    /// lanes that could still lower the answer: the batch lanes at
    /// first, then only those below the lowest detecting lane found so
    /// far. A gate whose faulty word equals its good word on `search`
    /// stops the event there: lanes are independent, so whatever it
    /// would change downstream lies in lanes that no longer matter.
    fn first_lane(
        &mut self,
        flat: &Flat,
        site: Site,
        stuck: u64,
        lanes: u64,
        evals: &mut u64,
    ) -> Option<usize> {
        let (net, word) = match site {
            Site::Net(net) => (net, stuck),
            Site::Pin { gate, slot } => {
                *evals += 1;
                let (g, slot) = (gate as usize, slot as usize);
                let word =
                    flat.eval_pins(g, &self.values, |s, w| if s == slot { stuck } else { w });
                (flat.out[g].0, word)
            }
            Site::DPin(_) | Site::Inert => return None,
        };
        let mut search = lanes;
        let mut diff = 0u64;
        if (word ^ self.values[net as usize]) & search != 0 {
            self.change(flat, net, word, &mut diff, &mut search);
            // Readers are ascending, so no gate before the first one's
            // word is ever pending.
            let mut w = flat
                .readers(net)
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
                    self.change(flat, out, word, &mut diff, &mut search);
                }
            }
            // An early stop leaves events behind.
            self.pending[w..].fill(0);
        }
        for (net, good) in self.saved.drain(..).rev() {
            self.values[net as usize] = good;
        }
        (diff != 0).then(|| diff.trailing_zeros() as usize)
    }

    /// Writes a faulty word that differs from the good one on `search`:
    /// at a primary output, records the detecting lanes and narrows
    /// `search` to the lanes below them; then schedules the readers.
    fn change(&mut self, flat: &Flat, net: u32, word: u64, diff: &mut u64, search: &mut u64) {
        let slot = net as usize;
        if flat.is_output[slot] {
            *diff |= (word ^ self.values[slot]) & *search;
            *search = (1u64 << diff.trailing_zeros()) - 1;
        }
        self.saved.push((net, self.values[slot]));
        self.values[slot] = word;
        for &g in flat.readers(net) {
            self.pending[g as usize / 64] |= 1 << (g % 64);
        }
    }
}

/// Dense per-lane stuck-at forces of one parallel-fault word.
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

    /// Forces `fault` in `lanes`.
    fn add(&mut self, flat: &Flat, fault: &Fault, lanes: u64) {
        let masks = match flat.site(fault) {
            Site::Net(net) => &mut self.net[net as usize],
            Site::Pin { gate, slot } => {
                self.pinned[gate as usize] = true;
                &mut self.pin[slot as usize]
            }
            Site::DPin(flop) => &mut self.dpin[flop as usize],
            Site::Inert => return,
        };
        masks[usize::from(fault.stuck_at_one)] |= lanes;
    }

    /// Removes every force.
    fn clear(&mut self) {
        self.net.fill([0; 2]);
        self.pin.fill([0; 2]);
        self.dpin.fill([0; 2]);
        self.pinned.fill(false);
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

/// Parallel-fault simulation for sequential circuits: lane 0 is the good
/// machine, lanes 1..=63 carry one fault each.
fn parallel_fault(
    nl: &Netlist,
    faults: &[Fault],
    vectors: &[Pattern],
    evals: &mut u64,
) -> Vec<Option<usize>> {
    let flat = nl.flat();
    let mut first_detected: Vec<Option<usize>> = vec![None; faults.len()];
    let mut values = vec![0u64; flat.net_count()];
    let mut forces = Forces::new(flat);
    for (chunk_index, chunk) in faults.chunks(63).enumerate() {
        forces.clear();
        for (slot, fault) in chunk.iter().enumerate() {
            forces.add(flat, fault, 1u64 << (slot + 1));
        }
        let active_mask = lane_mask(chunk.len() + 1) & !1;
        let mut state = reset_state(flat);
        let mut detected_lanes = 0u64;
        for (t, bits) in vectors.iter().enumerate() {
            step(nl, &mut values, &mut state, &forces, bits);
            *evals += flat.gate_count() as u64;
            // Lanes differing from lane 0 (the good machine).
            let diff = nl.outputs().iter().fold(0u64, |diff, o| {
                let word = values[o.0 as usize];
                diff | (word ^ 0u64.wrapping_sub(word & 1))
            });
            let mut newly = diff & active_mask & !detected_lanes;
            if newly != 0 {
                detected_lanes |= newly;
                while newly != 0 {
                    let lane = newly.trailing_zeros() as usize;
                    first_detected[chunk_index * 63 + lane - 1] = Some(t);
                    newly &= newly - 1;
                }
                if detected_lanes == active_mask {
                    break; // whole batch detected
                }
            }
        }
    }
    first_detected
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
