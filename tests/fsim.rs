//! Differential suite for the compiled fault simulator: first-detection
//! indices from `fault_simulate_sessions` (PPSFP for combinational
//! circuits, parallel-fault for sequential ones) must equal the
//! one-fault-at-a-time `LogicSim` + `Injections::single` reference, and
//! `good_outputs` must equal the reference's good machine — on every
//! bundled circuit and on random netlists. Larger random combinational
//! netlists and every collapsed fault of c432, c499 and c880 check
//! PPSFP's fanout-free regions against the same reference, evaluated
//! 64 patterns per word. A run that `fault_simulate_until` stops early
//! must equal the full run over its prefix, and a baseline stopped at
//! validation data's length and detected count must give the data the
//! full baseline's metrics.

use musa::circuits::Benchmark;
use musa::metrics::{CoverageCurve, NlfceInputs};
use musa::netlist::{
    collapsed_faults, fault_simulate, fault_simulate_sessions, fault_simulate_until, full_faults,
    good_outputs, Fault, FaultSimResult, GateKind, Injections, LogicSim, NetId, Netlist, Pattern,
};
use musa::prng::{Prng, SplitMix64};
use proptest::prelude::*;
use std::collections::HashMap;

/// The reference model's good-machine output trace of each session.
fn reference_good(nl: &Netlist, sessions: &[Vec<Pattern>]) -> Vec<Vec<Vec<bool>>> {
    let none = Injections::none();
    sessions
        .iter()
        .map(|session| {
            let mut sim = LogicSim::new(nl);
            session
                .iter()
                .map(|v| {
                    sim.step_broadcast(v, &none)
                        .iter()
                        .map(|w| w & 1 == 1)
                        .collect()
                })
                .collect()
        })
        .collect()
}

/// The reference first detection of one fault: each session from reset,
/// the faulty machine stepped alone and compared with the good trace.
fn reference_first(
    nl: &Netlist,
    fault: &Fault,
    sessions: &[Vec<Pattern>],
    good: &[Vec<Vec<bool>>],
) -> Option<usize> {
    let inj = Injections::single(fault);
    let mut base = 0;
    for (session, good) in sessions.iter().zip(good) {
        let mut sim = LogicSim::new(nl);
        for (t, v) in session.iter().enumerate() {
            let bad: Vec<bool> = sim
                .step_broadcast(v, &inj)
                .iter()
                .map(|w| w & 1 == 1)
                .collect();
            if bad != good[t] {
                return Some(base + t);
            }
        }
        base += session.len();
    }
    None
}

fn random_patterns(rng: &mut SplitMix64, width: usize, len: usize) -> Vec<Pattern> {
    (0..len)
        .map(|_| (0..width).map(|_| rng.next_u64() & 1 == 1).collect())
        .collect()
}

/// Cuts `vectors` into 1–3 non-empty sessions at random points.
fn split_sessions(rng: &mut SplitMix64, vectors: &[Pattern]) -> Vec<Vec<Pattern>> {
    let count = 1 + rng.below(3.min(vectors.len()) as u64) as usize;
    let mut cuts: Vec<usize> = (1..count)
        .map(|_| 1 + rng.below(vectors.len() as u64 - 1) as usize)
        .collect();
    cuts.sort_unstable();
    cuts.dedup();
    let mut sessions = Vec::new();
    let mut start = 0;
    for cut in cuts.into_iter().chain([vectors.len()]) {
        sessions.push(vectors[start..cut].to_vec());
        start = cut;
    }
    sessions
}

/// Checks the engine on `faults` against the reference on at most
/// `checked` of them (an even stride through the list starting at
/// `offset`; the engine still simulates the whole list, so batch
/// packing is exercised in full), plus the good-machine trace.
fn assert_matches_reference(
    nl: &Netlist,
    faults: &[Fault],
    sessions: &[Vec<Pattern>],
    checked: usize,
    offset: usize,
    memo: &mut HashMap<Fault, Option<usize>>,
) {
    let good = reference_good(nl, sessions);
    for (session, expected) in sessions.iter().zip(&good) {
        assert_eq!(
            &good_outputs(nl, session),
            expected,
            "{}: good_outputs",
            nl.name()
        );
    }
    let result = fault_simulate_sessions(nl, faults, sessions);
    assert_eq!(
        result.vectors_applied,
        sessions.iter().map(Vec::len).sum::<usize>()
    );
    let stride = faults.len().div_ceil(checked.max(1)).max(1);
    for i in (offset % stride..faults.len()).step_by(stride) {
        let fault = &faults[i];
        let expected = *memo
            .entry(*fault)
            .or_insert_with(|| reference_first(nl, fault, sessions, &good));
        assert_eq!(
            result.first_detected[i],
            expected,
            "{}: fault {} over sessions of {:?} vectors",
            nl.name(),
            fault.describe(nl),
            sessions.iter().map(Vec::len).collect::<Vec<_>>()
        );
    }
}

#[test]
fn every_bundled_circuit_matches_the_single_fault_reference() {
    for bench in Benchmark::all() {
        let circuit = bench.load().unwrap();
        let nl = &circuit.netlist;
        let full = full_faults(nl);
        let collapsed = collapsed_faults(nl);
        let mut rng = SplitMix64::new(0xF51 ^ nl.net_count() as u64);
        let pool = random_patterns(&mut rng, nl.inputs().len(), 200);
        for (round, len) in [1usize, 63, 64, 65, 200].into_iter().enumerate() {
            let sessions = split_sessions(&mut rng, &pool[..len]);
            // One memo per stimulus: the collapsed list is a subset of
            // the full one, and per-fault verdicts do not depend on the
            // list they are simulated in.
            let mut memo = HashMap::new();
            for faults in [&full, &collapsed] {
                assert_matches_reference(nl, faults, &sessions, 8, round, &mut memo);
            }
        }
    }
}

/// A random frozen netlist: 1–4 inputs, an optional constant, 0–2 flops
/// whose data inputs close feedback loops, and 2–12 gates over earlier
/// nets (so nets fan out and pin faults exist).
fn random_netlist(seed: u64) -> Netlist {
    const KINDS: [GateKind; 8] = [
        GateKind::And,
        GateKind::Or,
        GateKind::Nand,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
        GateKind::Not,
        GateKind::Buf,
    ];
    let mut rng = SplitMix64::new(seed);
    let mut nl = Netlist::new(format!("rand{seed:x}"));
    let mut nets: Vec<NetId> = (0..1 + rng.below(4))
        .map(|i| nl.add_input(format!("i{i}")))
        .collect();
    if rng.below(2) == 0 {
        nets.push(nl.add_const("k", rng.below(2) == 0));
    }
    let flops: Vec<NetId> = (0..rng.below(3))
        .map(|i| nl.add_dff(format!("q{i}"), rng.below(2) == 0))
        .collect();
    nets.extend(&flops);
    for g in 0..2 + rng.below(11) {
        let kind = KINDS[rng.below(8) as usize];
        let arity = match kind {
            GateKind::Not | GateKind::Buf => 1,
            _ => 2 + rng.below(2) as usize,
        };
        let inputs = (0..arity)
            .map(|_| nets[rng.below(nets.len() as u64) as usize])
            .collect();
        nets.push(nl.add_gate(format!("g{g}"), kind, inputs));
    }
    for &q in &flops {
        nl.connect_dff(q, nets[rng.below(nets.len() as u64) as usize]);
    }
    for _ in 0..1 + rng.below(3) {
        nl.mark_output(nets[rng.below(nets.len() as u64) as usize]);
    }
    nl.freeze().expect("gates only read earlier nets")
}

proptest! {
    /// Random netlists, vectors and session splits: every fault of the
    /// full universe gets the reference's first-detection index.
    #[test]
    fn random_netlists_match_the_single_fault_reference(seed in any::<u64>(), len in 1usize..=70) {
        let nl = random_netlist(seed);
        let mut rng = SplitMix64::new(seed.rotate_left(17));
        let vectors = random_patterns(&mut rng, nl.inputs().len(), len);
        let sessions = split_sessions(&mut rng, &vectors);
        let faults = full_faults(&nl);
        assert_matches_reference(&nl, &faults, &sessions, faults.len(), 0, &mut HashMap::new());
    }
}

/// The reference first detections of `faults` over `vectors` on a
/// combinational netlist: `LogicSim` evaluates 64 patterns per word, the
/// good machine once per batch and each undetected fault alone in every
/// lane.
fn reference_combinational(
    nl: &Netlist,
    faults: &[Fault],
    vectors: &[Pattern],
) -> Vec<Option<usize>> {
    let mut first = vec![None; faults.len()];
    let mut sim = LogicSim::new(nl);
    for (b, batch) in vectors.chunks(64).enumerate() {
        let words: Vec<u64> = (0..nl.inputs().len())
            .map(|slot| {
                batch.iter().enumerate().fold(0, |word, (lane, pattern)| {
                    word | u64::from(pattern[slot]) << lane
                })
            })
            .collect();
        let lanes = u64::MAX >> (64 - batch.len());
        sim.set_inputs(&words);
        sim.eval(&Injections::none());
        let good = sim.outputs();
        for (fault, first) in faults.iter().zip(&mut first) {
            if first.is_some() {
                continue;
            }
            sim.eval(&Injections::single(fault));
            let diff = sim
                .outputs()
                .iter()
                .zip(&good)
                .fold(0, |diff, (bad, good)| diff | (bad ^ good))
                & lanes;
            if diff != 0 {
                *first = Some(b * 64 + diff.trailing_zeros() as usize);
            }
        }
    }
    first
}

/// Asserts that `fault_simulate` gives every fault of `faults` the
/// reference's first detection over `vectors` (combinational netlists).
fn assert_matches_reference_combinational(nl: &Netlist, faults: &[Fault], vectors: &[Pattern]) {
    let result = fault_simulate(nl, faults, vectors);
    let expected = reference_combinational(nl, faults, vectors);
    for ((fault, got), expected) in faults.iter().zip(&result.first_detected).zip(expected) {
        assert_eq!(
            *got,
            expected,
            "{}: fault {} over {} patterns",
            nl.name(),
            fault.describe(nl),
            vectors.len()
        );
    }
}

/// A larger random combinational netlist: 2–8 inputs, an optional
/// constant and 20–120 gates of fan-in 1–4. Three pins in four read one
/// of the last three nets, so fanout-free trees run deep and a gate
/// often reads one net on two pins; the rest read any earlier net, so
/// stems reconverge. The last net and 1–4 others, internal ones
/// included, are outputs.
fn random_combinational_netlist(seed: u64) -> Netlist {
    const KINDS: [GateKind; 8] = [
        GateKind::And,
        GateKind::Or,
        GateKind::Nand,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
        GateKind::Not,
        GateKind::Buf,
    ];
    let mut rng = SplitMix64::new(seed);
    let mut nl = Netlist::new(format!("comb{seed:x}"));
    let mut nets: Vec<NetId> = (0..2 + rng.below(7))
        .map(|i| nl.add_input(format!("i{i}")))
        .collect();
    if rng.below(2) == 0 {
        nets.push(nl.add_const("k", rng.below(2) == 0));
    }
    for g in 0..20 + rng.below(101) {
        let kind = KINDS[rng.below(8) as usize];
        let arity = match kind {
            GateKind::Not | GateKind::Buf => 1,
            _ => 2 + rng.below(3) as usize,
        };
        let inputs = (0..arity)
            .map(|_| {
                let window = if rng.below(4) == 0 {
                    nets.len()
                } else {
                    nets.len().min(3)
                };
                nets[nets.len() - 1 - rng.below(window as u64) as usize]
            })
            .collect();
        nets.push(nl.add_gate(format!("g{g}"), kind, inputs));
    }
    nl.mark_output(*nets.last().expect("at least one gate"));
    for _ in 0..1 + rng.below(4) {
        nl.mark_output(nets[rng.below(nets.len() as u64) as usize]);
    }
    nl.freeze().expect("gates only read earlier nets")
}

proptest! {
    /// Larger random combinational netlists, whose fanout-free regions
    /// hold deep trees, repeated pins and outputs that feed gates: every
    /// fault of the full universe gets the reference's first detection
    /// over 1–200 patterns.
    #[test]
    fn larger_random_combinational_netlists_match_the_reference(seed in any::<u64>(), len in 1usize..=200) {
        let nl = random_combinational_netlist(seed);
        let mut rng = SplitMix64::new(seed.rotate_left(23));
        let vectors = random_patterns(&mut rng, nl.inputs().len(), len);
        assert_matches_reference_combinational(&nl, &full_faults(&nl), &vectors);
    }
}

/// Every collapsed fault of the larger bundled combinational circuits
/// against the reference over one 64-pattern batch, in which all of
/// them are live at once and share their region roots.
#[test]
fn every_collapsed_fault_of_the_larger_combinational_circuits_matches_the_reference() {
    for bench in [Benchmark::C432, Benchmark::C499, Benchmark::C880] {
        let circuit = bench.load().unwrap();
        let nl = &circuit.netlist;
        let mut rng = SplitMix64::new(0x64 ^ nl.net_count() as u64);
        let vectors = random_patterns(&mut rng, nl.inputs().len(), 64);
        assert_matches_reference_combinational(nl, &collapsed_faults(nl), &vectors);
    }
}

/// Asserts that `fault_simulate_until` stops at the first boundary (the
/// end of each 64-pattern batch of a combinational netlist, of each
/// frame of a sequential one) by which `min_len` patterns are applied
/// and `target` faults detected, or at the last pattern, and that its
/// first detections are the full run's inside that prefix.
fn assert_stops_at_its_prefix(
    nl: &Netlist,
    faults: &[Fault],
    vectors: &[Pattern],
    min_len: usize,
    target: usize,
) {
    let full = fault_simulate(nl, faults, vectors);
    let stopped = fault_simulate_until(nl, faults, vectors, min_len, target);
    let step = if nl.is_combinational() { 64 } else { 1 };
    let detected_by = |end: usize| {
        full.first_detected
            .iter()
            .flatten()
            .filter(|&&t| t < end)
            .count()
    };
    let prefix = (1..=vectors.len().div_ceil(step))
        .map(|k| (k * step).min(vectors.len()))
        .find(|&end| end >= min_len && detected_by(end) >= target)
        .unwrap_or(vectors.len());
    let rule = format!(
        "{}: min_len {min_len}, target {target} over {} patterns and {} faults",
        nl.name(),
        vectors.len(),
        faults.len()
    );
    assert_eq!(stopped.vectors_applied, prefix, "{rule}");
    let inside: Vec<Option<usize>> = full
        .first_detected
        .iter()
        .map(|first| first.filter(|&t| t < prefix))
        .collect();
    assert_eq!(stopped.first_detected, inside, "{rule}");
    assert_eq!(stopped.faults, full.faults);
}

proptest! {
    /// Random netlists, vectors and stop rules, and one netlist in
    /// eight with no faults at all: a stopped run is the full run over
    /// its prefix. Both bounds zero, each alone, a length past the last
    /// pattern and a target above the fault count are checked every
    /// case.
    #[test]
    fn a_stopped_run_is_the_full_run_over_its_prefix(seed in any::<u64>(), len in 0usize..=200) {
        let nl = random_netlist(seed);
        let mut rng = SplitMix64::new(seed.rotate_left(41));
        let vectors = random_patterns(&mut rng, nl.inputs().len(), len);
        let faults = if seed % 8 == 0 { Vec::new() } else { full_faults(&nl) };
        let min_len = rng.below(len as u64 + 1) as usize;
        let target = rng.below(faults.len() as u64 + 1) as usize;
        for (min_len, target) in [
            (0, 0),
            (min_len, 0),
            (0, target),
            (min_len, target),
            (len + 1, target),
            (min_len, faults.len() + 1),
        ] {
            assert_stops_at_its_prefix(&nl, &faults, &vectors, min_len, target);
        }
    }

    /// Random netlists, baselines and validation data: the baseline
    /// stopped at the data's length and detected count gives the data
    /// the same `ΔFC%`, `ΔL%` and NLFCE as the whole baseline, whether
    /// or not the baseline reaches the data's coverage.
    #[test]
    fn metrics_on_the_stopped_baseline_equal_those_on_the_full_one(
        seed in any::<u64>(),
        len in 0usize..=200,
        data_len in 0usize..=80,
        undetected_pct in 0u64..=100,
    ) {
        let nl = random_netlist(seed);
        let faults = full_faults(&nl);
        let mut rng = SplitMix64::new(seed.rotate_left(53));
        let baseline = random_patterns(&mut rng, nl.inputs().len(), len);
        let data = FaultSimResult {
            faults: faults.clone(),
            first_detected: faults
                .iter()
                .map(|_| {
                    let detected = data_len > 0 && rng.below(100) >= undetected_pct;
                    detected.then(|| rng.below(data_len as u64) as usize)
                })
                .collect(),
            vectors_applied: data_len,
            faults_simulated: faults.len(),
        };
        let mutation = CoverageCurve::new(data.coverage_curve());
        let metrics = |random: FaultSimResult| {
            NlfceInputs {
                mutation: &mutation,
                random: &CoverageCurve::new(random.coverage_curve()),
            }
            .compute()
        };
        let target = data.detected_count();
        let stopped = fault_simulate_until(&nl, &faults, &baseline, data_len, target);
        prop_assert_eq!(metrics(stopped), metrics(fault_simulate(&nl, &faults, &baseline)));
    }
}
