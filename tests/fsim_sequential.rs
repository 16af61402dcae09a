//! Sequential fault simulation beyond `tests/fsim.rs`: per-fault
//! first-detection goldens of the bundled sequential circuits, and
//! oracle tests aimed at the paths of the time-major engine — a fault
//! whose latched error travels while its site is quiet, flip-flop and
//! constant-net sites, more than 64 flip-flops, state differences that
//! must not survive a session boundary, and larger random netlists.
//! Every oracle test compares `fault_simulate_sessions` with the
//! one-fault-at-a-time `LogicSim` + `Injections::single` reference. A
//! run that `fault_simulate_until` stops at a frame must equal the full
//! run over its prefix, in both of the engine's loops.

use musa::circuits::Benchmark;
use musa::netlist::{
    collapsed_faults, fault_simulate, fault_simulate_sessions, fault_simulate_until, full_faults,
    parse_bench, Fault, FaultSite, GateKind, Injections, LogicSim, NetId, Netlist, Pattern,
};
use musa::prng::{Prng, SplitMix64};
use musa::testgen::testbench_patterns;
use proptest::prelude::*;

/// The primary-output bits of one reference step.
fn step_outputs(sim: &mut LogicSim, vector: &Pattern, inj: &Injections) -> Vec<bool> {
    sim.step_broadcast(vector, inj)
        .iter()
        .map(|w| w & 1 == 1)
        .collect()
}

/// The reference first detection of one fault: each session from
/// reset, the faulty machine stepped alone against the good trace.
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
        let first = session
            .iter()
            .zip(good)
            .position(|(v, good)| step_outputs(&mut sim, v, &inj) != *good);
        if let Some(t) = first {
            return Some(base + t);
        }
        base += session.len();
    }
    None
}

/// Simulates every fault of `faults` and checks the faults at a stride
/// of `stride` from `offset` against the reference; returns the
/// engine's first detections.
fn assert_matches_reference(
    nl: &Netlist,
    faults: &[Fault],
    sessions: &[Vec<Pattern>],
    stride: usize,
    offset: usize,
) -> Vec<Option<usize>> {
    let none = Injections::none();
    let good: Vec<Vec<Vec<bool>>> = sessions
        .iter()
        .map(|session| {
            let mut sim = LogicSim::new(nl);
            session
                .iter()
                .map(|v| step_outputs(&mut sim, v, &none))
                .collect()
        })
        .collect();
    let result = fault_simulate_sessions(nl, faults, sessions);
    assert_eq!(
        result.vectors_applied,
        sessions.iter().map(Vec::len).sum::<usize>()
    );
    for i in (offset % stride..faults.len()).step_by(stride) {
        assert_eq!(
            result.first_detected[i],
            reference_first(nl, &faults[i], sessions, &good),
            "{}: fault {} over sessions of {:?} vectors",
            nl.name(),
            faults[i].describe(nl),
            sessions.iter().map(Vec::len).collect::<Vec<_>>()
        );
    }
    result.first_detected
}

fn random_patterns(rng: &mut SplitMix64, width: usize, len: usize) -> Vec<Pattern> {
    (0..len)
        .map(|_| (0..width).map(|_| rng.next_u64() & 1 == 1).collect())
        .collect()
}

/// `.bench` lines of a chain of `len` inverters from input `from`
/// that no output observes: its faults stay live (nothing detects
/// them) and are excited in every frame, so the live list never fits
/// one 63-fault word and the engine screens and packs every frame.
fn unobserved_chain(from: &str, len: usize) -> String {
    let mut src = String::new();
    let mut prev = from.to_string();
    for i in 0..len {
        src.push_str(&format!("pad{i} = NOT({prev})\n"));
        prev = format!("pad{i}");
    }
    src
}

fn fault_named(nl: &Netlist, faults: &[Fault], name: &str) -> usize {
    faults
        .iter()
        .position(|f| f.describe(nl) == name)
        .unwrap_or_else(|| panic!("{name} is not in the fault list"))
}

/// A six-flop shift register from `x` to the output `q5`, next to an
/// unobserved inverter chain from `y`.
fn shift_register() -> Netlist {
    let mut src = String::from("INPUT(x)\nINPUT(y)\nOUTPUT(q5)\nq0 = DFF(x)\n");
    for i in 1..6 {
        src.push_str(&format!("q{i} = DFF(q{})\n", i - 1));
    }
    src.push_str(&unobserved_chain("y", 70));
    parse_bench(&src, "shift6").unwrap()
}

/// `len` vectors over `(x, y)`: `x` is 1 except at the frames in
/// `x_low`, `y` toggles.
fn x_pulses(len: usize, x_low: &[usize]) -> Vec<Pattern> {
    (0..len)
        .map(|t| vec![!x_low.contains(&t), t % 2 == 0])
        .collect()
}

#[test]
fn a_latched_error_is_followed_while_its_site_is_quiet() {
    // x s-a-1 is excited at frame 0 only. Its error latches into q0
    // and shifts to the output q5, which shows it at frame 6; in frames
    // 1–5 the fault's site is quiet and only its state differs.
    let nl = shift_register();
    let faults = full_faults(&nl);
    assert!(faults.len() > 2 * 63, "{}", faults.len());
    let sessions = [x_pulses(20, &[0])];
    let first = assert_matches_reference(&nl, &faults, &sessions, 1, 0);
    assert_eq!(first[fault_named(&nl, &faults, "x s-a-1")], Some(6));
}

#[test]
fn state_differences_reset_at_each_session() {
    // x s-a-1 is excited only at the last frame of the first session:
    // its error sits in q0 when the session ends. The second session
    // starts from reset and never excites it again, so it is never
    // detected — a difference carried over would detect it at frame 5
    // of the second session.
    let nl = shift_register();
    let faults = full_faults(&nl);
    let sessions = [x_pulses(10, &[9]), x_pulses(10, &[])];
    let first = assert_matches_reference(&nl, &faults, &sessions, 1, 0);
    assert_eq!(first[fault_named(&nl, &faults, "x s-a-1")], None);
    // The same pulse one session earlier reaches the output in time.
    let sessions = [x_pulses(10, &[3]), x_pulses(10, &[])];
    let first = assert_matches_reference(&nl, &faults, &sessions, 1, 0);
    assert_eq!(first[fault_named(&nl, &faults, "x s-a-1")], Some(9));
}

#[test]
fn d_pin_flop_output_and_constant_faults_match_the_reference() {
    // `d` fans out to the flop `q` and to `y`, so `q.pin0` (the D pin)
    // is a fault of its own; `k` is a constant net; `r` powers on at 1.
    let src = format!(
        "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nOUTPUT(z)\n\
         k = CONST1()\nq = DFF(d)\nr = DFF1(q)\n\
         d = AND(a, r, k)\ny = OR(d, b)\nz = XOR(q, r)\n{}",
        unobserved_chain("c", 40)
    );
    let nl = parse_bench(&src, "flops").unwrap();
    let faults = full_faults(&nl);
    let q = nl.net_by_name("q").unwrap();
    let d_pin = Fault {
        site: FaultSite::Pin { gate: q, pin: 0 },
        stuck_at_one: true,
    };
    for fault in [
        d_pin,
        Fault::net_sa0(q),
        Fault::net_sa1(nl.net_by_name("r").unwrap()),
        Fault::net_sa0(nl.net_by_name("k").unwrap()),
    ] {
        assert!(faults.contains(&fault), "{}", fault.describe(&nl));
    }
    let mut rng = SplitMix64::new(0xD1F);
    for len in [1, 5, 40] {
        let vectors = random_patterns(&mut rng, 3, len);
        let half = len / 2;
        let sessions = [vectors[..half].to_vec(), vectors[half..].to_vec()];
        assert_matches_reference(&nl, &faults, &sessions, 1, 0);
        assert_matches_reference(&nl, &faults, &[vectors], 1, 0);
    }
}

#[test]
fn more_than_64_flops_match_the_reference() {
    // A 70-stage shift register with XOR feedback and XOR output taps:
    // flop indices past 64 and more than two 63-fault words.
    let mut src = String::from(
        "INPUT(x)\nOUTPUT(y)\nOUTPUT(z)\ns0 = DFF(f)\n\
         f = XOR(x, s69, s40)\ny = XOR(s20, s50, s69)\nz = AND(s10, s33)\n",
    );
    for i in 1..70 {
        src.push_str(&format!("s{i} = DFF(s{})\n", i - 1));
    }
    let nl = parse_bench(&src, "shift70").unwrap();
    assert_eq!(nl.dffs().len(), 70);
    let faults = full_faults(&nl);
    assert!(faults.len() > 126, "{}", faults.len());
    let mut rng = SplitMix64::new(0x70);
    let vectors = random_patterns(&mut rng, 1, 120);
    let sessions = [vectors[..50].to_vec(), vectors[50..].to_vec()];
    let first = assert_matches_reference(&nl, &faults, &sessions, 1, 0);
    // Errors entering at s0 travel up to 69 frames to reach s69: some
    // faults are first seen more than 50 frames into the second session.
    assert!(first.iter().flatten().any(|&t| t > 50 + 50), "{first:?}");
}

/// A random frozen netlist: 2–5 inputs, an optional constant, 4–8
/// flops whose data inputs close feedback loops, 20–80 gates over
/// earlier nets and 1–4 outputs.
fn random_sequential_netlist(seed: u64) -> Netlist {
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
    let mut nl = Netlist::new(format!("seq{seed:x}"));
    let mut nets: Vec<NetId> = (0..2 + rng.below(4))
        .map(|i| nl.add_input(format!("i{i}")))
        .collect();
    if rng.below(2) == 0 {
        nets.push(nl.add_const("k", rng.below(2) == 0));
    }
    let flops: Vec<NetId> = (0..4 + rng.below(5))
        .map(|i| nl.add_dff(format!("q{i}"), rng.below(2) == 0))
        .collect();
    nets.extend(&flops);
    for g in 0..20 + rng.below(61) {
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
    for _ in 0..1 + rng.below(4) {
        nl.mark_output(nets[rng.below(nets.len() as u64) as usize]);
    }
    nl.freeze().expect("gates only read earlier nets")
}

proptest! {
    /// Larger random sequential netlists, vectors and 1–3 session
    /// splits: the whole fault universe is simulated, and every
    /// `stride`-th fault is checked against the reference (the stride
    /// keeps debug runs fast; `PROPTEST_CASES` deepens the search).
    #[test]
    fn larger_random_sequential_netlists_match_the_reference(
        seed in any::<u64>(),
        len in 1usize..=48,
    ) {
        let nl = random_sequential_netlist(seed);
        let mut rng = SplitMix64::new(seed.rotate_left(29));
        let vectors = random_patterns(&mut rng, nl.inputs().len(), len);
        let mut sessions = Vec::new();
        let mut rest = &vectors[..];
        while !rest.is_empty() {
            let cut = if sessions.len() == 2 {
                rest.len()
            } else {
                1 + rng.below(rest.len() as u64) as usize
            };
            sessions.push(rest[..cut].to_vec());
            rest = &rest[cut..];
        }
        let faults = full_faults(&nl);
        let stride = faults.len().div_ceil(12);
        assert_matches_reference(&nl, &faults, &sessions, stride, seed as usize);
    }
}

/// Asserts that `fault_simulate_until` stops at the first frame by
/// which `min_len` vectors are applied and `target` faults detected, or
/// at the last vector, and that its first detections are `full`'s (a
/// full run's) inside that prefix.
fn assert_stops_at_its_prefix(
    nl: &Netlist,
    faults: &[Fault],
    vectors: &[Pattern],
    full: &[Option<usize>],
    min_len: usize,
    target: usize,
) {
    let detected_by = |end: usize| full.iter().flatten().filter(|&&t| t < end).count();
    let prefix = (1..=vectors.len())
        .find(|&end| end >= min_len && detected_by(end) >= target)
        .unwrap_or(vectors.len());
    let stopped = fault_simulate_until(nl, faults, vectors, min_len, target);
    let rule = format!("{}: min_len {min_len}, target {target}", nl.name());
    assert_eq!(stopped.vectors_applied, prefix, "{rule}");
    let inside: Vec<Option<usize>> = full
        .iter()
        .map(|first| first.filter(|&t| t < prefix))
        .collect();
    assert_eq!(stopped.first_detected, inside, "{rule}");
}

proptest! {
    /// Larger random sequential netlists, vectors and stop rules: a
    /// stopped run is the full run over its prefix. Both bounds zero,
    /// each alone, a length past the last vector and a target above the
    /// fault count are checked every case, on the whole fault universe
    /// (more than one 63-fault word, so stops land in both of the
    /// engine's loops) and on the faults the vectors detect (all of
    /// them are dropped at the last detection, and the run may go on).
    #[test]
    fn a_stopped_run_is_the_full_run_over_its_prefix(seed in any::<u64>(), len in 0usize..=60) {
        let nl = random_sequential_netlist(seed);
        let mut rng = SplitMix64::new(seed.rotate_left(31));
        let vectors = random_patterns(&mut rng, nl.inputs().len(), len);
        let universe = full_faults(&nl);
        let full = fault_simulate(&nl, &universe, &vectors);
        let detectable: Vec<Fault> = universe
            .iter()
            .zip(&full.first_detected)
            .filter_map(|(&fault, first)| first.map(|_| fault))
            .collect();
        for faults in [universe, detectable] {
            let full = fault_simulate(&nl, &faults, &vectors).first_detected;
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
                assert_stops_at_its_prefix(&nl, &faults, &vectors, &full, min_len, target);
            }
        }
    }
}

/// First detections of the collapsed faults of b03, b04 and b05 under
/// a fixed testbench stimulus of 780 vectors, applied as sessions of
/// 300 and 480 vectors: one line per fault, its name and its first
/// detection index, or `-` when no vector detects it.
/// Re-bless with `MUSA_BLESS=1 cargo test --test fsim_sequential`.
#[test]
fn bundled_sequential_first_detections_match_golden() {
    for bench in [Benchmark::B03, Benchmark::B04, Benchmark::B05] {
        let circuit = bench.load().unwrap();
        let nl = &circuit.netlist;
        let faults = collapsed_faults(nl);
        let vectors = testbench_patterns(nl, 780, 0x5EED_0F51);
        let sessions = [vectors[..300].to_vec(), vectors[300..].to_vec()];
        let result = fault_simulate_sessions(nl, &faults, &sessions);
        let actual: String = faults
            .iter()
            .zip(&result.first_detected)
            .map(|(fault, first)| match first {
                Some(t) => format!("{} {t}\n", fault.describe(nl)),
                None => format!("{} -\n", fault.describe(nl)),
            })
            .collect();
        let path = format!(
            "{}/tests/golden/fsim_first_{}.txt",
            env!("CARGO_MANIFEST_DIR"),
            bench.name()
        );
        if std::env::var("MUSA_BLESS").is_ok() {
            std::fs::write(&path, &actual).unwrap();
            continue;
        }
        let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        assert!(
            actual == expected,
            "{}: first detections drifted from {path}",
            bench.name()
        );
    }
}
