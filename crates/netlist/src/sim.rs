//! 64-lane bit-parallel logic simulation with fault injection — the
//! reference model.
//!
//! Every net carries a 64-bit word; lane *k* (bit *k*) is an independent
//! simulation. The two classic uses:
//!
//! * **parallel-pattern** — lanes are 64 different input patterns;
//! * **parallel-fault** — lanes are 64 machines receiving the *same*
//!   input, lane 0 the good machine and lanes 1..64 machines with one
//!   injected fault each.
//!
//! Injection is expressed as per-lane force masks on nets (stem faults)
//! or on individual gate input pins (branch faults), kept in hash maps.
//!
//! [`LogicSim`] interprets the [`Netlist`] directly — one `Node` match
//! and one force lookup per net and pin — which makes it easy to audit
//! and slow. The fault simulators ([`crate::fault_simulate`] and
//! friends) and [`crate::good_outputs`] run on the compiled flat form
//! instead; `LogicSim` with [`Injections::single`] is the oracle their
//! differential tests compare against, one fault at a time.

use crate::fault::{Fault, FaultSite};
use crate::netlist::{Netlist, Node};
use std::collections::HashMap;

/// Per-lane stuck-at force masks.
///
/// A bit set in a `sa1` mask forces the corresponding lane of that net or
/// pin to 1; `sa0` forces to 0. Empty injections simulate the good
/// circuit.
#[derive(Debug, Clone, Default)]
pub struct Injections {
    net_sa0: HashMap<u32, u64>,
    net_sa1: HashMap<u32, u64>,
    pin_sa0: HashMap<(u32, u32), u64>,
    pin_sa1: HashMap<(u32, u32), u64>,
}

impl Injections {
    /// No injections: the good circuit.
    pub fn none() -> Self {
        Self::default()
    }

    /// Returns `true` when no fault is injected.
    pub fn is_empty(&self) -> bool {
        self.net_sa0.is_empty()
            && self.net_sa1.is_empty()
            && self.pin_sa0.is_empty()
            && self.pin_sa1.is_empty()
    }

    /// Injects `fault` into the given lanes.
    pub fn add(&mut self, fault: &Fault, lanes: u64) {
        match (&fault.site, fault.stuck_at_one) {
            (FaultSite::Net(n), false) => *self.net_sa0.entry(n.0).or_insert(0) |= lanes,
            (FaultSite::Net(n), true) => *self.net_sa1.entry(n.0).or_insert(0) |= lanes,
            (FaultSite::Pin { gate, pin }, false) => {
                *self.pin_sa0.entry((gate.0, *pin)).or_insert(0) |= lanes
            }
            (FaultSite::Pin { gate, pin }, true) => {
                *self.pin_sa1.entry((gate.0, *pin)).or_insert(0) |= lanes
            }
        }
    }

    /// Convenience: a single fault forced in **all** lanes.
    pub fn single(fault: &Fault) -> Self {
        let mut inj = Self::default();
        inj.add(fault, u64::MAX);
        inj
    }

    #[inline]
    fn force_net(&self, net: u32, word: u64) -> u64 {
        let mut w = word;
        if let Some(&m) = self.net_sa1.get(&net) {
            w |= m;
        }
        if let Some(&m) = self.net_sa0.get(&net) {
            w &= !m;
        }
        w
    }

    #[inline]
    fn force_pin(&self, gate: u32, pin: u32, word: u64) -> u64 {
        let mut w = word;
        if let Some(&m) = self.pin_sa1.get(&(gate, pin)) {
            w |= m;
        }
        if let Some(&m) = self.pin_sa0.get(&(gate, pin)) {
            w &= !m;
        }
        w
    }

    /// Fast path: when there are no pin faults, gate evaluation can skip
    /// per-pin checks entirely.
    fn has_pin_faults(&self) -> bool {
        !self.pin_sa0.is_empty() || !self.pin_sa1.is_empty()
    }
}

/// A 64-lane logic simulator over a frozen [`Netlist`].
///
/// # Examples
///
/// ```
/// use musa_netlist::{parse_bench, Injections, LogicSim, C17};
///
/// let nl = parse_bench(C17, "c17")?;
/// let mut sim = LogicSim::new(&nl);
/// // Lane-parallel: apply four patterns at once (lanes 0..4).
/// sim.set_inputs(&[0b0101, 0b0011, 0b0000, 0b1111, 0b1010]);
/// sim.eval(&Injections::none());
/// let outs = sim.outputs();
/// assert_eq!(outs.len(), 2);
/// # Ok::<(), musa_netlist::BenchError>(())
/// ```
#[derive(Debug, Clone)]
pub struct LogicSim<'a> {
    nl: &'a Netlist,
    values: Vec<u64>,
    /// Pristine primary-input words, kept apart from `values` so that
    /// fault forcing during [`LogicSim::eval`] never corrupts the
    /// applied stimulus for subsequent injections.
    input_words: Vec<u64>,
    state: Vec<u64>,
}

impl<'a> LogicSim<'a> {
    /// Creates a simulator in the power-on state.
    pub fn new(nl: &'a Netlist) -> Self {
        let values = vec![0; nl.net_count()];
        let state = nl
            .dffs()
            .iter()
            .map(|&ff| match nl.node(ff) {
                Node::Dff { init, .. } => {
                    if *init {
                        u64::MAX
                    } else {
                        0
                    }
                }
                _ => unreachable!("dff list holds only flops"),
            })
            .collect();
        Self {
            nl,
            values,
            input_words: vec![0; nl.inputs().len()],
            state,
        }
    }

    /// The simulated netlist.
    pub fn netlist(&self) -> &'a Netlist {
        self.nl
    }

    /// Restores every flip-flop to its power-on value (all lanes).
    pub fn reset(&mut self) {
        for (slot, &ff) in self.state.iter_mut().zip(self.nl.dffs()) {
            if let Node::Dff { init, .. } = self.nl.node(ff) {
                *slot = if *init { u64::MAX } else { 0 };
            }
        }
    }

    /// Sets all primary-input words, in `Netlist::inputs` order.
    ///
    /// # Panics
    ///
    /// Panics if the slice length differs from the input count.
    pub fn set_inputs(&mut self, words: &[u64]) {
        assert_eq!(words.len(), self.nl.inputs().len(), "input count mismatch");
        self.input_words.copy_from_slice(words);
    }

    /// Broadcast-sets the inputs from single-bit values (every lane gets
    /// the same pattern) — the parallel-fault usage.
    pub fn set_inputs_broadcast(&mut self, bits: &[bool]) {
        assert_eq!(bits.len(), self.nl.inputs().len(), "input count mismatch");
        for (slot, &bit) in bits.iter().enumerate() {
            self.input_words[slot] = if bit { u64::MAX } else { 0 };
        }
    }

    /// Evaluates the combinational core under the given injections.
    ///
    /// Primary inputs must have been set beforehand; flop outputs take the
    /// current state.
    pub fn eval(&mut self, inj: &Injections) {
        // Sources: constants and flop outputs.
        let pin_faults = inj.has_pin_faults();
        for net in self.nl.nets() {
            match self.nl.node(net) {
                Node::Const(v) => {
                    self.values[net.0 as usize] = if *v { u64::MAX } else { 0 };
                }
                Node::Input => {}
                _ => continue,
            }
            self.values[net.0 as usize] = inj.force_net(net.0, self.values[net.0 as usize]);
        }
        for (i, &ff) in self.nl.dffs().iter().enumerate() {
            self.values[ff.0 as usize] = inj.force_net(ff.0, self.state[i]);
        }
        for (slot, &input) in self.nl.inputs().iter().enumerate() {
            self.values[input.0 as usize] =
                inj.force_net(input.0, self.input_words[slot]);
        }
        // Gates in topological order.
        let mut scratch: Vec<u64> = Vec::with_capacity(8);
        for &g in self.nl.topo_order() {
            if let Node::Gate { kind, inputs } = self.nl.node(g) {
                scratch.clear();
                if pin_faults {
                    for (pin, &src) in inputs.iter().enumerate() {
                        scratch.push(inj.force_pin(
                            g.0,
                            pin as u32,
                            self.values[src.0 as usize],
                        ));
                    }
                } else {
                    scratch.extend(inputs.iter().map(|&src| self.values[src.0 as usize]));
                }
                let word = kind.eval_words(&scratch);
                self.values[g.0 as usize] = inj.force_net(g.0, word);
            }
        }
    }

    /// The current word on a net.
    pub fn value(&self, net: crate::netlist::NetId) -> u64 {
        self.values[net.0 as usize]
    }

    /// The primary-output words, in declaration order.
    pub fn outputs(&self) -> Vec<u64> {
        self.nl
            .outputs()
            .iter()
            .map(|&o| self.values[o.0 as usize])
            .collect()
    }

    /// Clocks every flip-flop: state ← current D-input values.
    ///
    /// Call after [`LogicSim::eval`] so D inputs are settled.
    pub fn clock(&mut self, inj: &Injections) {
        for (i, &ff) in self.nl.dffs().iter().enumerate() {
            if let Node::Dff { d, .. } = self.nl.node(ff) {
                // The D pin can itself carry a branch fault (pin 0).
                let word = inj.force_pin(ff.0, 0, self.values[d.0 as usize]);
                self.state[i] = word;
            }
        }
    }

    /// Full test-application step: set broadcast inputs, settle, sample
    /// outputs, clock. Returns the output words.
    pub fn step_broadcast(&mut self, bits: &[bool], inj: &Injections) -> Vec<u64> {
        self.set_inputs_broadcast(bits);
        self.eval(inj);
        let outs = self.outputs();
        if !self.nl.is_combinational() {
            self.clock(inj);
        }
        outs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::{parse_bench, C17};
    use crate::fault::{Fault, FaultSite};
    use crate::netlist::{GateKind, Netlist};

    fn c17() -> Netlist {
        parse_bench(C17, "c17").unwrap()
    }

    /// Reference model of c17 for one scalar pattern.
    fn c17_ref(g1: bool, g2: bool, g3: bool, g6: bool, g7: bool) -> (bool, bool) {
        let g10 = !(g1 && g3);
        let g11 = !(g3 && g6);
        let g16 = !(g2 && g11);
        let g19 = !(g11 && g7);
        let g22 = !(g10 && g16);
        let g23 = !(g16 && g19);
        (g22, g23)
    }

    #[test]
    fn matches_reference_on_all_32_patterns() {
        let nl = c17();
        let mut sim = LogicSim::new(&nl);
        // Pack all 32 input combinations into lanes 0..32.
        let mut words = vec![0u64; 5];
        for pattern in 0..32u64 {
            for (i, word) in words.iter_mut().enumerate() {
                if (pattern >> i) & 1 == 1 {
                    *word |= 1 << pattern;
                }
            }
        }
        sim.set_inputs(&words);
        sim.eval(&Injections::none());
        let outs = sim.outputs();
        for pattern in 0..32u64 {
            let bit = |i: usize| (pattern >> i) & 1 == 1;
            let (e22, e23) = c17_ref(bit(0), bit(1), bit(2), bit(3), bit(4));
            assert_eq!((outs[0] >> pattern) & 1 == 1, e22, "G22 pattern {pattern}");
            assert_eq!((outs[1] >> pattern) & 1 == 1, e23, "G23 pattern {pattern}");
        }
    }

    #[test]
    fn stem_fault_changes_output() {
        let nl = c17();
        let g10 = nl.net_by_name("G10").unwrap();
        let mut sim = LogicSim::new(&nl);
        // G1=1, G3=1 → G10=0 normally; force s-a-1.
        sim.set_inputs_broadcast(&[true, false, true, false, false]);
        sim.eval(&Injections::none());
        let good = sim.outputs();
        let fault = Fault {
            site: FaultSite::Net(g10),
            stuck_at_one: true,
        };
        sim.eval(&Injections::single(&fault));
        let bad = sim.outputs();
        assert_ne!(good[0], bad[0], "G22 must flip under G10 s-a-1");
    }

    #[test]
    fn pin_fault_is_local_to_gate() {
        // y1 = AND(a, b), y2 = OR(a, b): a pin fault on the AND's `a` pin
        // must not disturb the OR.
        let mut nl = Netlist::new("pins");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y1 = nl.add_gate("y1", GateKind::And, vec![a, b]);
        let y2 = nl.add_gate("y2", GateKind::Or, vec![a, b]);
        nl.mark_output(y1);
        nl.mark_output(y2);
        let nl = nl.freeze().unwrap();

        let mut sim = LogicSim::new(&nl);
        sim.set_inputs_broadcast(&[true, true]);
        let fault = Fault {
            site: FaultSite::Pin {
                gate: nl.net_by_name("y1").unwrap(),
                pin: 0,
            },
            stuck_at_one: false,
        };
        sim.eval(&Injections::single(&fault));
        let outs = sim.outputs();
        assert_eq!(outs[0], 0, "AND sees forced 0");
        assert_eq!(outs[1], u64::MAX, "OR is unaffected");
    }

    #[test]
    fn injection_respects_lanes() {
        let nl = c17();
        let g10 = nl.net_by_name("G10").unwrap();
        let fault = Fault {
            site: FaultSite::Net(g10),
            stuck_at_one: true,
        };
        let mut inj = Injections::none();
        inj.add(&fault, 0b10); // lane 1 only
        let mut sim = LogicSim::new(&nl);
        sim.set_inputs_broadcast(&[true, false, true, false, false]);
        sim.eval(&inj);
        let g22 = sim.value(nl.net_by_name("G22").unwrap());
        // Lane 0 good, lane 1 faulty → they must differ.
        assert_ne!(g22 & 1, (g22 >> 1) & 1);
    }

    #[test]
    fn sequential_toggle_counts() {
        let src = "
INPUT(en)
OUTPUT(q)
q = DFF(d)
d = XOR(q, en)
";
        let nl = parse_bench(src, "t").unwrap();
        let mut sim = LogicSim::new(&nl);
        let none = Injections::none();
        let q0 = sim.step_broadcast(&[true], &none)[0];
        let q1 = sim.step_broadcast(&[true], &none)[0];
        let q2 = sim.step_broadcast(&[false], &none)[0];
        let q3 = sim.step_broadcast(&[true], &none)[0];
        assert_eq!(q0 & 1, 0); // initial state
        assert_eq!(q1 & 1, 1); // toggled
        assert_eq!(q2 & 1, 0); // toggled again (en was 1 at step 2's edge? no: q2 observed before its edge)
        assert_eq!(q3 & 1, 0); // en=0 at step 3 edge held the value... observed pre-edge
    }

    #[test]
    fn reset_restores_init() {
        let src = "
INPUT(en)
OUTPUT(q)
q = DFF(d)
d = XOR(q, en)
";
        let nl = parse_bench(src, "t").unwrap();
        let mut sim = LogicSim::new(&nl);
        let none = Injections::none();
        sim.step_broadcast(&[true], &none);
        sim.step_broadcast(&[true], &none);
        sim.reset();
        let q = sim.step_broadcast(&[false], &none)[0];
        assert_eq!(q & 1, 0);
    }

    #[test]
    fn injections_single_and_empty() {
        let nl = c17();
        let fault = Fault {
            site: FaultSite::Net(nl.net_by_name("G10").unwrap()),
            stuck_at_one: false,
        };
        assert!(Injections::none().is_empty());
        assert!(!Injections::single(&fault).is_empty());
    }
}
