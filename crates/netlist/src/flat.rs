//! The flat, levelized form of a frozen netlist — the compiled layout
//! the fault simulators run on.
//!
//! [`Netlist::freeze`](crate::Netlist::freeze) builds it once: the
//! topological gate order itself (what
//! [`Netlist::topo_order`](crate::Netlist::topo_order) returns), gate
//! functions in that order, fan-in and fan-out as CSR arrays of `u32`
//! indices, a primary-output flag per net, the constants and the
//! flip-flop `(q, d, init)` triples. A gate
//! evaluation is then a slice walk over dense words — no `Node` match,
//! no scratch allocation, no hashing.
//!
//! Indices: *nets* are `NetId` values; *gates* are positions in the
//! topological order (so a gate always precedes every gate reading its
//! output); *slots* index the fan-in CSR array, one per gate input pin.
//!
//! It also records the netlist's *fanout-free regions*. A net is a
//! region *member* when it is not a primary output and exactly one
//! fan-in slot reads it (no flip-flop D pin does); it then belongs to
//! the region of the net its reader drives. Every other net is a region
//! *root*: a primary output, a net read by several slots (two pins of
//! one gate count as two), or a net no slot reads. A member's only way
//! to the rest of the circuit is its one path up to its root.

use crate::fault::{Fault, FaultSite};
use crate::netlist::{GateKind, NetId, Node};

/// Marks a net that no gate drives in [`Flat::gate_of`].
const NOT_A_GATE: u32 = u32::MAX;

/// Marks a region root in [`Flat::region_slot`].
const ROOT: u32 = u32::MAX;

/// One D flip-flop of the flat form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Flop {
    /// Output net.
    pub q: u32,
    /// Data input net.
    pub d: u32,
    /// Power-on state.
    pub init: bool,
}

/// Where a single stuck-at fault acts in the flat form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Site {
    /// The whole net is forced (stem fault).
    Net(u32),
    /// One fan-in slot of one gate is forced (branch fault).
    Pin {
        /// Gate index (topological position).
        gate: u32,
        /// Fan-in CSR slot.
        slot: u32,
    },
    /// The data input of one flip-flop is forced (branch fault).
    DPin(u32),
    /// The fault names no existing site, so it can never be observed.
    Inert,
}

/// Flat levelized netlist; see the module docs.
#[derive(Debug, Clone, Default)]
pub(crate) struct Flat {
    /// Gate function of gate `g`.
    pub kinds: Vec<GateKind>,
    /// Output net of gate `g`: the topological gate order itself.
    pub out: Vec<NetId>,
    /// Gate `g` reads nets `fanin[fanin_start[g]..fanin_start[g + 1]]`,
    /// in pin order.
    pub fanin_start: Vec<u32>,
    /// Fan-in nets, concatenated per gate.
    pub fanin: Vec<u32>,
    /// Net `n` is read by gates `fanout[fanout_start[n]..fanout_start[n + 1]]`,
    /// ascending and without repeats.
    pub fanout_start: Vec<u32>,
    /// Reading gates, concatenated per net.
    pub fanout: Vec<u32>,
    /// Gate index driving each net ([`NOT_A_GATE`] for sources).
    gate_of: Vec<u32>,
    /// Primary-output flag per net.
    pub is_output: Vec<bool>,
    /// The root of each net's fanout-free region (the net itself for a
    /// root).
    pub region_root: Vec<u32>,
    /// The one fan-in slot reading each region member ([`ROOT`] for a
    /// root).
    region_slot: Vec<u32>,
    /// Constant nets with their broadcast words.
    pub consts: Vec<(u32, u64)>,
    /// Flip-flops in declaration order.
    pub flops: Vec<Flop>,
}

impl Flat {
    /// Builds the flat form from validated nodes and their gate order.
    pub(crate) fn build(
        nodes: &[Node],
        topo: Vec<NetId>,
        outputs: &[NetId],
        dffs: &[NetId],
    ) -> Self {
        let mut flat = Flat {
            gate_of: vec![NOT_A_GATE; nodes.len()],
            is_output: vec![false; nodes.len()],
            fanin_start: Vec::with_capacity(topo.len() + 1),
            ..Flat::default()
        };
        flat.fanin_start.push(0);
        for (g, &net) in topo.iter().enumerate() {
            let Node::Gate { kind, inputs } = &nodes[net.0 as usize] else {
                unreachable!("the topological order holds only gates");
            };
            flat.gate_of[net.0 as usize] = g as u32;
            flat.kinds.push(*kind);
            flat.fanin.extend(inputs.iter().map(|i| i.0));
            flat.fanin_start.push(flat.fanin.len() as u32);
        }
        flat.out = topo;
        // Fan-out CSR from the (net, reading gate) pairs, deduplicated so
        // a gate reading one net on two pins is one reader.
        let mut reads: Vec<(u32, u32)> = (0..flat.gate_count())
            .flat_map(|g| flat.gate_inputs(g).iter().map(move |&n| (n, g as u32)))
            .collect();
        reads.sort_unstable();
        reads.dedup();
        flat.fanout_start = vec![0; nodes.len() + 1];
        for &(n, _) in &reads {
            flat.fanout_start[n as usize + 1] += 1;
        }
        for n in 0..nodes.len() {
            flat.fanout_start[n + 1] += flat.fanout_start[n];
        }
        flat.fanout = reads.into_iter().map(|(_, g)| g).collect();
        for &o in outputs {
            flat.is_output[o.0 as usize] = true;
        }
        for (n, node) in nodes.iter().enumerate() {
            if let Node::Const(v) = node {
                flat.consts.push((n as u32, broadcast(*v)));
            }
        }
        flat.flops = dffs
            .iter()
            .map(|&q| match nodes[q.0 as usize] {
                Node::Dff { d, init } => Flop {
                    q: q.0,
                    d: d.0,
                    init,
                },
                _ => unreachable!("the flop list holds only flops"),
            })
            .collect();
        flat.build_regions();
        flat
    }

    /// Fills `region_slot` and `region_root`: counts the pins reading
    /// each net, then hands each member its reader's root, readers
    /// first (reverse gate order).
    fn build_regions(&mut self) {
        let nets = self.net_count();
        let mut reads = vec![0u32; nets];
        self.region_slot = vec![ROOT; nets];
        for (slot, &n) in self.fanin.iter().enumerate() {
            reads[n as usize] += 1;
            self.region_slot[n as usize] = slot as u32;
        }
        for flop in &self.flops {
            reads[flop.d as usize] += 1;
        }
        for (n, slot) in self.region_slot.iter_mut().enumerate() {
            if reads[n] != 1 || self.is_output[n] {
                *slot = ROOT;
            }
        }
        self.region_root = (0..nets as u32).collect();
        for g in (0..self.gate_count()).rev() {
            let root = self.region_root[self.out[g].0 as usize];
            for i in self.fanin_start[g] as usize..self.fanin_start[g + 1] as usize {
                let n = self.fanin[i] as usize;
                if self.region_slot[n] != ROOT {
                    self.region_root[n] = root;
                }
            }
        }
    }

    /// Number of nets.
    pub(crate) fn net_count(&self) -> usize {
        self.gate_of.len()
    }

    /// Number of gates.
    pub(crate) fn gate_count(&self) -> usize {
        self.kinds.len()
    }

    /// The fan-in nets of gate `g`, in pin order.
    #[inline]
    pub(crate) fn gate_inputs(&self, g: usize) -> &[u32] {
        &self.fanin[self.fanin_start[g] as usize..self.fanin_start[g + 1] as usize]
    }

    /// The gates reading net `n`.
    #[inline]
    pub(crate) fn readers(&self, n: u32) -> &[u32] {
        &self.fanout
            [self.fanout_start[n as usize] as usize..self.fanout_start[n as usize + 1] as usize]
    }

    /// The `(gate, slot)` reading region member `n`; `None` for a root.
    #[inline]
    pub(crate) fn region_reader(&self, n: u32) -> Option<(usize, usize)> {
        let slot = self.region_slot[n as usize];
        // A member has one reading slot, so one reading gate.
        (slot != ROOT).then(|| (self.readers(n)[0] as usize, slot as usize))
    }

    /// The lanes in which gate `g`'s output follows a flip of its fan-in
    /// `slot` while its other pins keep their `values` words: the AND of
    /// the other pins for AND/NAND, their NOR for OR/NOR, every lane for
    /// XOR/XNOR/NOT/BUF.
    #[inline]
    pub(crate) fn sensitivity(&self, g: usize, slot: usize, values: &[u64]) -> u64 {
        let first = self.fanin_start[g] as usize;
        let others = self
            .gate_inputs(g)
            .iter()
            .enumerate()
            .filter(|&(i, _)| first + i != slot)
            .map(|(_, &n)| values[n as usize]);
        match self.kinds[g] {
            GateKind::And | GateKind::Nand => others.fold(u64::MAX, |a, x| a & x),
            GateKind::Or | GateKind::Nor => !others.fold(0, |a, x| a | x),
            GateKind::Xor | GateKind::Xnor | GateKind::Not | GateKind::Buf => u64::MAX,
        }
    }

    /// Gate `g` over the current net words.
    #[inline]
    pub(crate) fn eval(&self, g: usize, values: &[u64]) -> u64 {
        apply(
            self.kinds[g],
            self.gate_inputs(g).iter().map(|&n| values[n as usize]),
        )
    }

    /// Gate `g` with each input word passed through `pin(slot, word)`.
    #[inline]
    pub(crate) fn eval_pins(
        &self,
        g: usize,
        values: &[u64],
        pin: impl Fn(usize, u64) -> u64,
    ) -> u64 {
        let first = self.fanin_start[g] as usize;
        apply(
            self.kinds[g],
            self.gate_inputs(g)
                .iter()
                .enumerate()
                .map(|(i, &n)| pin(first + i, values[n as usize])),
        )
    }

    /// Evaluates every gate in order; sources must already be set.
    pub(crate) fn sweep(&self, values: &mut [u64]) {
        for g in 0..self.gate_count() {
            values[self.out[g].0 as usize] = self.eval(g, values);
        }
    }

    /// Resolves a fault to its site. A fault naming a missing net, a
    /// non-gate pin or an out-of-range pin is [`Site::Inert`], matching
    /// the reference model, which never applies such a force.
    pub(crate) fn site(&self, fault: &Fault) -> Site {
        match fault.site {
            FaultSite::Net(n) if (n.0 as usize) < self.net_count() => Site::Net(n.0),
            FaultSite::Pin { gate, pin } if (gate.0 as usize) < self.net_count() => {
                let g = self.gate_of[gate.0 as usize];
                if g != NOT_A_GATE {
                    let g = g as usize;
                    let arity = self.fanin_start[g + 1] - self.fanin_start[g];
                    if pin < arity {
                        return Site::Pin {
                            gate: g as u32,
                            slot: self.fanin_start[g] + pin,
                        };
                    }
                    return Site::Inert;
                }
                match self.flops.iter().position(|f| f.q == gate.0) {
                    Some(i) if pin == 0 => Site::DPin(i as u32),
                    _ => Site::Inert,
                }
            }
            _ => Site::Inert,
        }
    }
}

/// The all-lanes word of a bit.
#[inline]
pub(crate) fn broadcast(bit: bool) -> u64 {
    if bit {
        u64::MAX
    } else {
        0
    }
}

/// Applies a gate function to its input words.
#[inline]
fn apply(kind: GateKind, words: impl Iterator<Item = u64>) -> u64 {
    match kind {
        GateKind::And | GateKind::Buf => words.fold(u64::MAX, |a, x| a & x),
        GateKind::Nand | GateKind::Not => !words.fold(u64::MAX, |a, x| a & x),
        GateKind::Or => words.fold(0, |a, x| a | x),
        GateKind::Nor => !words.fold(0, |a, x| a | x),
        GateKind::Xor => words.fold(0, |a, x| a ^ x),
        GateKind::Xnor => !words.fold(0, |a, x| a ^ x),
    }
}

#[cfg(test)]
mod tests {
    use crate::bench::{parse_bench, C17};
    use crate::fault::{full_faults, Fault, FaultSite};
    use crate::flat::Site;
    use crate::netlist::{GateKind, NetId, Netlist};

    #[test]
    fn csr_arrays_mirror_the_netlist() {
        let nl = parse_bench(C17, "c17").unwrap();
        let flat = nl.flat();
        assert_eq!(flat.gate_count(), nl.gate_count());
        assert_eq!(flat.net_count(), nl.net_count());
        let fanouts = nl.fanouts();
        for (g, &net) in nl.topo_order().iter().enumerate() {
            let crate::Node::Gate { inputs, kind } = nl.node(net) else {
                panic!("gate expected");
            };
            assert_eq!(flat.kinds[g], *kind);
            let ins: Vec<u32> = inputs.iter().map(|i| i.0).collect();
            assert_eq!(flat.gate_inputs(g), ins.as_slice());
        }
        for net in nl.nets() {
            // Same readers; the flat form lists them in gate order.
            let mut readers: Vec<u32> = flat
                .readers(net.0)
                .iter()
                .map(|&g| flat.out[g as usize].0)
                .collect();
            let mut expected: Vec<u32> = fanouts[net.0 as usize].iter().map(|n| n.0).collect();
            readers.sort_unstable();
            expected.sort_unstable();
            assert_eq!(readers, expected, "{}", nl.net_name(net));
            assert!(flat.readers(net.0).windows(2).all(|w| w[0] < w[1]));
            assert_eq!(flat.is_output[net.0 as usize], nl.outputs().contains(&net));
        }
    }

    #[test]
    fn a_gate_reading_one_net_twice_is_one_reader() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let y = nl.add_gate("y", GateKind::Xor, vec![a, a]);
        nl.mark_output(y);
        let nl = nl.freeze().unwrap();
        assert_eq!(nl.flat().readers(a.0), &[0]);
        assert_eq!(nl.flat().gate_inputs(0), &[a.0, a.0]);
    }

    /// Asserts that `net` is a region member read at pin `pin` of the
    /// gate driving `reader`, in the region rooted at `root`.
    fn assert_member(nl: &Netlist, net: NetId, reader: NetId, pin: u32, root: NetId) {
        let flat = nl.flat();
        let g = flat.out.iter().position(|&o| o == reader).unwrap();
        let slot = flat.fanin_start[g] as usize + pin as usize;
        assert_eq!(
            flat.region_reader(net.0),
            Some((g, slot)),
            "{}",
            nl.net_name(net)
        );
        assert_eq!(
            flat.region_root[net.0 as usize],
            root.0,
            "{}",
            nl.net_name(net)
        );
    }

    /// Asserts that `net` is the root of its own region.
    fn assert_root(nl: &Netlist, net: NetId) {
        let flat = nl.flat();
        assert_eq!(flat.region_reader(net.0), None, "{}", nl.net_name(net));
        assert_eq!(
            flat.region_root[net.0 as usize],
            net.0,
            "{}",
            nl.net_name(net)
        );
    }

    #[test]
    fn regions_end_at_outputs_shared_nets_and_unread_nets() {
        let mut nl = Netlist::new("regions");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let k = nl.add_const("k", true);
        // A constant and an input read once each.
        let x = nl.add_gate("x", GateKind::And, vec![k, a]);
        nl.mark_output(x);
        // `x` is an output that also feeds a gate; `b` sits on two pins.
        let y = nl.add_gate("y", GateKind::Or, vec![x, b, b]);
        nl.mark_output(y);
        // `u` is read by no slot.
        let u = nl.add_gate("u", GateKind::Not, vec![y]);
        // An inverter chain up to an output.
        let n1 = nl.add_gate("n1", GateKind::Not, vec![c]);
        let n2 = nl.add_gate("n2", GateKind::Not, vec![n1]);
        let n3 = nl.add_gate("n3", GateKind::Not, vec![n2]);
        nl.mark_output(n3);
        let nl = nl.freeze().unwrap();
        assert_member(&nl, k, x, 0, x);
        assert_member(&nl, a, x, 1, x);
        for root in [x, b, y, u, n3] {
            assert_root(&nl, root);
        }
        assert_member(&nl, c, n1, 0, n3);
        assert_member(&nl, n1, n2, 0, n3);
        assert_member(&nl, n2, n3, 0, n3);
    }

    #[test]
    fn a_net_a_flop_reads_is_a_root() {
        let src = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nq = DFF(d)\nd = AND(a, q)\ne = NOT(b)\np = DFF(e)\ny = OR(e, p)\n";
        let nl = parse_bench(src, "t").unwrap();
        let net = |name: &str| nl.net_by_name(name).unwrap();
        // `d` feeds only a flop; `e` feeds a gate and a flop.
        assert_root(&nl, net("d"));
        assert_root(&nl, net("e"));
        assert_member(&nl, net("a"), net("d"), 0, net("d"));
        assert_member(&nl, net("b"), net("e"), 0, net("e"));
    }

    #[test]
    fn a_pin_is_sensitive_where_its_gate_passes_a_flip() {
        let mut nl = Netlist::new("t");
        let ins: Vec<NetId> = (0..3).map(|i| nl.add_input(format!("i{i}"))).collect();
        let kinds = [
            GateKind::And,
            GateKind::Nand,
            GateKind::Or,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
        ];
        for (i, kind) in kinds.into_iter().enumerate() {
            let g = nl.add_gate(format!("g{i}"), kind, ins.clone());
            nl.mark_output(g);
        }
        let nl = nl.freeze().unwrap();
        let flat = nl.flat();
        let mut values = vec![0u64; flat.net_count()];
        let words = [0b1100u64, 0b1010, 0b0110];
        for (&net, &word) in ins.iter().zip(&words) {
            values[net.0 as usize] = word;
        }
        // Pin 0 of each gate, with the other two pins at their words.
        for g in 0..flat.gate_count() {
            let expected = match flat.kinds[g] {
                GateKind::And | GateKind::Nand => words[1] & words[2],
                GateKind::Or | GateKind::Nor => !(words[1] | words[2]),
                _ => u64::MAX,
            };
            let slot = flat.fanin_start[g] as usize;
            assert_eq!(
                flat.sensitivity(g, slot, &values),
                expected,
                "{:?}",
                flat.kinds[g]
            );
        }
    }

    #[test]
    fn every_universe_fault_has_a_live_site() {
        let src = "INPUT(a)\nOUTPUT(q)\nq = DFF(d)\nd = AND(a, q)\ny = NOT(q)\nOUTPUT(y)\n";
        let nl = parse_bench(src, "t").unwrap();
        for fault in full_faults(&nl) {
            assert_ne!(
                nl.flat().site(&fault),
                Site::Inert,
                "{}",
                fault.describe(&nl)
            );
        }
        let q = nl.net_by_name("q").unwrap();
        let pin = |gate: NetId, pin: u32| Fault {
            site: FaultSite::Pin { gate, pin },
            stuck_at_one: false,
        };
        assert_eq!(nl.flat().site(&pin(q, 0)), Site::DPin(0));
        // Sites the reference model would never force.
        for inert in [
            pin(q, 1),
            pin(nl.net_by_name("a").unwrap(), 0),
            pin(nl.net_by_name("y").unwrap(), 1),
            pin(NetId(99), 0),
            Fault::net_sa1(NetId(99)),
        ] {
            assert_eq!(nl.flat().site(&inert), Site::Inert, "{inert}");
        }
    }
}
