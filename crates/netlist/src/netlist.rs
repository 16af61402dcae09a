//! Gate-level netlist data structure.
//!
//! The model follows the ISCAS `.bench` convention: a circuit is a set of
//! *nets*, each driven by exactly one node — a primary input, a constant,
//! a logic gate over other nets, or a D flip-flop. Primary outputs are
//! nets marked as observable.

use crate::flat::Flat;
use std::collections::HashMap;
use std::fmt;

/// Identity of a net (and of the node driving it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub u32);

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "net{}", self.0)
    }
}

/// Logic gate function. All gates except [`GateKind::Not`] and
/// [`GateKind::Buf`] accept two or more inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateKind {
    /// n-input AND.
    And,
    /// n-input OR.
    Or,
    /// n-input NAND.
    Nand,
    /// n-input NOR.
    Nor,
    /// n-input XOR (odd parity).
    Xor,
    /// n-input XNOR (even parity).
    Xnor,
    /// Inverter.
    Not,
    /// Buffer.
    Buf,
}

impl GateKind {
    /// The `.bench` keyword for this gate.
    pub fn bench_name(self) -> &'static str {
        match self {
            GateKind::And => "AND",
            GateKind::Or => "OR",
            GateKind::Nand => "NAND",
            GateKind::Nor => "NOR",
            GateKind::Xor => "XOR",
            GateKind::Xnor => "XNOR",
            GateKind::Not => "NOT",
            GateKind::Buf => "BUFF",
        }
    }

    /// `true` when the gate output is the complement of the same gate
    /// without inversion (NAND/NOR/XNOR/NOT).
    pub fn is_inverting(self) -> bool {
        matches!(
            self,
            GateKind::Nand | GateKind::Nor | GateKind::Xnor | GateKind::Not
        )
    }

    /// The controlling input value, if the gate has one (AND/NAND → 0,
    /// OR/NOR → 1). XOR-family and unary gates have none.
    pub fn controlling_value(self) -> Option<bool> {
        match self {
            GateKind::And | GateKind::Nand => Some(false),
            GateKind::Or | GateKind::Nor => Some(true),
            _ => None,
        }
    }

    /// Evaluates the gate over 64-pattern words.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty.
    pub fn eval_words(self, inputs: &[u64]) -> u64 {
        assert!(!inputs.is_empty(), "gate with no inputs");
        match self {
            GateKind::And => inputs.iter().fold(u64::MAX, |acc, &x| acc & x),
            GateKind::Or => inputs.iter().fold(0, |acc, &x| acc | x),
            GateKind::Nand => !inputs.iter().fold(u64::MAX, |acc, &x| acc & x),
            GateKind::Nor => !inputs.iter().fold(0, |acc, &x| acc | x),
            GateKind::Xor => inputs.iter().fold(0, |acc, &x| acc ^ x),
            GateKind::Xnor => !inputs.iter().fold(0, |acc, &x| acc ^ x),
            GateKind::Not => !inputs[0],
            GateKind::Buf => inputs[0],
        }
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.bench_name())
    }
}

/// The node driving a net.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// Primary input.
    Input,
    /// Constant 0 or 1.
    Const(bool),
    /// Logic gate over other nets.
    Gate {
        /// Gate function.
        kind: GateKind,
        /// Input nets (pin order matters for fault sites).
        inputs: Vec<NetId>,
    },
    /// D flip-flop: samples `d` on the clock edge; powers up at `init`.
    Dff {
        /// Data input net (`NetId::MAX`-sentinel until connected).
        d: NetId,
        /// Power-on state.
        init: bool,
    },
}

/// Error validating or building a [`Netlist`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistError {
    /// A gate or flop references a net that does not exist.
    DanglingNet {
        /// The referencing net.
        at: String,
    },
    /// A D flip-flop's data input was never connected.
    UnconnectedDff {
        /// The flop's output net name.
        name: String,
    },
    /// The combinational core contains a cycle.
    CombinationalLoop {
        /// A net on the cycle.
        on: String,
    },
    /// A net name is used twice.
    DuplicateName {
        /// The offending name.
        name: String,
    },
    /// A gate has too few inputs for its kind.
    BadArity {
        /// The gate's output net name.
        name: String,
    },
    /// An output refers to an unknown net.
    UnknownOutput {
        /// The name given.
        name: String,
    },
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::DanglingNet { at } => write!(f, "dangling net reference at `{at}`"),
            NetlistError::UnconnectedDff { name } => {
                write!(f, "flip-flop `{name}` has no data input")
            }
            NetlistError::CombinationalLoop { on } => {
                write!(f, "combinational loop through `{on}`")
            }
            NetlistError::DuplicateName { name } => write!(f, "duplicate net name `{name}`"),
            NetlistError::BadArity { name } => write!(f, "too few gate inputs at `{name}`"),
            NetlistError::UnknownOutput { name } => write!(f, "unknown output net `{name}`"),
        }
    }
}

impl std::error::Error for NetlistError {}

/// Sentinel for a not-yet-connected flop input.
const UNCONNECTED: NetId = NetId(u32::MAX);

/// A gate-level circuit.
///
/// Build with the `add_*` methods, connect any forward-referenced flop
/// inputs, then call [`Netlist::freeze`] to validate and compute the
/// evaluation order. Analysis accessors panic on an unfrozen netlist.
///
/// # Examples
///
/// ```
/// use musa_netlist::{GateKind, Netlist};
///
/// let mut nl = Netlist::new("toy");
/// let a = nl.add_input("a");
/// let b = nl.add_input("b");
/// let g = nl.add_gate("g", GateKind::Nand, vec![a, b]);
/// nl.mark_output(g);
/// let nl = nl.freeze()?;
/// assert_eq!(nl.gate_count(), 1);
/// assert!(nl.is_combinational());
/// # Ok::<(), musa_netlist::NetlistError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Netlist {
    name: String,
    nodes: Vec<Node>,
    names: Vec<String>,
    by_name: HashMap<String, NetId>,
    inputs: Vec<NetId>,
    outputs: Vec<NetId>,
    dffs: Vec<NetId>,
    /// The compiled form the fault simulators run on, holding the
    /// topological gate order; built by `freeze`.
    flat: Flat,
    frozen: bool,
}

impl Netlist {
    /// Creates an empty netlist.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            nodes: Vec::new(),
            names: Vec::new(),
            by_name: HashMap::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            dffs: Vec::new(),
            flat: Flat::default(),
            frozen: false,
        }
    }

    fn push(&mut self, name: String, node: Node) -> NetId {
        let id = NetId(self.nodes.len() as u32);
        self.by_name.insert(name.clone(), id);
        self.names.push(name);
        self.nodes.push(node);
        self.frozen = false;
        id
    }

    /// Adds a primary input net.
    pub fn add_input(&mut self, name: impl Into<String>) -> NetId {
        let id = self.push(name.into(), Node::Input);
        self.inputs.push(id);
        id
    }

    /// Adds a constant net.
    pub fn add_const(&mut self, name: impl Into<String>, value: bool) -> NetId {
        self.push(name.into(), Node::Const(value))
    }

    /// Adds a gate net.
    pub fn add_gate(&mut self, name: impl Into<String>, kind: GateKind, inputs: Vec<NetId>) -> NetId {
        self.push(name.into(), Node::Gate { kind, inputs })
    }

    /// Adds a D flip-flop whose data input will be connected later via
    /// [`Netlist::connect_dff`].
    pub fn add_dff(&mut self, name: impl Into<String>, init: bool) -> NetId {
        let id = self.push(
            name.into(),
            Node::Dff {
                d: UNCONNECTED,
                init,
            },
        );
        self.dffs.push(id);
        id
    }

    /// Connects the data input of a flop created by [`Netlist::add_dff`].
    ///
    /// # Panics
    ///
    /// Panics if `ff` is not a flip-flop net.
    pub fn connect_dff(&mut self, ff: NetId, d: NetId) {
        match &mut self.nodes[ff.0 as usize] {
            Node::Dff { d: slot, .. } => *slot = d,
            _ => panic!("{ff} is not a flip-flop"),
        }
        self.frozen = false;
    }

    /// Marks a net as a primary output.
    pub fn mark_output(&mut self, net: NetId) {
        self.outputs.push(net);
        self.frozen = false;
    }

    /// Validates the netlist, computes the evaluation order and builds
    /// the flat levelized form the fault simulators run on (CSR fan-in
    /// and fan-out over gates in that order, and each net's fanout-free
    /// region; O(nets) words).
    ///
    /// # Errors
    ///
    /// Returns a [`NetlistError`] for dangling references, unconnected
    /// flops, duplicate names, bad gate arity or combinational loops.
    pub fn freeze(mut self) -> Result<Self, NetlistError> {
        // Duplicate names.
        if self.by_name.len() != self.names.len() {
            let mut seen = HashMap::new();
            for name in &self.names {
                if seen.insert(name.clone(), ()).is_some() {
                    return Err(NetlistError::DuplicateName { name: name.clone() });
                }
            }
        }
        let n = self.nodes.len() as u32;
        for (i, node) in self.nodes.iter().enumerate() {
            match node {
                Node::Gate { kind, inputs } => {
                    let min = match kind {
                        GateKind::Not | GateKind::Buf => 1,
                        _ => 2,
                    };
                    if inputs.len() < min
                        || (matches!(kind, GateKind::Not | GateKind::Buf) && inputs.len() != 1)
                    {
                        return Err(NetlistError::BadArity {
                            name: self.names[i].clone(),
                        });
                    }
                    if inputs.iter().any(|x| x.0 >= n) {
                        return Err(NetlistError::DanglingNet {
                            at: self.names[i].clone(),
                        });
                    }
                }
                Node::Dff { d, .. } => {
                    if *d == UNCONNECTED {
                        return Err(NetlistError::UnconnectedDff {
                            name: self.names[i].clone(),
                        });
                    }
                    if d.0 >= n {
                        return Err(NetlistError::DanglingNet {
                            at: self.names[i].clone(),
                        });
                    }
                }
                Node::Input | Node::Const(_) => {}
            }
        }
        for &out in &self.outputs {
            if out.0 >= n {
                return Err(NetlistError::UnknownOutput {
                    name: format!("{out}"),
                });
            }
        }

        // Kahn's algorithm over the combinational core. Flip-flop outputs
        // act as sources; flip-flop *inputs* are sinks (no edge).
        let mut in_degree = vec![0usize; self.nodes.len()];
        let mut dependents: Vec<Vec<u32>> = vec![Vec::new(); self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            if let Node::Gate { inputs, .. } = node {
                for input in inputs {
                    dependents[input.0 as usize].push(i as u32);
                    in_degree[i] += 1;
                }
            }
        }
        let mut ready: Vec<u32> = (0..self.nodes.len() as u32)
            .filter(|&i| in_degree[i as usize] == 0)
            .collect();
        let mut topo = Vec::new();
        let mut visited = 0usize;
        while let Some(next) = ready.pop() {
            visited += 1;
            if matches!(self.nodes[next as usize], Node::Gate { .. }) {
                topo.push(NetId(next));
            }
            for &d in &dependents[next as usize] {
                in_degree[d as usize] -= 1;
                if in_degree[d as usize] == 0 {
                    ready.push(d);
                }
            }
        }
        if visited != self.nodes.len() {
            let on = in_degree
                .iter()
                .position(|&d| d > 0)
                .map(|i| self.names[i].clone())
                .unwrap_or_default();
            return Err(NetlistError::CombinationalLoop { on });
        }
        self.flat = Flat::build(&self.nodes, topo, &self.outputs, &self.dffs);
        self.frozen = true;
        Ok(self)
    }

    /// The circuit name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nets (including inputs, constants and flops).
    pub fn net_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of logic gates.
    pub fn gate_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::Gate { .. }))
            .count()
    }

    /// Number of D flip-flops.
    pub fn dff_count(&self) -> usize {
        self.dffs.len()
    }

    /// `true` when the circuit has no flip-flops.
    pub fn is_combinational(&self) -> bool {
        self.dffs.is_empty()
    }

    /// Primary inputs, in declaration order.
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// Primary outputs, in declaration order.
    pub fn outputs(&self) -> &[NetId] {
        &self.outputs
    }

    /// Flip-flop output nets, in declaration order.
    pub fn dffs(&self) -> &[NetId] {
        &self.dffs
    }

    /// The node driving a net.
    pub fn node(&self, net: NetId) -> &Node {
        &self.nodes[net.0 as usize]
    }

    /// The name of a net.
    pub fn net_name(&self, net: NetId) -> &str {
        &self.names[net.0 as usize]
    }

    /// Looks a net up by name.
    pub fn net_by_name(&self, name: &str) -> Option<NetId> {
        self.by_name.get(name).copied()
    }

    /// All nets in id order.
    pub fn nets(&self) -> impl Iterator<Item = NetId> + '_ {
        (0..self.nodes.len() as u32).map(NetId)
    }

    /// Gate nets in evaluation (topological) order.
    ///
    /// # Panics
    ///
    /// Panics if the netlist was not frozen.
    pub fn topo_order(&self) -> &[NetId] {
        &self.flat().out
    }

    /// The flat levelized form built by `freeze`.
    ///
    /// # Panics
    ///
    /// Panics if the netlist was not frozen.
    pub(crate) fn flat(&self) -> &Flat {
        assert!(self.frozen, "netlist must be frozen first");
        &self.flat
    }

    /// Fan-out table: for every net, the nets of the gates/flops reading it.
    pub fn fanouts(&self) -> Vec<Vec<NetId>> {
        let mut fanouts = vec![Vec::new(); self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            match node {
                Node::Gate { inputs, .. } => {
                    for input in inputs {
                        fanouts[input.0 as usize].push(NetId(i as u32));
                    }
                }
                Node::Dff { d, .. } => fanouts[d.0 as usize].push(NetId(i as u32)),
                _ => {}
            }
        }
        fanouts
    }

    /// Removes nets that cannot reach any primary output: dead gates,
    /// unread constants and unread flip-flops. Primary inputs are always
    /// kept (interface contract). Returns a fresh, unfrozen netlist.
    ///
    /// Synthesis runs this sweep so the fault universe contains no
    /// unobservable-by-construction sites.
    pub fn sweep_dead(&self) -> Netlist {
        // Mark everything reachable backwards from the outputs.
        let mut live = vec![false; self.nodes.len()];
        let mut stack: Vec<NetId> = self.outputs.clone();
        while let Some(net) = stack.pop() {
            let slot = net.0 as usize;
            if live[slot] {
                continue;
            }
            live[slot] = true;
            match &self.nodes[slot] {
                Node::Gate { inputs, .. } => stack.extend(inputs.iter().copied()),
                Node::Dff { d, .. } => stack.push(*d),
                Node::Input | Node::Const(_) => {}
            }
        }
        for &input in &self.inputs {
            live[input.0 as usize] = true;
        }
        // Precompute the id map (insertion order preserves ids even for
        // forward references, which are legal around flip-flops).
        let mut remap: HashMap<NetId, NetId> = HashMap::new();
        let mut counter = 0u32;
        for net in self.nets() {
            if live[net.0 as usize] {
                remap.insert(net, NetId(counter));
                counter += 1;
            }
        }
        let mut swept = Netlist::new(self.name.clone());
        for net in self.nets() {
            if !live[net.0 as usize] {
                continue;
            }
            let name = self.names[net.0 as usize].clone();
            let new = match &self.nodes[net.0 as usize] {
                Node::Input => swept.add_input(name),
                Node::Const(v) => swept.add_const(name, *v),
                Node::Dff { init, .. } => swept.add_dff(name, *init),
                Node::Gate { kind, inputs } => {
                    // Live gates only read live nets (reachability is
                    // transitive).
                    let mapped = inputs.iter().map(|i| remap[i]).collect();
                    swept.add_gate(name, *kind, mapped)
                }
            };
            debug_assert_eq!(new, remap[&net], "sweep id mapping must agree");
        }
        for net in self.nets() {
            if let (true, Node::Dff { d, .. }) = (live[net.0 as usize], &self.nodes[net.0 as usize]) {
                swept.connect_dff(remap[&net], remap[d]);
            }
        }
        for &output in &self.outputs {
            swept.mark_output(remap[&output]);
        }
        swept
    }

    /// Logic depth: the longest input→output gate path.
    pub fn depth(&self) -> usize {
        assert!(self.frozen, "netlist must be frozen first");
        let mut level = vec![0usize; self.nodes.len()];
        for &g in &self.flat.out {
            if let Node::Gate { inputs, .. } = self.node(g) {
                level[g.0 as usize] = inputs
                    .iter()
                    .map(|i| level[i.0 as usize])
                    .max()
                    .unwrap_or(0)
                    + 1;
            }
        }
        level.into_iter().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_gate() -> Netlist {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g1 = nl.add_gate("g1", GateKind::And, vec![a, b]);
        let g2 = nl.add_gate("g2", GateKind::Not, vec![g1]);
        nl.mark_output(g2);
        nl
    }

    #[test]
    fn builds_and_freezes() {
        let nl = two_gate().freeze().unwrap();
        assert_eq!(nl.net_count(), 4);
        assert_eq!(nl.gate_count(), 2);
        assert_eq!(nl.dff_count(), 0);
        assert!(nl.is_combinational());
        assert_eq!(nl.depth(), 2);
        assert_eq!(nl.topo_order().len(), 2);
    }

    #[test]
    fn topo_order_respects_dependencies() {
        let nl = two_gate().freeze().unwrap();
        let topo = nl.topo_order();
        let pos = |name: &str| {
            topo.iter()
                .position(|&n| nl.net_name(n) == name)
                .unwrap()
        };
        assert!(pos("g1") < pos("g2"));
    }

    #[test]
    fn dff_breaks_cycles() {
        let mut nl = Netlist::new("flop");
        let _clk_free = nl.add_input("en");
        let q = nl.add_dff("q", false);
        let d = nl.add_gate("d", GateKind::Not, vec![q]);
        nl.connect_dff(q, d);
        nl.mark_output(q);
        let nl = nl.freeze().unwrap();
        assert_eq!(nl.dff_count(), 1);
        assert!(!nl.is_combinational());
    }

    #[test]
    fn detects_combinational_loop() {
        let mut nl = Netlist::new("loop");
        let a = nl.add_input("a");
        // g1 and g2 feed each other.
        let g1 = nl.add_gate("g1", GateKind::And, vec![a, NetId(2)]);
        let g2 = nl.add_gate("g2", GateKind::Or, vec![g1, a]);
        let _ = g2;
        nl.mark_output(g1);
        assert!(matches!(
            nl.freeze(),
            Err(NetlistError::CombinationalLoop { .. })
        ));
    }

    #[test]
    fn detects_unconnected_dff() {
        let mut nl = Netlist::new("bad");
        let _q = nl.add_dff("q", false);
        assert!(matches!(
            nl.freeze(),
            Err(NetlistError::UnconnectedDff { .. })
        ));
    }

    #[test]
    fn detects_bad_arity() {
        let mut nl = Netlist::new("bad");
        let a = nl.add_input("a");
        nl.add_gate("g", GateKind::And, vec![a]);
        assert!(matches!(nl.freeze(), Err(NetlistError::BadArity { .. })));

        let mut nl = Netlist::new("bad2");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        nl.add_gate("g", GateKind::Not, vec![a, b]);
        assert!(matches!(nl.freeze(), Err(NetlistError::BadArity { .. })));
    }

    #[test]
    fn detects_duplicate_name() {
        let mut nl = Netlist::new("dup");
        nl.add_input("a");
        nl.add_input("a");
        assert!(matches!(
            nl.freeze(),
            Err(NetlistError::DuplicateName { .. })
        ));
    }

    #[test]
    fn gate_eval_words() {
        let a = 0b1100u64;
        let b = 0b1010u64;
        assert_eq!(GateKind::And.eval_words(&[a, b]) & 0xF, 0b1000);
        assert_eq!(GateKind::Or.eval_words(&[a, b]) & 0xF, 0b1110);
        assert_eq!(GateKind::Nand.eval_words(&[a, b]) & 0xF, 0b0111);
        assert_eq!(GateKind::Nor.eval_words(&[a, b]) & 0xF, 0b0001);
        assert_eq!(GateKind::Xor.eval_words(&[a, b]) & 0xF, 0b0110);
        assert_eq!(GateKind::Xnor.eval_words(&[a, b]) & 0xF, 0b1001);
        assert_eq!(GateKind::Not.eval_words(&[a]) & 0xF, 0b0011);
        assert_eq!(GateKind::Buf.eval_words(&[a]) & 0xF, 0b1100);
    }

    #[test]
    fn gate_eval_multi_input() {
        let w = [0b1111u64, 0b1100, 0b1010];
        assert_eq!(GateKind::And.eval_words(&w) & 0xF, 0b1000);
        assert_eq!(GateKind::Xor.eval_words(&w) & 0xF, 0b1001);
    }

    #[test]
    fn controlling_values() {
        assert_eq!(GateKind::And.controlling_value(), Some(false));
        assert_eq!(GateKind::Nor.controlling_value(), Some(true));
        assert_eq!(GateKind::Xor.controlling_value(), None);
    }

    #[test]
    fn fanout_table() {
        let nl = two_gate().freeze().unwrap();
        let fanouts = nl.fanouts();
        let a = nl.net_by_name("a").unwrap();
        let g1 = nl.net_by_name("g1").unwrap();
        assert_eq!(fanouts[a.0 as usize], vec![g1]);
        assert_eq!(fanouts[g1.0 as usize].len(), 1);
    }

    #[test]
    fn name_lookup() {
        let nl = two_gate().freeze().unwrap();
        let g1 = nl.net_by_name("g1").unwrap();
        assert_eq!(nl.net_name(g1), "g1");
        assert!(nl.net_by_name("zz").is_none());
    }

    #[test]
    fn sweep_removes_dead_logic() {
        let mut nl = Netlist::new("dead");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let _orphan_const = nl.add_const("k0", false);
        let dead = nl.add_gate("dead", GateKind::And, vec![a, b]);
        let _deader = nl.add_gate("deader", GateKind::Not, vec![dead]);
        let live = nl.add_gate("live", GateKind::Or, vec![a, b]);
        nl.mark_output(live);
        let swept = nl.sweep_dead().freeze().unwrap();
        assert_eq!(swept.gate_count(), 1);
        assert_eq!(swept.inputs().len(), 2, "inputs always survive");
        assert!(swept.net_by_name("k0").is_none());
        assert!(swept.net_by_name("dead").is_none());
        assert!(swept.net_by_name("live").is_some());
    }

    #[test]
    fn sweep_keeps_flop_feedback_and_forward_refs() {
        // q = DFF(d); d computed from q (declared after q).
        let mut nl = Netlist::new("fb");
        let en = nl.add_input("en");
        let q = nl.add_dff("q", true);
        let d = nl.add_gate("d", GateKind::Xor, vec![q, en]);
        nl.connect_dff(q, d);
        nl.mark_output(q);
        let _dead = nl.add_gate("dead", GateKind::Not, vec![en]);
        let swept = nl.sweep_dead().freeze().unwrap();
        assert_eq!(swept.dff_count(), 1);
        assert_eq!(swept.gate_count(), 1);
        // Behaviour preserved: toggles from init=1.
        let mut sim = crate::sim::LogicSim::new(&swept);
        let none = crate::sim::Injections::none();
        let q0 = sim.step_broadcast(&[true], &none)[0] & 1;
        let q1 = sim.step_broadcast(&[true], &none)[0] & 1;
        assert_eq!((q0, q1), (1, 0));
    }

    #[test]
    fn sweep_preserves_live_everything() {
        let nl = two_gate().freeze().unwrap();
        let swept = nl.sweep_dead().freeze().unwrap();
        assert_eq!(swept.gate_count(), nl.gate_count());
        assert_eq!(swept.net_count(), nl.net_count());
    }
}
