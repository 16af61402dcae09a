//! Dominance-based fault-list reduction.
//!
//! Fault `f` **dominates** fault `g` when every test detecting `g` also
//! detects `f`. The classic structural source of dominance is the
//! gate-local rule complementary to equivalence collapsing: for a gate
//! with a controlling input value `c`, the output fault whose effect a
//! single controlling input produces dominates every input fault stuck
//! at the non-controlling value:
//!
//! | gate | dominated input fault | dominating output fault |
//! |------|-----------------------|-------------------------|
//! | AND  | s-a-1                 | s-a-1                   |
//! | NAND | s-a-1                 | s-a-0                   |
//! | OR   | s-a-0                 | s-a-0                   |
//! | NOR  | s-a-0                 | s-a-1                   |
//!
//! (NOT/BUF/DFF-D input faults are *equivalent* to their output faults
//! and are already merged by [`crate::collapse`]; XOR-family gates have
//! neither equivalences nor dominances.)
//!
//! [`reduce_faults`] composes these rules over the equivalence classes
//! of the full fault universe — chains of dominating faults through a
//! fanout-free region resolve transitively down to the region's
//! *checkpoint* faults — and plans, for each fault of a collapsed list,
//! how the reduced engine handles it:
//!
//! * a *kept* fault is simulated and its first-detection index is exact;
//! * an **observed** fault — a stem on a net with a NOT/BUF-only path
//!   to a primary output — is unobservable before excitation and
//!   observed the moment it is excited, so its exact first-detection
//!   index (or undetected verdict) falls out of the good-machine
//!   output trace without any lane, sequential or not;
//! * a *dropped* (dominating) fault is detected whenever one of its
//!   dominated representatives is detected — by dominance, the same
//!   test prefix detects it — and is credited the earliest such index
//!   (an upper bound on its true first detection);
//! * a dropped fault none of whose representatives were detected is
//!   **residually simulated** by
//!   [`crate::fault_simulate_sessions_reduced`], so its
//!   detected/undetected verdict is never guessed.
//!
//! The guarantee, therefore: reduced simulation reports the **same
//! detected/undetected verdict — hence the same final coverage and
//! detected count — for every fault of the collapsed list** as full
//! simulation, while only representatives and residuals occupy lanes.
//! For combinational circuits this is the single-fault dominance
//! theorem. For sequential circuits the per-vector theorem does *not*
//! lift across time frames in general — a dominating fault that
//! corrupts state can mask itself in later frames while the dominated
//! fault still propagates (b03 exhibits exactly this) — so dominance
//! edges are only emitted for gates whose fault effects cannot reach
//! any flip-flop data input. With a state-free cone no machine's state
//! ever diverges from the good machine's, every frame reduces to the
//! combinational theorem over shared state, and the verdict guarantee
//! is restored unconditionally. First-detection *indices* of credited
//! faults are upper bounds, so pipelines that read coverage-curve
//! interiors (the pseudo-random baseline of `musa_core`, the E2 curve
//! dumps) keep full simulation.

use crate::fault::{effective_input_fault, equivalence_union, full_faults};
use crate::netlist::{GateKind, Netlist, Node};
use crate::{Fault, FaultSite, NetId};
use std::collections::HashMap;

/// How one fault of a reduced list is handled by the simulation
/// engines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultPlan {
    /// The fault occupies a simulation lane; its result is exact.
    Simulate,
    /// The fault is dropped from the lanes: it is detected whenever one
    /// of the listed faults (indices into the reduced list, each a
    /// [`FaultPlan::Simulate`] or [`FaultPlan::Observe`] entry) is
    /// detected, and credited the earliest such first-detection index.
    /// If none is detected it is residually simulated.
    Credit(Vec<usize>),
    /// A stem fault on a net with an unconditional (NOT/BUF-only) path
    /// to a primary output: it cannot be observed before it is excited,
    /// and at first excitation that output shows it immediately, so its
    /// exact first-detection index is the first vector where the good
    /// machine's output reads `expect` — no lane needed, even for the
    /// undetected verdict.
    Observe {
        /// Index into `Netlist::outputs()` of the observing output.
        output: usize,
        /// The good-machine value at that output that marks detection
        /// (the stuck value complemented, adjusted by path inversions).
        expect: bool,
    },
}

/// A dominance-reduced fault list: the caller's faults plus a per-fault
/// simulation plan. Build with [`reduce_faults`], simulate with
/// [`crate::fault_simulate_sessions_reduced`].
#[derive(Debug, Clone)]
pub struct FaultReduction {
    faults: Vec<Fault>,
    plan: Vec<FaultPlan>,
    simulated: usize,
}

impl FaultReduction {
    /// The full fault list, in the caller's order.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// The plan for fault `i`.
    pub fn plan(&self, i: usize) -> &FaultPlan {
        &self.plan[i]
    }

    /// Number of faults in the list.
    pub fn total(&self) -> usize {
        self.faults.len()
    }

    /// Number of faults that always occupy a simulation lane
    /// ([`FaultPlan::Simulate`] entries). Residuals come on top of this
    /// per run, so a run's `faults_simulated` lies in
    /// `simulated_count() ..= total()`.
    pub fn simulated_count(&self) -> usize {
        self.simulated
    }

    /// Number of dropped (credited or observed) faults.
    pub fn dropped_count(&self) -> usize {
        self.faults.len() - self.simulated
    }

    /// Number of faults resolved by direct output observation
    /// ([`FaultPlan::Observe`]): their exact result comes from the
    /// good-machine trace, never from a lane.
    pub fn observed_count(&self) -> usize {
        self.plan
            .iter()
            .filter(|p| matches!(p, FaultPlan::Observe { .. }))
            .count()
    }

    /// Indices of the always-simulated faults, ascending.
    pub fn simulated_indices(&self) -> Vec<usize> {
        (0..self.faults.len())
            .filter(|&i| self.plan[i] == FaultPlan::Simulate)
            .collect()
    }
}

/// Plans a dominance reduction of `faults` (normally the collapsed list
/// of [`crate::collapsed_faults`]) over the netlist's structure.
///
/// Faults outside the standard universe of [`full_faults`] are kept as
/// [`FaultPlan::Simulate`] untouched, so the function is safe on any
/// list. Duplicate structurally-equivalent entries (an uncollapsed
/// input list) are credited from their first listed class member, which
/// is time-exact.
pub fn reduce_faults(nl: &Netlist, faults: &[Fault]) -> FaultReduction {
    let _trace = musa_trace::span("fault_plan");
    let universe = full_faults(nl);
    let uid: HashMap<Fault, usize> = universe
        .iter()
        .enumerate()
        .map(|(i, &f)| (f, i))
        .collect();
    let mut uf = equivalence_union(nl, &universe);

    // Map each equivalence class (by universe root) to the first input
    // fault carrying it.
    let mut class_to_input: HashMap<usize, usize> = HashMap::new();
    // Per input index: the class root, when the fault is in the universe.
    let roots: Vec<Option<usize>> = faults
        .iter()
        .map(|f| uid.get(f).map(|&u| uf.find(u)))
        .collect();
    for (i, root) in roots.iter().enumerate() {
        if let Some(root) = *root {
            class_to_input.entry(root).or_insert(i);
        }
    }

    // Nets whose fault effects can reach a flip-flop data input. The
    // per-time-frame dominance argument needs the dominating gate's
    // cone to stay state-free: once a fault effect can corrupt state,
    // a dominating fault may mask itself across frames while the
    // dominated fault still propagates (observed on b03), so such
    // gates emit no edges. Combinational circuits mark nothing.
    let mut stateful = vec![false; nl.net_count()];
    let mut stack: Vec<crate::NetId> = nl
        .nets()
        .filter_map(|n| match nl.node(n) {
            Node::Dff { d, .. } => Some(*d),
            _ => None,
        })
        .collect();
    while let Some(n) = stack.pop() {
        if stateful[n.0 as usize] {
            continue;
        }
        stateful[n.0 as usize] = true;
        if let Node::Gate { inputs, .. } = nl.node(n) {
            stack.extend(inputs.iter().copied());
        }
    }

    // Gate-local dominance edges between classes: dominating class root
    // -> dominated class roots (deduplicated, deterministic order).
    let fanouts = nl.fanouts();
    let mut dominated_of: HashMap<usize, Vec<usize>> = HashMap::new();
    for net in nl.nets() {
        let Node::Gate { kind, inputs } = nl.node(net) else {
            continue;
        };
        if stateful[net.0 as usize] {
            continue; // effects can enter state: dominance not sound
        }
        let Some(controlling) = kind.controlling_value() else {
            continue; // XOR-family and unary gates: no dominance.
        };
        // A single controlling input forces the output to `c` (then the
        // inversion, for NAND/NOR); the dominating output fault is the
        // one showing the opposite value.
        let forced_output = controlling ^ kind.is_inverting();
        let dominating = Fault {
            site: crate::FaultSite::Net(net),
            stuck_at_one: !forced_output,
        };
        let Some(&du) = uid.get(&dominating) else {
            continue;
        };
        let droot = uf.find(du);
        for (pin, &src) in inputs.iter().enumerate() {
            let dominated =
                effective_input_fault(&fanouts, net, pin as u32, src, !controlling);
            let Some(&gu) = uid.get(&dominated) else {
                continue;
            };
            let groot = uf.find(gu);
            if groot == droot {
                // Degenerate loop (e.g. through a flop): no self-credit.
                continue;
            }
            let entry = dominated_of.entry(droot).or_default();
            if !entry.contains(&groot) {
                entry.push(groot);
            }
        }
    }

    // Direct observation paths: net -> (output slot, inversion parity)
    // when the net reaches a primary output through NOT/BUF gates only
    // (length 0 for output nets themselves). A stem fault on such a net
    // is unobservable before excitation and observed immediately at it,
    // so its exact result derives from the good-machine output trace.
    let mut observe_path: Vec<Option<(usize, bool)>> = vec![None; nl.net_count()];
    let mut queue: Vec<NetId> = Vec::new();
    for (slot, &o) in nl.outputs().iter().enumerate() {
        if observe_path[o.0 as usize].is_none() {
            observe_path[o.0 as usize] = Some((slot, false));
            queue.push(o);
        }
    }
    while let Some(y) = queue.pop() {
        let (slot, parity) = observe_path[y.0 as usize].expect("queued nets are mapped");
        if let Node::Gate {
            kind: kind @ (GateKind::Not | GateKind::Buf),
            inputs,
        } = nl.node(y)
        {
            let m = inputs[0];
            if observe_path[m.0 as usize].is_none() {
                observe_path[m.0 as usize] =
                    Some((slot, parity ^ matches!(kind, GateKind::Not)));
                queue.push(m);
            }
        }
    }
    let observed_plan = |fault: &Fault| -> Option<FaultPlan> {
        let FaultSite::Net(n) = fault.site else {
            return None;
        };
        let (output, parity) = observe_path[n.0 as usize]?;
        Some(FaultPlan::Observe {
            output,
            expect: !fault.stuck_at_one ^ parity,
        })
    };

    // Per input fault, either a terminal observation plan or the
    // *direct* credit candidates (input-list indices): a later
    // duplicate of a listed class credits its first member
    // (combinational circuits only — the DFF D-pin merge is not a
    // machine equivalence in the power-on frame); a dominating class
    // credits its dominated classes' first members; everything else
    // simulates.
    let dup_credit_ok = nl.is_combinational();
    let observed: Vec<Option<FaultPlan>> =
        faults.iter().map(&observed_plan).collect();
    let direct: Vec<Option<Vec<usize>>> = (0..faults.len())
        .map(|i| {
            if observed[i].is_some() {
                return None;
            }
            let root = roots[i]?;
            let first = class_to_input[&root];
            if first != i {
                // Equivalent to an earlier entry: crediting from it is
                // exact in time as well as in status.
                return dup_credit_ok.then(|| vec![first]);
            }
            let dominated = dominated_of.get(&root)?;
            let sources: Vec<usize> = dominated
                .iter()
                // A dominated representative absent from the caller's
                // list (a subset was passed) cannot carry credit.
                .filter_map(|groot| class_to_input.get(groot).copied())
                .collect();
            if sources.is_empty() {
                None
            } else {
                Some(sources)
            }
        })
        .collect();

    // Expand the candidate chains down to terminal faults (simulated
    // or observed) with a three-color DFS. Cycle edges (a
    // back-reference to an in-progress fault) are skipped: soundly
    // losing one credit branch — the residual pass covers whatever
    // cannot be credited.
    #[derive(Clone, PartialEq)]
    enum State {
        Unvisited,
        InStack,
        Done(FaultPlan),
    }
    fn expand(
        i: usize,
        observed: &[Option<FaultPlan>],
        direct: &[Option<Vec<usize>>],
        state: &mut Vec<State>,
    ) {
        if !matches!(state[i], State::Unvisited) {
            return;
        }
        if let Some(plan) = &observed[i] {
            state[i] = State::Done(plan.clone());
            return;
        }
        let Some(candidates) = &direct[i] else {
            state[i] = State::Done(FaultPlan::Simulate);
            return;
        };
        state[i] = State::InStack;
        let mut sources: Vec<usize> = Vec::new();
        for &j in candidates {
            expand(j, observed, direct, state);
            match &state[j] {
                State::InStack => {} // dominance cycle: skip this branch
                State::Done(FaultPlan::Simulate | FaultPlan::Observe { .. }) => {
                    sources.push(j);
                }
                State::Done(FaultPlan::Credit(inner)) => {
                    sources.extend(inner.iter().copied());
                }
                State::Unvisited => unreachable!("expanded above"),
            }
        }
        sources.sort_unstable();
        sources.dedup();
        state[i] = State::Done(if sources.is_empty() {
            FaultPlan::Simulate
        } else {
            FaultPlan::Credit(sources)
        });
    }
    let mut state = vec![State::Unvisited; faults.len()];
    for i in 0..faults.len() {
        expand(i, &observed, &direct, &mut state);
    }
    let plan: Vec<FaultPlan> = state
        .into_iter()
        .map(|s| match s {
            State::Done(p) => p,
            _ => unreachable!("every fault expanded"),
        })
        .collect();
    let simulated = plan.iter().filter(|p| **p == FaultPlan::Simulate).count();
    FaultReduction {
        faults: faults.to_vec(),
        plan,
        simulated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::{parse_bench, C17};
    use crate::fault::collapsed_faults;
    use crate::netlist::{GateKind, Netlist};

    fn and_gate() -> Netlist {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.add_gate("y", GateKind::And, vec![a, b]);
        nl.mark_output(y);
        nl.freeze().unwrap()
    }

    #[test]
    fn and_output_sa1_is_credited_from_the_input_sa1s() {
        // z = XOR(y, c) hides y from direct observation, so gate y's
        // dominance rule is what reduces y s-a-1.
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let y = nl.add_gate("y", GateKind::And, vec![a, b]);
        let z = nl.add_gate("z", GateKind::Xor, vec![y, c]);
        nl.mark_output(z);
        let nl = nl.freeze().unwrap();
        let faults = collapsed_faults(&nl);
        let red = reduce_faults(&nl, &faults);
        let yi = faults
            .iter()
            .position(|f| *f == Fault::net_sa1(y))
            .unwrap();
        let FaultPlan::Credit(sources) = red.plan(yi) else {
            panic!("y s-a-1 must be credited, got {:?}", red.plan(yi));
        };
        let a1 = faults
            .iter()
            .position(|f| *f == Fault::net_sa1(a))
            .unwrap();
        let b1 = faults
            .iter()
            .position(|f| *f == Fault::net_sa1(b))
            .unwrap();
        assert_eq!(sources, &vec![a1, b1]);
        // The primary output's stem faults are directly observed.
        let z0 = faults
            .iter()
            .position(|f| *f == Fault::net_sa0(z))
            .unwrap();
        assert_eq!(
            *red.plan(z0),
            FaultPlan::Observe { output: 0, expect: true },
            "PO stem s-a-0 is detected at the first good 1"
        );
    }

    #[test]
    fn or_chain_credits_transitively_to_checkpoints() {
        // y = OR(a,b); z = OR(y,c): z s-a-0 dominates {y s-a-0, c s-a-0},
        // y s-a-0 dominates {a s-a-0, b s-a-0} — so z credits from the
        // three primary-input checkpoints. (w = XOR(z,d) keeps z off a
        // direct observation path.)
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let d = nl.add_input("d");
        let y = nl.add_gate("y", GateKind::Or, vec![a, b]);
        let z = nl.add_gate("z", GateKind::Or, vec![y, c]);
        let w = nl.add_gate("w", GateKind::Xor, vec![z, d]);
        nl.mark_output(w);
        let nl = nl.freeze().unwrap();
        let faults = collapsed_faults(&nl);
        let red = reduce_faults(&nl, &faults);
        let zi = faults
            .iter()
            .position(|f| *f == Fault::net_sa0(nl.net_by_name("z").unwrap()))
            .unwrap();
        let FaultPlan::Credit(sources) = red.plan(zi) else {
            panic!("z s-a-0 must be credited");
        };
        let expected: Vec<usize> = ["a", "b", "c"]
            .iter()
            .map(|n| {
                faults
                    .iter()
                    .position(|f| *f == Fault::net_sa0(nl.net_by_name(n).unwrap()))
                    .unwrap()
            })
            .collect();
        let mut expected = expected;
        expected.sort_unstable();
        assert_eq!(sources, &expected);
        // And every credit source is itself a terminal fault.
        for &s in sources {
            assert!(matches!(
                red.plan(s),
                FaultPlan::Simulate | FaultPlan::Observe { .. }
            ));
        }
    }

    #[test]
    fn xor_gates_yield_no_dominance_credit() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let y = nl.add_gate("y", GateKind::Xor, vec![a, b]);
        let z = nl.add_gate("z", GateKind::Xor, vec![y, c]);
        nl.mark_output(z);
        let nl = nl.freeze().unwrap();
        let faults = collapsed_faults(&nl);
        let red = reduce_faults(&nl, &faults);
        // The PO stems are observed, but no fault is ever *credited*
        // through an XOR gate.
        for (i, fault) in faults.iter().enumerate() {
            assert!(
                !matches!(red.plan(i), FaultPlan::Credit(_)),
                "{}: {:?}",
                fault.describe(&nl),
                red.plan(i)
            );
        }
        assert_eq!(red.dropped_count(), red.observed_count());
    }

    #[test]
    fn c17_reduction_drops_nand_output_sa0_classes() {
        let nl = parse_bench(C17, "c17").unwrap();
        let faults = collapsed_faults(&nl);
        assert_eq!(faults.len(), 22);
        let red = reduce_faults(&nl, &faults);
        assert!(
            red.simulated_count() < red.total(),
            "c17's NAND outputs must reduce: {} of {}",
            red.simulated_count(),
            red.total()
        );
        // Every credit source must be a terminal (simulated or
        // observed) entry.
        for i in 0..red.total() {
            if let FaultPlan::Credit(sources) = red.plan(i) {
                assert!(!sources.is_empty());
                for &s in sources {
                    assert!(
                        matches!(
                            red.plan(s),
                            FaultPlan::Simulate | FaultPlan::Observe { .. }
                        ),
                        "fault {i} -> {s}: {:?}",
                        red.plan(s)
                    );
                }
            }
        }
    }

    #[test]
    fn gates_feeding_state_emit_no_dominance() {
        // d = AND(a, b) feeds a flop: a dominating d s-a-1 could mask
        // itself through corrupted state, so it must keep its lane.
        // y = OR(q, b) only feeds the output: state-free cone, reduced.
        let src = "
INPUT(a)
INPUT(b)
OUTPUT(y)
q = DFF(d)
d = AND(a, b)
y = OR(q, b)
";
        let nl = parse_bench(src, "t").unwrap();
        let faults = collapsed_faults(&nl);
        let red = reduce_faults(&nl, &faults);
        // d s-a-1 collapsed into q s-a-1 through the flop's D pin; the
        // class representative must keep its lane.
        let d1 = faults
            .iter()
            .position(|f| *f == Fault::net_sa1(nl.net_by_name("q").unwrap()))
            .expect("q s-a-1 represents the d s-a-1 class");
        assert_eq!(*red.plan(d1), FaultPlan::Simulate, "stateful cone keeps its lane");
        let y0 = faults
            .iter()
            .position(|f| *f == Fault::net_sa0(nl.net_by_name("y").unwrap()))
            .expect("y s-a-0 is its own representative");
        assert!(
            matches!(red.plan(y0), FaultPlan::Observe { .. }),
            "the output stem is directly observed"
        );
    }

    #[test]
    fn uncollapsed_duplicates_credit_their_first_class_member() {
        let nl = and_gate();
        let faults = full_faults(&nl); // a0,a1,b0,b1,y0,y1
        let red = reduce_faults(&nl, &faults);
        // b0 is equivalent to a0 (listed first): credited. y0 sits on
        // the primary output, so direct observation wins.
        let b0 = 2;
        let y0 = 4;
        assert_eq!(*red.plan(b0), FaultPlan::Credit(vec![0]));
        assert!(matches!(red.plan(y0), FaultPlan::Observe { .. }));
    }

    #[test]
    fn foreign_faults_are_simulated_untouched() {
        let nl = and_gate();
        // A pin fault that does not exist in the universe (no fanout).
        let weird = Fault {
            site: crate::FaultSite::Pin {
                gate: nl.net_by_name("y").unwrap(),
                pin: 0,
            },
            stuck_at_one: true,
        };
        let red = reduce_faults(&nl, &[weird]);
        assert_eq!(*red.plan(0), FaultPlan::Simulate);
        assert_eq!(red.simulated_count(), 1);
    }

    #[test]
    fn reduction_is_deterministic() {
        let nl = parse_bench(C17, "c17").unwrap();
        let faults = collapsed_faults(&nl);
        let r1 = reduce_faults(&nl, &faults);
        let r2 = reduce_faults(&nl, &faults);
        assert_eq!(format!("{r1:?}"), format!("{r2:?}"));
    }
}
