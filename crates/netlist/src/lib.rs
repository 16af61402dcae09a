//! # musa-netlist — gate-level netlists and stuck-at fault simulation
//!
//! The gate-level substrate of the `musa` workspace: netlist data
//! structure with `.bench` I/O, the single stuck-at fault model with
//! structural collapsing and dominance-based fault-list reduction
//! ([`reduce_faults`]), and fault simulation engines (parallel-pattern
//! single-fault propagation for combinational circuits, time-major
//! parallel-fault for sequential ones) compiled onto a flat levelized
//! form that [`Netlist::freeze`] builds. The 64-lane interpretive
//! [`LogicSim`] is kept as the reference model the engines are tested
//! against.
//!
//! This replaces the commercial gate-level flow the DATE'05 paper relied
//! on. The paper's metrics (`ΔFC%`, `ΔL%`, `NLFCE`) read single stuck-at
//! coverage curves, which any exact fault simulator yields; the numbers
//! depend on the netlists, not on the tool that grades them.
//!
//! # Example: fault coverage of random patterns on c17
//!
//! ```
//! use musa_netlist::{collapsed_faults, fault_simulate, parse_bench, Pattern, C17};
//!
//! let nl = parse_bench(C17, "c17")?;
//! let faults = collapsed_faults(&nl);
//! let vectors: Vec<Pattern> = (0..16u64)
//!     .map(|p| (0..5).map(|i| (p * 7 + i) % 3 == 0).collect())
//!     .collect();
//! let result = fault_simulate(&nl, &faults, &vectors);
//! println!("coverage = {:.1}%", 100.0 * result.coverage());
//! assert!(result.coverage() > 0.0);
//! # Ok::<(), musa_netlist::BenchError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bench;
mod dominance;
mod fault;
mod flat;
mod fsim;
mod netlist;
mod sim;
mod testability;

pub use bench::{parse_bench, write_bench, BenchError, C17};
pub use dominance::{reduce_faults, FaultPlan, FaultReduction};
pub use fault::{collapse, collapsed_faults, full_faults, Fault, FaultSite};
pub use fsim::{
    fault_simulate, fault_simulate_sessions, fault_simulate_sessions_reduced, fault_simulate_until,
    good_outputs, FaultSimResult, Pattern,
};
pub use netlist::{GateKind, NetId, Netlist, NetlistError, Node};
pub use sim::{Injections, LogicSim};
pub use testability::{Testability, UNREACHABLE};
