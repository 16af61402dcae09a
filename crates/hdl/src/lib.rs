//! # musa-hdl — the *MiniHDL* behavioral hardware description language
//!
//! MiniHDL is a small, synthesizable, VHDL-flavoured behavioral language:
//! entities with typed ports, internal signals and constants, and
//! combinational (`comb`) or clocked (`seq(clk)`) processes built from
//! assignments, `if`/`case`/`for` statements and bit-vector expressions
//! (≤ 64 bits).
//!
//! It exists so that the `musa` workspace can mutate and simulate
//! *high-level* circuit descriptions, exactly as the DATE'05 paper mutates
//! VHDL. MiniHDL keeps the constructs the ten VHDL mutation operators
//! rewrite (logical, relational and arithmetic operators, names,
//! constants, conditions and statements) without the cost of a full VHDL
//! front end, and it is small enough to synthesize in-tree.
//!
//! The crate provides the full front-end plus a cycle-based simulator:
//!
//! * [`parse`] — text → [`ast::Design`];
//! * [`CheckedDesign`] — semantic analysis (names, widths, single-driver,
//!   clock discipline, combinational-loop and latch-freedom checks);
//! * [`Simulator`] — two-phase cycle simulation of a checked design;
//! * [`pretty::print_design`] — round-trippable pretty printing;
//! * [`Bits`] — the 1..=64-bit unsigned vector value type.
//!
//! # Example
//!
//! ```
//! use musa_hdl::{parse, Bits, CheckedDesign, Simulator};
//!
//! let design = parse(
//!     "entity majority is
//!        port(a : in bit; b : in bit; c : in bit; y : out bit);
//!        comb begin
//!          y <= (a and b) or (a and c) or (b and c);
//!        end;
//!      end;",
//! )?;
//! let checked = CheckedDesign::new(design)?;
//! let mut sim = Simulator::new(&checked, "majority")?;
//! let one = Bits::new(1, 1);
//! let zero = Bits::new(1, 0);
//! assert_eq!(sim.step(&[one, one, zero])[0].raw(), 1);
//! assert_eq!(sim.step(&[one, zero, zero])[0].raw(), 0);
//! # Ok::<(), musa_hdl::HdlError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod check;
mod error;
pub mod lexer;
pub mod parser;
pub mod pretty;
pub mod sim;
mod span;
mod value;

pub use check::{CheckedDesign, DriveClass, EntityInfo, Symbol, SymbolId, SymbolKind};
pub use error::{HdlError, Phase, Result};
pub use parser::parse;
pub use sim::Simulator;
pub use span::Span;
pub use value::{Bits, MAX_WIDTH};
