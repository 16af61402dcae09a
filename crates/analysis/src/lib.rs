//! Static analysis for checked MiniHDL designs.
//!
//! Three layers built on one dataflow core. Process scheduling, cycle
//! detection and expression widths come from the checker
//! ([`musa_hdl::EntityInfo`]).
//!
//! * [`dataflow`] — constant folding, statement reachability and
//!   assigned-vs-read signal accounting over the AST;
//! * [`lint`] — a catalog of span-carrying diagnostics over the checked
//!   design (`musa lint`);
//! * [`screen`] — the static equivalent-mutant pre-screen behind
//!   `--screen static`: mutants proven equivalent here skip simulation
//!   and fold directly into the `E` term of `MS = K/(M−E)`.

#![forbid(unsafe_code)]

pub mod dataflow;
pub mod lint;
pub mod screen;

pub use lint::{lint_design, LintFinding, LintRule, LINT_RULES};
pub use screen::{screen_population, ScreenClass, MAX_FREE_BITS};

pub use dataflow::{analyze_dead, fold_expr, ConstEnv, Deadness, EntityFacts, FoldValue};
