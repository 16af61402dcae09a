//! # musa-mutation — high-level mutation analysis for MiniHDL designs
//!
//! The mutation-testing engine the DATE'05 paper builds on: ten
//! VHDL-style mutation operators ([`MutationOperator`]), deterministic
//! mutant enumeration ([`generate_mutants`]), mutant application and
//! differential execution ([`first_kills_over`]), a budgeted
//! equivalent-mutant policy ([`classify_mutants`]) and the paper's
//! Mutation Score `MS = K/(M−E)` ([`MutationScore`]).
//!
//! The bit-parallel [`lanes`] engine grades every population: it packs
//! up to 63 mutants plus the reference machine into each pass —
//! `⌈N/63⌉` simulation passes for a population of `N`, composing
//! multiplicatively with thread sharding. The scalar engine, one
//! mutant per pass, stays as its oracle (see [`Engine`]) and as the
//! per-mutant fallback for rewrites a tape cannot represent.
//!
//! Every caller that grades a population asks one question: when does
//! each mutant first die? [`first_kills_over`] is the one sweep that
//! answers it, for an ordered list of sequences each applied from
//! reset. It retires a mutant at its first kill. The scalar engine runs
//! each live mutant on its own simulator; the lane engine reuses one
//! [`LanePlan`] across the sequences with a live mask, repacking the
//! survivors into a smaller plan once they fit in half its groups.
//! [`first_kills_from`] runs the same sweep from a plan the caller
//! compiled, so an experiment compiles its kill phase's plan once and
//! shares it across its repetitions.
//! [`execute_mutants_engine_opt`] is its one-sequence case, returning a
//! [`KillResult`]. Equivalence classification ([`classify_mutants`]),
//! the kill phase of an experiment and mutation-guided generation all
//! sweep on the lane engine; the scalar per-mutant classifier survives
//! only in the tests, as the differential oracle the lane classifier
//! must match class for class.
//!
//! # Example: measuring a test set's mutation score
//!
//! ```
//! use musa_hdl::{parse, Bits, CheckedDesign};
//! use musa_mutation::{
//!     classify_mutants, execute_mutants_engine_opt, generate_mutants, Engine,
//!     EquivalencePolicy, GenerateOptions, MutationScore, OptLevel,
//! };
//!
//! let checked = CheckedDesign::new(parse(
//!     "entity g is port(a : in bit; b : in bit; y : out bit);
//!        comb begin y <= a and b; end;
//!      end;",
//! )?)?;
//! let mutants = generate_mutants(&checked, "g", &GenerateOptions::default());
//!
//! // The exhaustive 2-input test set.
//! let tests: Vec<Vec<Bits>> = (0..4u64)
//!     .map(|p| vec![Bits::new(1, p & 1), Bits::new(1, p >> 1)])
//!     .collect();
//!
//! let (engine, opt) = (Engine::Lanes, OptLevel::Full);
//! let kills = execute_mutants_engine_opt(&checked, "g", &mutants, &tests, 1, engine, opt)?;
//! let classes = classify_mutants(&checked, "g", &mutants, &EquivalencePolicy::default())?;
//! let ms = MutationScore::from_results(&kills, &classes);
//! assert!((ms.value() - 1.0).abs() < 1e-12, "exhaustive tests kill everything: {ms}");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod equivalence;
mod execute;
mod generate;
pub mod lanes;
mod mutant;
mod operator;
mod score;
mod sweep;
mod validate;

pub use equivalence::{
    classify_mutants, classify_mutants_jobs, survivor_class, EquivalenceClass, EquivalencePolicy,
};
pub use execute::{
    execute_mutants_engine_opt, random_vector, Engine, KillResult, OptLevel, TestSequence,
    RESET_SPARSITY,
};
pub use lanes::{LaneOptions, LanePlan, LaneStats, MAX_LANES};
pub use generate::{candidate_mutants, count_by_operator, generate_mutants, GenerateOptions};
pub use mutant::{Mutant, MutantId, MutationError, Rewrite};
pub use operator::MutationOperator;
pub use score::MutationScore;
pub use sweep::{first_kills_from, first_kills_over};
pub use validate::Validator;

/// Every bundled benchmark's MiniHDL source, by entity name, for the
/// tests that sweep them all.
#[cfg(test)]
const BUNDLED: [(&str, &str); 11] = [
    ("c17", include_str!("../../circuits/src/hdl/c17.mhdl")),
    ("b01", include_str!("../../circuits/src/hdl/b01.mhdl")),
    ("b02", include_str!("../../circuits/src/hdl/b02.mhdl")),
    ("b03", include_str!("../../circuits/src/hdl/b03.mhdl")),
    ("b04", include_str!("../../circuits/src/hdl/b04.mhdl")),
    ("b05", include_str!("../../circuits/src/hdl/b05.mhdl")),
    ("b06", include_str!("../../circuits/src/hdl/b06.mhdl")),
    ("b09", include_str!("../../circuits/src/hdl/b09.mhdl")),
    ("c432", include_str!("../../circuits/src/hdl/c432.mhdl")),
    ("c499", include_str!("../../circuits/src/hdl/c499.mhdl")),
    ("c880", include_str!("../../circuits/src/hdl/c880.mhdl")),
];
