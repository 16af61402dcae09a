//! # musa-mutation — high-level mutation analysis for MiniHDL designs
//!
//! The mutation-testing engine the DATE'05 paper builds on: ten
//! VHDL-style mutation operators ([`MutationOperator`]), deterministic
//! mutant enumeration ([`generate_mutants`]), mutant application and
//! differential execution ([`execute_mutants`]), a budgeted
//! equivalent-mutant policy ([`classify_mutants`]) and the paper's
//! Mutation Score `MS = K/(M−E)` ([`MutationScore`]).
//!
//! Two execution engines grade populations with bit-identical results
//! (select one with [`Engine`] / [`execute_mutants_engine`]): the
//! scalar engine simulates one mutant per pass, while the bit-parallel
//! [`lanes`] engine packs up to 63 mutants plus the reference machine
//! into each pass — `⌈N/63⌉` simulation passes for a population of
//! `N`, composing multiplicatively with thread sharding.
//!
//! Every caller that grades a population asks one question: when does
//! each mutant first die? [`first_kills_over`] is the one sweep that
//! answers it, for an ordered list of sequences each applied from
//! reset. It retires a mutant at its first kill and, on the lane
//! engine, reuses one [`LanePlan`] across the sequences with a live
//! mask, repacking the survivors into a smaller plan once they fit in
//! half its groups. Equivalence classification ([`classify_mutants`])
//! always sweeps on the lane engine; the scalar per-mutant classifier
//! survives only in the tests, as the differential oracle the lane
//! classifier must match class for class. The kill phase of an
//! experiment and mutation-guided generation sweep on the engine the
//! configuration selects.
//!
//! # Example: measuring a test set's mutation score
//!
//! ```
//! use musa_hdl::{parse, Bits, CheckedDesign};
//! use musa_mutation::{
//!     classify_mutants, execute_mutants, generate_mutants, EquivalencePolicy,
//!     GenerateOptions, MutationScore,
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
//! let kills = execute_mutants(&checked, "g", &mutants, &tests)?;
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

pub use equivalence::{
    classify_mutants, classify_mutants_jobs, survivor_class, EquivalenceClass, EquivalencePolicy,
};
pub use execute::{
    execute_mutants, execute_mutants_engine, execute_mutants_engine_opt, execute_mutants_jobs,
    reference_transcript, run_one, Engine, KillResult, OptLevel, TestSequence,
};
pub use lanes::{
    execute_mutants_lanes, execute_mutants_lanes_opts, LaneOptions, LanePlan, LaneStats,
    MAX_LANES,
};
pub use generate::{count_by_operator, generate_mutants, GenerateOptions};
pub use mutant::{Mutant, MutantId, MutationError, Rewrite};
pub use operator::MutationOperator;
pub use score::MutationScore;
pub use sweep::first_kills_over;
