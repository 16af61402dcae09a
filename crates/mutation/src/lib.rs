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
//! Equivalence classification always runs on the lane engine: a
//! [`LanePlan`] over the population, swept through the policy's
//! sequences in order at `⌈N/63⌉` passes per sequence at most, with a
//! live mask ([`LanePlan::first_kills_live`]) dropping every mutant an
//! earlier sequence killed and skipping lane groups left with nothing
//! to decide; once the undecided mutants fit in half the groups, they
//! are repacked into a smaller plan. The scalar per-mutant classifier
//! it replaced survives only in the tests, as the differential oracle
//! the lane classifier must match class for class.
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

pub use equivalence::{
    classify_mutants, classify_mutants_jobs, survivor_class, EquivalenceClass, EquivalencePolicy,
};
pub use execute::{
    execute_mutants, execute_mutants_engine, execute_mutants_engine_opt, execute_mutants_jobs,
    reference_transcript, run_one, Engine, KillResult, OptLevel, TestSequence,
};
pub use lanes::{
    execute_mutants_lanes, execute_mutants_lanes_opts, kill_rows_lanes, LaneOptions,
    LanePlan, LaneStats, MAX_LANES,
};
pub use generate::{count_by_operator, generate_mutants, GenerateOptions};
pub use mutant::{Mutant, MutantId, MutationError, Rewrite};
pub use operator::MutationOperator;
pub use score::MutationScore;
