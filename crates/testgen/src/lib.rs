//! # musa-testgen — test data generation and mutant sampling
//!
//! Everything the DATE'05 flow needs to *produce* test data:
//!
//! * [`random_sequence`] / [`lfsr_patterns`] — the pseudo-random baseline
//!   (paper §3);
//! * [`mutation_guided_tests`] — mutation-adequate validation data:
//!   candidates are admitted first-come, in generation order, whenever
//!   they kill a mutant no earlier admitted candidate killed (paper §2);
//! * [`SamplingStrategy`] / [`sample_mutants`] — classical random
//!   sampling versus the paper's test-oriented, efficiency-weighted
//!   sampling (paper §4);
//! * [`podem`] / [`atpg_all`] — a complete PODEM ATPG for the
//!   gate-level top-up experiment (paper §1 motivation, E3).
//!
//! # Example: sample 10 % of a mutant population two ways
//!
//! ```
//! use musa_hdl::{parse, CheckedDesign};
//! use musa_mutation::{generate_mutants, GenerateOptions, MutationOperator};
//! use musa_testgen::{sample_mutants, OperatorWeights, SamplingStrategy};
//!
//! let checked = CheckedDesign::new(parse(
//!     "entity g is port(a : in bits(4); b : in bits(4); y : out bits(4));
//!        comb begin y <= (a and b) + 1; end;
//!      end;",
//! )?)?;
//! let mutants = generate_mutants(&checked, "g", &GenerateOptions::default());
//!
//! let random = sample_mutants(&mutants, &SamplingStrategy::random(0.10), 42);
//! let weights = OperatorWeights::from_pairs([
//!     (MutationOperator::Cr, 480.0),
//!     (MutationOperator::Cvr, 450.0),
//!     (MutationOperator::Vr, 300.0),
//!     (MutationOperator::Lor, 7.0),
//! ]);
//! let oriented = sample_mutants(
//!     &mutants,
//!     &SamplingStrategy::test_oriented(0.10, weights),
//!     42,
//! );
//! assert_eq!(random.len(), oriented.len(), "same budget, different mix");
//! # Ok::<(), musa_hdl::HdlError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod atpg;
mod mutation_guided;
mod random;
mod sampling;

pub use atpg::{atpg_all, podem, AtpgStats, PodemResult};
pub use mutation_guided::{mutation_guided_tests, GeneratedTests, MgConfig};
pub use random::{
    lfsr_patterns, random_patterns, random_sequence, testbench_patterns, RESET_SPARSITY,
};
pub use sampling::{sample_mutants, OperatorWeights, SamplingStrategy};
