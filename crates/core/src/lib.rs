//! # musa-core — the DATE'05 mutation-sampling pipeline
//!
//! The paper's contribution, end to end:
//!
//! 1. [`BenchContext`] — one circuit's shared state, derived once per
//!    bench: the mutant population, the collapsed fault list, the
//!    dominance plan and the static screen; it is also the one place
//!    validation data is fault-simulated and graded against the
//!    pseudo-random baseline, for both tables;
//! 2. [`OperatorProfile::measure`] — per-operator stuck-at efficiency
//!    (`ΔFC%`, `ΔL%`, `NLFCE`): **Table 1**;
//! 3. [`OperatorProfile::weights`] — efficiency weights for the
//!    test-oriented sampler;
//! 4. [`run_sampling_experiment`] — sample → generate validation data →
//!    Mutation Score on the full population + gate-level NLFCE;
//!    [`Table2Row::measure`] runs it for both strategies: **Table 2**;
//! 5. extension experiments [`sweep_fractions`] (E1),
//!    [`coverage_curves`] (E2), [`atpg_topup`] (E3) and
//!    [`equivalence_ablation`] (E4);
//! 6. the [`Campaign`] builder — the typed front door every CLI caller
//!    routes through: validate once, run any [`Task`] over a list of
//!    benches, get a [`Report`] holding the plan it ran, a stable text
//!    rendering and JSON;
//! 7. the benchmark trajectory ([`run_bench`], `musa bench`) — a fixed
//!    grid of timed workloads summarized with robust statistics,
//!    emitted as `musa.bench.v1` JSON and regression-gated against
//!    committed `BENCH_<n>.json` baselines.
//!
//! Repetition loops and mutant executions are sharded across worker
//! threads by the [`parallel`] module, and every differential-
//! simulation stage runs on the bit-parallel mutant lane engine (63
//! mutants + reference per pass); outcomes are bit-identical for every
//! [`ExperimentConfig::jobs`] value.
//!
//! # Example
//!
//! ```
//! use musa_circuits::Benchmark;
//! use musa_core::{run_sampling_experiment, BenchContext, ExperimentConfig};
//! use musa_testgen::SamplingStrategy;
//!
//! let ctx = BenchContext::new(Benchmark::C17.load()?, &ExperimentConfig::fast(0xC0FFEE));
//! let outcome = run_sampling_experiment(&ctx, SamplingStrategy::random(0.5))?;
//! println!(
//!     "MS = {:.2}%  NLFCE = {:+.0}  ({} vectors)",
//!     outcome.mutation_score_pct, outcome.nlfce, outcome.data_len
//! );
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench_task;
pub mod campaign;
mod config;
mod context;
mod experiment;
mod extensions;
pub mod json;
pub mod lint_task;
pub mod paper;
pub mod parallel;
mod profile;
mod tables;
pub mod trace_report;

pub use bench_task::{
    bench_history, bench_history_json, compare, next_bench_path, render_bench_history, run_bench,
    BenchCell, BenchMeta, BenchOptions, BenchReport, BenchWorkload, CellInvariants, ComparePolicy,
    HistoryRow, Regression, BENCH_HISTORY_SCHEMA, BENCH_SCHEMA, DEFAULT_BENCHES,
};
pub use campaign::{
    BenchAblation, BenchOutcome, BenchSweep, BenchTopUp, Campaign, CampaignError, CampaignPlan,
    MgOutcome, Preset, Report, ReportData, Task, DEFAULT_SEED,
};
pub use config::ExperimentConfig;
pub use context::{BenchContext, FaultSimStats};
pub use json::Json;
pub use lint_task::{
    lint_bench, lint_report_json, lint_source, render_lint_text, total_findings,
    LintFindingRow, LintRow, LINT_SCHEMA,
};
pub use experiment::{run_sampling_experiment, SamplingAggregate, SamplingOutcome};
pub use parallel::{available_jobs, par_map, resolve_jobs, split_jobs, try_par_map};
pub use extensions::{
    atpg_topup, coverage_curves, equivalence_ablation, sweep_fractions, AblationPoint, CurvePair,
    SweepPoint, TopUpMode, TopUpOutcome,
};
pub use profile::{OperatorEfficiency, OperatorProfile};
pub use trace_report::{
    chrome_json, render_profile, render_profile_data, trace_json, trace_json_with,
    validate_trace_document, TRACE_SCHEMA,
};
pub use tables::{Table1, Table1Row, Table2, Table2Row, TableError};
