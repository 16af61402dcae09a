//! The `Campaign` builder — one typed front door for every experiment.
//!
//! A [`Campaign`] validates its inputs **once**, runs the selected
//! [`Task`] through the deterministic parallel machinery, and returns a
//! typed [`Report`] that wraps the experiments' result structs plus the
//! [`CampaignPlan`] it ran and its wall time — with a stable text
//! renderer ([`Report::render_text`], byte-identical to the
//! pre-redesign binaries' stdout) and a dependency-free JSON emitter
//! ([`Report::to_json`]).
//!
//! Every task but the benchmark trajectory runs through one per-bench
//! loop: it loads every circuit up front, then measures each bench
//! inside its `bench` trace span. Experiments get the bench as a
//! [`BenchContext`] (the lint task needs none), built inside a `setup`
//! span, so one bench's population, fault list, dominance plan and
//! screen are derived once however many experiments share them.
//!
//! ```
//! use musa_core::{Campaign, ReportData, Task};
//!
//! let report = Campaign::named("c17")
//!     .fast()
//!     .seed(7)
//!     .jobs(2)
//!     .task(Task::Sampling { fraction: 0.5 })
//!     .run()?;
//! let ReportData::Sampling(rows) = &report.data else { unreachable!() };
//! assert_eq!(rows[0].bench, "c17");
//! assert!(rows[0].outcome.mutation_score_pct > 0.0);
//! println!("{}", report.to_json());
//! # Ok::<(), musa_core::CampaignError>(())
//! ```

use crate::bench_task::{run_bench, BenchOptions, BenchReport};
use crate::config::ExperimentConfig;
use crate::context::BenchContext;
use crate::lint_task::{lint_bench, lint_report_json, render_lint_text, LintRow};
use crate::experiment::{run_sampling_experiment, SamplingOutcome};
use crate::extensions::{
    atpg_topup, coverage_curves, equivalence_ablation, sweep_fractions, AblationPoint, CurvePair,
    SweepPoint, TopUpOutcome,
};
use crate::json::Json;
use crate::parallel::resolve_jobs;
use crate::profile::OperatorProfile;
use crate::tables::{Table1, Table2, Table2Row, TableError};
use musa_circuits::Benchmark;
use musa_metrics::{f2, pct, signed0, Align, Nlfce, Table};
use musa_mutation::{Engine, MutationError, MutationOperator, MutationScore};
use musa_testgen::{mutation_guided_tests, SamplingStrategy};
use std::collections::BTreeSet;
use std::fmt;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------

/// Which configuration preset a campaign starts from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preset {
    /// [`ExperimentConfig::paper`] — the paper-scale configuration.
    Paper,
    /// [`ExperimentConfig::fast`] — the scaled-down configuration.
    Fast,
    /// An explicit [`Campaign::config`] override (no preset applies).
    Custom,
}

impl fmt::Display for Preset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Preset::Paper => "paper",
            Preset::Fast => "fast",
            Preset::Custom => "custom",
        })
    }
}

/// The experiment a [`Campaign`] runs.
#[derive(Debug, Clone, PartialEq)]
pub enum Task {
    /// One sampling experiment per benchmark: random `fraction` sample,
    /// mutation-guided data, MS on the full population + NLFCE
    /// (the machinery behind Table 2; `musa sample`).
    Sampling {
        /// Mutant-population fraction to sample, in `(0, 1]`.
        fraction: f64,
    },
    /// Per-operator stuck-at efficiency profile per benchmark.
    OperatorProfile {
        /// Operators to measure.
        operators: Vec<MutationOperator>,
    },
    /// Mutation-guided validation-data generation from the full
    /// population, reporting data lengths and kill counts.
    MutationGuided,
    /// Table 1 — operator fault-coverage efficiency over the campaign's
    /// benchmarks.
    Table1 {
        /// Operators to measure.
        operators: Vec<MutationOperator>,
    },
    /// Table 2 — test-oriented vs random sampling at `fraction`.
    Table2 {
        /// Mutant-population fraction both strategies sample.
        fraction: f64,
    },
    /// E1 — sampling-fraction sweep per benchmark.
    SweepFraction {
        /// The fractions to sweep, each in `(0, 1]`.
        fractions: Vec<f64>,
    },
    /// E2 — MFC/RFC coverage-versus-length curves per benchmark.
    CoverageCurves {
        /// Samples taken from each curve.
        points: usize,
    },
    /// E3 — ATPG top-up with/without validation-data reuse
    /// (combinational benchmarks only).
    AtpgTopup {
        /// PODEM backtrack limit per fault.
        backtrack_limit: u64,
    },
    /// E4 — equivalence-budget ablation per benchmark.
    EquivalenceAblation {
        /// The presumption budgets to ablate over.
        budgets: Vec<usize>,
    },
    /// Benchmark trajectory — the fixed grid of timed workloads behind
    /// `musa bench` and the committed `BENCH_<n>.json` baselines (see
    /// [`crate::bench_task`]).
    Bench {
        /// Quick mode: fewer warmup passes and samples, same grid and
        /// invariants.
        quick: bool,
    },
    /// Static lint catalog over the campaign's benchmark sources
    /// (`musa lint`; see [`crate::lint_task`]).
    Lint,
}

impl Task {
    /// The task's JSON name.
    pub fn slug(&self) -> &'static str {
        match self {
            Task::Sampling { .. } => "sampling",
            Task::OperatorProfile { .. } => "operator-profile",
            Task::MutationGuided => "mutation-guided",
            Task::Table1 { .. } => "table1",
            Task::Table2 { .. } => "table2",
            Task::SweepFraction { .. } => "sweep-fraction",
            Task::CoverageCurves { .. } => "coverage-curves",
            Task::AtpgTopup { .. } => "atpg-topup",
            Task::EquivalenceAblation { .. } => "equivalence-ablation",
            Task::Bench { .. } => "bench",
            Task::Lint => "lint",
        }
    }
}

/// Why a campaign refused to run (validation) or failed (execution).
#[derive(Debug)]
pub enum CampaignError {
    /// No task was set; call [`Campaign::task`].
    MissingTask,
    /// The benchmark list is empty.
    NoBenchmarks,
    /// A benchmark name did not resolve (see `musa list`).
    UnknownBench(String),
    /// Both [`Campaign::paper`] and [`Campaign::fast`] were requested.
    PresetConflict,
    /// The effective configuration has zero repetitions.
    ZeroRepetitions,
    /// A sampling fraction outside `(0, 1]`.
    BadFraction(f64),
    /// [`Task::AtpgTopup`] was pointed at a sequential benchmark.
    NotCombinational(String),
    /// A per-benchmark stage failed.
    Run {
        /// The benchmark being measured when the failure occurred.
        bench: String,
        /// The underlying failure.
        source: TableError,
    },
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::MissingTask => write!(f, "campaign has no task (call .task(...))"),
            CampaignError::NoBenchmarks => write!(f, "campaign has no benchmarks"),
            CampaignError::UnknownBench(name) => write!(f, "unknown benchmark `{name}`"),
            CampaignError::PresetConflict => {
                write!(f, "conflicting presets: `paper` and `fast` both requested")
            }
            CampaignError::ZeroRepetitions => {
                write!(f, "config.repetitions must be at least 1")
            }
            CampaignError::BadFraction(_) => write!(f, "fraction must be in (0, 1]"),
            CampaignError::NotCombinational(name) => {
                write!(f, "ATPG top-up targets combinational circuits; `{name}` is sequential")
            }
            CampaignError::Run { bench, source } => write!(f, "{bench}: {source}"),
        }
    }
}

impl std::error::Error for CampaignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CampaignError::Run { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Builder for one experiment run — the single front door every caller
/// (the `musa` CLI, the six bench binaries, library users) drives
/// identically. See the [module docs](self) for an example.
#[derive(Debug, Clone)]
pub struct Campaign {
    benches: Vec<String>,
    config: Option<ExperimentConfig>,
    seed: Option<u64>,
    jobs: Option<usize>,
    fault_reduce: Option<bool>,
    screen: Option<bool>,
    paper: bool,
    fast: bool,
    task: Option<Task>,
    trace: bool,
}

/// The default master seed, shared with the pre-redesign CLIs.
pub const DEFAULT_SEED: u64 = 0xDA7E_2005;

impl Campaign {
    /// A campaign over one bundled benchmark.
    pub fn new(bench: Benchmark) -> Self {
        Self::named(bench.name())
    }

    /// A campaign over a benchmark referenced **by name**; resolution
    /// (and the [`CampaignError::UnknownBench`] error) happens at
    /// [`Campaign::run`].
    pub fn named(name: &str) -> Self {
        Self {
            benches: vec![name.to_string()],
            config: None,
            seed: None,
            jobs: None,
            fault_reduce: None,
            screen: None,
            paper: false,
            fast: false,
            task: None,
            trace: false,
        }
    }

    /// Replaces the benchmark list.
    #[must_use]
    pub fn benches(mut self, benches: &[Benchmark]) -> Self {
        self.benches = benches.iter().map(|b| b.name().to_string()).collect();
        self
    }

    /// Starts from an explicit [`ExperimentConfig`] instead of a
    /// preset; the config is taken as-is (sub-seeds included) and the
    /// report's preset is [`Preset::Custom`]. Explicit
    /// [`seed`](Self::seed) / [`jobs`](Self::jobs) calls still apply on
    /// top.
    #[must_use]
    pub fn config(mut self, config: ExperimentConfig) -> Self {
        self.config = Some(config);
        self
    }

    /// Master seed (default [`DEFAULT_SEED`]); every stage derives its
    /// own sub-seeds from it.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Worker-thread count (`0` = one per available CPU). Purely a
    /// wall-clock knob: results are bit-identical for every value.
    #[must_use]
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = Some(jobs);
        self
    }

    /// Dominance fault-list reduction for the mutation-data fault
    /// simulation (default on). Reported coverage numbers are identical
    /// either way; only the lane occupancy
    /// (`faults_simulated`/`faults_total` in the JSON report) changes.
    #[must_use]
    pub fn fault_reduce(mut self, fault_reduce: bool) -> Self {
        self.fault_reduce = Some(fault_reduce);
        self
    }

    /// Static equivalent-mutant pre-screening (default on). Statically
    /// proven-equivalent mutants skip simulation and fold into the `E`
    /// term directly; every reported number is identical either way —
    /// only the `screened` count in the JSON report changes.
    #[must_use]
    pub fn screen(mut self, screen: bool) -> Self {
        self.screen = Some(screen);
        self
    }

    /// Selects the paper-scale preset (the default).
    #[must_use]
    pub fn paper(mut self) -> Self {
        self.paper = true;
        self
    }

    /// Selects the scaled-down preset.
    #[must_use]
    pub fn fast(mut self) -> Self {
        self.fast = true;
        self
    }

    /// Sets the experiment to run.
    #[must_use]
    pub fn task(mut self, task: Task) -> Self {
        self.task = Some(task);
        self
    }

    /// Collects a structured trace of the run (spans + counters,
    /// [`Report::trace`]). Off by default; when off, no instrumented
    /// code path ever reads the clock and every report byte is
    /// identical to an untraced run. Purely observational either way:
    /// the trace rides out-of-band on the report and never enters
    /// [`Report::render_text`] / [`Report::to_json`].
    #[must_use]
    pub fn trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// Validates the builder without running anything.
    ///
    /// # Errors
    ///
    /// Every [`CampaignError`] validation variant: missing task, empty
    /// or unknown benchmarks, conflicting presets, zero repetitions and
    /// out-of-range fractions.
    pub fn validate(&self) -> Result<(), CampaignError> {
        self.resolve().map(|_| ())
    }

    fn resolve(&self) -> Result<CampaignPlan, CampaignError> {
        let task = self.task.clone().ok_or(CampaignError::MissingTask)?;
        if self.benches.is_empty() {
            return Err(CampaignError::NoBenchmarks);
        }
        let benches = self
            .benches
            .iter()
            .map(|name| {
                Benchmark::from_name(name)
                    .ok_or_else(|| CampaignError::UnknownBench(name.clone()))
            })
            .collect::<Result<Vec<Benchmark>, CampaignError>>()?;
        let preset = match (self.paper, self.fast) {
            (true, true) => return Err(CampaignError::PresetConflict),
            _ if self.config.is_some() => Preset::Custom,
            (false, true) => Preset::Fast,
            _ => Preset::Paper,
        };
        let mut config = match self.config {
            // An explicit config is taken as-is (its sub-seeds
            // included); only an explicit .seed() restamps it below.
            Some(config) => config,
            None => {
                let seed = self.seed.unwrap_or(DEFAULT_SEED);
                match preset {
                    Preset::Fast => ExperimentConfig::fast(seed),
                    _ => ExperimentConfig::paper(seed),
                }
            }
        };
        if let Some(seed) = self.seed {
            config.seed = seed;
            config.mg.seed = seed;
            config.equivalence.seed = seed;
        }
        if let Some(jobs) = self.jobs {
            config = config.with_jobs(jobs);
        }
        if let Some(fault_reduce) = self.fault_reduce {
            config = config.with_fault_reduce(fault_reduce);
        }
        if let Some(screen) = self.screen {
            config = config.with_screen(screen);
        }
        if config.repetitions == 0 {
            return Err(CampaignError::ZeroRepetitions);
        }
        let fraction_ok = |f: f64| f > 0.0 && f <= 1.0;
        match &task {
            Task::Sampling { fraction } | Task::Table2 { fraction }
                if !fraction_ok(*fraction) =>
            {
                return Err(CampaignError::BadFraction(*fraction));
            }
            Task::SweepFraction { fractions } => {
                if let Some(&bad) = fractions.iter().find(|f| !fraction_ok(**f)) {
                    return Err(CampaignError::BadFraction(bad));
                }
            }
            _ => {}
        }
        Ok(CampaignPlan { benches, config, preset, task })
    }

    /// Validates the builder and returns the fully-resolved plan — the
    /// benchmark list, effective [`ExperimentConfig`], preset and task
    /// that [`Campaign::run`] would execute. This is the canonical
    /// input for anything that must agree with a run without running
    /// it: the content-addressed result store derives its campaign key
    /// from the plan.
    ///
    /// # Errors
    ///
    /// The same validation errors as [`Campaign::validate`].
    pub fn plan(&self) -> Result<CampaignPlan, CampaignError> {
        self.resolve()
    }

    /// Validates once, runs the task, and returns the typed report.
    ///
    /// # Errors
    ///
    /// Validation errors before any work starts; [`CampaignError::Run`]
    /// when a measurement fails.
    pub fn run(&self) -> Result<Report, CampaignError> {
        // An untraced run installs nothing: its spans and counters land
        // in whatever tracer the caller installed (the `musa` binary's
        // `--profile`), and with none installed they are no-ops that
        // never read the clock.
        let tracer = self.trace.then(musa_trace::Tracer::new);
        let _install = tracer.as_ref().map(musa_trace::Tracer::install);
        let plan = {
            let _trace = musa_trace::span("validate");
            self.resolve()?
        };
        let started = Instant::now();
        let data = {
            let _trace = musa_trace::span_detail("campaign", || plan.task.slug().to_string());
            plan.execute()?
        };
        Ok(Report {
            plan,
            wall: started.elapsed(),
            data,
            trace: tracer.map(|tracer| tracer.finish()),
        })
    }
}

/// A validated campaign, fully resolved: what [`Campaign::run`] will
/// actually execute. Obtained via [`Campaign::plan`].
#[derive(Debug, Clone)]
pub struct CampaignPlan {
    /// Benchmarks, resolved from their names, in run order.
    pub benches: Vec<Benchmark>,
    /// The effective configuration (preset + builder overrides applied).
    pub config: ExperimentConfig,
    /// Which preset the configuration came from.
    pub preset: Preset,
    /// The task to run, with its parameters.
    pub task: Task,
}

impl CampaignPlan {
    fn execute(&self) -> Result<ReportData, CampaignError> {
        Ok(match &self.task {
            Task::Sampling { fraction } => {
                ReportData::Sampling(self.each_context("sampling", |ctx| {
                    let outcome =
                        run_sampling_experiment(ctx, SamplingStrategy::random(*fraction))?;
                    Ok(BenchOutcome {
                        bench: ctx.circuit().name.clone(),
                        outcome,
                    })
                })?)
            }
            Task::OperatorProfile { operators } => ReportData::OperatorProfile(
                self.each_context("profiling", |ctx| OperatorProfile::measure(ctx, operators))?,
            ),
            Task::MutationGuided => {
                ReportData::MutationGuided(self.each_context("generating for", |ctx| {
                    let circuit = ctx.circuit();
                    // `config.mg` is honored as-is, like every other
                    // task — reproducible against a direct
                    // `mutation_guided_tests` call with the same config.
                    let generated = mutation_guided_tests(
                        &circuit.checked,
                        &circuit.name,
                        ctx.population(),
                        &ctx.config().mg,
                    )?;
                    Ok(MgOutcome {
                        bench: circuit.name.clone(),
                        population: ctx.population().len(),
                        sessions: generated.sessions.len(),
                        total_len: generated.total_len(),
                        killed: generated.killed_count(),
                        rounds: generated.rounds,
                    })
                })?)
            }
            Task::Table1 { operators } => ReportData::Table1(Table1::from_profiles(
                &self.each_context("profiling", |ctx| OperatorProfile::measure(ctx, operators))?,
            )),
            Task::Table2 { fraction } => ReportData::Table2(Table2 {
                rows: self.each_context("comparing strategies on", |ctx| {
                    Table2Row::measure(ctx, *fraction)
                })?,
            }),
            Task::SweepFraction { fractions } => {
                ReportData::SweepFraction(self.each_context("sweeping", |ctx| {
                    let points = sweep_fractions(ctx, fractions)?;
                    Ok(BenchSweep {
                        bench: ctx.circuit().name.clone(),
                        points,
                    })
                })?)
            }
            Task::CoverageCurves { points } => ReportData::CoverageCurves(
                self.each_context("tracing curves for", |ctx| coverage_curves(ctx, *points))?,
            ),
            Task::AtpgTopup { backtrack_limit } => {
                ReportData::AtpgTopup(self.each_context("topping up", |ctx| {
                    let modes = atpg_topup(ctx, *backtrack_limit)?;
                    Ok(BenchTopUp {
                        bench: ctx.circuit().name.clone(),
                        modes,
                    })
                })?)
            }
            Task::EquivalenceAblation { budgets } => {
                ReportData::EquivalenceAblation(self.each_context("ablating", |ctx| {
                    let points = equivalence_ablation(ctx, budgets)?;
                    Ok(BenchAblation {
                        bench: ctx.circuit().name.clone(),
                        points,
                    })
                })?)
            }
            // The trajectory keeps its own timing grid.
            Task::Bench { quick } => ReportData::Bench(run_bench(
                &self.benches,
                &BenchOptions {
                    quick: *quick,
                    seed: self.config.seed,
                },
            )?),
            // Lint reads each bench's source alone, so it loads (and
            // synthesizes) no circuit.
            Task::Lint => ReportData::Lint(
                self.benches
                    .iter()
                    .map(|&bench| {
                        let _trace = musa_trace::span_detail("bench", || bench.name().to_string());
                        musa_trace::progress(|| format!("linting {}", bench.name()));
                        lint_bench(bench)
                    })
                    .collect(),
            ),
        })
    }

    /// The per-bench loop of every task but [`Task::Bench`] and
    /// [`Task::Lint`]. It loads every circuit before the first (much
    /// more expensive) measurement, so a failure there, or a sequential
    /// bench handed to [`Task::AtpgTopup`], cannot discard completed
    /// work. Then it builds each bench's [`BenchContext`] and runs
    /// `measure` on it in turn, inside the bench's `bench` trace span
    /// and after its progress line (`"{verb} {bench}"`); a failure is
    /// reported as [`CampaignError::Run`] for that bench.
    fn each_context<T>(
        &self,
        verb: &str,
        mut measure: impl FnMut(&BenchContext) -> Result<T, MutationError>,
    ) -> Result<Vec<T>, CampaignError> {
        let failed = |bench: Benchmark, source| CampaignError::Run {
            bench: bench.name().to_string(),
            source,
        };
        let mut rows = Vec::with_capacity(self.benches.len());
        let mut circuits = Vec::with_capacity(self.benches.len());
        for &bench in &self.benches {
            let circuit = {
                let _trace = musa_trace::span_detail("load", || bench.name().to_string());
                bench.load().map_err(|e| failed(bench, e.into()))?
            };
            if matches!(self.task, Task::AtpgTopup { .. }) && !circuit.is_combinational() {
                return Err(CampaignError::NotCombinational(bench.name().to_string()));
            }
            circuits.push(circuit);
        }
        for (&bench, circuit) in self.benches.iter().zip(circuits) {
            let _trace = musa_trace::span_detail("bench", || bench.name().to_string());
            musa_trace::progress(|| format!("{verb} {}", bench.name()));
            let ctx = BenchContext::new(circuit, &self.config);
            rows.push(measure(&ctx).map_err(|e| failed(bench, e.into()))?);
        }
        Ok(rows)
    }
}

// ---------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------

/// One benchmark's sampling outcome.
#[derive(Debug, Clone)]
pub struct BenchOutcome {
    /// Benchmark name.
    pub bench: String,
    /// The sampling-experiment outcome.
    pub outcome: SamplingOutcome,
}

/// One benchmark's mutation-guided generation summary.
#[derive(Debug, Clone)]
pub struct MgOutcome {
    /// Benchmark name.
    pub bench: String,
    /// Mutant-population size.
    pub population: usize,
    /// Sessions emitted.
    pub sessions: usize,
    /// Total validation-data length (vectors).
    pub total_len: usize,
    /// Mutants the data kills.
    pub killed: usize,
    /// Generation rounds executed.
    pub rounds: usize,
}

/// One benchmark's E1 sweep.
#[derive(Debug, Clone)]
pub struct BenchSweep {
    /// Benchmark name.
    pub bench: String,
    /// One point per swept fraction.
    pub points: Vec<SweepPoint>,
}

/// One benchmark's E3 outcomes.
#[derive(Debug, Clone)]
pub struct BenchTopUp {
    /// Benchmark name.
    pub bench: String,
    /// One outcome per initial-data mode.
    pub modes: Vec<TopUpOutcome>,
}

/// One benchmark's E4 ablation.
#[derive(Debug, Clone)]
pub struct BenchAblation {
    /// Benchmark name.
    pub bench: String,
    /// One point per budget.
    pub points: Vec<AblationPoint>,
}

/// Task-specific report payload, wrapping the existing result structs.
#[derive(Debug, Clone)]
pub enum ReportData {
    /// [`Task::Sampling`] rows.
    Sampling(Vec<BenchOutcome>),
    /// [`Task::OperatorProfile`] profiles.
    OperatorProfile(Vec<OperatorProfile>),
    /// [`Task::MutationGuided`] summaries.
    MutationGuided(Vec<MgOutcome>),
    /// [`Task::Table1`] result.
    Table1(Table1),
    /// [`Task::Table2`] result.
    Table2(Table2),
    /// [`Task::SweepFraction`] rows.
    SweepFraction(Vec<BenchSweep>),
    /// [`Task::CoverageCurves`] pairs.
    CoverageCurves(Vec<CurvePair>),
    /// [`Task::AtpgTopup`] rows.
    AtpgTopup(Vec<BenchTopUp>),
    /// [`Task::EquivalenceAblation`] rows.
    EquivalenceAblation(Vec<BenchAblation>),
    /// [`Task::Bench`] trajectory report.
    Bench(BenchReport),
    /// [`Task::Lint`] rows.
    Lint(Vec<LintRow>),
}

/// The typed outcome of one campaign run.
#[derive(Debug, Clone)]
pub struct Report {
    /// The plan that ran: benchmarks, effective configuration (seed,
    /// jobs and the other knobs), preset, and the task with its
    /// parameters.
    pub plan: CampaignPlan,
    /// Wall-clock time of the run.
    pub wall: Duration,
    /// The task-specific payload.
    pub data: ReportData,
    /// Collected spans + counters when the campaign ran with
    /// [`Campaign::trace`] enabled. Out-of-band: never rendered into
    /// the text or `musa.campaign.v1` JSON outputs (see
    /// [`crate::trace_report`] for its sinks).
    pub trace: Option<musa_trace::TraceData>,
}

impl Report {
    /// Renders the report as pretty-printed JSON with a stable schema
    /// (`musa.campaign.v1`); pinned by the golden-file test in
    /// `tests/cli.rs`.
    ///
    /// The bench and lint tasks are the two exceptions: each emits its
    /// own document (`musa.bench.v1` / `musa.lint.v1`) instead of the
    /// campaign envelope, so the output is exactly what `BENCH_<n>.json`
    /// commits / the lint golden files pin.
    pub fn to_json(&self) -> String {
        if let ReportData::Bench(report) = &self.data {
            return report.to_json();
        }
        if let ReportData::Lint(rows) = &self.data {
            let benches: Vec<String> =
                self.plan.benches.iter().map(|b| b.name().to_string()).collect();
            return lint_report_json(&benches, rows);
        }
        Json::Obj(vec![
            ("schema", Json::str("musa.campaign.v1")),
            ("meta", self.meta_json()),
            ("params", self.params_json()),
            ("data", self.data_json()),
        ])
        .render()
    }

    fn meta_json(&self) -> Json {
        let (plan, config) = (&self.plan, &self.plan.config);
        Json::Obj(vec![
            ("task", Json::str(plan.task.slug())),
            (
                "benches",
                Json::Arr(plan.benches.iter().map(|b| Json::str(b.name())).collect()),
            ),
            ("seed", Json::UInt(config.seed)),
            ("jobs", Json::count(config.jobs)),
            // Every sweep runs on the lane engine; the line stays
            // because every recorded benchmark digest hashes it.
            ("engine", Json::str(Engine::Lanes.name())),
            (
                "fault_reduce",
                Json::str(if config.fault_reduce { "on" } else { "off" }),
            ),
            (
                "screen",
                Json::str(if config.screen { "static" } else { "off" }),
            ),
            // The lane executor's one level, kept only because every
            // recorded benchmark digest hashes this line.
            ("opt", Json::str(config.opt.name())),
            ("preset", Json::str(plan.preset.to_string())),
            ("wall_ms", Json::count(self.wall.as_millis() as usize)),
        ])
    }

    fn params_json(&self) -> Json {
        match &self.plan.task {
            Task::Sampling { fraction } | Task::Table2 { fraction } => {
                Json::Obj(vec![("fraction", Json::Float(*fraction))])
            }
            Task::OperatorProfile { operators } | Task::Table1 { operators } => Json::Obj(vec![(
                "operators",
                Json::Arr(operators.iter().map(|o| Json::str(o.acronym())).collect()),
            )]),
            Task::MutationGuided => Json::Obj(vec![]),
            Task::SweepFraction { fractions } => Json::Obj(vec![(
                "fractions",
                Json::Arr(fractions.iter().map(|&f| Json::Float(f)).collect()),
            )]),
            Task::CoverageCurves { points } => {
                Json::Obj(vec![("points", Json::count(*points))])
            }
            Task::AtpgTopup { backtrack_limit } => Json::Obj(vec![(
                "backtrack_limit",
                Json::UInt(*backtrack_limit),
            )]),
            Task::EquivalenceAblation { budgets } => Json::Obj(vec![(
                "budgets",
                Json::Arr(budgets.iter().map(|&b| Json::count(b)).collect()),
            )]),
            Task::Bench { quick } => Json::Obj(vec![("quick", Json::Bool(*quick))]),
            Task::Lint => Json::Obj(vec![]),
        }
    }

    fn data_json(&self) -> Json {
        match &self.data {
            ReportData::Sampling(rows) => Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::Obj(vec![
                            ("bench", Json::str(&r.bench)),
                            ("outcome", outcome_json(&r.outcome)),
                        ])
                    })
                    .collect(),
            ),
            ReportData::OperatorProfile(profiles) => Json::Arr(
                profiles
                    .iter()
                    .map(|p| {
                        Json::Obj(vec![
                            ("circuit", Json::str(&p.circuit)),
                            (
                                "rows",
                                Json::Arr(
                                    p.rows
                                        .iter()
                                        .map(|r| {
                                            Json::Obj(vec![
                                                ("operator", Json::str(r.operator.acronym())),
                                                ("mutants", Json::count(r.mutants)),
                                                ("data_len", Json::count(r.data_len)),
                                                (
                                                    "mutation_fault_coverage",
                                                    Json::Float(r.mutation_fault_coverage),
                                                ),
                                                ("metrics", metrics_json(&r.metrics)),
                                                (
                                                    "faults_simulated",
                                                    Json::count(r.fault_sim.faults_simulated),
                                                ),
                                                (
                                                    "faults_total",
                                                    Json::count(r.fault_sim.faults_total),
                                                ),
                                            ])
                                        })
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
            ReportData::MutationGuided(rows) => Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::Obj(vec![
                            ("bench", Json::str(&r.bench)),
                            ("population", Json::count(r.population)),
                            ("sessions", Json::count(r.sessions)),
                            ("total_len", Json::count(r.total_len)),
                            ("killed", Json::count(r.killed)),
                            ("rounds", Json::count(r.rounds)),
                        ])
                    })
                    .collect(),
            ),
            ReportData::Table1(table) => Json::Obj(vec![(
                "rows",
                Json::Arr(
                    table
                        .rows
                        .iter()
                        .map(|r| {
                            Json::Obj(vec![
                                ("circuit", Json::str(&r.circuit)),
                                ("operator", Json::str(r.operator.acronym())),
                                ("delta_fc_pct", Json::Float(r.delta_fc_pct)),
                                ("delta_l_pct", Json::Float(r.delta_l_pct)),
                                ("nlfce", Json::Float(r.nlfce)),
                            ])
                        })
                        .collect(),
                ),
            )]),
            ReportData::Table2(table) => Json::Obj(vec![(
                "rows",
                Json::Arr(
                    table
                        .rows
                        .iter()
                        .map(|r| {
                            Json::Obj(vec![
                                ("circuit", Json::str(&r.circuit)),
                                ("sampled", Json::count(r.sampled)),
                                ("test_oriented", outcome_json(&r.test_oriented)),
                                ("random", outcome_json(&r.random)),
                            ])
                        })
                        .collect(),
                ),
            )]),
            ReportData::SweepFraction(rows) => Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::Obj(vec![
                            ("bench", Json::str(&r.bench)),
                            (
                                "points",
                                Json::Arr(
                                    r.points
                                        .iter()
                                        .map(|p| {
                                            Json::Obj(vec![
                                                ("fraction", Json::Float(p.fraction)),
                                                (
                                                    "test_oriented",
                                                    outcome_json(&p.test_oriented),
                                                ),
                                                ("random", outcome_json(&p.random)),
                                            ])
                                        })
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
            ReportData::CoverageCurves(pairs) => Json::Arr(
                pairs
                    .iter()
                    .map(|p| {
                        Json::Obj(vec![
                            ("circuit", Json::str(&p.circuit)),
                            ("mutation", curve_json(&p.mutation)),
                            ("random", curve_json(&p.random)),
                        ])
                    })
                    .collect(),
            ),
            ReportData::AtpgTopup(rows) => Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::Obj(vec![
                            ("bench", Json::str(&r.bench)),
                            (
                                "modes",
                                Json::Arr(
                                    r.modes
                                        .iter()
                                        .map(|o| {
                                            Json::Obj(vec![
                                                ("mode", Json::str(o.mode.label())),
                                                (
                                                    "initial_vectors",
                                                    Json::count(o.initial_vectors),
                                                ),
                                                ("atpg_targets", Json::count(o.atpg_targets)),
                                                ("backtracks", Json::UInt(o.backtracks)),
                                                ("atpg_vectors", Json::count(o.atpg_vectors)),
                                                ("untestable", Json::count(o.untestable)),
                                                ("aborted", Json::count(o.aborted)),
                                                (
                                                    "final_coverage",
                                                    Json::Float(o.final_coverage),
                                                ),
                                            ])
                                        })
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
            ReportData::EquivalenceAblation(rows) => Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::Obj(vec![
                            ("bench", Json::str(&r.bench)),
                            (
                                "points",
                                Json::Arr(
                                    r.points
                                        .iter()
                                        .map(|p| {
                                            Json::Obj(vec![
                                                ("budget", Json::count(p.budget)),
                                                ("equivalent", Json::count(p.equivalent)),
                                                ("score", score_json(&p.score)),
                                            ])
                                        })
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
            ReportData::Bench(report) => report.json(),
            // Unreachable through `to_json` (the lint early-return owns
            // the document), kept total for hand-built reports.
            ReportData::Lint(rows) => Json::Obj(vec![(
                "findings",
                Json::count(crate::lint_task::total_findings(rows)),
            )]),
        }
    }

    /// Renders the report as the pre-redesign CLI text — byte-identical
    /// to what `musa sample` and the six bench binaries printed before
    /// the campaign API existed (pinned by the CLI diff tests).
    pub fn render_text(&self) -> String {
        let plan = &self.plan;
        let mut out = String::new();
        match (&plan.task, &self.data) {
            (Task::Sampling { fraction }, ReportData::Sampling(rows)) => {
                for row in rows {
                    render_sampling(&mut out, row, *fraction, plan);
                }
            }
            (Task::Table1 { .. }, ReportData::Table1(table)) => {
                render_table1(&mut out, table, plan);
            }
            (Task::Table2 { fraction }, ReportData::Table2(table)) => {
                render_table2(&mut out, table, *fraction, plan);
            }
            (Task::SweepFraction { .. }, ReportData::SweepFraction(rows)) => {
                render_sweep(&mut out, rows, plan);
            }
            (Task::CoverageCurves { .. }, ReportData::CoverageCurves(pairs)) => {
                render_curves(&mut out, pairs, plan);
            }
            (Task::AtpgTopup { .. }, ReportData::AtpgTopup(rows)) => {
                render_topup(&mut out, rows, plan);
            }
            (Task::EquivalenceAblation { .. }, ReportData::EquivalenceAblation(rows)) => {
                render_ablation(&mut out, rows, plan);
            }
            (Task::OperatorProfile { .. }, ReportData::OperatorProfile(profiles)) => {
                render_profiles(&mut out, profiles, plan);
            }
            (Task::MutationGuided, ReportData::MutationGuided(rows)) => {
                render_mg(&mut out, rows, plan);
            }
            (Task::Bench { .. }, ReportData::Bench(report)) => {
                render_bench(&mut out, report);
            }
            (Task::Lint, ReportData::Lint(rows)) => {
                out.push_str(&render_lint_text(rows));
            }
            // `Campaign::run` always pairs task and data, but the
            // fields are public — render a hand-built mismatch
            // honestly instead of panicking.
            _ => {
                let _ = writeln!(
                    out,
                    "report task/data mismatch: task `{}` does not describe the payload",
                    plan.task.slug()
                );
            }
        }
        out
    }
}

/// The `musa.campaign.v1` JSON encoding of one [`SamplingOutcome`] —
/// the exact value [`Report::to_json`] embeds for sampling-family
/// tasks.
fn outcome_json(o: &SamplingOutcome) -> Json {
    Json::Obj(vec![
        ("strategy", Json::str(o.strategy)),
        ("population", Json::count(o.population)),
        ("sampled", Json::count(o.sampled)),
        ("mutation_score_pct", Json::Float(o.mutation_score_pct)),
        ("score", score_json(&o.score)),
        ("metrics", metrics_json(&o.metrics)),
        ("nlfce", Json::Float(o.nlfce)),
        ("data_len", Json::count(o.data_len)),
        ("faults_simulated", Json::count(o.fault_sim.faults_simulated)),
        ("faults_total", Json::count(o.fault_sim.faults_total)),
        ("screened", Json::count(o.screened)),
    ])
}

/// The `musa.campaign.v1` JSON encoding of a [`MutationScore`].
fn score_json(s: &MutationScore) -> Json {
    Json::Obj(vec![
        ("generated", Json::count(s.generated)),
        ("killed", Json::count(s.killed)),
        ("equivalent", Json::count(s.equivalent)),
    ])
}

/// The `musa.campaign.v1` JSON encoding of an [`Nlfce`] metrics block.
fn metrics_json(m: &Nlfce) -> Json {
    Json::Obj(vec![
        ("delta_fc_pct", Json::Float(m.delta_fc_pct)),
        ("delta_l_pct", Json::Float(m.delta_l_pct)),
        ("nlfce", Json::Float(m.nlfce)),
        ("mutation_len", Json::count(m.mutation_len)),
        ("random_len_at_equal_fc", Json::opt_count(m.random_len_at_equal_fc)),
    ])
}

/// The `musa.campaign.v1` JSON encoding of a coverage curve (an array
/// of `[length, coverage]` pairs).
fn curve_json(samples: &[(usize, f64)]) -> Json {
    Json::Arr(
        samples
            .iter()
            .map(|&(len, cov)| Json::Arr(vec![Json::count(len), Json::Float(cov)]))
            .collect(),
    )
}

// ---------------------------------------------------------------------
// Text renderers — byte-identical to the pre-redesign binaries
// ---------------------------------------------------------------------

use std::fmt::Write as _;

fn render_sampling(out: &mut String, row: &BenchOutcome, fraction: f64, plan: &CampaignPlan) {
    let (o, config) = (&row.outcome, &plan.config);
    let _ = writeln!(
        out,
        "{}: {} strategy, {:.0}% sample, {} jobs, lanes engine, {} preset, seed {:#x}",
        row.bench,
        o.strategy,
        fraction * 100.0,
        resolve_jobs(config.jobs),
        plan.preset,
        config.seed,
    );
    let _ = writeln!(
        out,
        "  population {}  sampled {}  MS {:.2}%  (K={} E={} of M={})",
        o.population,
        o.sampled,
        o.mutation_score_pct,
        o.score.killed,
        o.score.equivalent,
        o.score.generated
    );
    let _ = writeln!(
        out,
        "  NLFCE {:+.1}  (dFC {:+.2}%  dL {:+.2}%)  data length {}",
        o.nlfce, o.metrics.delta_fc_pct, o.metrics.delta_l_pct, o.data_len
    );
}

fn render_config_header(out: &mut String, title: &str, plan: &CampaignPlan) {
    let _ = writeln!(out, "{title}");
    let _ = writeln!(out, "(config: {} preset, seed {:#x})\n", plan.preset, plan.config.seed);
}

fn render_table1(out: &mut String, table: &Table1, plan: &CampaignPlan) {
    render_config_header(out, "Table 1: Operator Fault Coverage Efficiency", plan);
    let _ = writeln!(out, "{}", table.render());

    let _ = writeln!(out, "Paper-reported values for comparison:");
    let _ = writeln!(out, "Circuit  Operator   dFC%    dL%  NLFCE");
    let _ = writeln!(out, "---------------------------------------");
    for &(circuit, op, dfc, dl, nlfce) in crate::paper::TABLE1 {
        let _ = writeln!(out, "{circuit:<8} {op:<8} {dfc:>6.2} {dl:>6.2} {nlfce:>+6.0}");
    }

    // Shape summary: is LOR the least efficient operator per circuit?
    let _ = writeln!(out, "\nShape check (measured):");
    for profile_circuit in table
        .rows
        .iter()
        .map(|r| r.circuit.clone())
        .collect::<BTreeSet<_>>()
    {
        let mut rows: Vec<_> = table
            .rows
            .iter()
            .filter(|r| r.circuit == profile_circuit)
            .collect();
        rows.sort_by(|a, b| a.nlfce.partial_cmp(&b.nlfce).unwrap());
        let order: Vec<&str> = rows.iter().map(|r| r.operator.acronym()).collect();
        let _ = writeln!(
            out,
            "  {profile_circuit}: NLFCE order (worst -> best): {}",
            order.join(" < ")
        );
    }
}

fn render_table2(out: &mut String, table: &Table2, fraction: f64, plan: &CampaignPlan) {
    render_config_header(
        out,
        &format!(
            "Table 2: Test-Oriented Sampling vs Random Mutant Sampling ({:.0}%)",
            fraction * 100.0
        ),
        plan,
    );
    let _ = writeln!(out, "{}", table.render());

    let _ = writeln!(out, "Paper-reported values for comparison:");
    let _ = writeln!(out, "Circuit  TO MS%  TO NLFCE  RS MS%  RS NLFCE");
    let _ = writeln!(out, "--------------------------------------------");
    for &(circuit, to_ms, to_nlfce, rs_ms, rs_nlfce) in crate::paper::TABLE2 {
        let _ = writeln!(
            out,
            "{circuit:<8} {to_ms:>6.2} {to_nlfce:>+9.0} {rs_ms:>6.2} {rs_nlfce:>+9.0}"
        );
    }

    let _ = writeln!(out, "\nShape check (measured): test-oriented wins on");
    for row in &table.rows {
        let ms_win = row.test_oriented.mutation_score_pct >= row.random.mutation_score_pct;
        let nlfce_win = row.test_oriented.nlfce >= row.random.nlfce;
        let _ = writeln!(
            out,
            "  {}: MS {}  NLFCE {}",
            row.circuit,
            if ms_win { "yes" } else { "NO" },
            if nlfce_win { "yes" } else { "NO" },
        );
    }
}

fn render_sweep(out: &mut String, rows: &[BenchSweep], plan: &CampaignPlan) {
    let _ = writeln!(out, "E1: Sampling-fraction sweep (seed {:#x})\n", plan.config.seed);
    for row in rows {
        let mut table = Table::new(vec![
            ("Fraction", Align::Right),
            ("Mutants", Align::Right),
            ("TO MS%", Align::Right),
            ("TO NLFCE", Align::Right),
            ("RS MS%", Align::Right),
            ("RS NLFCE", Align::Right),
        ]);
        for p in &row.points {
            table.row(vec![
                format!("{:.0}%", p.fraction * 100.0),
                p.test_oriented.sampled.to_string(),
                f2(p.test_oriented.mutation_score_pct),
                signed0(p.test_oriented.nlfce),
                f2(p.random.mutation_score_pct),
                signed0(p.random.nlfce),
            ]);
        }
        let _ = writeln!(out, "{}:\n{}", row.bench, table.render());
    }
}

fn ascii_plot(series: &[(usize, f64)], width: usize) -> String {
    let mut out = String::new();
    for &(len, cov) in series {
        let bar = (cov * width as f64).round() as usize;
        let _ = writeln!(
            out,
            "  {:>6} | {}{} {:.1}%",
            len,
            "#".repeat(bar),
            " ".repeat(width.saturating_sub(bar)),
            100.0 * cov
        );
    }
    out
}

fn render_curves(out: &mut String, pairs: &[CurvePair], plan: &CampaignPlan) {
    let _ = writeln!(out, "E2: Coverage-vs-length curves (seed {:#x})\n", plan.config.seed);
    for pair in pairs {
        let _ = writeln!(out, "{} — mutation data (MFC):", pair.circuit);
        out.push_str(&ascii_plot(&pair.mutation, 40));
        let _ = writeln!(out, "{} — pseudo-random baseline (RFC):", pair.circuit);
        out.push_str(&ascii_plot(&pair.random, 40));
        out.push('\n');
    }
}

fn render_topup(out: &mut String, rows: &[BenchTopUp], plan: &CampaignPlan) {
    let _ = writeln!(
        out,
        "E3: ATPG top-up after validation-data reuse (seed {:#x})\n",
        plan.config.seed
    );
    for row in rows {
        let mut table = Table::new(vec![
            ("Initial data", Align::Left),
            ("Init vecs", Align::Right),
            ("ATPG targets", Align::Right),
            ("Backtracks", Align::Right),
            ("ATPG vecs", Align::Right),
            ("Untestable", Align::Right),
            ("Aborted", Align::Right),
            ("Final FC%", Align::Right),
        ]);
        for o in &row.modes {
            table.row(vec![
                o.mode.label().to_string(),
                o.initial_vectors.to_string(),
                o.atpg_targets.to_string(),
                o.backtracks.to_string(),
                o.atpg_vectors.to_string(),
                o.untestable.to_string(),
                o.aborted.to_string(),
                pct(o.final_coverage),
            ]);
        }
        let _ = writeln!(out, "{}:\n{}", row.bench, table.render());
    }
}

fn render_ablation(out: &mut String, rows: &[BenchAblation], plan: &CampaignPlan) {
    let _ = writeln!(out, "E4: Equivalence-budget ablation (seed {:#x})\n", plan.config.seed);
    for row in rows {
        let mut table = Table::new(vec![
            ("Budget", Align::Right),
            ("Equivalent", Align::Right),
            ("MS%", Align::Right),
        ]);
        for p in &row.points {
            table.row(vec![
                p.budget.to_string(),
                p.equivalent.to_string(),
                f2(p.score.percent()),
            ]);
        }
        let _ = writeln!(out, "{}:\n{}", row.bench, table.render());
    }
}

fn render_profiles(out: &mut String, profiles: &[OperatorProfile], plan: &CampaignPlan) {
    let _ = writeln!(out, "Operator profiles (seed {:#x})\n", plan.config.seed);
    for profile in profiles {
        let mut table = Table::new(vec![
            ("Operator", Align::Left),
            ("Mutants", Align::Right),
            ("Length", Align::Right),
            ("FC%", Align::Right),
            ("NLFCE", Align::Right),
        ]);
        for row in &profile.rows {
            table.row(vec![
                row.operator.acronym().to_string(),
                row.mutants.to_string(),
                row.data_len.to_string(),
                pct(row.mutation_fault_coverage),
                signed0(row.metrics.nlfce),
            ]);
        }
        let _ = writeln!(out, "{}:\n{}", profile.circuit, table.render());
    }
}

fn render_bench(out: &mut String, report: &BenchReport) {
    let m = &report.meta;
    let _ = writeln!(
        out,
        "Benchmark trajectory ({} mode, seed {:#x}, {} cpus, {} build, {} warmup + {} samples per cell)\n",
        if m.quick { "quick" } else { "full" },
        m.seed,
        m.cpus,
        if m.debug { "debug" } else { "release" },
        m.warmup,
        m.samples,
    );
    let mut table = Table::new(vec![
        ("Cell", Align::Left),
        ("Median ms", Align::Right),
        ("MAD ms", Align::Right),
        ("Min ms", Align::Right),
        ("Invariants", Align::Left),
    ]);
    for cell in &report.cells {
        table.row(vec![
            cell.id(),
            f2(cell.wall.median / 1e6),
            f2(cell.wall.mad / 1e6),
            f2(cell.wall.min / 1e6),
            cell.invariants.summary(),
        ]);
    }
    let _ = writeln!(out, "{}", table.render());
}

fn render_mg(out: &mut String, rows: &[MgOutcome], plan: &CampaignPlan) {
    let _ = writeln!(out, "Mutation-guided generation (seed {:#x})\n", plan.config.seed);
    let mut table = Table::new(vec![
        ("Circuit", Align::Left),
        ("Population", Align::Right),
        ("Sessions", Align::Right),
        ("Vectors", Align::Right),
        ("Killed", Align::Right),
        ("Rounds", Align::Right),
    ]);
    for row in rows {
        table.row(vec![
            row.bench.clone(),
            row.population.to_string(),
            row.sessions.to_string(),
            row.total_len.to_string(),
            row.killed.to_string(),
            row.rounds.to_string(),
        ]);
    }
    let _ = writeln!(out, "{}", table.render());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sampling_report() -> Report {
        Campaign::named("c17")
            .fast()
            .seed(7)
            .jobs(2)
            .task(Task::Sampling { fraction: 0.5 })
            .run()
            .unwrap()
    }

    #[test]
    fn unknown_bench_is_a_validation_error() {
        let err = Campaign::named("b99")
            .fast()
            .task(Task::Sampling { fraction: 0.5 })
            .run()
            .unwrap_err();
        assert!(matches!(err, CampaignError::UnknownBench(ref n) if n == "b99"), "{err}");
        assert_eq!(err.to_string(), "unknown benchmark `b99`");
    }

    #[test]
    fn zero_repetitions_is_a_validation_error() {
        let mut config = ExperimentConfig::fast(1);
        config.repetitions = 0;
        let err = Campaign::new(Benchmark::C17)
            .config(config)
            .task(Task::Sampling { fraction: 0.5 })
            .validate()
            .unwrap_err();
        assert!(matches!(err, CampaignError::ZeroRepetitions), "{err}");
    }

    #[test]
    fn conflicting_presets_are_a_validation_error() {
        let err = Campaign::new(Benchmark::C17)
            .paper()
            .fast()
            .task(Task::Sampling { fraction: 0.5 })
            .validate()
            .unwrap_err();
        assert!(matches!(err, CampaignError::PresetConflict), "{err}");
    }

    #[test]
    fn missing_task_and_empty_benches_are_validation_errors() {
        let err = Campaign::new(Benchmark::C17).validate().unwrap_err();
        assert!(matches!(err, CampaignError::MissingTask), "{err}");
        let err = Campaign::new(Benchmark::C17)
            .benches(&[])
            .task(Task::MutationGuided)
            .validate()
            .unwrap_err();
        assert!(matches!(err, CampaignError::NoBenchmarks), "{err}");
    }

    #[test]
    fn out_of_range_fractions_are_validation_errors() {
        for fraction in [0.0, -0.25, 1.5] {
            let err = Campaign::new(Benchmark::C17)
                .fast()
                .task(Task::Sampling { fraction })
                .validate()
                .unwrap_err();
            assert!(matches!(err, CampaignError::BadFraction(_)), "{fraction}: {err}");
            assert_eq!(err.to_string(), "fraction must be in (0, 1]");
        }
        let err = Campaign::new(Benchmark::C17)
            .fast()
            .task(Task::SweepFraction { fractions: vec![0.5, 0.0] })
            .validate()
            .unwrap_err();
        assert!(matches!(err, CampaignError::BadFraction(_)), "{err}");
    }

    #[test]
    fn explicit_config_is_taken_as_is_and_reports_the_custom_preset() {
        // A supplied config keeps its own sub-seeds (only an explicit
        // .seed() restamps them) and the report says "custom", never a
        // preset that was not applied.
        let mut config = ExperimentConfig::fast(7);
        config.equivalence.seed = 99;
        config.mg.seed = 42;
        let report = Campaign::new(Benchmark::C17)
            .config(config)
            .task(Task::MutationGuided)
            .run()
            .unwrap();
        assert_eq!(report.plan.preset, Preset::Custom);
        assert_eq!(report.plan.config.seed, 7);
        assert!(report.to_json().contains("\"preset\": \"custom\""));
        // The custom mg sub-seed was actually used: the campaign's
        // output reproduces a direct generator call with config.mg.
        let ctx = BenchContext::new(Benchmark::C17.load().unwrap(), &config);
        let circuit = ctx.circuit();
        let direct_mg = mutation_guided_tests(
            &circuit.checked,
            &circuit.name,
            ctx.population(),
            &config.mg,
        )
        .unwrap();
        let ReportData::MutationGuided(rows) = &report.data else { panic!() };
        assert_eq!(rows[0].total_len, direct_mg.total_len());
        assert_eq!(rows[0].killed, direct_mg.killed_count());
        assert_eq!(rows[0].rounds, direct_mg.rounds);
        // With .seed(), all three seeds restamp.
        let direct = Campaign::new(Benchmark::C17)
            .fast()
            .seed(7)
            .task(Task::MutationGuided)
            .run()
            .unwrap();
        let restamped = Campaign::new(Benchmark::C17)
            .config(config)
            .seed(7)
            .task(Task::MutationGuided)
            .run()
            .unwrap();
        let ReportData::MutationGuided(a) = &direct.data else { panic!() };
        let ReportData::MutationGuided(b) = &restamped.data else { panic!() };
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn atpg_topup_rejects_sequential_benchmarks() {
        let err = Campaign::new(Benchmark::B01)
            .fast()
            .task(Task::AtpgTopup { backtrack_limit: 100 })
            .run()
            .unwrap_err();
        assert!(matches!(err, CampaignError::NotCombinational(ref n) if n == "b01"), "{err}");
    }

    #[test]
    fn validation_happens_before_any_work() {
        // validate() alone never loads a circuit — it must be instant
        // even for the paper preset.
        Campaign::new(Benchmark::C432)
            .paper()
            .task(Task::Table2 { fraction: 0.10 })
            .validate()
            .unwrap();
    }

    #[test]
    fn sampling_campaign_reports_and_renders() {
        let report = sampling_report();
        assert_eq!(report.plan.benches, [Benchmark::C17]);
        assert_eq!(report.plan.config.seed, 7);
        assert_eq!(report.plan.config.jobs, 2);
        assert_eq!(report.plan.preset, Preset::Fast);
        let text = report.render_text();
        assert!(
            text.starts_with("c17: random strategy, 50% sample, 2 jobs, lanes engine, fast preset, seed 0x7\n"),
            "{text}"
        );
        assert!(text.contains("  population "), "{text}");
        assert!(text.ends_with('\n'), "{text:?}");
    }

    #[test]
    fn campaign_outcome_matches_the_free_function() {
        // The front door must not change a single bit of the result.
        let report = sampling_report();
        let ReportData::Sampling(rows) = &report.data else { panic!() };
        let ctx = BenchContext::new(
            Benchmark::C17.load().unwrap(),
            &ExperimentConfig::fast(7).with_jobs(2),
        );
        let direct = run_sampling_experiment(&ctx, SamplingStrategy::random(0.5)).unwrap();
        assert_eq!(format!("{:?}", rows[0].outcome), format!("{direct:?}"));
    }

    #[test]
    fn json_has_the_pinned_envelope() {
        let report = sampling_report();
        let json = report.to_json();
        for key in [
            "\"schema\": \"musa.campaign.v1\"",
            "\"task\": \"sampling\"",
            "\"seed\": 7",
            "\"engine\": \"lanes\"",
            "\"preset\": \"fast\"",
            "\"wall_ms\":",
            "\"fraction\": 0.5",
            "\"mutation_score_pct\":",
            "\"random_len_at_equal_fc\":",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
    }

    #[test]
    fn jobs_knob_reaches_the_config_and_meta() {
        let report = Campaign::new(Benchmark::C17)
            .fast()
            .seed(7)
            .jobs(3)
            .task(Task::MutationGuided)
            .run()
            .unwrap();
        assert_eq!(report.plan.config.jobs, 3);
        let json = report.to_json();
        assert!(json.contains("\"jobs\": 3,"), "{json}");
        // The meta names the engine every sweep runs on.
        assert!(json.contains("\"engine\": \"lanes\","), "{json}");
        assert_eq!(report.plan.task.slug(), "mutation-guided");
        let ReportData::MutationGuided(rows) = &report.data else { panic!() };
        assert_eq!(rows[0].bench, "c17");
        assert!(rows[0].killed > 0);
        assert!(rows[0].total_len > 0);
    }

    #[test]
    fn bench_task_emits_the_bench_document_not_the_campaign_envelope() {
        let report = Campaign::new(Benchmark::C17)
            .fast()
            .seed(7)
            .task(Task::Bench { quick: true })
            .run()
            .unwrap();
        assert_eq!(report.plan.task.slug(), "bench");
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"musa.bench.v1\""), "{json}");
        assert!(!json.contains("musa.campaign.v1"), "{json}");
        let parsed = BenchReport::from_json(&json).unwrap();
        assert_eq!(parsed.meta.seed, 7);
        assert!(parsed.meta.quick);
        let text = report.render_text();
        assert!(text.starts_with("Benchmark trajectory (quick mode, seed 0x7"), "{text}");
        assert!(text.contains("mutant_exec/c17/lanes/jobs=auto"), "{text}");
        assert!(text.contains("fault_sim/c17/reduce=on"), "{text}");
    }

    #[test]
    fn operator_profile_task_runs() {
        let report = Campaign::new(Benchmark::C17)
            .fast()
            .seed(3)
            .task(Task::OperatorProfile {
                operators: vec![MutationOperator::Lor, MutationOperator::Vr],
            })
            .run()
            .unwrap();
        let ReportData::OperatorProfile(profiles) = &report.data else { panic!() };
        assert_eq!(profiles[0].circuit, "c17");
        assert!(!profiles[0].rows.is_empty());
        assert!(report.render_text().contains("LOR"));
        assert!(report.to_json().contains("\"operator\": \"LOR\""));
    }
}
