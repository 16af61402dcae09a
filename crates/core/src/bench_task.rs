//! The benchmark-trajectory task: timed workloads, the `musa.bench.v1`
//! report, and the regression detector behind `musa bench --baseline`.
//!
//! Every performance claim in this repo used to live only in commit
//! messages. This module turns them into a **measured trajectory**: a
//! fixed grid of timed workloads per benchmark —
//!
//! * `mutant_exec` — full-population differential mutant execution over
//!   a fixed random sequence, per engine (`scalar`, `lanes`) × jobs
//!   (`1`, `auto`); the workload behind the lane engine's 9.2× claim;
//! * `fault_sim` — stuck-at fault simulation of the full collapsed
//!   fault universe over a fixed LFSR testbench, with dominance
//!   reduction off and on (planning **included** in the timed region,
//!   exactly like the `--fault-reduce` CLI path pays for it);
//!
//! each cell warmed up and sampled repeatedly, summarized with robust
//! statistics ([`RobustStats`]: median + MAD + min), and emitted as a
//! schema'd [`BenchReport`] (`musa.bench.v1`) through the hand-rolled
//! [`crate::json`] layer — written as `BENCH_<n>.json` at the repo root
//! to seed the committed trajectory.
//!
//! Alongside the timings, every cell records **non-timing invariants**
//! (population and kill counts, lane passes, `faults_simulated` /
//! `faults_total`, detected faults). These are bit-stable across runs
//! and machines — the run itself asserts per-sample stability — so the
//! regression detector ([`compare`]) can gate a noisy 1-CPU CI
//! container on exact invariant equality and the scalar/lanes
//! **engine ratio** rather than absolute wall time, while local runs
//! additionally gate absolute medians behind a MAD noise band.

use crate::campaign::{CampaignError, DEFAULT_SEED};
use crate::json::{self, Json, JsonValue};
use crate::parallel::available_jobs;
use crate::tables::TableError;
use musa_circuits::Benchmark;
use musa_metrics::RobustStats;
use musa_mutation::{
    first_kills_over, generate_mutants, Engine, GenerateOptions, LaneOptions, LanePlan, OptLevel,
};
use musa_netlist::{
    collapsed_faults, fault_simulate_sessions, fault_simulate_sessions_reduced,
    reduce_faults,
};
use musa_testgen::{random_sequence, testbench_patterns};
use std::fmt;
use std::time::Instant;

/// The schema tag every benchmark report carries.
pub const BENCH_SCHEMA: &str = "musa.bench.v1";

/// Sequence length of the `mutant_exec` workload. Part of the schema:
/// changing it changes the invariants, which breaks every committed
/// baseline.
pub const MUTANT_VECTORS: usize = 32;

/// Testbench length of the `fault_sim` workload (same caveat).
pub const FSIM_VECTORS: usize = 64;

/// The default benchmark set a bench campaign measures: one small
/// sequential circuit, one small combinational circuit, and the
/// largest combinational circuit the lane-engine claims were made on.
pub const DEFAULT_BENCHES: [Benchmark; 3] =
    [Benchmark::B01, Benchmark::C17, Benchmark::C432];

/// The timed workload of a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchWorkload {
    /// Full-population differential mutant execution.
    MutantExec,
    /// Full-universe stuck-at fault simulation.
    FaultSim,
}

impl BenchWorkload {
    /// The JSON/cell-id spelling.
    pub fn slug(self) -> &'static str {
        match self {
            BenchWorkload::MutantExec => "mutant_exec",
            BenchWorkload::FaultSim => "fault_sim",
        }
    }
}

/// Non-timing measurements of one cell. Every populated field is
/// **bit-stable** across runs, job counts and machines — the run
/// asserts per-sample stability, and [`compare`] gates on exact
/// equality against the baseline. Fields that don't apply to a
/// workload stay `None` (and render as `null`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CellInvariants {
    /// Mutant-population size (`mutant_exec`).
    pub population: Option<usize>,
    /// Mutants the sequence kills (`mutant_exec`).
    pub killed: Option<usize>,
    /// Lane-engine simulation passes (`mutant_exec` on `lanes`).
    pub lane_passes: Option<usize>,
    /// Collapsed fault-universe size (`fault_sim`).
    pub faults_total: Option<usize>,
    /// Faults that occupied simulation lanes (`fault_sim`; below
    /// `faults_total` when dominance reduction credits).
    pub faults_simulated: Option<usize>,
    /// Detected faults (`fault_sim`; identical with reduction on or
    /// off — that bit-identity is itself a gated invariant).
    pub detected: Option<usize>,
}

impl CellInvariants {
    /// Compact one-line rendering for text tables, e.g.
    /// `pop=408 killed=301 passes=7` or `sim=310/398 det=371`.
    pub fn summary(&self) -> String {
        let mut parts = Vec::new();
        if let Some(p) = self.population {
            parts.push(format!("pop={p}"));
        }
        if let Some(k) = self.killed {
            parts.push(format!("killed={k}"));
        }
        if let Some(p) = self.lane_passes {
            parts.push(format!("passes={p}"));
        }
        if let (Some(sim), Some(total)) = (self.faults_simulated, self.faults_total) {
            parts.push(format!("sim={sim}/{total}"));
        }
        if let Some(d) = self.detected {
            parts.push(format!("det={d}"));
        }
        parts.join(" ")
    }

    /// `(field name, baseline, current)` triples for the detector.
    fn fields(&self) -> [(&'static str, Option<usize>); 6] {
        [
            ("population", self.population),
            ("killed", self.killed),
            ("lane_passes", self.lane_passes),
            ("faults_total", self.faults_total),
            ("faults_simulated", self.faults_simulated),
            ("detected", self.detected),
        ]
    }
}

/// One grid cell: a workload on a benchmark under one knob setting,
/// with its timing summary and invariants.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchCell {
    /// The timed workload.
    pub workload: BenchWorkload,
    /// Benchmark name.
    pub bench: String,
    /// Mutant-execution engine (`mutant_exec` only).
    pub engine: Option<Engine>,
    /// Lane executor level (`mutant_exec` on `lanes` only; the scalar
    /// engine has no tapes): always [`OptLevel::Full`], printed as
    /// `"opt": "full"`. `None` also covers reports committed before the
    /// `opt` field existed. It does not enter the cell's id.
    pub opt: Option<OptLevel>,
    /// Worker threads, `0` = auto (`mutant_exec` only).
    pub jobs: Option<usize>,
    /// Dominance reduction on/off (`fault_sim` only).
    pub fault_reduce: Option<bool>,
    /// Robust wall-clock summary in nanoseconds.
    pub wall: RobustStats,
    /// The cell's bit-stable measurements.
    pub invariants: CellInvariants,
}

impl BenchCell {
    /// The stable cell identifier baselines and `--history` rows are
    /// matched on, e.g. `mutant_exec/c432/lanes/jobs=1` or
    /// `fault_sim/b01/reduce=on`. A lane cell has one id whether or not
    /// its report recorded the `opt` field.
    pub fn id(&self) -> String {
        match self.workload {
            BenchWorkload::MutantExec => format!(
                "mutant_exec/{}/{}/jobs={}",
                self.bench,
                self.engine.unwrap_or_default().name(),
                match self.jobs.unwrap_or(1) {
                    0 => "auto".to_string(),
                    n => n.to_string(),
                },
            ),
            BenchWorkload::FaultSim => format!(
                "fault_sim/{}/reduce={}",
                self.bench,
                if self.fault_reduce.unwrap_or(false) { "on" } else { "off" },
            ),
        }
    }
}

/// Machine and configuration metadata stamped into every report.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchMeta {
    /// Available CPUs on the measuring machine.
    pub cpus: usize,
    /// Whether the binary was built with debug assertions.
    pub debug: bool,
    /// `git describe --always --dirty` of the measured tree, when a
    /// git binary and repository were reachable.
    pub git: Option<String>,
    /// Quick mode (fewer warmup passes and samples; same grid).
    pub quick: bool,
    /// Master seed the workloads derive their inputs from.
    pub seed: u64,
    /// [`MUTANT_VECTORS`] at measurement time.
    pub mutant_vectors: usize,
    /// [`FSIM_VECTORS`] at measurement time.
    pub fsim_vectors: usize,
    /// Warmup passes per cell.
    pub warmup: usize,
    /// Timed samples per cell.
    pub samples: usize,
    /// Wall-clock of the whole run, milliseconds.
    pub wall_ms: u64,
}

/// A complete `musa.bench.v1` benchmark report.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Machine and configuration metadata.
    pub meta: BenchMeta,
    /// Every measured grid cell, in grid order.
    pub cells: Vec<BenchCell>,
}

/// Options of one benchmark-trajectory run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchOptions {
    /// Quick mode: 1 warmup pass + 3 samples per cell instead of
    /// 3 + 9. The grid and every invariant are identical — quick runs
    /// compare against full baselines and vice versa.
    pub quick: bool,
    /// Master seed for the workload inputs.
    pub seed: u64,
}

impl Default for BenchOptions {
    fn default() -> Self {
        Self { quick: false, seed: DEFAULT_SEED }
    }
}

impl BenchOptions {
    fn warmup(&self) -> usize {
        if self.quick { 1 } else { 3 }
    }

    fn samples(&self) -> usize {
        if self.quick { 3 } else { 9 }
    }
}

/// `git describe --always --dirty` of the current tree, if git works
/// here; `None` (rendered `null`) otherwise — a report must never fail
/// because it was measured from an export tarball.
pub fn git_describe() -> Option<String> {
    let out = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    let trimmed = text.trim();
    (!trimmed.is_empty()).then(|| trimmed.to_string())
}

/// Times `samples` invocations of `f` after `warmup` untimed passes,
/// returning the robust summary plus every invocation's result (the
/// caller asserts the results are bit-stable).
fn measure<T>(
    warmup: usize,
    samples: usize,
    mut f: impl FnMut() -> Result<T, CampaignError>,
) -> Result<(RobustStats, Vec<T>), CampaignError> {
    for _ in 0..warmup {
        std::hint::black_box(f()?);
    }
    let mut times = Vec::with_capacity(samples);
    let mut results = Vec::with_capacity(samples);
    for _ in 0..samples {
        let started = Instant::now();
        let out = std::hint::black_box(f()?);
        times.push(started.elapsed().as_nanos() as f64);
        results.push(out);
    }
    Ok((RobustStats::of(&times), results))
}

/// Asserts all sampled invariants agree and returns the shared value.
fn stable(id: &str, results: Vec<CellInvariants>) -> CellInvariants {
    let first = results[0];
    for (i, r) in results.iter().enumerate() {
        assert_eq!(
            *r, first,
            "{id}: invariants drifted between sample 0 and sample {i} — \
             the workload is nondeterministic",
        );
    }
    first
}

/// Runs the benchmark grid over `benches` and returns the report.
///
/// # Errors
///
/// [`CampaignError::Run`] naming the failing benchmark when a circuit
/// fails to load or a mutant fails to execute.
pub fn run_bench(
    benches: &[Benchmark],
    opts: &BenchOptions,
) -> Result<BenchReport, CampaignError> {
    let started = Instant::now();
    let (warmup, samples) = (opts.warmup(), opts.samples());
    let mut cells = Vec::new();
    for &bench in benches {
        let _trace = musa_trace::span_detail("bench", || bench.name().to_string());
        let per_bench = |e: TableError| CampaignError::Run {
            bench: bench.name().to_string(),
            source: e,
        };
        let circuit = bench.load().map_err(|e| per_bench(e.into()))?;
        let mutants = generate_mutants(
            &circuit.checked,
            &circuit.name,
            &GenerateOptions::default(),
        );
        let sequence = random_sequence(circuit.info(), MUTANT_VECTORS, opts.seed);

        // -- mutant_exec: engine × jobs --------------------------------
        for (engine, opt) in [(Engine::Scalar, None), (Engine::Lanes, Some(OptLevel::Full))] {
            for jobs in [1usize, 0] {
                let mut cell = BenchCell {
                    workload: BenchWorkload::MutantExec,
                    bench: circuit.name.clone(),
                    engine: Some(engine),
                    opt,
                    jobs: Some(jobs),
                    fault_reduce: None,
                    wall: RobustStats::of(&[0.0]),
                    invariants: CellInvariants::default(),
                };
                // Compile + lowering happen once, outside the timed
                // region: the cell measures execution throughput, so a
                // lowering that trades compile time for run time shows
                // its run-time side here (compile cost is bounded by the
                // plan step and amortized over the whole campaign). The
                // all-live mask is built there too.
                let options = LaneOptions::default().with_jobs(jobs);
                let plan = match engine {
                    Engine::Scalar => None,
                    Engine::Lanes => Some(
                        LanePlan::new(&circuit.checked, &circuit.name, &mutants, &options)
                            .map_err(|e| per_bench(e.into()))?,
                    ),
                };
                let live = vec![true; mutants.len()];
                let (wall, results) = measure(warmup, samples, || {
                    let (killed, lane_passes) = match &plan {
                        None => {
                            let kills = first_kills_over(
                                &circuit.checked,
                                &circuit.name,
                                &mutants,
                                &[&sequence],
                                None,
                                Engine::Scalar,
                                &options,
                            )
                            .map_err(|e| per_bench(e.into()))?;
                            (kills.iter().flatten().count(), None)
                        }
                        Some(plan) => {
                            let (kills, stats) = plan
                                .first_kills(&sequence, &live, jobs)
                                .map_err(|e| per_bench(e.into()))?;
                            (kills.killed_count(), Some(stats.passes))
                        }
                    };
                    Ok(CellInvariants {
                        population: Some(mutants.len()),
                        killed: Some(killed),
                        lane_passes,
                        ..CellInvariants::default()
                    })
                })?;
                cell.wall = wall;
                cell.invariants = stable(&cell.id(), results);
                musa_trace::progress(|| format!("bench cell {} done", cell.id()));
                cells.push(cell);
            }
        }

        // -- fault_sim: reduction off/on ------------------------------
        let faults = collapsed_faults(&circuit.netlist);
        let patterns = testbench_patterns(&circuit.netlist, FSIM_VECTORS, opts.seed);
        let sessions = [patterns];
        for reduce in [false, true] {
            let mut cell = BenchCell {
                workload: BenchWorkload::FaultSim,
                bench: circuit.name.clone(),
                engine: None,
                opt: None,
                jobs: None,
                fault_reduce: Some(reduce),
                wall: RobustStats::of(&[0.0]),
                invariants: CellInvariants::default(),
            };
            let (wall, results) = measure(warmup, samples, || {
                let result = if reduce {
                    // Plan + simulate: the timed region pays for
                    // dominance planning exactly like the CLI path.
                    let reduction = reduce_faults(&circuit.netlist, &faults);
                    fault_simulate_sessions_reduced(
                        &circuit.netlist,
                        &reduction,
                        &sessions,
                    )
                } else {
                    fault_simulate_sessions(&circuit.netlist, &faults, &sessions)
                };
                Ok(CellInvariants {
                    faults_total: Some(faults.len()),
                    faults_simulated: Some(result.faults_simulated),
                    detected: Some(result.detected_count()),
                    ..CellInvariants::default()
                })
            })?;
            cell.wall = wall;
            cell.invariants = stable(&cell.id(), results);
            musa_trace::progress(|| format!("bench cell {} done", cell.id()));
            cells.push(cell);
        }
    }

    // Sharding must not change any lane outcome — pin the jobs
    // invariant identity right in the report run.
    for bench in benches {
        let lanes: Vec<&BenchCell> = cells
            .iter()
            .filter(|c| {
                c.workload == BenchWorkload::MutantExec
                    && c.bench == bench.name()
                    && c.engine == Some(Engine::Lanes)
            })
            .collect();
        for pair in lanes.windows(2) {
            assert_eq!(
                pair[0].invariants, pair[1].invariants,
                "{}: lane invariants differ across jobs settings ({} vs {})",
                bench.name(),
                pair[0].id(),
                pair[1].id(),
            );
        }
    }

    // Reduction must not change detection verdicts — pin the on/off
    // bit-identity right in the report run.
    for bench in benches {
        let detected: Vec<Option<usize>> = cells
            .iter()
            .filter(|c| {
                c.workload == BenchWorkload::FaultSim && c.bench == bench.name()
            })
            .map(|c| c.invariants.detected)
            .collect();
        assert!(
            detected.windows(2).all(|w| w[0] == w[1]),
            "{}: fault_sim detected counts differ across reduce settings: {detected:?}",
            bench.name(),
        );
    }

    Ok(BenchReport {
        meta: BenchMeta {
            cpus: available_jobs(),
            debug: cfg!(debug_assertions),
            git: git_describe(),
            quick: opts.quick,
            seed: opts.seed,
            mutant_vectors: MUTANT_VECTORS,
            fsim_vectors: FSIM_VECTORS,
            warmup,
            samples,
            wall_ms: started.elapsed().as_millis() as u64,
        },
        cells,
    })
}

// ---------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------

impl BenchReport {
    /// Renders the report as `musa.bench.v1` JSON (the format of the
    /// committed `BENCH_<n>.json` files; pinned by the golden test).
    pub fn to_json(&self) -> String {
        self.json().render()
    }

    /// The report as a JSON tree (the document [`Self::to_json`]
    /// renders).
    pub fn json(&self) -> Json {
        Json::Obj(vec![
            ("schema", Json::str(BENCH_SCHEMA)),
            (
                "meta",
                Json::Obj(vec![
                    ("cpus", Json::count(self.meta.cpus)),
                    ("debug", Json::Bool(self.meta.debug)),
                    (
                        "git",
                        self.meta.git.as_deref().map_or(Json::Null, Json::str),
                    ),
                    ("quick", Json::Bool(self.meta.quick)),
                    ("seed", Json::UInt(self.meta.seed)),
                    ("mutant_vectors", Json::count(self.meta.mutant_vectors)),
                    ("fsim_vectors", Json::count(self.meta.fsim_vectors)),
                    ("warmup", Json::count(self.meta.warmup)),
                    ("samples", Json::count(self.meta.samples)),
                    ("wall_ms", Json::UInt(self.meta.wall_ms)),
                ]),
            ),
            (
                "cells",
                Json::Arr(self.cells.iter().map(cell_json).collect()),
            ),
        ])
    }

    /// Parses a `musa.bench.v1` document (e.g. a committed
    /// `BENCH_<n>.json`).
    ///
    /// # Errors
    ///
    /// A human-readable message naming the malformed or missing field
    /// (or the JSON syntax error).
    pub fn from_json(text: &str) -> Result<Self, String> {
        let doc = json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
        let schema = doc
            .get("schema")
            .and_then(JsonValue::as_str)
            .ok_or("missing `schema`")?;
        if schema != BENCH_SCHEMA {
            return Err(format!(
                "schema mismatch: expected `{BENCH_SCHEMA}`, found `{schema}`"
            ));
        }
        let meta = doc.get("meta").ok_or("missing `meta`")?;
        let meta_usize = |key: &str| {
            meta.get(key)
                .and_then(JsonValue::as_usize)
                .ok_or(format!("missing or non-integer `meta.{key}`"))
        };
        let cells = doc
            .get("cells")
            .and_then(JsonValue::as_arr)
            .ok_or("missing `cells` array")?;
        Ok(BenchReport {
            meta: BenchMeta {
                cpus: meta_usize("cpus")?,
                debug: meta
                    .get("debug")
                    .and_then(JsonValue::as_bool)
                    .ok_or("missing `meta.debug`")?,
                git: meta
                    .get("git")
                    .and_then(JsonValue::as_str)
                    .map(str::to_string),
                quick: meta
                    .get("quick")
                    .and_then(JsonValue::as_bool)
                    .ok_or("missing `meta.quick`")?,
                seed: meta
                    .get("seed")
                    .and_then(JsonValue::as_u64)
                    .ok_or("missing `meta.seed`")?,
                mutant_vectors: meta_usize("mutant_vectors")?,
                fsim_vectors: meta_usize("fsim_vectors")?,
                warmup: meta_usize("warmup")?,
                samples: meta_usize("samples")?,
                wall_ms: meta
                    .get("wall_ms")
                    .and_then(JsonValue::as_u64)
                    .ok_or("missing `meta.wall_ms`")?,
            },
            cells: cells
                .iter()
                .enumerate()
                .filter_map(|(i, c)| {
                    cell_from_json(c).map_err(|e| format!("cells[{i}]: {e}")).transpose()
                })
                .collect::<Result<Vec<_>, String>>()?,
        })
    }
}

fn cell_json(cell: &BenchCell) -> Json {
    let opt_usize = |v: Option<usize>| v.map_or(Json::Null, Json::count);
    Json::Obj(vec![
        ("id", Json::str(cell.id())),
        ("workload", Json::str(cell.workload.slug())),
        ("bench", Json::str(&cell.bench)),
        (
            "engine",
            cell.engine.map_or(Json::Null, |e| Json::str(e.name())),
        ),
        ("opt", cell.opt.map_or(Json::Null, |o| Json::str(o.name()))),
        ("jobs", opt_usize(cell.jobs)),
        (
            "fault_reduce",
            cell.fault_reduce
                .map_or(Json::Null, |r| Json::str(if r { "on" } else { "off" })),
        ),
        (
            "wall",
            Json::Obj(vec![
                ("median_ns", Json::Float(cell.wall.median)),
                ("mad_ns", Json::Float(cell.wall.mad)),
                ("min_ns", Json::Float(cell.wall.min)),
                ("samples", Json::count(cell.wall.samples)),
            ]),
        ),
        (
            "invariants",
            Json::Obj(vec![
                ("population", opt_usize(cell.invariants.population)),
                ("killed", opt_usize(cell.invariants.killed)),
                ("lane_passes", opt_usize(cell.invariants.lane_passes)),
                ("faults_total", opt_usize(cell.invariants.faults_total)),
                (
                    "faults_simulated",
                    opt_usize(cell.invariants.faults_simulated),
                ),
                ("detected", opt_usize(cell.invariants.detected)),
            ]),
        ),
    ])
}

/// One cell of a report, or `None` for a cell of an executor that no
/// longer exists.
fn cell_from_json(value: &JsonValue) -> Result<Option<BenchCell>, String> {
    let workload = match value.get("workload").and_then(JsonValue::as_str) {
        Some("mutant_exec") => BenchWorkload::MutantExec,
        Some("fault_sim") => BenchWorkload::FaultSim,
        other => return Err(format!("unknown workload {other:?}")),
    };
    let bench = value
        .get("bench")
        .and_then(JsonValue::as_str)
        .ok_or("missing `bench`")?
        .to_string();
    let engine = match value.get("engine").and_then(JsonValue::as_str) {
        Some(name) => Some(name.parse::<Engine>()?),
        None => None,
    };
    let opt = match value.get("opt").and_then(JsonValue::as_str) {
        Some("full") => Some(OptLevel::Full),
        // The `lanes-noopt` cells of reports committed while the
        // raw-tape interpreter existed: nothing runs it any more.
        Some("off") => return Ok(None),
        Some(other) => return Err(format!("bad opt `{other}`")),
        // Reports committed before the `opt` field existed have no
        // `opt` key; their lane cells keep the legacy `lanes` id.
        None => None,
    };
    let fault_reduce = match value.get("fault_reduce").and_then(JsonValue::as_str) {
        Some("on") => Some(true),
        Some("off") => Some(false),
        Some(other) => return Err(format!("bad fault_reduce `{other}`")),
        None => None,
    };
    let wall = value.get("wall").ok_or("missing `wall`")?;
    let wall_f64 = |key: &str| {
        wall.get(key)
            .and_then(JsonValue::as_f64)
            .ok_or(format!("missing or non-numeric `wall.{key}`"))
    };
    let inv = value.get("invariants").ok_or("missing `invariants`")?;
    let inv_opt = |key: &str| -> Result<Option<usize>, String> {
        match inv.get(key) {
            None | Some(JsonValue::Null) => Ok(None),
            Some(v) => v
                .as_usize()
                .map(Some)
                .ok_or(format!("non-integer `invariants.{key}`")),
        }
    };
    Ok(Some(BenchCell {
        workload,
        bench,
        engine,
        opt,
        jobs: match value.get("jobs") {
            None | Some(JsonValue::Null) => None,
            Some(v) => Some(v.as_usize().ok_or("non-integer `jobs`")?),
        },
        fault_reduce,
        wall: RobustStats {
            median: wall_f64("median_ns")?,
            mad: wall_f64("mad_ns")?,
            min: wall_f64("min_ns")?,
            samples: wall
                .get("samples")
                .and_then(JsonValue::as_usize)
                .ok_or("missing `wall.samples`")?,
        },
        invariants: CellInvariants {
            population: inv_opt("population")?,
            killed: inv_opt("killed")?,
            lane_passes: inv_opt("lane_passes")?,
            faults_total: inv_opt("faults_total")?,
            faults_simulated: inv_opt("faults_simulated")?,
            detected: inv_opt("detected")?,
        },
    }))
}

// ---------------------------------------------------------------------
// Regression detection
// ---------------------------------------------------------------------

/// What the regression gate tolerates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComparePolicy {
    /// Maximum tolerated relative increase of a cell's wall-clock
    /// median before the (guarded) wall gate fires.
    pub max_wall_regression: f64,
    /// Maximum tolerated relative drop of the scalar/lanes speedup
    /// ratio before the (machine-independent) ratio gate fires.
    pub max_ratio_regression: f64,
    /// Cells whose baseline median is below this many nanoseconds are
    /// too fast to gate on wall time or to anchor a ratio: timer
    /// resolution and scheduler noise dominate.
    pub min_gate_ns: f64,
    /// The wall gate additionally requires the median shift to exceed
    /// this multiple of the summed MADs (a per-machine noise band).
    pub mad_guard: f64,
    /// Whether absolute wall-clock medians gate at all. Off for quick
    /// runs: a 1-CPU CI container gates on invariants + engine ratio
    /// only.
    pub gate_wall: bool,
}

impl ComparePolicy {
    /// The full-run policy: invariants, engine ratio **and** guarded
    /// absolute wall medians (>30 % median growth beyond 4 MADs of
    /// noise, cells ≥ 5 ms only).
    pub fn full() -> Self {
        Self {
            max_wall_regression: 0.30,
            max_ratio_regression: 0.30,
            min_gate_ns: 5_000_000.0,
            mad_guard: 4.0,
            gate_wall: true,
        }
    }

    /// The quick/CI policy: identical thresholds, but absolute wall
    /// time never gates — only invariants and the engine ratio do.
    pub fn quick() -> Self {
        Self { gate_wall: false, ..Self::full() }
    }
}

/// One gated regression found by [`compare`].
#[derive(Debug, Clone, PartialEq)]
pub enum Regression {
    /// A baseline cell is absent from the current run — the grid
    /// drifted, so the trajectory is no longer comparable.
    MissingCell {
        /// The baseline cell id.
        id: String,
    },
    /// A bit-stable invariant changed.
    Invariant {
        /// The cell id.
        id: String,
        /// The invariant field.
        field: &'static str,
        /// Baseline value.
        baseline: Option<usize>,
        /// Current value.
        current: Option<usize>,
    },
    /// A cell's wall-clock median regressed beyond threshold + noise
    /// band.
    Wall {
        /// The cell id.
        id: String,
        /// Baseline median, nanoseconds.
        baseline_ns: f64,
        /// Current median, nanoseconds.
        current_ns: f64,
        /// Relative change, percent (positive = slower).
        change_pct: f64,
    },
    /// The scalar/lanes speedup ratio dropped beyond threshold.
    EngineRatio {
        /// `(workload, bench, jobs)` key, e.g. `mutant_exec/c432/jobs=1`.
        key: String,
        /// Baseline scalar÷lanes median ratio.
        baseline: f64,
        /// Current scalar÷lanes median ratio.
        current: f64,
    },
}

impl fmt::Display for Regression {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Regression::MissingCell { id } => {
                write!(f, "{id}: missing from the current run (grid drift)")
            }
            Regression::Invariant { id, field, baseline, current } => write!(
                f,
                "{id}: invariant `{field}` changed: baseline {baseline:?}, current {current:?}"
            ),
            Regression::Wall { id, baseline_ns, current_ns, change_pct } => write!(
                f,
                "{id}: median wall {:.3} ms -> {:.3} ms ({change_pct:+.1} %)",
                baseline_ns / 1e6,
                current_ns / 1e6,
            ),
            Regression::EngineRatio { key, baseline, current } => write!(
                f,
                "{key}: scalar/lanes speedup ratio fell {baseline:.2}x -> {current:.2}x"
            ),
        }
    }
}

/// Scalar÷lanes median ratios per `(workload, bench, jobs)` key, for
/// cell pairs whose lanes median clears the gate floor.
fn engine_ratios(report: &BenchReport, min_gate_ns: f64) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for cell in &report.cells {
        if cell.engine != Some(Engine::Scalar) {
            continue;
        }
        let Some(partner) = report.cells.iter().find(|c| {
            c.workload == cell.workload
                && c.bench == cell.bench
                && c.jobs == cell.jobs
                && c.engine == Some(Engine::Lanes)
        }) else {
            continue;
        };
        if partner.wall.median < min_gate_ns || cell.wall.median < min_gate_ns {
            continue;
        }
        let key = format!(
            "{}/{}/jobs={}",
            cell.workload.slug(),
            cell.bench,
            match cell.jobs.unwrap_or(1) {
                0 => "auto".to_string(),
                n => n.to_string(),
            },
        );
        out.push((key, cell.wall.median / partner.wall.median));
    }
    out
}

/// Diffs `current` against `baseline` under `policy` and returns every
/// gated regression (empty = gate passes). Improvements and
/// within-threshold noise return nothing; cells present only in
/// `current` (grid growth) are allowed.
pub fn compare(
    baseline: &BenchReport,
    current: &BenchReport,
    policy: &ComparePolicy,
) -> Vec<Regression> {
    let mut findings = Vec::new();
    for base_cell in &baseline.cells {
        let id = base_cell.id();
        let Some(cur_cell) = current.cells.iter().find(|c| c.id() == id) else {
            findings.push(Regression::MissingCell { id });
            continue;
        };
        // Invariants: exact equality on every field the baseline
        // populated (a field the baseline lacks may be a later schema
        // addition; one the current run dropped is drift).
        for ((field, base), (_, cur)) in base_cell
            .invariants
            .fields()
            .iter()
            .zip(cur_cell.invariants.fields().iter())
        {
            if base.is_some() && base != cur {
                findings.push(Regression::Invariant {
                    id: id.clone(),
                    field,
                    baseline: *base,
                    current: *cur,
                });
            }
        }
        // Wall gate: median growth beyond the relative threshold AND
        // the MAD noise band, for cells big enough to time reliably.
        if policy.gate_wall && base_cell.wall.median >= policy.min_gate_ns {
            let delta = cur_cell.wall.median - base_cell.wall.median;
            let band = (policy.max_wall_regression * base_cell.wall.median)
                .max(policy.mad_guard * (base_cell.wall.mad + cur_cell.wall.mad));
            if delta > band {
                findings.push(Regression::Wall {
                    id,
                    baseline_ns: base_cell.wall.median,
                    current_ns: cur_cell.wall.median,
                    change_pct: 100.0 * delta / base_cell.wall.median,
                });
            }
        }
    }
    // Engine-ratio gate: machine-independent, so it always runs.
    let current_ratios = engine_ratios(current, policy.min_gate_ns);
    for (key, base_ratio) in engine_ratios(baseline, policy.min_gate_ns) {
        let Some((_, cur_ratio)) =
            current_ratios.iter().find(|(k, _)| *k == key)
        else {
            // Cell pair fell under the gate floor on this machine (or
            // went missing — already reported above).
            continue;
        };
        if *cur_ratio < base_ratio * (1.0 - policy.max_ratio_regression) {
            findings.push(Regression::EngineRatio {
                key,
                baseline: base_ratio,
                current: *cur_ratio,
            });
        }
    }
    findings
}

/// The next free `BENCH_<n>.json` path in `dir` (max committed index
/// plus one — gaps are not reused).
pub fn next_bench_path(dir: &std::path::Path) -> std::path::PathBuf {
    let mut max = 0u64;
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(n) = name
                .strip_prefix("BENCH_")
                .and_then(|rest| rest.strip_suffix(".json"))
                .and_then(|digits| digits.parse::<u64>().ok())
            {
                max = max.max(n);
            }
        }
    }
    dir.join(format!("BENCH_{}.json", max + 1))
}

// ---------------------------------------------------------------------
// `musa bench --history` — trajectory over committed reports
// ---------------------------------------------------------------------

/// Schema tag of the `musa bench --history` JSON document.
pub const BENCH_HISTORY_SCHEMA: &str = "musa.bench.history.v1";

/// One cell's median wall-time trajectory across the committed
/// `BENCH_<n>.json` sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryRow {
    /// The stable cell id ([`BenchCell::id`]).
    pub id: String,
    /// Median wall time in milliseconds per report (oldest first);
    /// `None` where the report has no such cell.
    pub median_ms: Vec<Option<f64>>,
}

impl HistoryRow {
    /// Relative change (%) from the first to the last report that
    /// carries this cell; `None` with fewer than two data points.
    pub fn delta_pct(&self) -> Option<f64> {
        let mut present = self.median_ms.iter().flatten();
        let first = *present.next()?;
        let last = *present.last()?;
        (first > 0.0).then(|| 100.0 * (last - first) / first)
    }
}

/// Builds the per-cell median trajectory over `reports` (oldest
/// first). Rows keep first-appearance order, so the output is the grid
/// order of the oldest report with later additions appended.
pub fn bench_history(reports: &[BenchReport]) -> Vec<HistoryRow> {
    let mut rows: Vec<HistoryRow> = Vec::new();
    let mut index: std::collections::BTreeMap<String, usize> = std::collections::BTreeMap::new();
    for (i, report) in reports.iter().enumerate() {
        for cell in &report.cells {
            let id = cell.id();
            let at = *index.entry(id.clone()).or_insert_with(|| {
                rows.push(HistoryRow { id, median_ms: vec![None; reports.len()] });
                rows.len() - 1
            });
            rows[at].median_ms[i] = Some(cell.wall.median / 1e6);
        }
    }
    rows
}

/// Renders the `musa bench --history` text table: one row per cell,
/// one median-wall-ms column per committed report (`-` where a report
/// lacks the cell), and a trailing first→last Δ% column.
pub fn render_bench_history(labels: &[String], reports: &[BenchReport]) -> String {
    use std::fmt::Write as _;
    assert_eq!(labels.len(), reports.len(), "one label per report");
    let rows = bench_history(reports);
    let id_w = rows
        .iter()
        .map(|r| r.id.len())
        .chain(["cell".len()])
        .max()
        .unwrap_or(4);
    let col_ws: Vec<usize> = labels.iter().map(|l| l.len().max(8)).collect();
    let mut out = String::new();
    let _ = write!(out, "{:<id_w$}", "cell");
    for (label, w) in labels.iter().zip(&col_ws) {
        let _ = write!(out, "  {label:>w$}");
    }
    out.push_str("      Δ%\n");
    for row in &rows {
        let _ = write!(out, "{:<id_w$}", row.id);
        for (median, w) in row.median_ms.iter().zip(&col_ws) {
            match median {
                Some(ms) => {
                    let _ = write!(out, "  {ms:>w$.2}");
                }
                None => {
                    let _ = write!(out, "  {:>w$}", "-");
                }
            }
        }
        match row.delta_pct() {
            Some(delta) => {
                let _ = writeln!(out, "  {delta:>+6.1}");
            }
            None => {
                let _ = writeln!(out, "  {:>6}", "-");
            }
        }
    }
    let _ = writeln!(
        out,
        "{} report(s), {} cell(s); medians in ms",
        reports.len(),
        rows.len()
    );
    out
}

/// Renders the `musa bench --history` JSON document
/// (`musa.bench.history.v1`): the report labels plus every
/// [`HistoryRow`] with its nullable per-report medians and Δ%.
pub fn bench_history_json(labels: &[String], reports: &[BenchReport]) -> String {
    assert_eq!(labels.len(), reports.len(), "one label per report");
    let cells = bench_history(reports)
        .into_iter()
        .map(|row| {
            let delta = row.delta_pct();
            Json::Obj(vec![
                ("id", Json::str(row.id)),
                (
                    "median_ms",
                    Json::Arr(
                        row.median_ms
                            .iter()
                            .map(|m| m.map_or(Json::Null, Json::Float))
                            .collect(),
                    ),
                ),
                ("delta_pct", delta.map_or(Json::Null, Json::Float)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("schema", Json::str(BENCH_HISTORY_SCHEMA)),
        ("reports", Json::Arr(labels.iter().map(Json::str).collect())),
        ("cells", Json::Arr(cells)),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exec_cell(
        bench: &str,
        engine: Engine,
        jobs: usize,
        median_ms: f64,
        killed: usize,
    ) -> BenchCell {
        BenchCell {
            workload: BenchWorkload::MutantExec,
            bench: bench.to_string(),
            engine: Some(engine),
            opt: (engine == Engine::Lanes).then_some(OptLevel::Full),
            jobs: Some(jobs),
            fault_reduce: None,
            wall: RobustStats {
                median: median_ms * 1e6,
                mad: 0.02 * median_ms * 1e6,
                min: 0.9 * median_ms * 1e6,
                samples: 9,
            },
            invariants: CellInvariants {
                population: Some(408),
                killed: Some(killed),
                lane_passes: (engine == Engine::Lanes).then_some(7),
                ..CellInvariants::default()
            },
        }
    }

    fn fsim_cell(bench: &str, reduce: bool, median_ms: f64) -> BenchCell {
        BenchCell {
            workload: BenchWorkload::FaultSim,
            bench: bench.to_string(),
            engine: None,
            opt: None,
            jobs: None,
            fault_reduce: Some(reduce),
            wall: RobustStats {
                median: median_ms * 1e6,
                mad: 0.02 * median_ms * 1e6,
                min: 0.9 * median_ms * 1e6,
                samples: 9,
            },
            invariants: CellInvariants {
                faults_total: Some(398),
                faults_simulated: Some(if reduce { 310 } else { 398 }),
                detected: Some(371),
                ..CellInvariants::default()
            },
        }
    }

    fn report(cells: Vec<BenchCell>) -> BenchReport {
        BenchReport {
            meta: BenchMeta {
                cpus: 1,
                debug: false,
                git: Some("deadbee".into()),
                quick: false,
                seed: DEFAULT_SEED,
                mutant_vectors: MUTANT_VECTORS,
                fsim_vectors: FSIM_VECTORS,
                warmup: 3,
                samples: 9,
                wall_ms: 1000,
            },
            cells,
        }
    }

    fn grid() -> Vec<BenchCell> {
        vec![
            exec_cell("c432", Engine::Scalar, 1, 92.0, 301),
            exec_cell("c432", Engine::Lanes, 1, 10.0, 301),
            fsim_cell("c432", false, 8.0),
            fsim_cell("c432", true, 7.4),
        ]
    }

    #[test]
    fn cell_ids_are_stable() {
        assert_eq!(
            exec_cell("c432", Engine::Lanes, 0, 1.0, 5).id(),
            "mutant_exec/c432/lanes/jobs=auto"
        );
        // Older reports (no recorded level) share the id.
        let mut legacy = exec_cell("c432", Engine::Lanes, 1, 1.0, 5);
        legacy.opt = None;
        assert_eq!(legacy.id(), "mutant_exec/c432/lanes/jobs=1");
        assert_eq!(
            exec_cell("b01", Engine::Scalar, 1, 1.0, 5).id(),
            "mutant_exec/b01/scalar/jobs=1"
        );
        assert_eq!(fsim_cell("b01", true, 1.0).id(), "fault_sim/b01/reduce=on");
    }

    #[test]
    fn identical_reports_pass_both_policies() {
        let r = report(grid());
        assert_eq!(compare(&r, &r, &ComparePolicy::full()), vec![]);
        assert_eq!(compare(&r, &r, &ComparePolicy::quick()), vec![]);
    }

    #[test]
    fn improvement_passes() {
        let baseline = report(grid());
        let mut current = report(grid());
        for cell in &mut current.cells {
            cell.wall.median *= 0.5;
            cell.wall.min *= 0.5;
        }
        assert_eq!(compare(&baseline, &current, &ComparePolicy::full()), vec![]);
    }

    #[test]
    fn within_threshold_noise_passes() {
        let baseline = report(grid());
        let mut current = report(grid());
        for cell in &mut current.cells {
            cell.wall.median *= 1.10; // +10 % < 30 % threshold
        }
        assert_eq!(compare(&baseline, &current, &ComparePolicy::full()), vec![]);
    }

    #[test]
    fn regression_in_exactly_one_cell_is_pinned_to_that_cell() {
        let baseline = report(grid());
        let mut current = report(grid());
        current.cells[0].wall.median *= 2.0; // scalar c432: 92 -> 184 ms
        let findings = compare(&baseline, &current, &ComparePolicy::full());
        assert_eq!(findings.len(), 1, "{findings:?}");
        let Regression::Wall { id, change_pct, .. } = &findings[0] else {
            panic!("{findings:?}");
        };
        assert_eq!(id, "mutant_exec/c432/scalar/jobs=1");
        assert!((change_pct - 100.0).abs() < 1e-9);
        // The same doubling is invisible to the quick policy (wall gate
        // off) — a slower scalar *raises* the scalar/lanes ratio.
        assert_eq!(compare(&baseline, &current, &ComparePolicy::quick()), vec![]);
    }

    #[test]
    fn tiny_cells_never_gate_on_wall() {
        let baseline = report(vec![exec_cell("c17", Engine::Scalar, 1, 0.5, 9)]);
        let mut current = report(vec![exec_cell("c17", Engine::Scalar, 1, 4.0, 9)]);
        current.cells[0].wall.mad = 0.0;
        // 8x slower but under the 5 ms floor: timer noise, not a gate.
        assert_eq!(compare(&baseline, &current, &ComparePolicy::full()), vec![]);
    }

    #[test]
    fn missing_cell_is_grid_drift() {
        let baseline = report(grid());
        let mut current = report(grid());
        current.cells.remove(1);
        let findings = compare(&baseline, &current, &ComparePolicy::quick());
        assert!(
            findings
                .iter()
                .any(|f| matches!(f, Regression::MissingCell { id } if id == "mutant_exec/c432/lanes/jobs=1")),
            "{findings:?}"
        );
        // Extra cells in the current run are fine (grid growth).
        let mut grown = report(grid());
        grown.cells.push(exec_cell("b05", Engine::Scalar, 1, 50.0, 77));
        assert_eq!(compare(&baseline, &grown, &ComparePolicy::quick()), vec![]);
    }

    #[test]
    fn invariant_drift_gates_even_in_quick_mode() {
        let baseline = report(grid());
        let mut current = report(grid());
        current.cells[0].invariants.killed = Some(300);
        let findings = compare(&baseline, &current, &ComparePolicy::quick());
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(
            matches!(
                &findings[0],
                Regression::Invariant { field: "killed", baseline: Some(301), current: Some(300), .. }
            ),
            "{findings:?}"
        );
    }

    #[test]
    fn engine_ratio_regression_gates_in_quick_mode() {
        let baseline = report(grid()); // scalar 92 ms / lanes 10 ms = 9.2x
        let mut current = report(grid());
        current.cells[1].wall.median = 46.0 * 1e6; // lanes now only 2x
        let findings = compare(&baseline, &current, &ComparePolicy::quick());
        assert_eq!(findings.len(), 1, "{findings:?}");
        let Regression::EngineRatio { key, baseline: b, current: c } = &findings[0]
        else {
            panic!("{findings:?}");
        };
        assert_eq!(key, "mutant_exec/c432/jobs=1");
        assert!((b - 9.2).abs() < 1e-9);
        assert!((c - 2.0).abs() < 1e-9);
    }

    #[test]
    fn sub_floor_ratios_are_skipped() {
        // b01-sized cells (lanes < 5 ms) must not anchor a ratio gate.
        let baseline = report(vec![
            exec_cell("b01", Engine::Scalar, 1, 9.0, 44),
            exec_cell("b01", Engine::Lanes, 1, 1.0, 44),
        ]);
        let mut current = report(vec![
            exec_cell("b01", Engine::Scalar, 1, 9.0, 44),
            exec_cell("b01", Engine::Lanes, 1, 4.0, 44),
        ]);
        current.cells[1].wall.mad = 0.0;
        assert_eq!(compare(&baseline, &current, &ComparePolicy::quick()), vec![]);
    }

    #[test]
    fn json_round_trips() {
        let original = report(grid());
        let parsed = BenchReport::from_json(&original.to_json()).unwrap();
        assert_eq!(parsed, original);
        // And a null git survives too.
        let mut anonymous = report(grid());
        anonymous.meta.git = None;
        assert_eq!(
            BenchReport::from_json(&anonymous.to_json()).unwrap().meta.git,
            None
        );
    }

    #[test]
    fn retired_noopt_cells_are_skipped_on_load() {
        // Lane cells of the retired raw-tape interpreter carry
        // `"opt": "off"`; a report loads without them.
        let doc = report(grid()).to_json().replace(r#""opt": "full""#, r#""opt": "off""#);
        let parsed = BenchReport::from_json(&doc).unwrap();
        assert_eq!(parsed.cells.len(), 3);
        assert!(parsed.cells.iter().all(|c| c.engine != Some(Engine::Lanes)));
        // The committed trajectory point CI gates on keeps its other 18
        // cells.
        let bench4 = BenchReport::from_json(include_str!("../../../BENCH_4.json")).unwrap();
        assert_eq!(bench4.cells.len(), 18);
    }

    #[test]
    fn from_json_rejects_malformed_documents() {
        for (text, fragment) in [
            ("{", "invalid JSON"),
            ("{}", "missing `schema`"),
            (r#"{"schema": "musa.campaign.v1"}"#, "schema mismatch"),
            (r#"{"schema": "musa.bench.v1"}"#, "missing `meta`"),
        ] {
            let err = BenchReport::from_json(text).unwrap_err();
            assert!(err.contains(fragment), "{text}: {err}");
        }
        // A broken cell names its index.
        let mut doc = report(grid()).to_json();
        doc = doc.replace("\"workload\": \"fault_sim\"", "\"workload\": \"fault_simx\"");
        let err = BenchReport::from_json(&doc).unwrap_err();
        assert!(err.contains("cells[2]"), "{err}");
        assert!(err.contains("unknown workload"), "{err}");
    }

    #[test]
    fn next_bench_path_skips_committed_indices() {
        let dir = std::env::temp_dir().join(format!(
            "musa-bench-path-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(
            next_bench_path(&dir).file_name().unwrap().to_str().unwrap(),
            "BENCH_1.json"
        );
        std::fs::write(dir.join("BENCH_1.json"), "{}").unwrap();
        std::fs::write(dir.join("BENCH_7.json"), "{}").unwrap();
        std::fs::write(dir.join("BENCH_x.json"), "{}").unwrap();
        assert_eq!(
            next_bench_path(&dir).file_name().unwrap().to_str().unwrap(),
            "BENCH_8.json"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn quick_and_full_share_the_grid() {
        let quick = BenchOptions { quick: true, seed: 1 };
        let full = BenchOptions::default();
        assert_eq!(quick.warmup(), 1);
        assert_eq!(quick.samples(), 3);
        assert_eq!(full.warmup(), 3);
        assert_eq!(full.samples(), 9);
    }

    #[test]
    fn run_bench_on_the_smallest_circuit_produces_the_full_grid() {
        let report =
            run_bench(&[Benchmark::C17], &BenchOptions { quick: true, seed: 7 })
                .unwrap();
        // (scalar + lanes) x 2 jobs + 2 reduce settings.
        assert_eq!(report.cells.len(), 6);
        let ids: Vec<String> = report.cells.iter().map(BenchCell::id).collect();
        assert_eq!(
            ids,
            [
                "mutant_exec/c17/scalar/jobs=1",
                "mutant_exec/c17/scalar/jobs=auto",
                "mutant_exec/c17/lanes/jobs=1",
                "mutant_exec/c17/lanes/jobs=auto",
                "fault_sim/c17/reduce=off",
                "fault_sim/c17/reduce=on",
            ]
        );
        // Invariants are engine- and jobs-independent...
        let killed: Vec<Option<usize>> = report.cells[..4]
            .iter()
            .map(|c| c.invariants.killed)
            .collect();
        assert!(killed[0].unwrap() > 0);
        assert!(killed.windows(2).all(|w| w[0] == w[1]), "{killed:?}");
        // ...lane cells report their pass count, scalar cells don't...
        assert_eq!(report.cells[0].invariants.lane_passes, None);
        assert!(report.cells[2].invariants.lane_passes.unwrap() > 0);
        assert_eq!(
            report.cells[2].invariants.lane_passes,
            report.cells[3].invariants.lane_passes,
            "sharding must not change the pass structure"
        );
        // ...and the fsim pair detects identically while reduction
        // frees lanes.
        let off = &report.cells[4].invariants;
        let on = &report.cells[5].invariants;
        assert_eq!(off.detected, on.detected);
        assert_eq!(off.faults_simulated, off.faults_total);
        assert!(on.faults_simulated.unwrap() <= on.faults_total.unwrap());
        assert_eq!(report.meta.samples, 3);
        assert!(report.cells.iter().all(|c| c.wall.samples == 3));
        // A fresh identical run is invariant-identical: self-compare
        // under the quick policy passes.
        let again =
            run_bench(&[Benchmark::C17], &BenchOptions { quick: true, seed: 7 })
                .unwrap();
        assert_eq!(compare(&report, &again, &ComparePolicy::quick()), vec![]);
    }

    #[test]
    fn history_tracks_cell_medians_across_reports() {
        let r1 = report(vec![exec_cell("c17", Engine::Scalar, 1, 0.50, 100)]);
        let r2 = report(vec![
            exec_cell("c17", Engine::Scalar, 1, 0.40, 100),
            exec_cell("b01", Engine::Lanes, 1, 1.25, 80),
        ]);
        let rows = bench_history(&[r1.clone(), r2.clone()]);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].id, "mutant_exec/c17/scalar/jobs=1");
        assert_eq!(rows[0].median_ms, vec![Some(0.50), Some(0.40)]);
        let delta = rows[0].delta_pct().unwrap();
        assert!((delta + 20.0).abs() < 1e-9, "{delta}");
        // A cell appearing only in the newest report has no trajectory.
        assert_eq!(rows[1].median_ms, vec![None, Some(1.25)]);
        assert_eq!(rows[1].delta_pct(), None);

        let labels = vec!["BENCH_1".to_string(), "BENCH_2".to_string()];
        let text = render_bench_history(&labels, &[r1.clone(), r2.clone()]);
        assert!(text.contains("BENCH_1"), "{text}");
        assert!(text.contains("mutant_exec/c17/scalar/jobs=1"), "{text}");
        assert!(text.contains("2 report(s), 2 cell(s)"), "{text}");

        let doc = json::parse(&bench_history_json(&labels, &[r1, r2])).unwrap();
        assert_eq!(
            doc.get("schema").and_then(JsonValue::as_str),
            Some(BENCH_HISTORY_SCHEMA)
        );
        let cells = doc.get("cells").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(cells.len(), 2);
        let medians = cells[0].get("median_ms").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(medians.len(), 2);
        assert_eq!(medians[1].as_f64(), Some(0.40));
    }
}
