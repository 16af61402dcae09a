//! Workspace-level property-based tests (proptest): invariants that
//! must hold across the whole public API for arbitrary inputs.

use musa::analysis::{lint_design, screen_population};
use musa::bench::campaign::CAMPAIGN_FLAGS;
use musa::bench::cli::{
    parse_args, BenchCommand, Bin, SampleArgs, BENCH_FLAGS, BIN_FLAGS, LINT_FLAGS, SAMPLE_FLAGS,
};
use musa::core::{json, BenchReport};
use musa::hdl::ast::{BinOp, NodeId};
use musa::hdl::{parse, Bits, CheckedDesign, Simulator};
use musa::metrics::{mad, median, CoverageCurve, RobustStats};
use musa::mutation::{
    candidate_mutants, generate_mutants, GenerateOptions, Mutant, Rewrite, Validator,
};
use musa::netlist::{good_outputs, parse_bench, Fault, FaultSimResult, NetId};
use musa::prng::{Lfsr, Prng, SplitMix64};
use musa::store::request::parse_request;
use musa::synth::{flatten_inputs, synthesize, unflatten_outputs};
use proptest::prelude::*;

/// Committed documents the never-panic properties edit: edited real
/// documents reach parser states random strings never get past the
/// first token to.
const B05_MHDL: &str = include_str!("../crates/circuits/src/hdl/b05.mhdl");
const C432_BENCH: &str = include_str!("fixtures/c432.bench");
const BENCH_GOLDEN: &str = include_str!("golden/bench_c17_quick.json");
/// A loadable `musa bench` baseline (the golden above has its numbers
/// normalized, so `BenchReport::from_json` stops at its `meta` block).
const BENCH_REPORT: &str = include_str!("../BENCH_4.json");
const CAMPAIGN_REPORT: &str = include_str!("golden/sample_c17.json");
/// The sampling request CI's store job sends to `musa campaign`.
const SAMPLING_REQUEST: &str = r#"{"schema": "musa.request.v1", "task": "sampling",
 "params": {"fraction": 0.1}, "benches": ["b01", "c17"],
 "seed": 7, "preset": "fast"}"#;

/// Bytes the MiniHDL, `.bench` and JSON grammars give meaning to;
/// half of all inserted or replacing bytes are drawn from here.
const STRUCTURAL: &[u8] = b"{}[]\",:;<-+.0123456789eE \n\t\\=()#tfnu";

/// One single-byte edit: `(position, kind, byte)`, kind 0 inserts,
/// 1 deletes, 2 replaces.
type Edit = (u64, u8, u8);

/// One to three stacked single-byte edits.
fn edits() -> impl Strategy<Value = Vec<Edit>> {
    proptest::collection::vec((any::<u64>(), 0u8..3, any::<u8>()), 1..4)
}

/// Applies `edits` to `doc` byte-wise; the result is read back
/// lossily, since every parser here takes `&str`.
fn edited(doc: &str, edits: &[Edit]) -> String {
    let mut bytes = doc.as_bytes().to_vec();
    for &(pos, kind, byte) in edits {
        let byte = if byte & 1 == 0 {
            STRUCTURAL[usize::from(byte >> 1) % STRUCTURAL.len()]
        } else {
            byte
        };
        let at = (pos % (bytes.len() as u64 + 1)) as usize;
        match kind {
            0 => bytes.insert(at, byte),
            _ if at == bytes.len() => {}
            1 => {
                bytes.remove(at);
            }
            _ => bytes[at] = byte,
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// One real command line per front end: the experiment binaries,
/// `musa sample`, `musa bench`, `musa campaign` and `musa lint`.
const COMMAND_LINES: &[&[&str]] = &[
    &["--fast", "--seed", "7", "--jobs", "2", "--fault-reduce", "on", "--json"],
    &["c17", "0.5", "--seed", "0x10", "--jobs", "1", "--screen", "off", "--store", ".s"],
    &["--quick", "--filter", "c17", "--seed", "7", "--baseline", "BENCH_4.json"],
    &["req.json", "--store", ".s", "--json"],
    &["c17", "--json"],
];

/// Whole arguments the command-line edits draw, besides every front
/// end's flags and a random string: help and dash spellings, flag
/// values, and decimal, hex, negative and huge numbers.
const ARGUMENTS: &[&str] = &[
    "-", "--", "-h", "--help", "0", "7", "0.5", "1.5", "0x10", "0xDA7E2005", "0x", "0xg",
    "-1", "-0.5", "18446744073709551616", "99999999999999999999999999", "c17", "b05", "zz99",
    "on", "off", "static", "full", "lanes", "chrome",
];

/// One whole-argument edit: `(position, kind, pick)`; kind 0 inserts
/// a drawn argument, 1 deletes one, 2 replaces one with a drawn
/// argument, and 3 applies the byte edits inside it.
type ArgEdit = (u64, u8, u64);

/// Applies `arg_edits` to a command line, drawing from every front
/// end's flags, [`ARGUMENTS`] and `noise`.
fn edited_line(line: &[&str], arg_edits: &[ArgEdit], bytes: &[Edit], noise: &str) -> Vec<String> {
    let mut pool = [BIN_FLAGS, SAMPLE_FLAGS, BENCH_FLAGS, CAMPAIGN_FLAGS, LINT_FLAGS, ARGUMENTS]
        .concat();
    pool.push(noise);
    let mut args: Vec<String> = line.iter().map(|s| s.to_string()).collect();
    for &(pos, kind, pick) in arg_edits {
        let drawn = pool[(pick % pool.len() as u64) as usize].to_string();
        let at = (pos % (args.len() as u64 + 1)) as usize;
        match kind {
            0 => args.insert(at, drawn),
            _ if at == args.len() => {}
            1 => {
                args.remove(at);
            }
            2 => args[at] = drawn,
            _ => args[at] = edited(&args[at], bytes),
        }
    }
    args
}

/// `result`'s value, after checking that an error carries a message.
fn settled<T, E: std::fmt::Display>(result: Result<T, E>, argv: &[String]) -> Option<T> {
    match result {
        Ok(value) => Some(value),
        Err(e) => {
            assert!(!e.to_string().is_empty(), "{argv:?}: an error without a message");
            None
        }
    }
}

/// Every binary operator, so a drawn `BinOp` rewrite can cross classes.
const BIN_OPS: [BinOp; 15] = [
    BinOp::And, BinOp::Or, BinOp::Xor, BinOp::Nand, BinOp::Nor, BinOp::Xnor, BinOp::Add,
    BinOp::Sub, BinOp::Mul, BinOp::Eq, BinOp::Ne, BinOp::Lt, BinOp::Le, BinOp::Gt, BinOp::Ge,
];

/// A rewrite of any kind drawn from `(kind, a, b)`; a `Ref` names one of
/// `names` (every symbol of the entity, whatever its kind or scope) or
/// a name nothing declares.
fn drawn_rewrite((kind, a, b): (u64, u64, u64), names: &[String]) -> Rewrite {
    let small = a % 40;
    match kind % 10 {
        0 => Rewrite::BinOp { new: BIN_OPS[(a % 15) as usize] },
        1 => Rewrite::Ref {
            new: names.get((a % (names.len() as u64 + 1)) as usize).map_or("nosuch", String::as_str).into(),
        },
        2 => Rewrite::RefToConst { value: small, width: (b % 10) as u32 + 1 },
        3 => Rewrite::Literal { value: small },
        4 => Rewrite::ConstDecl { value: small },
        5 => Rewrite::CaseChoice { index: (b % 3) as usize, value: small },
        6 => Rewrite::InsertNot,
        7 => Rewrite::DeleteNot,
        8 => Rewrite::DeleteStmt,
        _ => Rewrite::StuckCondition { value: a & 1 == 1 },
    }
}

/// The edited documents start from inputs every parser accepts.
#[test]
fn committed_documents_parse() {
    assert!(CheckedDesign::new(parse(B05_MHDL).unwrap()).is_ok());
    assert!(parse_bench(C432_BENCH, "c432").is_ok());
    for doc in [BENCH_GOLDEN, BENCH_REPORT, CAMPAIGN_REPORT, SAMPLING_REQUEST] {
        assert!(json::parse(doc).is_ok(), "{doc}");
    }
    assert!(parse_request(SAMPLING_REQUEST).is_ok());
    assert!(BenchReport::from_json(BENCH_REPORT).is_ok());
    let argv = |line: &[&str]| line.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    assert!(parse_args(&argv(COMMAND_LINES[0]), BIN_FLAGS, 0).is_ok());
    assert!(SampleArgs::parse(&argv(COMMAND_LINES[1])).is_ok());
    assert!(matches!(
        BenchCommand::parse(&argv(COMMAND_LINES[2])),
        Ok(BenchCommand::Trajectory(_))
    ));
    assert!(parse_args(&argv(COMMAND_LINES[3]), CAMPAIGN_FLAGS, 1).is_ok());
    assert!(parse_args(&argv(COMMAND_LINES[4]), LINT_FLAGS, 1).is_ok());
}

proptest! {
    /// Bits arithmetic is exactly u64 arithmetic modulo 2^width.
    #[test]
    fn bits_ops_match_reference(a in any::<u64>(), b in any::<u64>(), width in 1u32..=64) {
        let mask = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
        let x = Bits::new(width, a);
        let y = Bits::new(width, b);
        prop_assert_eq!(x.add(y).raw(), a.wrapping_add(b) & mask);
        prop_assert_eq!(x.sub(y).raw(), a.wrapping_sub(b) & mask);
        prop_assert_eq!(x.mul(y).raw(), a.wrapping_mul(b) & mask);
        prop_assert_eq!(x.and(y).raw(), a & b & mask);
        prop_assert_eq!(x.or(y).raw(), (a | b) & mask);
        prop_assert_eq!(x.xor(y).raw(), (a ^ b) & mask);
        prop_assert_eq!(x.not().raw(), !a & mask);
        prop_assert_eq!(x.cmp_eq(y).as_bool(), (a & mask) == (b & mask));
        prop_assert_eq!(x.cmp_lt(y).as_bool(), (a & mask) < (b & mask));
    }

    /// Slice/concat are inverses.
    #[test]
    fn bits_concat_slice_roundtrip(a in any::<u64>(), wa in 1u32..=32, wb in 1u32..=32) {
        let hi = Bits::new(wa, a);
        let lo = Bits::new(wb, a.rotate_left(17));
        let joined = hi.concat(lo);
        prop_assert_eq!(joined.slice(wa + wb - 1, wb), hi);
        prop_assert_eq!(joined.slice(wb - 1, 0), lo);
    }

    /// PRNG bounded sampling is always in range.
    #[test]
    fn prng_below_is_bounded(seed in any::<u64>(), bound in 1u64..=1_000_000) {
        let mut rng = SplitMix64::new(seed);
        for _ in 0..64 {
            prop_assert!(rng.below(bound) < bound);
        }
    }

    /// LFSRs never reach the all-zero lock-up state.
    #[test]
    fn lfsr_never_locks(width in 2u32..=64, seed in 1u64..) {
        if let Ok(mut lfsr) = Lfsr::new(width, seed) {
            for _ in 0..256 {
                lfsr.step();
                prop_assert_ne!(lfsr.state(), 0);
            }
        }
    }

    /// The MiniHDL parser and checker never panic, whatever bytes
    /// arrive: random strings and edited copies of a bundled design.
    /// An edited design the checker accepts is also linted and its
    /// mutants screened, since both read the checker's tables.
    #[test]
    fn parser_never_panics(input in ".{0,200}", edits in edits()) {
        let _ = parse(&input);
        if let Ok(design) = parse(&edited(B05_MHDL, &edits)) {
            if let Ok(checked) = CheckedDesign::new(design) {
                let _ = lint_design(&checked);
                for (entity, _) in checked.entities() {
                    let name = &entity.name.name;
                    let population = generate_mutants(&checked, name, &GenerateOptions::default());
                    let _ = screen_population(&checked, name, &population);
                }
            }
        }
    }

    /// The site-local validator gives `Mutant::apply`'s verdict on edited
    /// copies of b05: on drawn candidates, and on drawn rewrites of every
    /// kind (cross-class operators, names of any kind and scope, values
    /// that do not fit) at candidate sites and at any node id.
    #[test]
    fn validator_gives_the_verdict_of_apply(
        edits in edits(),
        draws in proptest::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 64..65),
    ) {
        if let Ok(design) = parse(&edited(B05_MHDL, &edits)) {
            if let Ok(checked) = CheckedDesign::new(design) {
                let validator = Validator::new(&checked);
                for (entity, info) in checked.entities() {
                    let names: Vec<String> = info.symbols.iter().map(|s| s.name.clone()).collect();
                    let candidates =
                        candidate_mutants(&checked, &entity.name.name, &GenerateOptions::default());
                    if candidates.is_empty() {
                        continue;
                    }
                    for &(pick, kind, payload) in &draws {
                        let candidate = &candidates[(pick % candidates.len() as u64) as usize];
                        let site = if kind & 1 == 0 {
                            candidate.site
                        } else {
                            NodeId((payload % u64::from(checked.design().next_node_id + 2)) as u32)
                        };
                        let rewrite = drawn_rewrite((kind >> 1, payload, pick), &names);
                        let drawn = Mutant { site, rewrite, ..candidate.clone() };
                        for mutant in [candidate, &drawn] {
                            prop_assert_eq!(
                                validator.check(mutant),
                                mutant.apply(&checked).is_ok(),
                                "{:?} at {}", mutant.rewrite, mutant.site
                            );
                        }
                    }
                }
            }
        }
    }

    /// `.bench` parsing ends in `Ok` or `Err` on random strings and on
    /// edited copies of a committed netlist.
    #[test]
    fn bench_parser_never_panics(input in ".{0,200}", edits in edits()) {
        let _ = parse_bench(&input, "noise");
        let _ = parse_bench(&edited(C432_BENCH, &edits), "c432");
    }

    /// The JSON parser ends in `Ok` or `Err` on random strings and on
    /// edited copies of every committed document kind it reads.
    #[test]
    fn json_parser_never_panics(input in ".{0,200}", edits in edits()) {
        let _ = json::parse(&input);
        for doc in [BENCH_GOLDEN, CAMPAIGN_REPORT, SAMPLING_REQUEST] {
            let _ = json::parse(&edited(doc, &edits));
        }
    }

    /// `musa.request.v1` parsing ends in `Ok` or `Err` on random strings
    /// and on edited copies of CI's sampling request.
    #[test]
    fn request_parser_never_panics(input in ".{0,200}", edits in edits()) {
        let _ = parse_request(&input);
        let _ = parse_request(&edited(SAMPLING_REQUEST, &edits));
    }

    /// `musa bench` baselines load with `Ok` or `Err` from random
    /// strings and from edited copies of a committed baseline.
    #[test]
    fn bench_report_parser_never_panics(input in ".{0,200}", edits in edits()) {
        let _ = BenchReport::from_json(&input);
        let _ = BenchReport::from_json(&edited(BENCH_REPORT, &edits));
    }

    /// Every front end's argument parser ends in `Ok` or in an `Err`
    /// with a message, whatever command line arrives: each front end's
    /// real line with one to three whole arguments inserted, deleted,
    /// replaced or byte-edited goes to every parser, and every campaign
    /// a front end builds from a parse plans to `Ok` or `Err` too. The
    /// edits draw every front end's flags, so a flag list naming a flag
    /// the parser does not handle fails here.
    #[test]
    fn cli_parsers_never_panic(
        arg_edits in proptest::collection::vec((any::<u64>(), 0u8..4, any::<u64>()), 1..4),
        byte_edits in edits(),
        noise in ".{0,12}",
    ) {
        for line in COMMAND_LINES {
            let argv = edited_line(line, &arg_edits, &byte_edits, &noise);
            if let Some(args) = settled(parse_args(&argv, BIN_FLAGS, 0), &argv) {
                for bin in [
                    Bin::Table1,
                    Bin::Table2,
                    Bin::SweepFraction,
                    Bin::CoverageCurves,
                    Bin::AtpgTopup,
                    Bin::EquivalenceAblation,
                ] {
                    settled(bin.campaign(&args).plan(), &argv);
                }
            }
            if let Some(sample) = settled(SampleArgs::parse(&argv), &argv) {
                settled(sample.campaign().plan(), &argv);
            }
            settled(BenchCommand::parse(&argv), &argv);
            settled(parse_args(&argv, CAMPAIGN_FLAGS, 1), &argv);
            settled(parse_args(&argv, LINT_FLAGS, 1), &argv);
        }
    }

    /// The robust-stats helpers are order-free: every permutation of
    /// the samples yields the identical median, MAD and summary.
    #[test]
    fn robust_stats_are_permutation_invariant(
        raw in proptest::collection::vec(0u64..1_000_000u64, 1..50),
        seed in any::<u64>(),
    ) {
        let samples: Vec<f64> = raw.iter().map(|&v| v as f64 / 128.0).collect();
        let mut shuffled = samples.clone();
        let mut rng = SplitMix64::new(seed);
        for i in (1..shuffled.len()).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            shuffled.swap(i, j);
        }
        prop_assert_eq!(median(&shuffled), median(&samples));
        prop_assert_eq!(mad(&shuffled), mad(&samples));
        prop_assert_eq!(RobustStats::of(&shuffled), RobustStats::of(&samples));
    }

    /// `median` matches the naive sort-based oracle for both parities:
    /// the middle order statistic (odd length), the mean of the two
    /// middle order statistics (even length) — and always lies within
    /// the sample range.
    #[test]
    fn median_matches_the_sort_oracle(
        raw in proptest::collection::vec(0u64..1_000_000u64, 1..60),
    ) {
        let samples: Vec<f64> = raw.iter().map(|&v| v as f64 / 64.0).collect();
        let mut sorted = samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let n = sorted.len();
        let oracle = if n % 2 == 1 {
            sorted[n / 2]
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
        };
        let m = median(&samples);
        prop_assert_eq!(m, oracle);
        prop_assert!(m >= sorted[0] && m <= sorted[n - 1]);
        prop_assert!(mad(&samples) >= 0.0);
        prop_assert_eq!(RobustStats::of(&samples).min, sorted[0]);
    }

    /// A coverage curve reaches `k` of `n` faults exactly where the
    /// detected count does: `length_to_reach(k / n)` is one plus the
    /// first vector index whose cumulative detected count is at least
    /// `k` (`Some(0)` for `k = 0`, `None` when the count never gets
    /// there). The curve's 1e-12 tolerance sits far below `1 / n`, so a
    /// baseline may stop at a detected count without moving a metric.
    #[test]
    fn coverage_reaches_k_of_n_where_the_detected_count_does(
        n in 1usize..=5000,
        len in 0usize..512,
        undetected_pct in 0u64..=100,
        seed in any::<u64>(),
    ) {
        let mut rng = SplitMix64::new(seed);
        let first_detected: Vec<Option<usize>> = (0..n)
            .map(|_| {
                let detected = len > 0 && rng.below(100) >= undetected_pct;
                detected.then(|| rng.below(len as u64) as usize)
            })
            .collect();
        let mut count = vec![0usize; len];
        for &t in first_detected.iter().flatten() {
            count[t] += 1;
        }
        let cumulative: Vec<usize> = count
            .iter()
            .scan(0, |sum, &c| {
                *sum += c;
                Some(*sum)
            })
            .collect();
        let result = FaultSimResult {
            faults: vec![Fault::net_sa0(NetId(0)); n],
            first_detected,
            vectors_applied: len,
            faults_simulated: n,
        };
        let curve = CoverageCurve::new(result.coverage_curve());
        let mut reach = 0;
        for k in 0..=n {
            while reach < len && cumulative[reach] < k {
                reach += 1;
            }
            let expected = match k {
                0 => Some(0),
                _ if reach < len => Some(reach + 1),
                _ => None,
            };
            prop_assert_eq!(curve.length_to_reach(k as f64 / n as f64), expected, "k={} of n={}", k, n);
        }
    }

    /// Synthesized combinational datapaths agree with the behavioral
    /// simulator on arbitrary inputs — the synthesis correctness
    /// contract, fuzzed over expressions built from random constants.
    #[test]
    fn synth_matches_behaviour_on_random_datapath(
        k1 in 0u64..256,
        k2 in 0u64..256,
        shift in 0u32..8,
        inputs in proptest::collection::vec((0u64..256, 0u64..256), 1..20),
    ) {
        let src = format!(
            "entity dp is
               port(a : in bits(8); b : in bits(8); y : out bits(8); f : out bit);
             comb
               var t : bits(8);
             begin
               t := (a + {k1}) xor (b * {k2});
               if t > a then
                 t := t - b;
               end if;
               y <= t srl {shift};
               f <= xorr(t) or (a = b);
             end;
             end;"
        );
        let checked = CheckedDesign::new(parse(&src).unwrap()).unwrap();
        let nl = synthesize(&checked, "dp").unwrap();
        let info = checked.entity_info("dp").unwrap();
        let mut sim = Simulator::new(&checked, "dp").unwrap();
        for (a, b) in inputs {
            let vector = vec![Bits::new(8, a), Bits::new(8, b)];
            let expected = sim.step(&vector);
            let pattern = flatten_inputs(info, &vector);
            let gate = good_outputs(&nl, &[pattern]);
            prop_assert_eq!(
                unflatten_outputs(info, &gate[0]),
                expected,
                "a={} b={}", a, b
            );
        }
    }
}
