//! Workspace-level property-based tests (proptest): invariants that
//! must hold across the whole public API for arbitrary inputs.

use musa::core::{json, BenchReport};
use musa::hdl::{parse, Bits, CheckedDesign, Simulator};
use musa::metrics::{mad, median, RobustStats};
use musa::netlist::{good_outputs, parse_bench};
use musa::prng::{Lfsr, Prng, SplitMix64, XorShift64Star};
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

    /// PRNG bounded sampling is always in range, for every generator.
    #[test]
    fn prng_below_is_bounded(seed in any::<u64>(), bound in 1u64..=1_000_000) {
        let mut a = SplitMix64::new(seed);
        let mut b = XorShift64Star::new(seed);
        for _ in 0..64 {
            prop_assert!(a.below(bound) < bound);
            prop_assert!(b.below(bound) < bound);
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
    #[test]
    fn parser_never_panics(input in ".{0,200}", edits in edits()) {
        let _ = parse(&input);
        if let Ok(design) = parse(&edited(B05_MHDL, &edits)) {
            let _ = CheckedDesign::new(design);
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
