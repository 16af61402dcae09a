//! Pseudo-random test generation — the paper's baseline.
//!
//! Paper §3 compares mutation-generated validation data with "pseudo-
//! random test sets generally used as initial test sets before to run an
//! Automatic Test Pattern Generation". Two sources are provided:
//!
//! * [`random_sequence`] — behavioral-level vectors (software PRNG);
//! * [`lfsr_patterns`] — gate-level patterns from a maximal-length LFSR,
//!   the classic hardware pattern generator.

use musa_hdl::{Bits, EntityInfo};
use musa_mutation::random_vector;
pub use musa_mutation::RESET_SPARSITY;
use musa_netlist::Pattern;
use musa_prng::{Lfsr, Prng, SplitMix64};

/// Generates `len` pseudo-random input vectors for an entity, each
/// drawn by [`random_vector`] under the testbench convention: uniform
/// bits, except reset-like ports (see [`EntityInfo::reset_like`]) which
/// are asserted with probability `1/`[`RESET_SPARSITY`].
pub fn random_sequence(info: &EntityInfo, len: usize, seed: u64) -> Vec<Vec<Bits>> {
    let mut rng = SplitMix64::new(seed);
    (0..len).map(|_| random_vector(info, &mut rng)).collect()
}

/// Generates `len` gate-level patterns from maximal-length LFSRs, one
/// register step per pattern (the hardware TPG discipline).
///
/// Inputs are taken 64 at a time: block `k` is driven by its own
/// register, seeded from the `k`-th output of a SplitMix64 stream over
/// `seed`, so circuits of up to 64 inputs see a single register and a
/// wider circuit's first 64 inputs see exactly what a 64-input circuit
/// would. With no inputs, every pattern is empty.
pub fn lfsr_patterns(num_inputs: usize, len: usize, seed: u64) -> Vec<Pattern> {
    let mut seeds = SplitMix64::new(seed);
    let mut registers: Vec<(Lfsr, usize)> = (0..num_inputs)
        .step_by(64)
        .map(|first| {
            let bits = (num_inputs - first).min(64);
            // Give the register a few spare stages so short-input
            // circuits still see a long period.
            let width = (bits as u32 + 4).clamp(8, 64);
            let seed = seeds.next_u64() | 1; // non-zero
            let lfsr = Lfsr::new(width, seed).expect("valid width and non-zero seed");
            (lfsr, bits)
        })
        .collect();
    (0..len)
        .map(|_| {
            let mut pattern = Vec::with_capacity(num_inputs);
            for (lfsr, bits) in &mut registers {
                let state = lfsr.step();
                pattern.extend((0..*bits).map(|i| (state >> i) & 1 == 1));
            }
            pattern
        })
        .collect()
}

/// Generates `len` gate-level patterns from a software PRNG (used where
/// pattern independence matters more than hardware realism).
pub fn random_patterns(num_inputs: usize, len: usize, seed: u64) -> Vec<Pattern> {
    let mut rng = SplitMix64::new(seed);
    (0..len)
        .map(|_| (0..num_inputs).map(|_| rng.next_u64() & 1 == 1).collect())
        .collect()
}

/// Gate-level pseudo-random baseline with the testbench reset
/// convention: bits come from a maximal-length LFSR, except inputs whose
/// name marks them as a reset (`reset`/`rst`, or the synthesized
/// `reset_0`/`rst_0` bit names), which are asserted with probability
/// `1/`[`RESET_SPARSITY`].
pub fn testbench_patterns(
    nl: &musa_netlist::Netlist,
    len: usize,
    seed: u64,
) -> Vec<Pattern> {
    let num_inputs = nl.inputs().len();
    let reset_mask: Vec<bool> = nl
        .inputs()
        .iter()
        .map(|&net| {
            let lower = nl.net_name(net).to_ascii_lowercase();
            lower == "reset"
                || lower == "rst"
                || lower.starts_with("reset_")
                || lower.starts_with("rst_")
        })
        .collect();
    let mut base = lfsr_patterns(num_inputs, len, seed);
    let mut rng = SplitMix64::new(SplitMix64::new(seed).next_u64());
    for pattern in &mut base {
        for (bit, &is_reset) in pattern.iter_mut().zip(&reset_mask) {
            if is_reset {
                *bit = rng.below(RESET_SPARSITY) == 0;
            }
        }
    }
    base
}

#[cfg(test)]
mod tests {
    use super::*;
    use musa_hdl::{parse, CheckedDesign};

    #[test]
    fn random_sequence_matches_port_widths() {
        let checked = CheckedDesign::new(
            parse(
                "entity e is port(a : in bits(5); b : in bit; y : out bit);
                 comb begin y <= orr(a) and b; end;
                 end;",
            )
            .unwrap(),
        )
        .unwrap();
        let info = checked.entity_info("e").unwrap();
        let seq = random_sequence(info, 20, 42);
        assert_eq!(seq.len(), 20);
        for vector in &seq {
            assert_eq!(vector.len(), 2);
            assert_eq!(vector[0].width(), 5);
            assert_eq!(vector[1].width(), 1);
        }
    }

    #[test]
    fn random_sequence_is_seed_deterministic() {
        let checked = CheckedDesign::new(
            parse(
                "entity e is port(a : in bits(8); y : out bits(8));
                 comb begin y <= a; end;
                 end;",
            )
            .unwrap(),
        )
        .unwrap();
        let info = checked.entity_info("e").unwrap();
        assert_eq!(random_sequence(info, 10, 7), random_sequence(info, 10, 7));
        assert_ne!(random_sequence(info, 10, 7), random_sequence(info, 10, 8));
    }

    #[test]
    fn lfsr_patterns_have_the_right_shape() {
        let patterns = lfsr_patterns(41, 100, 1);
        assert_eq!(patterns.len(), 100);
        assert!(patterns.iter().all(|p| p.len() == 41));
        // A maximal LFSR never repeats within a short window.
        assert_ne!(patterns[0], patterns[1]);
    }

    #[test]
    fn lfsr_patterns_are_balanced_enough() {
        let patterns = lfsr_patterns(16, 2000, 3);
        let ones: usize = patterns.iter().flatten().filter(|&&b| b).count();
        let total = 16 * 2000;
        let ratio = ones as f64 / total as f64;
        assert!((0.45..0.55).contains(&ratio), "ratio {ratio}");
    }

    /// The single-register source that every recorded digest was
    /// produced with.
    fn single_register(num_inputs: usize, len: usize, seed: u64) -> Vec<Pattern> {
        let width = (num_inputs as u32 + 4).clamp(8, 64);
        let seed = SplitMix64::new(seed).next_u64() | 1;
        let mut lfsr = Lfsr::new(width, seed).unwrap();
        (0..len)
            .map(|_| {
                lfsr.step();
                let state = lfsr.state();
                (0..num_inputs).map(|i| (state >> i) & 1 == 1).collect()
            })
            .collect()
    }

    #[test]
    fn lfsr_patterns_are_unchanged_up_to_64_inputs() {
        for num_inputs in 1..=64 {
            for seed in [1, 0xDA7E_2005] {
                assert_eq!(
                    lfsr_patterns(num_inputs, 70, seed),
                    single_register(num_inputs, 70, seed),
                    "{num_inputs} inputs, seed {seed:#x}"
                );
            }
        }
    }

    #[test]
    fn lfsr_patterns_cover_zero_and_wide_input_counts() {
        assert_eq!(lfsr_patterns(0, 10, 1), vec![Vec::<bool>::new(); 10]);
        let narrow = lfsr_patterns(64, 50, 9);
        for wide_inputs in [65, 128, 200] {
            let wide = lfsr_patterns(wide_inputs, 50, 9);
            assert_eq!(wide.len(), 50);
            assert!(wide.iter().all(|p| p.len() == wide_inputs));
            // The first block is the 64-input source; the others vary.
            for (w, n) in wide.iter().zip(&narrow) {
                assert_eq!(&w[..64], n.as_slice());
            }
            assert!(wide.windows(2).any(|p| p[0][64..] != p[1][64..]));
        }
    }

    #[test]
    fn random_patterns_deterministic() {
        assert_eq!(random_patterns(8, 50, 5), random_patterns(8, 50, 5));
        assert_ne!(random_patterns(8, 50, 5), random_patterns(8, 50, 6));
    }
}
