//! # musa-circuits — the benchmark circuit suite
//!
//! Behavioral (MiniHDL) re-implementations of the circuits the DATE'05
//! paper evaluates on — ITC'99 `b01`/`b03` and ISCAS'85 `c432`/`c499` —
//! plus four companions (`b02`, `b04`, `b06`, `c17`) used throughout the
//! workspace's tests and examples.
//!
//! The original benchmark netlists are not redistributable in this
//! offline environment; each circuit is re-implemented from its published
//! functional description and synthesized to gates with [`musa_synth`].
//! The paper's tables compare operators and sampling strategies on each
//! circuit, so a functional re-implementation preserves what they
//! compare, though not their absolute values. The crate's test-suite
//! cross-simulates every behavioral model against its synthesized
//! netlist.
//!
//! # Example
//!
//! ```
//! use musa_circuits::Benchmark;
//!
//! let circuit = Benchmark::C432.load()?;
//! println!(
//!     "{}: {} PIs, {} POs, {} gates, {} flops",
//!     circuit.name,
//!     circuit.netlist.inputs().len(),
//!     circuit.netlist.outputs().len(),
//!     circuit.netlist.gate_count(),
//!     circuit.netlist.dff_count(),
//! );
//! assert_eq!(circuit.netlist.inputs().len(), 36);
//! # Ok::<(), musa_circuits::CircuitError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use musa_hdl::{CheckedDesign, EntityInfo, HdlError};
use musa_netlist::Netlist;
use musa_synth::SynthError;
use std::fmt;

/// The bundled benchmark circuits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Benchmark {
    /// ITC'99 b01 — serial flow comparator (sequential).
    B01,
    /// ITC'99 b02 — serial BCD recognizer (sequential).
    B02,
    /// ITC'99 b03 — resource arbiter (sequential).
    B03,
    /// ITC'99 b04 — min/max tracker (sequential).
    B04,
    /// ITC'99 b05 — memory-contents mapper (sequential).
    B05,
    /// ITC'99 b06 — interrupt handler (sequential).
    B06,
    /// ITC'99 b09 — serial-to-parallel converter (sequential).
    B09,
    /// ISCAS'85 c17 — six-NAND fragment (combinational).
    C17,
    /// ISCAS'85 c432 — 27-channel interrupt controller (combinational).
    C432,
    /// ISCAS'85 c499 — 32-bit single-error corrector (combinational).
    C499,
    /// ISCAS'85 c880 — 8-bit ALU (combinational).
    C880,
}

impl Benchmark {
    /// Every bundled benchmark, smallest first.
    pub fn all() -> [Benchmark; 11] {
        [
            Benchmark::C17,
            Benchmark::B01,
            Benchmark::B02,
            Benchmark::B03,
            Benchmark::B04,
            Benchmark::B05,
            Benchmark::B06,
            Benchmark::B09,
            Benchmark::C432,
            Benchmark::C499,
            Benchmark::C880,
        ]
    }

    /// The four circuits of the paper's evaluation (Tables 1 and 2).
    pub fn paper_set() -> [Benchmark; 4] {
        [Benchmark::B01, Benchmark::B03, Benchmark::C432, Benchmark::C499]
    }

    /// The circuit name as it appears in the paper.
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::B01 => "b01",
            Benchmark::B02 => "b02",
            Benchmark::B03 => "b03",
            Benchmark::B04 => "b04",
            Benchmark::B05 => "b05",
            Benchmark::B06 => "b06",
            Benchmark::B09 => "b09",
            Benchmark::C17 => "c17",
            Benchmark::C432 => "c432",
            Benchmark::C499 => "c499",
            Benchmark::C880 => "c880",
        }
    }

    /// The embedded MiniHDL source text.
    pub fn source(self) -> &'static str {
        match self {
            Benchmark::B01 => include_str!("hdl/b01.mhdl"),
            Benchmark::B02 => include_str!("hdl/b02.mhdl"),
            Benchmark::B03 => include_str!("hdl/b03.mhdl"),
            Benchmark::B04 => include_str!("hdl/b04.mhdl"),
            Benchmark::B05 => include_str!("hdl/b05.mhdl"),
            Benchmark::B06 => include_str!("hdl/b06.mhdl"),
            Benchmark::B09 => include_str!("hdl/b09.mhdl"),
            Benchmark::C17 => include_str!("hdl/c17.mhdl"),
            Benchmark::C432 => include_str!("hdl/c432.mhdl"),
            Benchmark::C499 => include_str!("hdl/c499.mhdl"),
            Benchmark::C880 => include_str!("hdl/c880.mhdl"),
        }
    }

    /// Parses, checks and synthesizes the benchmark.
    ///
    /// # Errors
    ///
    /// Returns a [`CircuitError`] if the embedded source fails any stage —
    /// which would be a packaging bug; the test-suite loads every
    /// benchmark.
    pub fn load(self) -> Result<Circuit, CircuitError> {
        Circuit::from_source(self.source(), self.name())
    }

    /// Parses a name as used in the paper (`"b01"`, `"c432"`, …).
    pub fn from_name(name: &str) -> Option<Benchmark> {
        Benchmark::all().into_iter().find(|b| b.name() == name)
    }
}

impl fmt::Display for Benchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error loading a circuit.
#[derive(Debug)]
pub enum CircuitError {
    /// Parsing or checking the MiniHDL source failed.
    Hdl(HdlError),
    /// Synthesis failed.
    Synth(SynthError),
    /// The source has no entity of the expected name.
    MissingEntity(String),
}

impl fmt::Display for CircuitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CircuitError::Hdl(e) => write!(f, "circuit source error: {e}"),
            CircuitError::Synth(e) => write!(f, "circuit synthesis error: {e}"),
            CircuitError::MissingEntity(name) => {
                write!(f, "circuit source lacks entity `{name}`")
            }
        }
    }
}

impl std::error::Error for CircuitError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CircuitError::Hdl(e) => Some(e),
            CircuitError::Synth(e) => Some(e),
            CircuitError::MissingEntity(_) => None,
        }
    }
}

impl From<HdlError> for CircuitError {
    fn from(e: HdlError) -> Self {
        CircuitError::Hdl(e)
    }
}

impl From<SynthError> for CircuitError {
    fn from(e: SynthError) -> Self {
        CircuitError::Synth(e)
    }
}

/// A loaded circuit: the checked behavioral model together with its
/// synthesized gate-level netlist.
#[derive(Debug, Clone)]
pub struct Circuit {
    /// The entity name (`b01`, `c432`, …).
    pub name: String,
    /// The checked behavioral design (mutation operates on this).
    pub checked: CheckedDesign,
    /// The synthesized gate-level netlist (fault simulation operates on
    /// this).
    pub netlist: Netlist,
}

impl Circuit {
    /// Builds a circuit from MiniHDL source text.
    ///
    /// # Errors
    ///
    /// Returns a [`CircuitError`] when parsing, checking or synthesis
    /// fails, or when the source lacks an entity named `entity`.
    pub fn from_source(source: &str, entity: &str) -> Result<Self, CircuitError> {
        let design = musa_hdl::parse(source)?;
        if design.entity(entity).is_none() {
            return Err(CircuitError::MissingEntity(entity.to_string()));
        }
        let checked = CheckedDesign::new(design)?;
        let netlist = musa_synth::synthesize(&checked, entity)?;
        Ok(Self {
            name: entity.to_string(),
            checked,
            netlist,
        })
    }

    /// The checked entity metadata.
    ///
    /// # Panics
    ///
    /// Never panics for circuits built through [`Circuit::from_source`]
    /// (the entity is known to exist).
    pub fn info(&self) -> &EntityInfo {
        self.checked
            .entity_info(&self.name)
            .expect("circuit entity must exist")
    }

    /// `true` when the circuit has no clocked process.
    pub fn is_combinational(&self) -> bool {
        self.info().is_combinational()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use musa_hdl::{Bits, Simulator};
    use musa_netlist::good_outputs;
    use musa_prng::{Prng, SplitMix64};
    use musa_synth::{flatten_sequence, unflatten_outputs};

    #[test]
    fn every_benchmark_loads() {
        for bench in Benchmark::all() {
            let circuit = bench.load().unwrap_or_else(|e| {
                panic!("{bench} failed to load: {e}");
            });
            assert_eq!(circuit.name, bench.name());
            assert!(circuit.netlist.gate_count() > 0, "{bench} has no gates");
        }
    }

    #[test]
    fn paper_set_is_subset_of_all() {
        for bench in Benchmark::paper_set() {
            assert!(Benchmark::all().contains(&bench));
        }
    }

    #[test]
    fn from_name_roundtrips() {
        for bench in Benchmark::all() {
            assert_eq!(Benchmark::from_name(bench.name()), Some(bench));
        }
        assert_eq!(Benchmark::from_name("zz"), None);
    }

    #[test]
    fn interface_shapes_match_the_paper() {
        let c432 = Benchmark::C432.load().unwrap();
        assert_eq!(c432.netlist.inputs().len(), 36, "c432 has 36 PIs");
        assert_eq!(c432.netlist.outputs().len(), 7, "c432 has 7 POs");
        assert!(c432.is_combinational());

        let c499 = Benchmark::C499.load().unwrap();
        assert_eq!(c499.netlist.inputs().len(), 41, "c499 has 41 PIs");
        assert_eq!(c499.netlist.outputs().len(), 32, "c499 has 32 POs");
        assert!(c499.is_combinational());

        let b01 = Benchmark::B01.load().unwrap();
        assert!(!b01.is_combinational());
        assert!(b01.netlist.dff_count() >= 4);

        let b03 = Benchmark::B03.load().unwrap();
        assert!(!b03.is_combinational());
    }

    /// Cross-simulates behavior vs gates over a random sequence.
    fn cross_check(bench: Benchmark, cycles: usize, seed: u64) {
        let circuit = bench.load().unwrap();
        let info = circuit.info();
        let mut rng = SplitMix64::new(seed);
        let sequence: Vec<Vec<Bits>> = (0..cycles)
            .map(|_| {
                info.data_inputs
                    .iter()
                    .map(|&p| {
                        let w = info.symbol(p).width;
                        Bits::new(w, rng.bits(w))
                    })
                    .collect()
            })
            .collect();
        let mut behav = Simulator::new(&circuit.checked, &circuit.name).unwrap();
        let expected = behav.run(&sequence);
        let patterns = flatten_sequence(info, &sequence);
        let gate_outs = good_outputs(&circuit.netlist, &patterns);
        for (t, bits) in gate_outs.iter().enumerate() {
            assert_eq!(
                unflatten_outputs(info, bits),
                expected[t],
                "{bench} diverges at cycle {t}"
            );
        }
    }

    #[test]
    fn cross_check_b01() {
        cross_check(Benchmark::B01, 300, 0x01);
    }

    #[test]
    fn cross_check_b02() {
        cross_check(Benchmark::B02, 300, 0x02);
    }

    #[test]
    fn cross_check_b03() {
        cross_check(Benchmark::B03, 300, 0x03);
    }

    #[test]
    fn cross_check_b04() {
        cross_check(Benchmark::B04, 300, 0x04);
    }

    #[test]
    fn cross_check_b05() {
        cross_check(Benchmark::B05, 300, 0x05);
    }

    #[test]
    fn cross_check_b06() {
        cross_check(Benchmark::B06, 300, 0x06);
    }

    #[test]
    fn cross_check_c17() {
        cross_check(Benchmark::C17, 64, 0x17);
    }

    #[test]
    fn cross_check_b09() {
        cross_check(Benchmark::B09, 300, 0x09);
    }

    #[test]
    fn cross_check_c880() {
        cross_check(Benchmark::C880, 200, 0x880);
    }

    #[test]
    fn c880_alu_operations() {
        let circuit = Benchmark::C880.load().unwrap();
        let mut sim = Simulator::new(&circuit.checked, "c880").unwrap();
        let run = |sim: &mut Simulator, a: u64, bv: u64, op: u64, cin: u64| {
            sim.step(&[b(8, a), b(8, bv), b(3, op), b(1, cin)])
        };
        // 200 + 100 + 1 = 301 -> y = 45, cout = 1.
        let outs = run(&mut sim, 200, 100, 0, 1);
        assert_eq!(outs[0].raw(), 45);
        assert_eq!(outs[1].raw(), 1);
        // 5 - 9 borrows.
        let outs = run(&mut sim, 5, 9, 1, 0);
        assert_eq!(outs[0].raw(), 252);
        assert_eq!(outs[1].raw(), 1, "borrow flag");
        // Logic and status flags.
        let outs = run(&mut sim, 0xF0, 0x0F, 2, 0);
        assert_eq!(outs[0].raw(), 0);
        assert_eq!(outs[2].raw(), 1, "zero flag");
        let outs = run(&mut sim, 0b0000_0111, 0, 4, 0);
        assert_eq!(outs[3].raw(), 1, "odd parity");
        // Shifts carry out the edge bit.
        let outs = run(&mut sim, 0x81, 0, 5, 0);
        assert_eq!(outs[0].raw(), 0x02);
        assert_eq!(outs[1].raw(), 1);
        // Compare.
        let outs = run(&mut sim, 3, 7, 7, 0);
        assert_eq!(outs[0].raw(), 1, "a < b");
        let outs = run(&mut sim, 7, 7, 7, 0);
        assert_eq!(outs[1].raw(), 1, "equality on cout");
    }

    #[test]
    fn b09_deserialises_bytes() {
        let circuit = Benchmark::B09.load().unwrap();
        let mut sim = Simulator::new(&circuit.checked, "b09").unwrap();
        let zero = b(1, 0);
        // Shift in 0b1011_0010 MSB-first.
        let byte = 0b1011_0010u64;
        let mut seen_valid = false;
        for i in (0..8).rev() {
            let outs = sim.step(&[zero, b(1, (byte >> i) & 1)]);
            seen_valid |= outs[1].raw() == 1;
        }
        assert!(!seen_valid, "valid must not fire mid-word");
        // The word lands one cycle after the eighth bit's edge.
        let outs = sim.step(&[zero, zero]);
        assert_eq!(outs[1].raw(), 1, "valid fires");
        assert_eq!(outs[0].raw(), byte, "byte reassembled");
    }

    #[test]
    fn cross_check_c432() {
        cross_check(Benchmark::C432, 100, 0x432);
    }

    #[test]
    fn cross_check_c499() {
        cross_check(Benchmark::C499, 60, 0x499);
    }

    // ---- functional spot checks -----------------------------------------

    fn b(width: u32, value: u64) -> Bits {
        Bits::new(width, value)
    }

    #[test]
    fn c499_corrects_single_bit_error() {
        let circuit = Benchmark::C499.load().unwrap();
        let mut sim = Simulator::new(&circuit.checked, "c499").unwrap();
        let data: u64 = 0xDEAD_BEEF_1234_5678 & 0xFFFF_FFFF;
        // Encode: check bits = XOR of (i+1) over set data bits.
        let mut check = 0u64;
        for i in 0..32 {
            if (data >> i) & 1 == 1 {
                check ^= i + 1;
            }
        }
        // Clean word passes through.
        let outs = sim.step(&[b(32, data), b(8, check), b(1, 1)]);
        assert_eq!(outs[0].raw(), data, "clean word must pass unchanged");
        // Flip data bit 13: decoder must repair it when armed.
        let corrupted = data ^ (1 << 13);
        let outs = sim.step(&[b(32, corrupted), b(8, check), b(1, 1)]);
        assert_eq!(outs[0].raw(), data, "single-bit error must be corrected");
        // Correction disarmed: the error passes through.
        let outs = sim.step(&[b(32, corrupted), b(8, check), b(1, 0)]);
        assert_eq!(outs[0].raw(), corrupted);
    }

    #[test]
    fn c432_prioritises_buses_and_channels() {
        let circuit = Benchmark::C432.load().unwrap();
        let mut sim = Simulator::new(&circuit.checked, "c432").unwrap();
        // Request on B channel 4 with all channels enabled; A quiet.
        let outs = sim.step(&[b(9, 0), b(9, 1 << 4), b(9, 0x1FF), b(9, 0x1FF)]);
        assert_eq!(outs[0].raw(), 0, "pa");
        assert_eq!(outs[1].raw(), 1, "pb wins when a quiet");
        assert_eq!(outs[2].raw(), 0, "pc");
        assert_eq!(outs[3].raw(), 4, "channel index");
        // A overrides B; lowest requesting channel wins within the bus.
        let outs = sim.step(&[b(9, 0b110), b(9, 1 << 4), b(9, 0), b(9, 0x1FF)]);
        assert_eq!(outs[0].raw(), 1, "pa");
        assert_eq!(outs[1].raw(), 0, "pb masked by a");
        assert_eq!(outs[3].raw(), 1, "lowest set channel of bus a");
        // Disabled channels are invisible.
        let outs = sim.step(&[b(9, 0b110), b(9, 0), b(9, 0), b(9, 0)]);
        assert_eq!(outs[0].raw(), 0);
        assert_eq!(outs[3].raw(), 15, "no grant encodes 15");
    }

    #[test]
    fn b03_round_robin_rotates() {
        let circuit = Benchmark::B03.load().unwrap();
        let mut sim = Simulator::new(&circuit.checked, "b03").unwrap();
        let zero = b(1, 0);
        // All four request continuously; grants observed one cycle later.
        let all = b(4, 0b1111);
        sim.step(&[zero, all]); // grants land next cycle
        let g1 = sim.step(&[zero, all])[0].raw();
        let g2 = sim.step(&[zero, all])[0].raw();
        let g3 = sim.step(&[zero, all])[0].raw();
        let g4 = sim.step(&[zero, all])[0].raw();
        // One-hot grants, rotating through all requesters.
        for g in [g1, g2, g3, g4] {
            assert_eq!(g.count_ones(), 1, "grant must be one-hot, got {g:#b}");
        }
        assert_eq!(g1 | g2 | g3 | g4, 0b1111, "all requesters served");
    }

    #[test]
    fn b01_serial_addition() {
        let circuit = Benchmark::B01.load().unwrap();
        let mut sim = Simulator::new(&circuit.checked, "b01").unwrap();
        let zero = b(1, 0);
        let one = b(1, 1);
        // 1+1 LSB-first: sum bit 0 then carry into next position.
        sim.step(&[zero, one, one]); // rst=0, line1=1, line2=1
        let outs = sim.step(&[zero, zero, zero]);
        assert_eq!(outs[0].raw(), 0, "sum bit of 1+1 is 0");
        let outs = sim.step(&[zero, zero, zero]);
        assert_eq!(outs[0].raw(), 1, "carry emerges next cycle");
    }

    #[test]
    fn b02_recognises_bcd_frames() {
        let circuit = Benchmark::B02.load().unwrap();
        let mut sim = Simulator::new(&circuit.checked, "b02").unwrap();
        let zero = b(1, 0);
        // Frame 1: MSB-first 1,0,0,1 = 9 → valid BCD.
        let mut last = 0;
        for bit in [1u64, 0, 0, 1] {
            last = sim.step(&[zero, b(1, bit)])[0].raw();
        }
        let after_frame1 = sim.step(&[zero, b(1, 1)])[0].raw();
        assert_eq!(last, 0, "u low during the frame");
        assert_eq!(after_frame1, 1, "9 is valid BCD");
        // Frame 2 continues: 1,1,1,1 = 15 → invalid (first bit already fed).
        for bit in [1u64, 1, 1] {
            sim.step(&[zero, b(1, bit)]);
        }
        let after_frame2 = sim.step(&[zero, b(1, 0)])[0].raw();
        assert_eq!(after_frame2, 0, "15 is not BCD");
    }

    #[test]
    fn b04_tracks_extrema() {
        let circuit = Benchmark::B04.load().unwrap();
        let mut sim = Simulator::new(&circuit.checked, "b04").unwrap();
        let zero = b(1, 0);
        for v in [42u64, 17, 200, 99] {
            sim.step(&[zero, b(8, v)]);
        }
        let outs = sim.step(&[zero, b(8, 120)]);
        assert_eq!(outs[0].raw(), 17, "min");
        assert_eq!(outs[1].raw(), 200, "max");
    }

    #[test]
    fn b05_elaborates_simulates_and_yields_mutants() {
        use musa_mutation::{generate_mutants, GenerateOptions};
        // Smoke for the ROADMAP "larger circuit suite" item: the model
        // must elaborate, synthesize, run a scan and produce a mutant
        // population worth sampling.
        let circuit = Benchmark::B05.load().unwrap();
        assert!(!circuit.is_combinational());
        assert!(circuit.netlist.gate_count() > 0);
        let mut sim = Simulator::new(&circuit.checked, "b05").unwrap();
        let zero = b(1, 0);
        let one = b(1, 1);
        // Kick off a scan; the walk takes 16 cycles, then `done` pulses.
        sim.step(&[zero, one]);
        let mut done_at = None;
        for t in 0..20 {
            let outs = sim.step(&[zero, zero]);
            if outs[1].raw() == 1 {
                done_at = Some(t);
                // Max of the table is 15; checksum 0x70 >> 4 = 7.
                assert_eq!(outs[0].raw() >> 4, 15, "max nibble");
                break;
            }
        }
        assert_eq!(done_at, Some(16), "scan takes 16 cycles plus the report");
        let mutants = generate_mutants(
            &circuit.checked,
            &circuit.name,
            &GenerateOptions::default(),
        );
        assert!(mutants.len() >= 50, "population {} too small", mutants.len());
    }

    #[test]
    fn b06_acknowledges_requests() {
        let circuit = Benchmark::B06.load().unwrap();
        let mut sim = Simulator::new(&circuit.checked, "b06").unwrap();
        let zero = b(1, 0);
        let one = b(1, 1);
        // rtr=1 → state 1; eql=1 → state 3 (ack); then state 5 (ack).
        sim.step(&[zero, zero, one]); // eql=0, rtr=1
        sim.step(&[zero, one, zero]);
        let ack = sim.step(&[zero, zero, zero])[0].raw();
        assert_eq!(ack, 1, "state 3 acknowledges");
        let ack = sim.step(&[zero, zero, zero])[0].raw();
        assert_eq!(ack, 1, "state 5 still acknowledges");
    }

    #[test]
    fn circuit_from_bad_source_errors() {
        assert!(matches!(
            Circuit::from_source("entity x is port(a : in bit);", "x"),
            Err(CircuitError::Hdl(_))
        ));
        assert!(matches!(
            Circuit::from_source(
                "entity x is port(a : in bit; y : out bit);
                 comb begin y <= a; end;
                 end;",
                "other"
            ),
            Err(CircuitError::MissingEntity(_))
        ));
    }

    #[test]
    fn pretty_printer_roundtrips_every_benchmark() {
        for bench in Benchmark::all() {
            let d1 = musa_hdl::parse(bench.source()).unwrap();
            let p1 = musa_hdl::pretty::print_design(&d1);
            let d2 = musa_hdl::parse(&p1)
                .unwrap_or_else(|e| panic!("{bench}: re-parse failed: {}", e.render(&p1)));
            let p2 = musa_hdl::pretty::print_design(&d2);
            assert_eq!(p1, p2, "{bench}: pretty printing is not a fixpoint");
        }
    }

    #[test]
    fn mutant_populations_are_stable_and_nontrivial() {
        use musa_mutation::{generate_mutants, GenerateOptions};
        for bench in Benchmark::paper_set() {
            let circuit = bench.load().unwrap();
            let a = generate_mutants(
                &circuit.checked,
                &circuit.name,
                &GenerateOptions::default(),
            );
            let b = generate_mutants(
                &circuit.checked,
                &circuit.name,
                &GenerateOptions::default(),
            );
            assert_eq!(a, b, "{bench}: generation must be deterministic");
            assert!(a.len() >= 50, "{bench}: population {} too small", a.len());
            // Every validated mutant must apply cleanly.
            for mutant in a.iter().take(40) {
                mutant.apply(&circuit.checked).unwrap_or_else(|e| {
                    panic!("{bench}: {} failed to apply: {e}", mutant.description)
                });
            }
        }
    }

    #[test]
    fn gate_counts_are_reasonable() {
        // Guard against folding regressions blowing netlists up.
        let c432 = Benchmark::C432.load().unwrap();
        assert!(
            (50..3000).contains(&c432.netlist.gate_count()),
            "c432 gate count {} out of expected band",
            c432.netlist.gate_count()
        );
        let c499 = Benchmark::C499.load().unwrap();
        assert!(
            (200..6000).contains(&c499.netlist.gate_count()),
            "c499 gate count {} out of expected band",
            c499.netlist.gate_count()
        );
    }
}
