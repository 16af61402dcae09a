//! Bring your own circuit: write MiniHDL, synthesize it, verify the
//! gate level against the behavioral model, and run the paper's
//! validation-reuse flow on it.
//!
//! ```text
//! cargo run --release --example custom_circuit
//! ```

use musa::circuits::Circuit;
use musa::core::{run_sampling_experiment, BenchContext, ExperimentConfig};
use musa::hdl::{Bits, Simulator};
use musa::netlist::good_outputs;
use musa::prng::{Prng, SplitMix64};
use musa::synth::{flatten_sequence, unflatten_outputs};
use musa::testgen::SamplingStrategy;

/// A 4-bit Gray-code counter with parity output.
const GRAY: &str = "
entity gray is
  port(clk : in bit; rst : in bit; en : in bit;
       code : out bits(4); parity : out bit);

  signal count : bits(4);

  seq(clk) begin
    if rst = 1 then
      count <= 0;
    elsif en = 1 then
      count <= count + 1;
    end if;
  end;

  comb begin
    code <= count xor (count srl 1);
    parity <= xorr(count xor (count srl 1));
  end;
end gray;
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Build: parse + check + synthesize in one step.
    let circuit = Circuit::from_source(GRAY, "gray")?;
    println!(
        "gray: {} gates, {} flops, depth {}",
        circuit.netlist.gate_count(),
        circuit.netlist.dff_count(),
        circuit.netlist.depth()
    );

    // 2. Verify: behavioral and gate-level simulations must agree.
    let info = circuit.info();
    let mut rng = SplitMix64::new(7);
    let sequence: Vec<Vec<Bits>> = (0..100)
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
    let mut behav = Simulator::new(&circuit.checked, "gray")?;
    let expected = behav.run(&sequence);
    let patterns = flatten_sequence(info, &sequence);
    let gate_outs = good_outputs(&circuit.netlist, &patterns);
    for (t, bits) in gate_outs.iter().enumerate() {
        assert_eq!(
            unflatten_outputs(info, bits),
            expected[t],
            "gate level diverges at cycle {t}"
        );
    }
    println!("cross-simulation: 100 cycles, behavioral == gates");

    // 3. Reuse: the paper's sampling experiment on the custom circuit.
    let ctx = BenchContext::new(circuit, &ExperimentConfig::fast(0x06A1));
    let outcome = run_sampling_experiment(&ctx, SamplingStrategy::random(0.25))?;
    println!(
        "validation reuse: {} of {} mutants sampled -> {} vectors, MS = {:.2}%, NLFCE = {:+.0}",
        outcome.sampled,
        outcome.population,
        outcome.data_len,
        outcome.mutation_score_pct,
        outcome.nlfce
    );
    Ok(())
}
