//! # musa-synth — RTL synthesis from MiniHDL to gate-level netlists
//!
//! Elaborates a checked [`musa_hdl`] design into a [`musa_netlist`]
//! circuit: control flow becomes multiplexers, word operators expand to
//! ripple-carry adders, comparators and mux trees, loops unroll, and
//! clocked processes infer one D flip-flop per register bit. Local
//! constant folding and structural hashing keep the result compact.
//!
//! Correctness contract: for every vector sequence, the synthesized
//! netlist produces exactly the outputs of the behavioral simulator.
//! The test-suite enforces this by cross-simulation, including
//! property-based tests over random input sequences.
//!
//! # Example
//!
//! ```
//! use musa_hdl::{parse, Bits, CheckedDesign, Simulator};
//! use musa_netlist::good_outputs;
//! use musa_synth::{flatten_inputs, synthesize, unflatten_outputs};
//!
//! let design = parse(
//!     "entity maj is
//!        port(a : in bit; b : in bit; c : in bit; y : out bit);
//!        comb begin y <= (a and b) or (a and c) or (b and c); end;
//!      end;",
//! )?;
//! let checked = CheckedDesign::new(design)?;
//! let nl = synthesize(&checked, "maj")?;
//!
//! // Gate-level and behavioral simulations agree.
//! let info = checked.entity_info("maj").unwrap();
//! let inputs = vec![Bits::new(1, 1), Bits::new(1, 0), Bits::new(1, 1)];
//! let mut behav = Simulator::new(&checked, "maj")?;
//! let expected = behav.step(&inputs);
//! let pattern = flatten_inputs(info, &inputs);
//! let gates = good_outputs(&nl, &[pattern]);
//! assert_eq!(unflatten_outputs(info, &gates[0]), expected);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod convert;
mod elaborate;

pub use builder::GateBuilder;
pub use convert::{flatten_inputs, flatten_sequence, unflatten_outputs};
pub use elaborate::{synthesize, SynthError};

#[cfg(test)]
mod tests {
    use super::*;
    use musa_hdl::{parse, Bits, CheckedDesign, Simulator};
    use musa_netlist::good_outputs;
    use musa_prng::{Prng, SplitMix64};

    /// Cross-simulates an entity behaviorally and at gate level over a
    /// random input sequence; asserts identical output transcripts.
    fn cross_check(src: &str, entity: &str, cycles: usize, seed: u64) {
        let checked = CheckedDesign::new(parse(src).unwrap()).unwrap();
        let nl = synthesize(&checked, entity).unwrap();
        let info = checked.entity_info(entity).unwrap();
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

        let mut behav = Simulator::new(&checked, entity).unwrap();
        let expected = behav.run(&sequence);

        let patterns = flatten_sequence(info, &sequence);
        let gate_outs = good_outputs(&nl, &patterns);
        for (t, bits) in gate_outs.iter().enumerate() {
            let got = unflatten_outputs(info, bits);
            assert_eq!(got, expected[t], "cycle {t} of `{entity}` diverges");
        }
    }

    #[test]
    fn cross_check_combinational_alu() {
        cross_check(
            "entity alu is
               port(x : in bits(8); y : in bits(8); op : in bits(2); z : out bits(8); f : out bit);
             comb begin
               case op is
                 when 0 => z <= x + y;
                 when 1 => z <= x - y;
                 when 2 => z <= x and y;
                 when others => z <= x xor y;
               end case;
               f <= x < y;
             end;
             end;",
            "alu",
            200,
            0xA1,
        );
    }

    #[test]
    fn cross_check_multiplier() {
        cross_check(
            "entity mul is
               port(x : in bits(6); y : in bits(6); z : out bits(6));
             comb begin z <= x * y; end;
             end;",
            "mul",
            150,
            0xB2,
        );
    }

    #[test]
    fn cross_check_counter() {
        cross_check(
            "entity counter is
               port(clk : in bit; rst : in bit; en : in bit; q : out bits(5));
             signal c : bits(5);
             seq(clk) begin
               if rst = 1 then
                 c <= 0;
               elsif en = 1 then
                 c <= c + 1;
               end if;
             end;
             comb begin q <= c; end;
             end;",
            "counter",
            300,
            0xC3,
        );
    }

    #[test]
    fn cross_check_registered_output() {
        cross_check(
            "entity reg is
               port(clk : in bit; d : in bits(4); q : out bits(4));
             seq(clk) begin q <= d; end;
             end;",
            "reg",
            100,
            0xD4,
        );
    }

    #[test]
    fn cross_check_fsm_with_case() {
        cross_check(
            "entity fsm is
               port(clk : in bit; rst : in bit; x : in bit; y : out bit);
             signal state : bits(2);
             seq(clk) begin
               if rst = 1 then
                 state <= 0;
               else
                 case state is
                   when 0 => if x = 1 then state <= 1; end if;
                   when 1 => if x = 0 then state <= 2; else state <= 1; end if;
                   when 2 => state <= 3;
                   when others => state <= 0;
                 end case;
               end if;
             end;
             comb begin y <= state = 3; end;
             end;",
            "fsm",
            400,
            0xE5,
        );
    }

    #[test]
    fn cross_check_loops_and_dynamic_index() {
        cross_check(
            "entity bitops is
               port(a : in bits(8); s : in bits(3); y : out bits(8); o : out bit);
             comb begin
               for i in 0 .. 7 loop
                 y[i] <= a[7 - i];
               end loop;
               o <= a[s];
             end;
             end;",
            "bitops",
            200,
            0xF6,
        );
    }

    #[test]
    fn cross_check_dynamic_index_write() {
        cross_check(
            "entity setter is
               port(a : in bits(8); s : in bits(4); v : in bit; y : out bits(8));
             comb
               var t : bits(8);
             begin
               t := a;
               t[s] := v;
               y <= t;
             end;
             end;",
            "setter",
            200,
            0x17,
        );
    }

    #[test]
    fn cross_check_shift_concat_reduce() {
        cross_check(
            "entity srx is
               port(a : in bits(6); b : in bits(2); y : out bits(8); p : out bit; q : out bit; r : out bit);
             comb begin
               y <= (a & b) xor ((a & b) srl 3) xor ((a & b) sll 1);
               p <= xorr(a);
               q <= andr(b);
               r <= orr(a);
             end;
             end;",
            "srx",
            200,
            0x28,
        );
    }

    #[test]
    fn cross_check_variables_chain() {
        cross_check(
            "entity chain is
               port(a : in bits(8); y : out bits(8));
             constant BIAS : bits(8) := 37;
             comb
               var t : bits(8);
               var u : bits(8);
             begin
               t := a + BIAS;
               u := t * t;
               if u > 128 then
                 u := u - a;
               end if;
               y <= u;
             end;
             end;",
            "chain",
            200,
            0x39,
        );
    }

    #[test]
    fn cross_check_comparisons() {
        cross_check(
            "entity cmp is
               port(a : in bits(7); b : in bits(7);
                    l : out bit; le : out bit; g : out bit; ge : out bit;
                    e : out bit; n : out bit);
             comb begin
               l <= a < b; le <= a <= b; g <= a > b;
               ge <= a >= b; e <= a = b; n <= a /= b;
             end;
             end;",
            "cmp",
            300,
            0x4A,
        );
    }

    #[test]
    fn cross_check_two_seq_processes() {
        cross_check(
            "entity pair is
               port(clk : in bit; d : in bit; qa : out bit; qb : out bit);
             signal a : bit := 1;
             signal b : bit := 0;
             seq(clk) begin a <= b xor d; end;
             seq(clk) begin b <= a; end;
             comb begin qa <= a; qb <= b; end;
             end;",
            "pair",
            200,
            0x5B,
        );
    }

    #[test]
    fn cross_check_nonzero_register_init() {
        cross_check(
            "entity initreg is
               port(clk : in bit; q : out bits(4));
             signal r : bits(4) := 9;
             seq(clk) begin r <= r + 3; end;
             comb begin q <= r; end;
             end;",
            "initreg",
            50,
            0x6C,
        );
    }

    #[test]
    fn synthesize_unknown_entity_errors() {
        let checked = CheckedDesign::new(
            parse(
                "entity a is port(x : in bit; y : out bit);
                 comb begin y <= x; end;
                 end;",
            )
            .unwrap(),
        )
        .unwrap();
        assert!(matches!(
            synthesize(&checked, "zz"),
            Err(SynthError::EntityNotFound(_))
        ));
    }

    #[test]
    fn constant_folding_keeps_netlists_small() {
        // An unrolled loop over constants should fold to almost nothing.
        let checked = CheckedDesign::new(
            parse(
                "entity fold is
                   port(a : in bits(8); y : out bits(8));
                 comb
                   var t : bits(8);
                 begin
                   t := 0;
                   for i in 0 .. 7 loop
                     t := t xor 0;
                   end loop;
                   y <= t xor a;
                 end;
                 end;",
            )
            .unwrap(),
        )
        .unwrap();
        let nl = synthesize(&checked, "fold").unwrap();
        // y = 0 xor a = a: pure rewiring, no gates needed at all.
        assert_eq!(nl.gate_count(), 0, "constants must fold away");
    }
}
