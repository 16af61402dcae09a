//! Mutation analysis of a hand-written design against a hand-written
//! test suite — the *validation* half of the paper's flow.
//!
//! ```text
//! cargo run --release --example mutation_analysis
//! ```
//!
//! Writes a small MiniHDL traffic-light controller, generates all ten
//! operators' mutants, runs a directed test suite, and reports the
//! mutation score with the list of surviving mutants (the holes in the
//! suite).

use musa::hdl::{parse, Bits, CheckedDesign};
use musa::mutation::{
    classify_mutants, count_by_operator, execute_mutants_engine_opt, generate_mutants, Engine,
    EquivalencePolicy, GenerateOptions, MutationScore, OptLevel,
};

const TRAFFIC: &str = "
entity traffic is
  port(clk : in bit; rst : in bit; car : in bit;
       green : out bit; yellow : out bit; red : out bit);

  constant GREEN_TIME : bits(3) := 5;

  signal state : bits(2);
  signal timer : bits(3);

  seq(clk) begin
    if rst = 1 then
      state <= 0;
      timer <= 0;
    else
      case state is
        when 0 =>                -- red: wait for a car
          if car = 1 then
            state <= 1;
          end if;
        when 1 =>                -- green: run the timer
          if timer = GREEN_TIME then
            state <= 2;
            timer <= 0;
          else
            timer <= timer + 1;
          end if;
        when 2 =>                -- yellow: one cycle
          state <= 0;
        when others =>
          state <= 0;
      end case;
    end if;
  end;

  comb begin
    green <= state = 1;
    yellow <= state = 2;
    red <= state = 0;
  end;
end traffic;
";

fn bit(v: u64) -> Bits {
    Bits::new(1, v)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let checked = CheckedDesign::new(parse(TRAFFIC)?)?;
    let mutants = generate_mutants(&checked, "traffic", &GenerateOptions::default());
    println!("Generated {} mutants:", mutants.len());
    for (op, count) in count_by_operator(&mutants) {
        println!("  {:<4} {count}", op.acronym());
    }

    // A directed test: reset, let a car through a full green-yellow-red
    // cycle, then idle.
    let mut suite = vec![vec![bit(1), bit(0)]]; // reset pulse
    suite.push(vec![bit(0), bit(1)]); // car arrives
    for _ in 0..8 {
        suite.push(vec![bit(0), bit(0)]); // cycle through green/yellow
    }
    suite.push(vec![bit(0), bit(1)]); // second car
    for _ in 0..3 {
        suite.push(vec![bit(0), bit(0)]);
    }

    let (engine, opt) = (Engine::default(), OptLevel::default());
    let kills = execute_mutants_engine_opt(&checked, "traffic", &mutants, &suite, 1, engine, opt)?;
    let classes = classify_mutants(
        &checked,
        "traffic",
        &mutants,
        &EquivalencePolicy::default(),
    )?;
    let score = MutationScore::from_results(&kills, &classes);
    println!("\nDirected suite of {} vectors: {score}", suite.len());

    println!("\nSurviving non-equivalent mutants (validation holes):");
    let mut shown = 0;
    for (i, mutant) in mutants.iter().enumerate() {
        if kills.first_kill[i].is_none() && !classes[i].is_equivalent() {
            println!("  {}", mutant.description);
            shown += 1;
            if shown == 10 {
                println!("  ... (more omitted)");
                break;
            }
        }
    }
    if shown == 0 {
        println!("  none — the suite is mutation-adequate");
    }
    Ok(())
}
