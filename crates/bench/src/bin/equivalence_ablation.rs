//! E4 — equivalence-budget ablation: how the presumption budget shifts
//! the Mutation Score.
//!
//! ```text
//! cargo run --release -p musa_bench --bin equivalence_ablation \
//!     [--fast|--paper] [--seed N|0xHEX] [--jobs N] \
//!     [--fault-reduce on|off] [--screen static|off] [--json] \
//!     [--trace FILE] [--trace-format json|chrome] [--profile] [--progress]
//! ```
//!
//! `--help` lists what each flag does.

fn main() {
    musa_bench::drive(musa_bench::Bin::EquivalenceAblation);
}
