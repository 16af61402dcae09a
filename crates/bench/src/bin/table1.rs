//! Regenerates **Table 1** — mutation-operator fault-coverage efficiency.
//!
//! ```text
//! cargo run --release -p musa_bench --bin table1 \
//!     [--fast|--paper] [--seed N|0xHEX] [--jobs N] \
//!     [--fault-reduce on|off] [--screen static|off] [--json] \
//!     [--trace FILE] [--trace-format json|chrome] [--profile] [--progress]
//! ```
//!
//! `--help` lists what each flag does.

fn main() {
    musa_bench::drive(musa_bench::Bin::Table1);
}
