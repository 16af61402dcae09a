//! E1 — sampling-fraction sweep: MS and NLFCE of both strategies as the
//! sample fraction grows.
//!
//! ```text
//! cargo run --release -p musa_bench --bin sweep_fraction \
//!     [--fast|--paper] [--seed N|0xHEX] [--jobs N] \
//!     [--fault-reduce on|off] [--screen static|off] [--json] \
//!     [--trace FILE] [--trace-format json|chrome] [--profile] [--progress]
//! ```
//!
//! `--help` lists what each flag does.

fn main() {
    musa_bench::drive(musa_bench::Bin::SweepFraction);
}
