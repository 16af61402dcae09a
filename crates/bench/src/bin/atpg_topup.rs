//! E3 — ATPG top-up: deterministic test-generation effort with and
//! without re-used validation data (the paper's §1 motivation).
//!
//! ```text
//! cargo run --release -p musa_bench --bin atpg_topup \
//!     [--fast|--paper] [--seed N|0xHEX] [--jobs N] \
//!     [--fault-reduce on|off] [--screen static|off] [--json] \
//!     [--trace FILE] [--trace-format json|chrome] [--profile] [--progress]
//! ```
//!
//! `--help` lists what each flag does.

fn main() {
    musa_bench::drive(musa_bench::Bin::AtpgTopup);
}
