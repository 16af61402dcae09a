//! E2 — the MFC/RFC coverage-versus-length curves behind ΔFC%/ΔL%.
//!
//! ```text
//! cargo run --release -p musa_bench --bin coverage_curves \
//!     [--fast|--paper] [--seed N|0xHEX] [--jobs N] \
//!     [--fault-reduce on|off] [--screen static|off] [--json] \
//!     [--trace FILE] [--trace-format json|chrome] [--profile] [--progress]
//! ```
//!
//! `--help` lists what each flag does.

fn main() {
    musa_bench::drive(musa_bench::Bin::CoverageCurves);
}
