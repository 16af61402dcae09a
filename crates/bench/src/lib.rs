//! # musa-bench — harness regenerating the paper's evaluation
//!
//! Binaries (run with `--release`):
//!
//! | binary | regenerates |
//! |---|---|
//! | `table1` | Table 1 — operator fault-coverage efficiency |
//! | `table2` | Table 2 — test-oriented vs random 10 % sampling |
//! | `sweep_fraction` | E1 — sampling-fraction sweep |
//! | `coverage_curves` | E2 — MFC/RFC curves |
//! | `atpg_topup` | E3 — ATPG effort with/without validation reuse |
//! | `equivalence_ablation` | E4 — MS vs equivalence budget |
//!
//! Every binary is a one-line wrapper over the shared [`cli`] layer:
//! arguments parse in one place ([`cli::parse_args`], shared with the
//! `musa` subcommands), the run routes through
//! [`musa_core::Campaign`], and the default stdout is byte-identical to
//! the pre-redesign binaries (pinned by the diff tests in
//! `tests/cli_diff.rs`). The binaries accept `--fast`, `--paper`,
//! `--seed N` (decimal or `0x` hex), `--jobs N`,
//! `--fault-reduce on|off`, `--screen static|off`, `--json` (the typed
//! [`musa_core::Report`] instead of text), `--trace FILE`,
//! `--trace-format json|chrome`, `--profile`, `--progress` and
//! `--help`. An unknown argument exits 2 with the usage text. Timing
//! lives elsewhere: `musa bench` times the kernels, and the
//! repository's `campaign_bench` package times whole campaigns.
//!
//! The crate also hosts the argument layers of the `musa` subcommands
//! that run campaigns: `musa sample`, `musa bench` and `musa lint`
//! ([`cli`]), and `musa campaign` ([`campaign`]), which runs a
//! `musa.request.v1` document in process or through the `musa_store`
//! result store.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// `print!` for the front ends: on a closed stdout it drops the output
/// instead of panicking ([`cli::write_stdout`]).
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::cli::write_stdout(format_args!($($arg)*))
    };
}

/// `println!` for the front ends: on a closed stdout it drops the
/// output instead of panicking ([`cli::write_stdout`]).
#[macro_export]
macro_rules! outln {
    ($($arg:tt)*) => {
        $crate::cli::write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

pub mod campaign;
pub mod cli;

pub use cli::{drive, run_trajectory, Args, BenchCommand, Bin, SampleArgs, BENCH_USAGE};
pub use campaign::{run_campaign, run_stored, CAMPAIGN_USAGE};
pub use musa_core::paper;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_tables_are_consistent_products() {
        // Sanity: NLFCE ≈ ΔFC% × ΔL% for every Table 1 row (the paper
        // rounds to 3 significant figures).
        for &(circuit, op, dfc, dl, nlfce) in paper::TABLE1 {
            let product = dfc * dl;
            let tolerance = nlfce.abs() * 0.02 + 0.5;
            assert!(
                (product - nlfce).abs() < tolerance,
                "{circuit}/{op}: {dfc}×{dl}={product} vs {nlfce}"
            );
        }
    }

    #[test]
    fn paper_table2_test_oriented_always_wins() {
        for &(circuit, to_ms, to_nlfce, rs_ms, rs_nlfce) in paper::TABLE2 {
            assert!(to_ms > rs_ms, "{circuit} MS");
            assert!(to_nlfce > rs_nlfce, "{circuit} NLFCE");
        }
    }
}
