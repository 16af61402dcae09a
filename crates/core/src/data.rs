//! Shared plumbing: behavioral test data → gate-level coverage curves.

use musa_circuits::Circuit;
use musa_metrics::CoverageCurve;
use musa_mutation::TestSequence;
use musa_netlist::{
    fault_simulate_sessions, fault_simulate_sessions_reduced, Fault, FaultReduction, Pattern,
};
use musa_synth::flatten_sequence;
use musa_testgen::testbench_patterns;

/// Lane occupancy of one fault-simulation measurement: how many faults
/// actually occupied simulation lanes versus the full collapsed list.
/// `faults_simulated == faults_total` whenever dominance reduction is
/// off (or credit never landed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSimStats {
    /// Faults that occupied simulation lanes (representatives plus
    /// residuals).
    pub faults_simulated: usize,
    /// Size of the full collapsed fault list the coverage numbers are
    /// quoted against.
    pub faults_total: usize,
}

impl FaultSimStats {
    /// Stats for a full (unreduced) run over `total` faults.
    pub fn full(total: usize) -> Self {
        Self {
            faults_simulated: total,
            faults_total: total,
        }
    }
}

/// Flattens behavioral test sessions into gate-level pattern sessions.
pub fn sessions_to_patterns(circuit: &Circuit, sessions: &[TestSequence]) -> Vec<Vec<Pattern>> {
    let info = circuit.info();
    sessions
        .iter()
        .map(|s| flatten_sequence(info, s))
        .collect()
}

/// Fault-simulates behavioral sessions on the synthesized netlist and
/// returns the cumulative coverage curve.
pub fn coverage_of_sessions(
    circuit: &Circuit,
    faults: &[Fault],
    sessions: &[TestSequence],
) -> CoverageCurve {
    let patterns = sessions_to_patterns(circuit, sessions);
    let result = fault_simulate_sessions(&circuit.netlist, faults, &patterns);
    CoverageCurve::new(result.coverage_curve())
}

/// [`coverage_of_sessions`] over a dominance-reduced fault list: only
/// representatives (and residuals) occupy lanes. Final coverage — the
/// only curve point the ΔFC/ΔL metrics read from the *mutation* curve —
/// is exactly the full-simulation value; credited faults' interior
/// indices are upper bounds (see
/// [`musa_netlist::fault_simulate_sessions_reduced`]).
pub fn coverage_of_sessions_reduced(
    circuit: &Circuit,
    reduction: &FaultReduction,
    sessions: &[TestSequence],
) -> (CoverageCurve, FaultSimStats) {
    let patterns = sessions_to_patterns(circuit, sessions);
    let result = fault_simulate_sessions_reduced(&circuit.netlist, reduction, &patterns);
    let stats = FaultSimStats {
        faults_simulated: result.faults_simulated,
        faults_total: reduction.total(),
    };
    (CoverageCurve::new(result.coverage_curve()), stats)
}

/// Fault-simulates an LFSR pseudo-random baseline of the given length
/// and returns its coverage curve (paper §3's `RFC`).
///
/// Always full simulation, regardless of
/// [`crate::ExperimentConfig::fault_reduce`]: the ΔFC/ΔL metrics read
/// this curve's *interior* (coverage at the mutation length, shortest
/// prefix reaching a target), which dominance credit does not preserve
/// bit-exactly.
pub fn random_baseline_curve(
    circuit: &Circuit,
    faults: &[Fault],
    len: usize,
    seed: u64,
) -> CoverageCurve {
    let patterns = testbench_patterns(&circuit.netlist, len, seed);
    let result = fault_simulate_sessions(&circuit.netlist, faults, &[patterns]);
    CoverageCurve::new(result.coverage_curve())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BenchContext, ExperimentConfig};
    use musa_circuits::Benchmark;
    use musa_hdl::Bits;
    use musa_netlist::collapsed_faults;

    #[test]
    fn universe_is_nonempty_and_stable() {
        let config = ExperimentConfig::fast(1);
        let u1 = BenchContext::new(Benchmark::C17.load().unwrap(), &config);
        let u2 = BenchContext::new(Benchmark::C17.load().unwrap(), &config);
        assert!(!u1.faults().is_empty());
        assert_eq!(u1.faults(), u2.faults());
    }

    #[test]
    fn coverage_of_exhaustive_c17_sessions_is_full() {
        let c17 = Benchmark::C17.load().unwrap();
        let faults = collapsed_faults(&c17.netlist);
        // All 32 patterns as one behavioral session.
        let session: TestSequence = (0..32u64)
            .map(|p| (0..5).map(|i| Bits::new(1, (p >> i) & 1)).collect())
            .collect();
        let curve = coverage_of_sessions(&c17, &faults, &[session]);
        assert!((curve.final_coverage() - 1.0).abs() < 1e-12);
        assert_eq!(curve.len(), 32);
    }

    #[test]
    fn random_baseline_improves_with_length() {
        let c17 = Benchmark::C17.load().unwrap();
        let faults = collapsed_faults(&c17.netlist);
        let short = random_baseline_curve(&c17, &faults, 4, 9);
        let long = random_baseline_curve(&c17, &faults, 64, 9);
        assert!(long.final_coverage() >= short.final_coverage());
        assert!(long.final_coverage() > 0.9, "64 LFSR patterns saturate c17");
    }

    #[test]
    fn sequential_sessions_flatten_correctly() {
        let b01 = Benchmark::B01.load().unwrap();
        let faults = collapsed_faults(&b01.netlist);
        let session: TestSequence = (0..16u64)
            .map(|i| {
                vec![
                    Bits::new(1, u64::from(i == 0)), // reset pulse first
                    Bits::new(1, i & 1),
                    Bits::new(1, (i >> 1) & 1),
                ]
            })
            .collect();
        let curve = coverage_of_sessions(&b01, &faults, &[session.clone(), session]);
        assert_eq!(curve.len(), 32);
        assert!(curve.final_coverage() > 0.0);
    }
}
