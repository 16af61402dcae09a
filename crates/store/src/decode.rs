//! Decoding `musa.campaign.v1` blobs back into [`ReportData`].
//!
//! The decoder is the store's trust boundary: a blob is only ever a
//! cache of something the pipeline can recompute, so *every* failure
//! mode — wrong schema, wrong task, missing field, ill-typed value,
//! unknown label — degrades to `None`, which the caller treats as a
//! miss. Nothing read from disk can produce an error or a wrong
//! report.
//!
//! Byte-identity of a hit rests on two facts checked by the store
//! integration tests: the emitter ([`Report::to_json`]) and this
//! decoder are exact inverses for every envelope task, and the JSON
//! layer prints floats in shortest-round-trip form, so a decoded `f64`
//! re-encodes to the same bytes.
//!
//! [`Report::to_json`]: musa_core::Report::to_json

use musa_core::json::{self, JsonValue};
use musa_core::{
    AblationPoint, BenchAblation, BenchOutcome, BenchSweep, BenchTopUp, CurvePair, FaultSimStats,
    MgOutcome, OperatorEfficiency, OperatorProfile, ReportData, SamplingOutcome, SweepPoint,
    Table1, Table1Row, Table2, Table2Row, Task, TopUpMode, TopUpOutcome,
};
use musa_metrics::Nlfce;
use musa_mutation::{MutationOperator, MutationScore};

/// The campaign-report schema tag this decoder accepts.
const CAMPAIGN_SCHEMA: &str = "musa.campaign.v1";

/// Decodes a stored blob into the payload for `task`, or `None` if the
/// blob is not a well-formed `musa.campaign.v1` document for exactly
/// that task.
///
/// [`Task::Bench`] and [`Task::Lint`] emit their own documents and
/// bypass the store entirely; they always decode to `None` here.
pub(crate) fn decode_report_data(blob: &str, task: &Task) -> Option<ReportData> {
    let doc = json::parse(blob).ok()?;
    if doc.get("schema")?.as_str()? != CAMPAIGN_SCHEMA {
        return None;
    }
    if doc.get("meta")?.get("task")?.as_str()? != task.slug() {
        return None;
    }
    let data = doc.get("data")?;
    match task {
        Task::Sampling { .. } => Some(ReportData::Sampling(
            data.as_arr()?
                .iter()
                .map(|row| {
                    Some(BenchOutcome {
                        bench: row.get("bench")?.as_str()?.to_string(),
                        outcome: outcome(row.get("outcome")?)?,
                    })
                })
                .collect::<Option<Vec<_>>>()?,
        )),
        Task::OperatorProfile { .. } => Some(ReportData::OperatorProfile(
            data.as_arr()?
                .iter()
                .map(profile)
                .collect::<Option<Vec<_>>>()?,
        )),
        Task::MutationGuided => Some(ReportData::MutationGuided(
            data.as_arr()?
                .iter()
                .map(|row| {
                    Some(MgOutcome {
                        bench: row.get("bench")?.as_str()?.to_string(),
                        population: row.get("population")?.as_usize()?,
                        sessions: row.get("sessions")?.as_usize()?,
                        total_len: row.get("total_len")?.as_usize()?,
                        killed: row.get("killed")?.as_usize()?,
                        rounds: row.get("rounds")?.as_usize()?,
                    })
                })
                .collect::<Option<Vec<_>>>()?,
        )),
        Task::Table1 { .. } => Some(ReportData::Table1(Table1 {
            rows: data
                .get("rows")?
                .as_arr()?
                .iter()
                .map(|row| {
                    Some(Table1Row {
                        circuit: row.get("circuit")?.as_str()?.to_string(),
                        operator: MutationOperator::from_acronym(row.get("operator")?.as_str()?)?,
                        delta_fc_pct: row.get("delta_fc_pct")?.as_f64()?,
                        delta_l_pct: row.get("delta_l_pct")?.as_f64()?,
                        nlfce: row.get("nlfce")?.as_f64()?,
                    })
                })
                .collect::<Option<Vec<_>>>()?,
        })),
        Task::Table2 { .. } => Some(ReportData::Table2(Table2 {
            rows: data
                .get("rows")?
                .as_arr()?
                .iter()
                .map(|row| {
                    Some(Table2Row {
                        circuit: row.get("circuit")?.as_str()?.to_string(),
                        sampled: row.get("sampled")?.as_usize()?,
                        test_oriented: outcome(row.get("test_oriented")?)?,
                        random: outcome(row.get("random")?)?,
                    })
                })
                .collect::<Option<Vec<_>>>()?,
        })),
        Task::SweepFraction { .. } => Some(ReportData::SweepFraction(
            data.as_arr()?
                .iter()
                .map(|row| {
                    Some(BenchSweep {
                        bench: row.get("bench")?.as_str()?.to_string(),
                        points: row
                            .get("points")?
                            .as_arr()?
                            .iter()
                            .map(|p| {
                                Some(SweepPoint {
                                    fraction: p.get("fraction")?.as_f64()?,
                                    test_oriented: outcome(p.get("test_oriented")?)?,
                                    random: outcome(p.get("random")?)?,
                                })
                            })
                            .collect::<Option<Vec<_>>>()?,
                    })
                })
                .collect::<Option<Vec<_>>>()?,
        )),
        Task::CoverageCurves { .. } => Some(ReportData::CoverageCurves(
            data.as_arr()?
                .iter()
                .map(|pair| {
                    Some(CurvePair {
                        circuit: pair.get("circuit")?.as_str()?.to_string(),
                        mutation: curve(pair.get("mutation")?)?,
                        random: curve(pair.get("random")?)?,
                    })
                })
                .collect::<Option<Vec<_>>>()?,
        )),
        Task::AtpgTopup { .. } => Some(ReportData::AtpgTopup(
            data.as_arr()?
                .iter()
                .map(|row| {
                    Some(BenchTopUp {
                        bench: row.get("bench")?.as_str()?.to_string(),
                        modes: row
                            .get("modes")?
                            .as_arr()?
                            .iter()
                            .map(topup)
                            .collect::<Option<Vec<_>>>()?,
                    })
                })
                .collect::<Option<Vec<_>>>()?,
        )),
        Task::EquivalenceAblation { .. } => Some(ReportData::EquivalenceAblation(
            data.as_arr()?
                .iter()
                .map(|row| {
                    Some(BenchAblation {
                        bench: row.get("bench")?.as_str()?.to_string(),
                        points: row
                            .get("points")?
                            .as_arr()?
                            .iter()
                            .map(|p| {
                                Some(AblationPoint {
                                    budget: p.get("budget")?.as_usize()?,
                                    equivalent: p.get("equivalent")?.as_usize()?,
                                    score: score(p.get("score")?)?,
                                })
                            })
                            .collect::<Option<Vec<_>>>()?,
                    })
                })
                .collect::<Option<Vec<_>>>()?,
        )),
        Task::Bench { .. } | Task::Lint => None,
    }
}

/// Maps a stored strategy label back to the `&'static str` the
/// experiment layer tags outcomes with.
fn strategy(label: &str) -> Option<&'static str> {
    match label {
        "random" => Some("random"),
        "test-oriented" => Some("test-oriented"),
        _ => None,
    }
}

/// Decodes one `outcome_json`-encoded [`SamplingOutcome`].
fn outcome(v: &JsonValue) -> Option<SamplingOutcome> {
    Some(SamplingOutcome {
        strategy: strategy(v.get("strategy")?.as_str()?)?,
        population: v.get("population")?.as_usize()?,
        sampled: v.get("sampled")?.as_usize()?,
        mutation_score_pct: v.get("mutation_score_pct")?.as_f64()?,
        score: score(v.get("score")?)?,
        metrics: metrics(v.get("metrics")?)?,
        nlfce: v.get("nlfce")?.as_f64()?,
        data_len: v.get("data_len")?.as_usize()?,
        fault_sim: FaultSimStats {
            faults_simulated: v.get("faults_simulated")?.as_usize()?,
            faults_total: v.get("faults_total")?.as_usize()?,
        },
        screened: v.get("screened")?.as_usize()?,
    })
}

fn score(v: &JsonValue) -> Option<MutationScore> {
    Some(MutationScore {
        generated: v.get("generated")?.as_usize()?,
        killed: v.get("killed")?.as_usize()?,
        equivalent: v.get("equivalent")?.as_usize()?,
    })
}

fn metrics(v: &JsonValue) -> Option<Nlfce> {
    let random_len = v.get("random_len_at_equal_fc")?;
    Some(Nlfce {
        delta_fc_pct: v.get("delta_fc_pct")?.as_f64()?,
        delta_l_pct: v.get("delta_l_pct")?.as_f64()?,
        nlfce: v.get("nlfce")?.as_f64()?,
        mutation_len: v.get("mutation_len")?.as_usize()?,
        random_len_at_equal_fc: match random_len {
            JsonValue::Null => None,
            other => Some(other.as_usize()?),
        },
    })
}

fn curve(v: &JsonValue) -> Option<Vec<(usize, f64)>> {
    v.as_arr()?
        .iter()
        .map(|pair| {
            let pair = pair.as_arr()?;
            if pair.len() != 2 {
                return None;
            }
            Some((pair[0].as_usize()?, pair[1].as_f64()?))
        })
        .collect()
}

fn profile(v: &JsonValue) -> Option<OperatorProfile> {
    Some(OperatorProfile {
        circuit: v.get("circuit")?.as_str()?.to_string(),
        rows: v
            .get("rows")?
            .as_arr()?
            .iter()
            .map(|r| {
                Some(OperatorEfficiency {
                    operator: MutationOperator::from_acronym(r.get("operator")?.as_str()?)?,
                    mutants: r.get("mutants")?.as_usize()?,
                    data_len: r.get("data_len")?.as_usize()?,
                    mutation_fault_coverage: r.get("mutation_fault_coverage")?.as_f64()?,
                    metrics: metrics(r.get("metrics")?)?,
                    fault_sim: FaultSimStats {
                        faults_simulated: r.get("faults_simulated")?.as_usize()?,
                        faults_total: r.get("faults_total")?.as_usize()?,
                    },
                })
            })
            .collect::<Option<Vec<_>>>()?,
    })
}

fn topup(v: &JsonValue) -> Option<TopUpOutcome> {
    let mode = match v.get("mode")?.as_str()? {
        "scratch" => TopUpMode::Scratch,
        "random-first" => TopUpMode::RandomFirst,
        "validation-first" => TopUpMode::ValidationFirst,
        _ => return None,
    };
    Some(TopUpOutcome {
        mode,
        initial_vectors: v.get("initial_vectors")?.as_usize()?,
        atpg_targets: v.get("atpg_targets")?.as_usize()?,
        backtracks: v.get("backtracks")?.as_u64()?,
        atpg_vectors: v.get("atpg_vectors")?.as_usize()?,
        untestable: v.get("untestable")?.as_usize()?,
        aborted: v.get("aborted")?.as_usize()?,
        final_coverage: v.get("final_coverage")?.as_f64()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use musa_core::{Campaign, Report};

    fn run(task: Task) -> Report {
        Campaign::named("c17").fast().seed(7).jobs(1).task(task).run().unwrap()
    }

    /// Emit → decode → re-emit must be byte-identical, and the decoded
    /// payload must equal the fresh one; the re-emitted report borrows
    /// the original plan and wall so only `data` is exercised.
    fn assert_roundtrips(task: Task) {
        let report = run(task.clone());
        let blob = report.to_json();
        let data = decode_report_data(&blob, &task)
            .unwrap_or_else(|| panic!("{} blob must decode", task.slug()));
        assert_eq!(
            format!("{data:?}"),
            format!("{:?}", report.data),
            "{}: a hit must equal a fresh run",
            task.slug()
        );
        let rebuilt = Report { plan: report.plan.clone(), wall: report.wall, data, trace: None };
        assert_eq!(rebuilt.to_json(), blob, "decode must invert to_json");
        assert_eq!(rebuilt.render_text(), report.render_text(), "text must round-trip too");
    }

    #[test]
    fn sampling_family_round_trips() {
        assert_roundtrips(Task::Sampling { fraction: 0.5 });
        assert_roundtrips(Task::Table2 { fraction: 0.5 });
        assert_roundtrips(Task::SweepFraction { fractions: vec![0.25, 0.5] });
    }

    #[test]
    fn remaining_envelope_tasks_round_trip() {
        assert_roundtrips(Task::MutationGuided);
        assert_roundtrips(Task::CoverageCurves { points: 4 });
        assert_roundtrips(Task::AtpgTopup { backtrack_limit: 50 });
        assert_roundtrips(Task::EquivalenceAblation { budgets: vec![50, 100] });
        assert_roundtrips(Task::OperatorProfile {
            operators: MutationOperator::all().to_vec(),
        });
        assert_roundtrips(Task::Table1 { operators: MutationOperator::all().to_vec() });
    }

    #[test]
    fn malformed_blobs_decode_to_none() {
        let task = Task::Sampling { fraction: 0.5 };
        assert_eq!(decode_report_data("", &task).map(|_| ()), None);
        assert_eq!(decode_report_data("{ garbage", &task).map(|_| ()), None);
        assert_eq!(
            decode_report_data("{\"schema\": \"musa.campaign.v2\"}", &task).map(|_| ()),
            None,
            "unknown schema versions must miss"
        );
        let report = run(task.clone());
        let blob = report.to_json();
        // Right schema, wrong task: a key collision across tasks would
        // be a digest bug, but the decoder still refuses.
        assert_eq!(decode_report_data(&blob, &Task::MutationGuided).map(|_| ()), None);
        // Truncation anywhere inside the document must miss cleanly.
        assert_eq!(
            decode_report_data(&blob[..blob.len() / 2], &task).map(|_| ()),
            None
        );
    }

    /// Random single-byte inserts, deletes and replacements of real
    /// blobs decode to `Some` or `None`; none panics. Edits that keep
    /// the document well formed (a digit for a digit) still decode, so
    /// the edits reach every field decoder, not just the JSON layer.
    #[test]
    fn edited_blobs_decode_or_miss_without_panicking() {
        const BYTES: &[u8] = b"{}[]\",:-.0123456789eE tfn";
        let mut state = 0x0D15_EA5E_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for task in [Task::Sampling { fraction: 0.5 }, Task::Table2 { fraction: 0.5 }] {
            let blob = run(task.clone()).to_json().into_bytes();
            let mut decoded = 0;
            for _ in 0..512 {
                let mut bytes = blob.clone();
                let at = (next() % (bytes.len() as u64 + 1)) as usize;
                let byte = match next() % 2 {
                    0 => BYTES[(next() % BYTES.len() as u64) as usize],
                    _ => next() as u8,
                };
                match next() % 3 {
                    0 => bytes.insert(at, byte),
                    _ if at == bytes.len() => {}
                    1 => {
                        bytes.remove(at);
                    }
                    _ => bytes[at] = byte,
                }
                let text = String::from_utf8_lossy(&bytes);
                decoded += usize::from(decode_report_data(&text, &task).is_some());
            }
            assert!(decoded > 0, "{}: no edited blob decoded", task.slug());
        }
    }
}
