//! Canonical campaign keys.
//!
//! A [`CampaignKey`] is the content address of a campaign's **result**:
//! two campaigns share a key exactly when the deterministic pipeline is
//! guaranteed to produce bit-identical data for them. The key is
//! derived from the validated [`CampaignPlan`] — so builder-field
//! ordering, preset spelling and other surface details never matter —
//! and covers the task (with parameters), benchmarks, seed and every
//! effective configuration field **except** `jobs`, which spreads the
//! work without touching a single output bit, and `opt`, the lane
//! executor's one level (`wall` and tracing never enter the plan at
//! all). The material names the engine as the literal `lanes`, the one
//! every sweep runs on, so existing stores keep their keys.
//!
//! `fault_reduce` and `screen` are included even though the
//! differential suites pin them bit-identical: they are part of the
//! campaign's identity, keeping the store conservative — a false split
//! costs one recompute, a false merge would cost correctness.

use crate::digest::digest128_hex;
use musa_core::{CampaignPlan, Task};
use std::fmt;
use std::fmt::Write as _;

/// The content address of one campaign result (32 hex digits).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CampaignKey {
    hex: String,
}

impl CampaignKey {
    /// Derives the key from a validated plan.
    pub fn of(plan: &CampaignPlan) -> Self {
        Self { hex: digest128_hex(key_material(plan).as_bytes()) }
    }

    /// The key as 32 lowercase hex digits.
    pub fn as_hex(&self) -> &str {
        &self.hex
    }
}

impl fmt::Display for CampaignKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.hex)
    }
}

/// Bit-exact canonical spelling for a fraction/budget float: the hex
/// of its IEEE-754 bits, so `0.1` vs `0.1 + 1e-17` can never collide
/// and formatting can never wobble.
fn float_bits(f: f64) -> String {
    format!("{:016x}", f.to_bits())
}

/// The canonical, line-oriented key material the digest runs over.
/// Exposed to the crate's tests so the golden can pin the layout.
pub(crate) fn key_material(plan: &CampaignPlan) -> String {
    let mut s = String::new();
    let config = &plan.config;
    let _ = writeln!(s, "schema=musa.key.v1");
    let _ = writeln!(s, "task={}", plan.task.slug());
    let _ = writeln!(s, "params={}", task_params(&plan.task));
    let benches: Vec<&str> = plan.benches.iter().map(|b| b.name()).collect();
    let _ = writeln!(s, "benches={}", benches.join(","));
    let _ = writeln!(s, "seed={}", config.seed);
    let _ = writeln!(s, "repetitions={}", config.repetitions);
    let _ = writeln!(s, "baseline_multiple={}", config.baseline_multiple);
    let _ = writeln!(s, "baseline_floor={}", config.baseline_floor);
    let _ = writeln!(s, "engine=lanes");
    let _ = writeln!(s, "fault_reduce={}", config.fault_reduce);
    let _ = writeln!(s, "screen={}", config.screen);
    // `first-come` names the generator's admission policy, the only
    // one it has, and `lanes` the engine it grades on; both stay in the
    // material so existing stores keep their keys.
    let _ = writeln!(
        s,
        "mg={},{},{},first-come,{},lanes",
        config.mg.pool_size,
        config.mg.subseq_len,
        config.mg.max_rounds,
        config.mg.seed,
    );
    let _ = writeln!(
        s,
        "equivalence={},{},{},{}",
        config.equivalence.budget,
        config.equivalence.sequences,
        config.equivalence.exhaustive_limit,
        config.equivalence.seed,
    );
    // `config.jobs` intentionally absent: threading is pinned
    // bit-identical by the differential suites, so results are
    // shareable across job counts. `config.opt` has one level.
    s
}

fn task_params(task: &Task) -> String {
    match task {
        Task::Sampling { fraction } | Task::Table2 { fraction } => {
            format!("fraction:{}", float_bits(*fraction))
        }
        Task::OperatorProfile { operators } | Task::Table1 { operators } => {
            let acronyms: Vec<&str> = operators.iter().map(|o| o.acronym()).collect();
            format!("operators:{}", acronyms.join(","))
        }
        Task::MutationGuided | Task::Lint => String::new(),
        Task::SweepFraction { fractions } => {
            let bits: Vec<String> = fractions.iter().map(|&f| float_bits(f)).collect();
            format!("fractions:{}", bits.join(","))
        }
        Task::CoverageCurves { points } => format!("points:{points}"),
        Task::AtpgTopup { backtrack_limit } => format!("backtrack_limit:{backtrack_limit}"),
        Task::EquivalenceAblation { budgets } => {
            let b: Vec<String> = budgets.iter().map(usize::to_string).collect();
            format!("budgets:{}", b.join(","))
        }
        Task::Bench { quick } => format!("quick:{quick}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use musa_core::{Campaign, Task};

    fn key(campaign: &Campaign) -> CampaignKey {
        CampaignKey::of(&campaign.plan().unwrap())
    }

    fn base() -> Campaign {
        Campaign::named("c17")
            .fast()
            .seed(7)
            .task(Task::Sampling { fraction: 0.5 })
    }

    #[test]
    fn opt_level_shares_the_key() {
        // The lane executor has one level and no builder knob: a request
        // that still names `"opt"`, from when it chose between two
        // executors, keys like one that does not.
        let request = |opt: &str| {
            let text = format!(
                r#"{{ "schema": "musa.request.v1", "task": "sampling",
                     "params": {{ "fraction": 0.5 }}, "benches": ["c17"],
                     "preset": "fast", "seed": 7{opt} }}"#
            );
            key(&crate::request::parse_request(&text).unwrap())
        };
        for opt in ["", r#", "opt": "full""#, r#", "opt": "off""#] {
            assert_eq!(request(opt), key(&base()), "{opt}");
        }
    }

    #[test]
    fn key_is_stable_across_builder_field_order_and_jobs() {
        // Same campaign, different builder call order, different jobs:
        // one key.
        let a = key(&base().jobs(1));
        let b = key(
            &Campaign::named("c17")
                .jobs(8)
                .task(Task::Sampling { fraction: 0.5 })
                .seed(7)
                .fast(),
        );
        assert_eq!(a, b, "jobs and builder order must not enter the key");
        assert_eq!(a.as_hex().len(), 32);
    }

    #[test]
    fn differing_seed_screen_or_task_move_the_key() {
        let a = key(&base());
        assert_ne!(a, key(&base().seed(8)), "seed");
        assert_ne!(a, key(&base().screen(false)), "screen");
        assert_ne!(a, key(&base().fault_reduce(false)), "fault_reduce");
        assert_ne!(a, key(&base().task(Task::Sampling { fraction: 0.25 })), "fraction");
        assert_ne!(a, key(&base().task(Task::Table2 { fraction: 0.5 })), "task");
        assert_ne!(a, key(&Campaign::named("b01").fast().seed(7).task(Task::Sampling { fraction: 0.5 })), "bench");
        let paper = Campaign::named("c17").paper().seed(7).task(Task::Sampling { fraction: 0.5 });
        assert_ne!(a, key(&paper), "preset-resolved config");
    }

    #[test]
    fn key_material_layout_is_pinned() {
        // A golden on the canonical text itself: any accidental change
        // to the layout silently invalidates every existing store, so
        // it must be a conscious, versioned decision (bump musa.key.v1).
        let material = key_material(&base().plan().unwrap());
        let expected = "schema=musa.key.v1\n\
                        task=sampling\n\
                        params=fraction:3fe0000000000000\n\
                        benches=c17\n\
                        seed=7\n\
                        repetitions=2\n\
                        baseline_multiple=8\n\
                        baseline_floor=128\n\
                        engine=lanes\n\
                        fault_reduce=true\n\
                        screen=true\n\
                        mg=48,12,6,first-come,7,lanes\n\
                        equivalence=300,4,10,7\n";
        assert_eq!(material, expected);
    }
}
