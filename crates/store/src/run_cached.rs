//! `Campaign::run_cached(&store)` — the store-aware front door.
//!
//! A hit rebuilds the report from the stored blob around the *current*
//! plan (seed, jobs, preset) and a fresh wall clock, so
//! `render_text()` and `to_json()` of a hit are byte-identical to a
//! fresh run — wall time aside — even when the caller asked for a
//! different `jobs` value than the run that populated the store (jobs
//! never enters the key, but it does appear in the report header).

use crate::decode::decode_report_data;
use crate::key::CampaignKey;
use crate::store::Store;
use musa_core::{Campaign, CampaignError, Report, Task};
use std::time::Instant;

/// How a [`RunCached::run_cached`] call was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreOutcome {
    /// The report was rebuilt from a stored blob; nothing was computed.
    Hit,
    /// The campaign ran and its blob was written to the store.
    Miss,
    /// The task emits its own document ([`Task::Bench`] / [`Task::Lint`])
    /// and bypasses the store; the campaign simply ran.
    Bypass,
}

impl StoreOutcome {
    /// Status label for the CLI (`hit` / `miss` / `bypass`).
    pub fn label(self) -> &'static str {
        match self {
            StoreOutcome::Hit => "hit",
            StoreOutcome::Miss => "miss",
            StoreOutcome::Bypass => "bypass",
        }
    }
}

/// A report plus how the store satisfied it.
#[derive(Debug, Clone)]
pub struct CachedRun {
    /// The campaign report — bit-identical in data (and byte-identical
    /// in rendered form, wall aside) whether it was a hit or a miss.
    pub report: Report,
    /// Hit, miss or bypass.
    pub outcome: StoreOutcome,
    /// The campaign key, when the task is storable.
    pub key: Option<CampaignKey>,
}

/// Store-aware campaign execution.
pub trait RunCached {
    /// Runs the campaign through `store`: returns the stored result on
    /// a hit, computes and stores on a miss.
    ///
    /// # Errors
    ///
    /// The same errors as [`Campaign::run`] — a corrupt or undecodable
    /// blob is a miss, never an error.
    fn run_cached(&self, store: &Store) -> Result<CachedRun, CampaignError>;
}

impl RunCached for Campaign {
    fn run_cached(&self, store: &Store) -> Result<CachedRun, CampaignError> {
        let started = Instant::now();
        let plan = self.plan()?;
        if matches!(plan.task, Task::Bench { .. } | Task::Lint) {
            let report = self.run()?;
            return Ok(CachedRun { report, outcome: StoreOutcome::Bypass, key: None });
        }
        let key = CampaignKey::of(&plan);
        if let Some(blob) = store.get(&key) {
            if let Some(data) = decode_report_data(&blob, &plan.task) {
                let report = Report { plan, wall: started.elapsed(), data, trace: None };
                return Ok(CachedRun { report, outcome: StoreOutcome::Hit, key: Some(key) });
            }
        }
        let report = self.run()?;
        // Best-effort: a store that has become unwritable must not fail
        // a run that already produced its result.
        let _ = store.put(&key, &report.to_json());
        Ok(CachedRun { report, outcome: StoreOutcome::Miss, key: Some(key) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

    fn scratch_store(tag: &str) -> (PathBuf, Store) {
        let dir = std::env::temp_dir().join(format!(
            "musa-runcached-test-{}-{tag}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed),
        ));
        let store = Store::open(&dir).unwrap();
        (dir, store)
    }

    fn campaign() -> Campaign {
        Campaign::named("c17").fast().seed(7).jobs(1).task(Task::Sampling { fraction: 0.5 })
    }

    /// Renders with the wall normalized away — the only legitimately
    /// nondeterministic byte range.
    fn normalized_json(report: &Report) -> String {
        let mut r = report.clone();
        r.wall = Duration::ZERO;
        r.to_json()
    }

    #[test]
    fn miss_then_hit_is_byte_identical() {
        let (dir, store) = scratch_store("hit");
        let first = campaign().run_cached(&store).unwrap();
        assert_eq!(first.outcome, StoreOutcome::Miss);
        let second = campaign().run_cached(&store).unwrap();
        assert_eq!(second.outcome, StoreOutcome::Hit);
        assert_eq!(first.key, second.key);
        assert_eq!(normalized_json(&first.report), normalized_json(&second.report));
        assert_eq!(first.report.render_text(), second.report.render_text());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn hit_restamps_meta_from_the_current_plan() {
        let (dir, store) = scratch_store("restamp");
        campaign().run_cached(&store).unwrap();
        // Same key (jobs is excluded), different requested jobs: the
        // hit must render with the *caller's* jobs value.
        let hit = campaign().jobs(3).run_cached(&store).unwrap();
        assert_eq!(hit.outcome, StoreOutcome::Hit);
        assert_eq!(hit.report.plan.config.jobs, 3);
        assert!(hit.report.render_text().contains("3 jobs"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_blob_is_a_miss_and_gets_recomputed() {
        let (dir, store) = scratch_store("corrupt");
        let first = campaign().run_cached(&store).unwrap();
        let key = first.key.clone().unwrap();
        fs::write(store.blob_path(&key), "{ truncated").unwrap();
        let again = campaign().run_cached(&store).unwrap();
        assert_eq!(again.outcome, StoreOutcome::Miss, "corrupt blob must recompute");
        assert_eq!(normalized_json(&first.report), normalized_json(&again.report));
        // ... and the recompute healed the blob.
        let healed = campaign().run_cached(&store).unwrap();
        assert_eq!(healed.outcome, StoreOutcome::Hit);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn deeply_nested_blob_is_a_miss_that_heals() {
        // A blob nested far past the JSON parser's depth cap used to
        // overflow the decoder's stack; it must decode as a miss instead.
        let (dir, store) = scratch_store("nested");
        let first = campaign().run_cached(&store).unwrap();
        let key = first.key.clone().unwrap();
        fs::write(store.blob_path(&key), "[".repeat(200_000)).unwrap();
        let again = campaign().run_cached(&store).unwrap();
        assert_eq!(again.outcome, StoreOutcome::Miss, "a hostile blob must recompute");
        assert_eq!(normalized_json(&first.report), normalized_json(&again.report));
        let healed = campaign().run_cached(&store).unwrap();
        assert_eq!(healed.outcome, StoreOutcome::Hit);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bench_and_lint_bypass_the_store() {
        let (dir, store) = scratch_store("bypass");
        let run = Campaign::named("c17")
            .fast()
            .task(Task::Lint)
            .run_cached(&store)
            .unwrap();
        assert_eq!(run.outcome, StoreOutcome::Bypass);
        assert_eq!(run.key, None);
        assert_eq!(
            fs::read_dir(&dir).unwrap().count(),
            0,
            "bypass must not write blobs"
        );
        fs::remove_dir_all(&dir).unwrap();
    }
}
