//! # musa-store — content-addressed campaign results
//!
//! The paper's experiments are **pure functions** of the validated
//! campaign: task, parameters, seed, benchmarks and the effective
//! configuration. Jobs, fault reduction, screening and tracing are
//! wall-clock knobs pinned bit-identical by the differential suites. That purity makes a finished campaign safe to cache:
//!
//! * [`CampaignKey`] — a canonical, content-addressed key derived from
//!   a [`CampaignPlan`](musa_core::CampaignPlan) (`jobs`, wall time and
//!   tracing excluded: they cannot change a single output bit);
//! * [`Store`] — an on-disk map from keys to `musa.campaign.v1` JSON
//!   blobs under `.musa-store/`, with atomic writes (temp + rename)
//!   and corruption-tolerant reads (a bad blob is a **miss**, never an
//!   error);
//! * [`RunCached`] — `campaign.run_cached(&store)`: consult the store,
//!   compute on miss, and return a [`Report`](musa_core::Report) whose
//!   rendered text and JSON are **byte-identical** to a fresh run
//!   (wall clock aside), because hits round-trip through the same
//!   `musa_core::json` encoding the report emitter uses;
//! * [`request`] — the `musa.request.v1` document `musa campaign`
//!   reads, parsed into the same validated
//!   [`Campaign`](musa_core::Campaign) builder the library exposes.
//!
//! Everything is `std`-only: no serde, no hash crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod decode;
mod digest;
mod key;
pub mod request;
mod run_cached;
mod store;

pub use digest::{digest128_hex, fnv1a64};
pub use key::CampaignKey;
pub use run_cached::{CachedRun, RunCached, StoreOutcome};
pub use store::Store;
