//! The on-disk blob store.
//!
//! Layout under the store root (default `.musa-store/`):
//!
//! ```text
//! .musa-store/
//!   <32-hex-key>.json     # one musa.campaign.v1 blob per campaign
//! ```
//!
//! Two properties the rest of the crate leans on:
//!
//! * **Atomic writes** — blobs are written to a temporary sibling and
//!   renamed into place, so readers (including concurrent `musa`
//!   processes sharing one store) never observe a half-written file.
//! * **Corruption tolerance** — the blob is re-validated on decode. A
//!   missing, truncated or garbage file can only ever produce a *miss*
//!   (and a recompute), never an error or a wrong result.

use crate::key::CampaignKey;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// A content-addressed store of campaign result blobs.
#[derive(Debug, Clone)]
pub struct Store {
    root: PathBuf,
}

impl Store {
    /// Opens (creating if needed) a store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the directory cannot be created.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<Self> {
        let root = dir.as_ref().to_path_buf();
        fs::create_dir_all(&root)?;
        Ok(Self { root })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Path of the blob a key addresses.
    pub fn blob_path(&self, key: &CampaignKey) -> PathBuf {
        self.root.join(format!("{}.json", key.as_hex()))
    }

    /// Reads the blob a key addresses, if present and readable.
    ///
    /// The raw text is returned as-is; callers validate it (schema,
    /// task, shape) on decode, so a corrupt file degrades to a miss
    /// there. Any read error is a miss here.
    pub fn get(&self, key: &CampaignKey) -> Option<String> {
        fs::read_to_string(self.blob_path(key)).ok()
    }

    /// Stores a blob under its key, atomically (temp sibling + rename).
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the blob cannot be written.
    pub fn put(&self, key: &CampaignKey, blob: &str) -> io::Result<()> {
        write_atomic(&self.blob_path(key), blob)
    }
}

/// Writes `text` to `path` atomically: a temporary sibling (suffixed
/// with the writer's pid plus a per-process sequence number, so
/// neither concurrent processes nor concurrent threads ever collide)
/// is written, flushed and renamed into place.
pub(crate) fn write_atomic(path: &Path, text: &str) -> io::Result<()> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let file_name = path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("blob.json");
    let tmp = path.with_file_name(format!(
        "{file_name}.tmp.{}.{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed),
    ));
    fs::write(&tmp, text)?;
    let renamed = fs::rename(&tmp, path);
    if renamed.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    renamed
}

#[cfg(test)]
mod tests {
    use super::*;
    use musa_core::{Campaign, Task};
    use std::sync::atomic::{AtomicUsize, Ordering};

    static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

    fn scratch_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "musa-store-test-{}-{tag}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed),
        ))
    }

    fn some_key() -> CampaignKey {
        let plan = Campaign::named("c17")
            .fast()
            .task(Task::Sampling { fraction: 0.5 })
            .plan()
            .unwrap();
        CampaignKey::of(&plan)
    }

    #[test]
    fn put_then_get_roundtrips_and_indexes() {
        let dir = scratch_dir("roundtrip");
        let store = Store::open(&dir).unwrap();
        let key = some_key();
        assert_eq!(store.get(&key), None, "empty store must miss");

        store
            .put(&key, "{\"schema\": \"musa.campaign.v1\"}")
            .unwrap();
        assert_eq!(
            store.get(&key).as_deref(),
            Some("{\"schema\": \"musa.campaign.v1\"}")
        );

        // Re-putting the same key replaces the blob.
        store.put(&key, "{}").unwrap();
        assert_eq!(store.get(&key).as_deref(), Some("{}"));

        fs::remove_dir_all(&dir).unwrap();
    }
}
