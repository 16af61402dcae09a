//! The on-disk blob store.
//!
//! Layout under the store root (default `.musa-store/`):
//!
//! ```text
//! .musa-store/
//!   index.json            # advisory catalog (musa.store-index.v1)
//!   <32-hex-key>.json     # one musa.campaign.v1 blob per campaign
//! ```
//!
//! Two properties the rest of the crate leans on:
//!
//! * **Atomic writes** — blobs and the index are written to a
//!   temporary sibling and renamed into place, so readers (including
//!   concurrent `musa` processes sharing one store) never observe a
//!   half-written file.
//! * **Corruption tolerance** — the blob is the source of truth and is
//!   re-validated on decode; the index is purely advisory. A missing,
//!   truncated or garbage file can only ever produce a *miss* (and a
//!   recompute), never an error or a wrong result.

use crate::key::CampaignKey;
use musa_core::json::{self, Json};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Schema tag of the advisory `index.json` catalog.
pub const INDEX_SCHEMA: &str = "musa.store-index.v1";

/// One advisory catalog entry: enough to answer "what is in this
/// store?" without opening every blob.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreEntry {
    /// The campaign key, as 32 lowercase hex digits.
    pub key: String,
    /// The task slug (`sampling`, `table2`, ...).
    pub task: String,
    /// Benchmark names, in run order.
    pub benches: Vec<String>,
    /// The campaign's master seed.
    pub seed: u64,
}

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

    fn index_path(&self) -> PathBuf {
        self.root.join("index.json")
    }

    /// Reads the blob a key addresses, if present and readable.
    ///
    /// The raw text is returned as-is; callers validate it (schema,
    /// task, shape) on decode, so a corrupt file degrades to a miss
    /// there. Any read error is a miss here.
    pub fn get(&self, key: &CampaignKey) -> Option<String> {
        fs::read_to_string(self.blob_path(key)).ok()
    }

    /// Stores a blob under its key and records the advisory index
    /// entry.
    ///
    /// Both files are written atomically (temp sibling + rename). The
    /// index update is best-effort: a failure there leaves a fully
    /// usable store (reads go straight to the blob), so only blob-write
    /// errors are reported.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the blob itself cannot be written.
    pub fn put(&self, entry: StoreEntry, blob: &str) -> io::Result<()> {
        let key = CampaignKey::from_hex_unchecked(&entry.key);
        write_atomic(&self.blob_path(&key), blob)?;
        let mut entries = self.entries();
        entries.retain(|e| e.key != entry.key);
        entries.push(entry);
        entries.sort_by(|a, b| a.key.cmp(&b.key));
        let _ = write_atomic(&self.index_path(), &render_index(&entries));
        Ok(())
    }

    /// The advisory catalog, as recorded by `index.json`.
    ///
    /// A missing or corrupt index yields an empty catalog — it never
    /// affects blob reads.
    pub fn entries(&self) -> Vec<StoreEntry> {
        let Ok(text) = fs::read_to_string(self.index_path()) else {
            return Vec::new();
        };
        parse_index(&text).unwrap_or_default()
    }
}

impl CampaignKey {
    /// Rebuilds a key from its hex spelling without re-deriving it from
    /// a plan. Crate-internal: only the store uses it, to map index
    /// entries back to blob paths.
    pub(crate) fn from_hex_unchecked(hex: &str) -> Self {
        Self::raw(hex.to_string())
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

fn render_index(entries: &[StoreEntry]) -> String {
    Json::Obj(vec![
        ("schema", Json::str(INDEX_SCHEMA)),
        (
            "entries",
            Json::Arr(
                entries
                    .iter()
                    .map(|e| {
                        Json::Obj(vec![
                            ("key", Json::str(&e.key)),
                            ("task", Json::str(&e.task)),
                            ("benches", Json::Arr(e.benches.iter().map(Json::str).collect())),
                            ("seed", Json::UInt(e.seed)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
    .render()
}

fn parse_index(text: &str) -> Option<Vec<StoreEntry>> {
    let doc = json::parse(text).ok()?;
    if doc.get("schema")?.as_str()? != INDEX_SCHEMA {
        return None;
    }
    let mut entries = Vec::new();
    for item in doc.get("entries")?.as_arr()? {
        entries.push(StoreEntry {
            key: item.get("key")?.as_str()?.to_string(),
            task: item.get("task")?.as_str()?.to_string(),
            benches: item
                .get("benches")?
                .as_arr()?
                .iter()
                .map(|b| b.as_str().map(str::to_string))
                .collect::<Option<Vec<_>>>()?,
            seed: item.get("seed")?.as_u64()?,
        });
    }
    Some(entries)
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

    fn entry_for(key: &CampaignKey) -> StoreEntry {
        StoreEntry {
            key: key.as_hex().to_string(),
            task: "sampling".to_string(),
            benches: vec!["c17".to_string()],
            seed: 0xDA7E_2005,
        }
    }

    #[test]
    fn put_then_get_roundtrips_and_indexes() {
        let dir = scratch_dir("roundtrip");
        let store = Store::open(&dir).unwrap();
        let key = some_key();
        assert_eq!(store.get(&key), None, "empty store must miss");

        store.put(entry_for(&key), "{\"schema\": \"musa.campaign.v1\"}").unwrap();
        assert_eq!(
            store.get(&key).as_deref(),
            Some("{\"schema\": \"musa.campaign.v1\"}")
        );
        let entries = store.entries();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0], entry_for(&key));

        // Re-putting the same key replaces, never duplicates.
        store.put(entry_for(&key), "{}").unwrap();
        assert_eq!(store.get(&key).as_deref(), Some("{}"));
        assert_eq!(store.entries().len(), 1);

        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_index_degrades_to_an_empty_catalog_without_breaking_reads() {
        let dir = scratch_dir("corrupt-index");
        let store = Store::open(&dir).unwrap();
        let key = some_key();
        store.put(entry_for(&key), "blob text").unwrap();

        fs::write(dir.join("index.json"), "{ not json").unwrap();
        assert!(store.entries().is_empty(), "corrupt index must read as empty");
        assert_eq!(store.get(&key).as_deref(), Some("blob text"), "blob reads bypass the index");

        // The next put rebuilds the index from scratch.
        store.put(entry_for(&key), "blob text 2").unwrap();
        assert_eq!(store.entries().len(), 1);

        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn index_document_shape_is_pinned() {
        let entries = vec![StoreEntry {
            key: "00ff".to_string(),
            task: "sampling".to_string(),
            benches: vec!["b01".to_string(), "c17".to_string()],
            seed: 7,
        }];
        let text = render_index(&entries);
        assert!(text.contains("\"schema\": \"musa.store-index.v1\""));
        assert_eq!(parse_index(&text), Some(entries));
    }
}
