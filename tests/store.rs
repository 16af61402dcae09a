//! End-to-end contract tests for the campaign result store, driven
//! through the `musa` binary exactly as CI and users drive it:
//! `campaign` and `sample --store` hits are byte-identical to fresh
//! runs, and a corrupt blob is a miss that heals.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fixed two-bench sampling request (the store keys on the resolved
/// plan, so `jobs` may vary freely without splitting the cache).
const REQUEST: &str = "{\"schema\": \"musa.request.v1\", \"task\": \"sampling\", \
\"params\": {\"fraction\": 0.1}, \"benches\": [\"b01\", \"c17\"], \
\"seed\": 7, \"preset\": \"fast\", \"jobs\": 1}";

/// The content address of [`REQUEST`]'s resolved plan. Pinned: the
/// key material (`musa.key.v1`) is a published contract, so a drift
/// here is a cache-invalidation event that must be deliberate.
const REQUEST_KEY: &str = "0f30c6305ab662510355d31054e8bd00";

fn musa(args: &[&str], dir: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_musa"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("musa binary runs")
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("musa-store-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("req.json"), REQUEST).unwrap();
    dir
}

fn stdout_str(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("utf-8 stdout")
}

fn stderr_str(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Zeroes the only legitimately nondeterministic report field.
fn norm_wall(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for line in text.lines() {
        if let Some(idx) = line.find("\"wall_ms\":") {
            let comma = if line.trim_end().ends_with(',') { "," } else { "" };
            out.push_str(&line[..idx]);
            out.push_str("\"wall_ms\": 0");
            out.push_str(comma);
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    out
}

#[test]
fn store_miss_then_hit_is_byte_identical_and_key_is_pinned() {
    let dir = scratch("hit");
    let args = ["campaign", "req.json", "--store", ".s"];
    let miss = musa(&args, &dir);
    assert_eq!(miss.status.code(), Some(0), "{}", stderr_str(&miss));
    assert!(
        stderr_str(&miss).contains(&format!("store: miss {REQUEST_KEY}")),
        "stderr: {}",
        stderr_str(&miss)
    );

    let hit = musa(&args, &dir);
    assert_eq!(hit.status.code(), Some(0), "{}", stderr_str(&hit));
    assert!(
        stderr_str(&hit).contains(&format!("store: hit {REQUEST_KEY}")),
        "stderr: {}",
        stderr_str(&hit)
    );
    assert_eq!(
        stdout_str(&miss),
        stdout_str(&hit),
        "a hit must replay the fresh text byte-for-byte"
    );

    // JSON mode too — same cache entry, wall normalized.
    let miss_json = stdout_str(&musa(&["campaign", "req.json", "--json"], &dir));
    let hit_json = musa(&["campaign", "req.json", "--store", ".s", "--json"], &dir);
    assert!(stderr_str(&hit_json).contains("store: hit"));
    assert_eq!(norm_wall(&miss_json), norm_wall(&stdout_str(&hit_json)));

    // The blob on disk is addressed by the pinned key.
    assert!(dir.join(".s").join(format!("{REQUEST_KEY}.json")).is_file());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_blob_recomputes_and_heals() {
    let dir = scratch("corrupt");
    let args = ["campaign", "req.json", "--store", ".s"];
    let first = musa(&args, &dir);
    assert_eq!(first.status.code(), Some(0), "{}", stderr_str(&first));

    let blob = dir.join(".s").join(format!("{REQUEST_KEY}.json"));
    std::fs::write(&blob, "{ truncated garbage").unwrap();

    let recomputed = musa(&args, &dir);
    assert_eq!(recomputed.status.code(), Some(0), "{}", stderr_str(&recomputed));
    assert!(
        stderr_str(&recomputed).contains("store: miss"),
        "a corrupt blob must degrade to a miss, not an error: {}",
        stderr_str(&recomputed)
    );
    assert_eq!(stdout_str(&first), stdout_str(&recomputed));

    // ...and the recompute healed the blob: next run hits again.
    let healed = musa(&args, &dir);
    assert!(stderr_str(&healed).contains("store: hit"), "{}", stderr_str(&healed));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sample_store_flag_hits_on_the_second_run() {
    let dir = scratch("sample");
    let args = ["sample", "b01", "--store", ".s"];
    let miss = musa(&args, &dir);
    assert_eq!(miss.status.code(), Some(0), "{}", stderr_str(&miss));
    assert!(stderr_str(&miss).contains("store: miss"), "{}", stderr_str(&miss));
    let hit = musa(&args, &dir);
    assert!(stderr_str(&hit).contains("store: hit"), "{}", stderr_str(&hit));
    assert_eq!(stdout_str(&miss), stdout_str(&hit));
    let _ = std::fs::remove_dir_all(&dir);
}
