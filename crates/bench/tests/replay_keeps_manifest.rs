//! A `--plan` replay must never write over the manifest it replays: a
//! replay that fails would otherwise replace the pin it failed against,
//! and the next replay would "match". Each case copies a committed
//! manifest into a temp `results/` directory (the default output directory
//! of a run started there), corrupts its digests, replays it, and checks
//! that the replay fails — and that the file is untouched. The untouched
//! chaos manifest must replay to a match from the same place.

use std::path::{Path, PathBuf};
use std::process::Command;

fn committed(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Replay `text` (placed where a fresh run would write its manifest) and
/// return the exit code, stdout + stderr, and whether the file survived
/// intact.
fn replay_manifest(subcommand: &str, name: &str, text: &str) -> (i32, String, bool) {
    let root: PathBuf =
        std::env::temp_dir().join(format!("imoltp-replay-{subcommand}-{}", std::process::id()));
    let dir = root.join("results");
    std::fs::create_dir_all(&dir).unwrap();
    let plan = dir.join(name);
    std::fs::write(&plan, text).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_bench"))
        .args([subcommand, "--plan"])
        .arg(&plan)
        .current_dir(&root)
        .output()
        .expect("run bench");
    let intact = std::fs::read_to_string(&plan).unwrap() == text;
    std::fs::remove_dir_all(&root).unwrap();
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned() + &String::from_utf8_lossy(&out.stderr),
        intact,
    )
}

#[test]
fn failed_recover_replay_leaves_the_manifest_byte_identical() {
    let name = "recover_hyper_micro_rw.json";
    let good = committed(name);
    let wrong = good.replacen("\"digest\":\"0x", "\"digest\":\"0xdead", 1);
    assert_ne!(good, wrong, "manifest has a digest to corrupt");
    let (code, stderr, intact) = replay_manifest("recover", name, &wrong);
    assert_eq!(code, 1, "a digest mismatch fails the replay: {stderr}");
    assert!(stderr.contains("digests differ"), "{stderr}");
    assert!(intact, "the replayed manifest was overwritten");
}

#[test]
fn failed_chaos_replay_leaves_the_manifest_byte_identical() {
    let name = "chaos_voltdb_micro.json";
    let good = committed(name);
    let wrong = good.replacen("\"table_digest\":\"0x", "\"table_digest\":\"0xdead", 1);
    assert_ne!(good, wrong, "manifest has a digest to corrupt");
    let (code, stderr, intact) = replay_manifest("chaos", name, &wrong);
    assert_eq!(code, 1, "a digest mismatch fails the replay: {stderr}");
    assert!(stderr.contains("table digest differs"), "{stderr}");
    assert!(intact, "the replayed manifest was overwritten");

    let (code, output, intact) = replay_manifest("chaos", name, &good);
    assert_eq!(code, 0, "the committed manifest replays: {output}");
    assert!(output.contains("replay matches the manifest"), "{output}");
    assert!(intact, "the replayed manifest was overwritten");
}
