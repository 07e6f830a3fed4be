//! A `--smoke` run must never write over a committed exemplar: the
//! `results/<name>.csv` files are full grids, and CI runs every smoke leg
//! in the checkout. Each case plants a sentinel where the exemplar lives
//! in a temp root (outside any workspace the binary writes to
//! `<cwd>/results/`), runs the grid's smoke leg there, and checks the
//! sentinel is untouched and the smoke CSV landed beside it.

use std::process::Command;

const SENTINEL: &str = "committed full-grid exemplar\n";

fn smoke_leg_leaves_the_exemplar(stem: &str, subcommand: &[&str]) {
    let root = std::env::temp_dir().join(format!("imoltp-smoke-{stem}-{}", std::process::id()));
    let results = root.join("results");
    std::fs::create_dir_all(&results).unwrap();
    let exemplar = results.join(format!("{stem}.csv"));
    std::fs::write(&exemplar, SENTINEL).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(subcommand)
        .arg("--smoke")
        .env("IMOLTP_SCALE", "0.2")
        .current_dir(&root)
        .output()
        .expect("run bench");
    let after = std::fs::read_to_string(&exemplar).unwrap();
    let smoke_csv = results.join(format!("{stem}_smoke.csv"));
    let wrote_smoke = std::fs::metadata(&smoke_csv).is_ok_and(|m| m.len() > 0);
    std::fs::remove_dir_all(&root).unwrap();
    assert!(
        out.status.success(),
        "{subcommand:?} --smoke failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(after, SENTINEL, "{stem}.csv was overwritten by a smoke run");
    assert!(wrote_smoke, "{stem}_smoke.csv was not written");
}

#[test]
fn scaling_smoke_keeps_the_exemplar() {
    smoke_leg_leaves_the_exemplar("scaling", &["scaling"]);
}

#[test]
fn cc_grid_smoke_keeps_the_exemplar() {
    smoke_leg_leaves_the_exemplar("cc_grid", &["cc-grid"]);
}

#[test]
fn islands_smoke_keeps_the_exemplar() {
    smoke_leg_leaves_the_exemplar("islands", &["islands"]);
}

#[test]
fn recover_sweep_smoke_keeps_the_exemplar() {
    smoke_leg_leaves_the_exemplar("recover", &["recover", "--sweep"]);
}

#[test]
fn serve_smoke_keeps_the_exemplar() {
    smoke_leg_leaves_the_exemplar("serve_breakdown", &["serve"]);
}
