//! The one grid driver: ordered parallel fan-out over cells, and the tail
//! every grid command ends with — where the CSV goes, `wrote …`, the gate,
//! the exit code.
//!
//! A grid module (`scaling`, `ccgrid`, `islands`, `recover::sweep`) keeps
//! only what is its own: the axes, `run_cell`, the hand-written table and
//! CSV renderers (their columns and precisions are pinned byte for byte)
//! and its `check`. Everything else is here, deliberately as plain
//! functions over closures — no axis DSL, no trait, no `dyn` between a
//! grid and its cells.

use std::fmt::Display;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use microarch::WindowSpec;

use crate::args::Parsed;

/// Run `run_cell` over `cells` on a pool of OS threads and return the
/// results in cell order. Every cell builds its own simulator, so cells
/// are independent and nothing depends on which thread ran which.
pub fn fan_out<C: Sync, R: Send>(cells: &[C], run_cell: impl Fn(&C) -> R + Sync) -> Vec<R> {
    let threads = std::thread::available_parallelism().map_or(4, |n| n.get());
    let results: Vec<Mutex<Option<R>>> = cells.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads.min(cells.len()) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(cell) = cells.get(i) else { break };
                let row = run_cell(cell);
                *results[i].lock().expect("slot owner panicked") = Some(row);
            });
        }
    });
    results
        .into_iter()
        .map(|r| r.into_inner().ok().flatten().expect("all cells completed"))
        .collect()
}

/// Measurement window of the multi-worker grids (`scaling`, `islands`):
/// smoke runs cap `IMOLTP_SCALE` at 0.5.
pub fn worker_window(smoke: bool) -> WindowSpec {
    let scale = crate::scale_factor();
    WindowSpec {
        warmup: 300,
        measured: 800,
        reps: 2,
    }
    .scaled(if smoke { scale.min(0.5) } else { scale })
}

/// The workspace root (the nearest ancestor of the working directory
/// holding `Cargo.toml` and `crates/`), else the working directory.
pub fn repo_root() -> PathBuf {
    let cwd = std::env::current_dir().expect("cwd");
    cwd.ancestors()
        .find(|d| d.join("Cargo.toml").exists() && d.join("crates").exists())
        .unwrap_or(&cwd)
        .to_path_buf()
}

/// Default artefact directory: `results/` under [`repo_root`].
pub fn results_dir() -> PathBuf {
    repo_root().join("results")
}

/// Default CSV name of a grid. The committed `results/<stem>.csv` is always
/// the full grid, so a smoke run lands beside it, never over it.
pub fn csv_name(stem: &str, smoke: bool) -> String {
    if smoke {
        format!("{stem}_smoke.csv")
    } else {
        format!("{stem}.csv")
    }
}

/// Write `contents` to `out` (the `--out` flag), else to
/// `results/<default_name>`, creating the directory; prints `wrote <path>`.
pub fn write_result(out: Option<&str>, default_name: &str, contents: &str) {
    let path = out.map_or_else(|| results_dir().join(default_name), PathBuf::from);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).expect("create results dir");
    }
    std::fs::write(&path, contents).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("wrote {}", path.display());
}

/// Turn a gate verdict into the process exit code: `FAIL: …` on stderr and
/// 1, or the `ok` line on stdout and 0.
pub fn gate(verdict: Result<(), String>, ok: impl Display) -> i32 {
    match verdict {
        Ok(()) => {
            println!("{ok}");
            0
        }
        Err(e) => {
            eprintln!("FAIL: {e}");
            1
        }
    }
}

/// The tail of every grid command: print the table, write the CSV to
/// `--out` or under the naming rule of [`csv_name`], apply the gate.
pub fn finish<R>(
    stem: &str,
    label: &str,
    p: &Parsed,
    rows: &[R],
    render: fn(&[R]) -> String,
    to_csv: fn(&[R]) -> String,
    check: fn(&[R]) -> Result<(), String>,
) -> i32 {
    print!("{}", render(rows));
    let name = csv_name(stem, p.has("--smoke"));
    write_result(p.value("--out"), &name, &to_csv(rows));
    gate(
        check(rows),
        format_args!("{label} OK ({} cells)", rows.len()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fan_out_returns_results_in_cell_order() {
        let cells: Vec<u64> = (0..997).collect();
        let rows = fan_out(&cells, |&c| c * c);
        assert_eq!(rows, cells.iter().map(|c| c * c).collect::<Vec<_>>());
        assert!(fan_out(&[] as &[u64], |&c| c).is_empty());
    }

    #[test]
    fn smoke_runs_never_take_the_exemplars_name() {
        assert_eq!(csv_name("cc_grid", false), "cc_grid.csv");
        assert_eq!(csv_name("cc_grid", true), csv_name("cc_grid_smoke", false));
    }
}
