//! The `bench all` pipeline: run every experiment and write, under
//! `results/`, the per-figure CSVs, `figures.md` (every figure table next
//! to the paper's expectation, then the shape checks) and `summary.json`.
//! Nothing outside `results/` is written: `EXPERIMENTS.md` is hand-written.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use crate::figures::{Check, Fig, Figures, MT_WORKERS};

/// Paper-expectation notes shown next to each figure's measured table.
fn expectation(id: &str) -> &'static str {
    match id.split('-').next().unwrap_or(id) {
        "fig1" => "IPC ~0.8-1.1 for all systems; HyPer ~2 while data fits the LLC, lowest once it does not; sizes beyond LLC lower IPC.",
        "fig2" => "L1I stalls dominate for Shore-MT, DBMS D, VoltDB, DBMS M at every size; DBMS D adds large L2I; HyPer's LLC-D explodes (5-10x others) beyond LLC capacity.",
        "fig3" => "Per transaction at 100GB: DBMS D highest instruction stalls; Shore-MT highest LLC-D (non-cache-conscious index); HyPer and DBMS M lowest LLC-D.",
        "fig4" => "More rows per transaction: disk-based IPC creeps up (amortized frontend), in-memory IPC falls (more random data touches per unit time). Known deviation: our DBMS M rises mildly instead of falling — its hash index at the simulated scale keeps per-probe data misses lower than the authors' 2-billion-row deployment.",
        "fig5" => "Instruction SPKI falls with rows/txn (loop locality); data SPKI rises; HyPer's data stalls highest throughout; DBMS D keeps high I-stalls even at 100 rows.",
        "fig6" => "Stalls per transaction grow with rows: instruction stalls rise (loop footprint exceeds L1I), LLC-D grows ~linearly; Shore-MT worst at 100 rows; HyPer/DBMS M lowest.",
        "fig7" => "Share of time inside the OLTP engine rises with rows/txn; modest for DBMS D (heavy frontend), >2x jumps for VoltDB and DBMS M at 10-100 rows.",
        "fig8" => "TPC-B IPC higher than the 1-row micro-benchmark; HyPer highest (Branch/Teller/History are cache-resident).",
        "fig9" => "Instruction stalls (L1I+L2I) dominate for every system; DBMS D worst; HyPer near zero; no severe LLC-D despite 100GB (TPC-B data locality).",
        "fig10" => "TPC-C IPC generally higher than TPC-B except HyPer; DBMS D and DBMS M at the top.",
        "fig11" => "Lower instruction SPKI than TPC-B (longer transactions, scan loops); HyPer again shows high LLC-D (lower data locality than TPC-B).",
        "fig12" => "Per transaction: DBMS D highest instruction stalls, then Shore-MT and DBMS M; HyPer low everywhere.",
        "fig13" => "Compilation halves instruction stalls for both index types; B-tree LLC-D is 2-4x the hash index's (whole-tree traversal vs direct bucket). At our scaled key counts the trees are shallower than at 2 billion rows, so the measured gap is ~1.5x.",
        "fig14" => "Compilation cuts instruction stalls on TPC-C too (especially for the B-tree); data stalls are insignificant for both index types.",
        "fig15" => "LLC-D per k-instr lower for String than Long on VoltDB and HyPer (50-byte comparisons re-use lines); DBMS M roughly unchanged (hash index, larger footprint).",
        "fig16" => "Multi-threaded micro-benchmark IPC stays below ~1 for every system — same conclusions as single-threaded.",
        "fig17" => "Multi-threaded TPC-C IPC smaller than ~1 for all systems (except DBMS D in the paper, marginally).",
        "fig18" => "Multi-threaded stall breakdown matches the single-threaded configuration (L1I-led).",
        "fig19" => "Multi-threaded TPC-C stall breakdown matches the single-threaded configuration.",
        "fig20" => "Read-write IPC slightly below read-only (bigger instruction footprint); HyPer again collapses beyond LLC capacity.",
        "fig21" => "Read-write instruction stalls exceed the read-only variant's; instruction stalls still dominate.",
        "fig22" => "Read-write stalls per transaction exceed read-only; same system ordering as Figure 3.",
        "fig23" => "Same trends as read-only: disk-based IPC rises with rows updated, in-memory falls; overall lower than read-only.",
        "fig24" => "Instruction stalls higher / data stalls lower than the read-only variant; instruction stalls fall with rows updated.",
        "fig25" => "Both stall classes grow with rows updated; Shore-MT's data stalls 2-3.5x the others'.",
        "fig26" => "Same as Figure 13 for updates: compilation cuts instruction stalls; B-tree data stalls far above hash.",
        "fig27" => "String vs Long differences shrink for updates (read-modify-write re-uses the probed line); DBMS M unchanged.",
        _ => "",
    }
}

/// Run everything, write `results/{fig*.csv, figures.md, summary.json}`,
/// and print the text tables + check summary. Returns the number of failed
/// checks.
pub fn run_all(repo_root: &Path) -> usize {
    let mut figures = Figures::new();
    let figs = figures.all();
    let checks = figures.checks();

    let results = repo_root.join("results");
    fs::create_dir_all(&results).expect("create results dir");
    for fig in &figs {
        let path = results.join(format!("{}.csv", fig.id()));
        fs::write(&path, fig.render_csv()).expect("write csv");
        println!("{}", fig.render_text());
    }

    fs::write(results.join("figures.md"), figures_md(&figs, &checks)).expect("write figures.md");

    let failed = checks.iter().filter(|c| !c.pass).count();
    println!(
        "== shape checks: {} passed, {failed} failed ==",
        checks.len() - failed
    );
    for c in &checks {
        println!(
            "  [{}] {}: {} {}",
            if c.pass { "PASS" } else { "FAIL" },
            c.figure,
            c.claim,
            if c.detail.is_empty() {
                String::new()
            } else {
                format!("({})", c.detail)
            }
        );
    }

    // Machine-readable one-line summary (also written to
    // results/summary.json) so CI and scripts can consume the outcome
    // without scraping tables.
    let summary = summary_json(figs.len(), &checks);
    let line = summary.render();
    println!("{line}");
    fs::write(results.join("summary.json"), format!("{line}\n")).expect("write summary.json");
    failed
}

/// Structured run summary: figure and claim-check counts plus the names
/// of any failing checks.
pub fn summary_json(figures: usize, checks: &[Check]) -> obs::json::Json {
    use obs::json::Json;
    let failed: Vec<&Check> = checks.iter().filter(|c| !c.pass).collect();
    Json::obj(vec![
        ("figures", Json::u64(figures as u64)),
        ("checks_total", Json::u64(checks.len() as u64)),
        (
            "checks_passed",
            Json::u64((checks.len() - failed.len()) as u64),
        ),
        ("checks_failed", Json::u64(failed.len() as u64)),
        (
            "failed",
            Json::Arr(
                failed
                    .iter()
                    .map(|c| Json::str(&format!("{}: {}", c.figure, c.claim)))
                    .collect(),
            ),
        ),
        ("scale", Json::Num(crate::scale_factor())),
    ])
}

/// Build the `results/figures.md` document.
fn figures_md(figs: &[Fig], checks: &[Check]) -> String {
    let mut md = String::new();
    md.push_str("# Figures — paper vs. reproduction\n\n");
    md.push_str(
        "Generated by `cargo run --release -p bench --bin figures -- all`; do not \
         edit. The hand-written experiment notes are in `../EXPERIMENTS.md`.\n\n\
         Every table below is measured on the simulated Ivy Bridge machine \
         (Table 1 geometry; penalties 8/19/167 cycles; ideal IPC 3.0) with the \
         paper's §3 methodology: bulk load, warm-up window, measured window, \
         three averaged repetitions, per-worker counter filtering. Absolute \
         numbers are not expected to match the authors' testbed — the *shapes* \
         (who wins, by what factor, where the crossovers fall) are the \
         reproduction target, and are asserted by the shape checks at the \
         bottom. Figure ids mirror the paper (figN), with `-ro`/`-rw` marking \
         the read-only/read-write micro-benchmark variants (appendix figures \
         20-27 are the read-write twins).\n\n",
    );
    let _ = writeln!(
        md,
        "Multi-threaded figures use {MT_WORKERS} workers (one partition per \
         worker for the partitioned engines, single-site transactions only). \
         Measurement windows are scaled by `IMOLTP_SCALE` = {}.\n",
        crate::scale_factor()
    );

    for fig in figs {
        let _ = writeln!(md, "## {}", fig.id());
        let title = match fig {
            Fig::Scalar(f) => &f.title,
            Fig::Stall(f) => &f.title,
        };
        let _ = writeln!(md, "\n*{title}*\n");
        let exp = expectation(fig.id());
        if !exp.is_empty() {
            let _ = writeln!(md, "**Paper:** {exp}\n");
        }
        md.push_str("**Measured:**\n\n");
        md.push_str(&fig.render_markdown());
        md.push('\n');
    }

    md.push_str("## Shape checks\n\n");
    md.push_str("| status | figure | claim | measured |\n|---|---|---|---|\n");
    for c in checks {
        let _ = writeln!(
            md,
            "| {} | {} | {} | {} |",
            if c.pass { "PASS" } else { "FAIL" },
            c.figure,
            c.claim,
            c.detail
        );
    }
    md
}
