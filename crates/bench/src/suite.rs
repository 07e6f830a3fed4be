//! The `bench all` pipeline: run every experiment, write per-figure CSVs
//! under `results/`, and regenerate `EXPERIMENTS.md`.

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

/// Run everything, write `results/*.csv`, regenerate `EXPERIMENTS.md`, and
/// print the text tables + check summary. Returns the number of failed
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

    let md = experiments_md(&figs, &checks);
    fs::write(repo_root.join("EXPERIMENTS.md"), md).expect("write EXPERIMENTS.md");

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

/// Worked `figures diff` example embedded in EXPERIMENTS.md. The numbers
/// come from the two run records committed under `results/` (regenerate
/// them with `figures record` if the engines or the cycle model change).
pub fn diff_example_md() -> &'static str {
    "## Differential top-down analysis\n\n\
     `figures record <system> <workload> <out.json>` captures one traced run \
     as a JSON `RunRecord`: per-phase hardware-event counts plus the cycle \
     model's constants. `figures diff <a.json> <b.json> [--threshold PCT]` \
     then decomposes the throughput delta between two records into per \
     phase\u{d7}component cycles-per-transaction contributions and prints them \
     ranked by magnitude. Because the cycle model is linear and the span \
     tree partitions the measured window, the per-cell deltas sum exactly \
     to the total cycles/txn delta; the command exits nonzero when the \
     candidate's throughput falls more than the threshold below the \
     baseline, which is the nightly regression gate.\n\n\
     Worked example over the two records committed under `results/`:\n\n\
     ```text\n\
     $ figures diff results/run_voltdb_micro.json results/run_shore_mt_micro.json\n\
     == differential top-down: VoltDB/micro (baseline) vs Shore-MT/micro (candidate) ==\n\
     throughput:        94180 ->        76491 tps  (-18.78%)\n\
     cycles/txn:      21235.9 ->      26150.4      (+4914.6)\n\
     phase                         component |     baseline    candidate  delta c/txn\n\
     VoltDB:dispatch              mispredict |       6958.7          0.0      -6958.7\n\
     VoltDB:dispatch                  retire |       5900.0          0.0      -5900.0\n\
     Shore-MT:dispatch            mispredict |          0.0       4179.8      +4179.8\n\
     VoltDB:dispatch                     l1i |       3766.1          0.0      -3766.1\n\
     Shore-MT:dispatch                retire |          0.0       3600.0      +3600.0\n\
     Shore-MT:cc                  mispredict |          0.0       2237.5      +2237.5\n\
     Shore-MT:cc                      retire |          0.0       2018.0      +2018.0\n\
     Shore-MT:dispatch                   l1i |          0.0       1554.2      +1554.2\n\
     ...\n\
     (total)                                 |                                +4914.6\n\
     ```\n\n\
     Reading the table: comparing across engines, each engine's phases only \
     appear on its own side, so the ranked rows show where each design \
     spends its cycles. Shore-MT's extra ~4.9k cycles/txn come from its \
     heavier dispatch front-end and the `cc` (centralized locking) and \
     `log` phases that the partitioned, single-threaded VoltDB executor \
     avoids \u{2014} the paper's \u{a7}5 argument, quantified per component. \
     Comparing two records of the *same* system (e.g. before/after an \
     optimization) attributes a regression to the exact phase and stall \
     component that moved.\n\n"
}

/// Worked islands-grid example embedded in EXPERIMENTS.md. The numbers
/// come from the committed `results/islands.csv` (regenerate with
/// `bench islands` if the NUMA model or the placement policies change).
pub fn islands_example_md() -> &'static str {
    "## NUMA deployment grid (Hardware Islands)\n\n\
     `bench islands [--smoke]` (or `figures islands`) runs the read-write \
     micro-benchmark on a two-socket machine (per-socket LLCs, QPI-like \
     remote-fill penalty) under three placements \u{d7} three cross-socket \
     transaction mixes, for every engine. *Spread* scatters workers round \
     robin across sockets and leaves data OS-interleaved; *island* co-homes \
     each partition with its worker's socket; *os* starts with everything \
     first-touched on socket 0 and lets the metrics-driven rebalancer \
     migrate hot partitions. Full grid: `results/islands.csv`.\n\n\
     Worked slice (2 sockets \u{d7} 4 cores, 8 workers, from the committed CSV):\n\n\
     ```text\n\
     system   placement cross%        tps   remote%  rehomed\n\
     VoltDB   spread         0     744740     49.7%        0\n\
     VoltDB   island         0     749857      0.0%        0\n\
     VoltDB   os             0     751375      0.1%        3\n\
     VoltDB   spread        50     552975     50.1%        0\n\
     VoltDB   island        50     551251     44.8%        0\n\
     HyPer    spread         0   11071816     50.0%        0\n\
     HyPer    island         0   13748061      0.0%        0\n\
     HyPer    spread        50    6247121     50.0%        0\n\
     HyPer    island        50    6059470     43.8%        0\n\
     ```\n\n\
     Reading the slice: on a fully partition-local mix, island placement \
     eliminates cross-socket fills entirely (remote share 0% vs ~50% under \
     spread) and wins throughput \u{2014} dramatically for HyPer, whose \
     LLC-heavy data stalls make every miss a potential QPI round trip. As \
     the cross-socket fraction rises, each transaction touches its partner \
     partition on the other socket, the remote share under island placement \
     climbs back toward spread's, and the advantage shrinks \u{2014} the \
     Porobic et al. (VLDB'12) crossover. The `os` rows show the rebalancer \
     recovering island-like homing from a worst-case first-touch layout \
     (`rehomed` > 0), driven only by the per-tag fill counters the metrics \
     registry already exports. CI runs the smoke grid and fails unless this \
     ordering holds; the nightly full grid uploads the CSV.\n\n"
}

/// Build the EXPERIMENTS.md document.
pub fn experiments_md(figs: &[Fig], checks: &[Check]) -> String {
    let mut md = String::new();
    md.push_str("# EXPERIMENTS — paper vs. reproduction\n\n");
    md.push_str(
        "Regenerated by `cargo run --release -p bench --bin figures -- all`.\n\n\
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
         worker for the partitioned engines, single-site transactions only).\n"
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

    md.push_str(
        "## Extensions beyond the paper\n\n\
         Not part of the figure set above; regenerate with the listed \
         subcommands.\n\n\
         | experiment | command | what it shows |\n|---|---|---|\n\
         | LLC capacity sweep | `figures ablation-llc` | even 16x more LLC does not cache the working set (the paper's §8 argument) |\n\
         | next-line I-prefetcher | `figures ablation-prefetch` | sequential code prefetches; the branchy frontends keep missing |\n\
         | 1-wide simple core | `figures ablation-simplecore` | stall-dominated OLTP loses far less than 4x on a simple core |\n\
         | VoltDB multi-partition | `figures ablation-voltdb-mp` | ~60% more instruction stalls without the single-site guarantee (paper §7) |\n\
         | overlap sensitivity | `figures ablation-overlap` | the IPC ordering is robust to the cycle model's LLC weight |\n\
         | module breakdown | `figures modules [micro\\|tpcb\\|tpcc]` | per-module instruction/cycle/miss shares (DaMoN'13-style) |\n\
         | worker scaling grid | `figures scaling [--smoke]` | throughput/IPC/SPKI vs. worker count; the partitioned engines (VoltDB, HyPer) scale the partition-local micro-benchmark better than the shared-everything designs |\n\
         | NUMA deployment grid | `figures islands [--smoke]` | placement x cross-socket mix on a two-socket machine; island placement wins local mixes, the advantage shrinks as transactions cross sockets |\n\n",
    );
    md.push_str(islands_example_md());
    md.push_str(diff_example_md());
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
