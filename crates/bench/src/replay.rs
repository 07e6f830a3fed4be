//! The one manifest replayer behind `chaos --plan` and `recover --plan`.
//!
//! A chaos or recover run is a pure function of its manifest, so a replay
//! reads every knob back from the JSON a previous run wrote, lets explicit
//! CLI flags win, and — when no flag reshaped the fault plan — requires
//! the fresh manifest to pin the same digests.

use std::path::{Path, PathBuf};

use engines::SystemKind;
use faults::FaultPlan;
use microarch::WindowSpec;
use obs::json::{self, Json};

use crate::args::Parsed;
use crate::names::{parse_system, parse_workload};
use crate::{grid, WorkloadCfg};

/// Shown in place of an artefact path a replay did not write.
pub const NOT_WRITTEN: &str = "(not written: replay; pass --out <another dir> to keep a copy)";

/// The arguments of a replayable run plus the manifest `--plan` named.
pub struct Replay<'a> {
    p: &'a Parsed,
    manifest: Option<Json>,
}

impl<'a> Replay<'a> {
    /// Read the manifest named by `--plan`, if any.
    pub fn open(p: &'a Parsed) -> Result<Self, String> {
        let Some(path) = p.value("--plan") else {
            return Ok(Replay { p, manifest: None });
        };
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read plan {path}: {e}"))?;
        let manifest = json::parse(&text).map_err(|e| format!("bad plan JSON in {path}: {e}"))?;
        Ok(Replay {
            p,
            manifest: Some(manifest),
        })
    }

    /// A string field of the manifest.
    pub fn str(&self, key: &str) -> Option<&str> {
        self.manifest.as_ref()?.get(key)?.as_str()
    }

    /// A numeric field of the manifest.
    pub fn num(&self, key: &str) -> Option<f64> {
        self.manifest.as_ref()?.get(key)?.as_f64()
    }

    /// The recorded measurement window.
    pub fn window(&self) -> Option<WindowSpec> {
        let win = self.manifest.as_ref()?.get("window")?;
        let field = |k: &str| win.get(k).and_then(Json::as_f64).unwrap_or(0.0) as u64;
        Some(WindowSpec {
            warmup: field("warmup"),
            measured: field("measured"),
            reps: (field("reps") as u32).max(1),
        })
    }

    /// The recorded fault plan, when replaying.
    pub fn fault_plan(&self) -> Result<Option<FaultPlan>, String> {
        self.manifest
            .as_ref()
            .map(|m| FaultPlan::from_json(m).map_err(|e| format!("bad fault plan: {e}")))
            .transpose()
    }

    /// The system and workload to run: the positionals, else the replayed
    /// manifest's. Returns the workload's CLI name alongside.
    pub fn target(&self) -> Result<(SystemKind, WorkloadCfg, String), String> {
        let missing = || "missing <system> <workload> (or --plan <manifest.json>)".to_string();
        let system = self
            .p
            .pos(0)
            .or_else(|| self.str("system_cli").or_else(|| self.str("system")))
            .ok_or_else(missing)?;
        let workload = self
            .p
            .pos(1)
            .or_else(|| self.str("workload"))
            .ok_or_else(missing)?;
        Ok((
            parse_system(system)?,
            parse_workload(workload)?,
            workload.to_string(),
        ))
    }

    /// Whether the run replays the manifest as recorded. Any of the
    /// `reshaping` flags rebuilds the fault plan from explicit knobs and so
    /// deliberately departs from it: no digest comparison then.
    pub fn faithful(&self, reshaping: &[&str]) -> bool {
        self.manifest.is_some() && !reshaping.iter().any(|flag| self.p.has(flag))
    }

    /// Where the run leaves its artefacts: `--out`, else `results/`. A
    /// `--plan` replay has no default — it writes only when `--out` names a
    /// directory other than the replayed manifest's own, so a replay that
    /// fails can never overwrite the pin it failed against.
    pub fn artifact_dir(&self) -> Option<PathBuf> {
        let out = self.p.value("--out").map(PathBuf::from);
        let Some(plan) = self.p.value("--plan") else {
            return Some(out.unwrap_or_else(grid::results_dir));
        };
        let plan_dir = Path::new(plan)
            .parent()
            .filter(|d| !d.as_os_str().is_empty())
            .unwrap_or(Path::new("."));
        out.filter(|dir| match (dir.canonicalize(), plan_dir.canonicalize()) {
            (Ok(a), Ok(b)) => a != b,
            _ => true, // `dir` does not exist yet, so it is not the plan's
        })
    }

    /// The exit code of a finished run: 1 when its own oracle failed
    /// (`violation` says how) or when a `faithful` replay's `fresh`
    /// manifest does not pin the same `(key, what differs)` digests.
    pub fn verdict(
        &self,
        faithful: bool,
        violation: Option<&str>,
        fresh: &Json,
        digests: &[(&str, &str)],
    ) -> i32 {
        let mut failed = violation.is_some();
        if let Some(v) = violation {
            eprintln!("FAIL: {v}");
        }
        if let Some(m) = self.manifest.as_ref().filter(|_| faithful) {
            for (key, what) in digests {
                // Tolerant: a manifest without the digest pins nothing.
                let pinned = m
                    .get(key)
                    .filter(|v| v.as_arr().is_none_or(|a| !a.is_empty()));
                if pinned.is_some_and(|want| Some(want) != fresh.get(key)) {
                    eprintln!("FAIL: {what} from the replayed manifest");
                    failed = true;
                }
            }
            if !failed {
                println!("replay matches the manifest");
            }
        }
        i32::from(failed)
    }
}
