//! CLI names of systems and workloads, and the file-name slug — the one
//! table both directions read: the parser turns a name into a
//! [`SystemKind`], and manifests record [`system_cli`] so a replay goes
//! back in through the same front end that produced it.

use engines::{DbmsMIndex, SystemKind};
use workloads::DbSize;

use crate::WorkloadCfg;

const DBMS_M: SystemKind = SystemKind::DbmsM {
    index: DbmsMIndex::Hash,
    compiled: true,
};

/// Accepted system names; each system's first entry is its canonical one.
pub const SYSTEMS: &[(&str, SystemKind)] = &[
    ("shore-mt", SystemKind::ShoreMt),
    ("shore", SystemKind::ShoreMt),
    ("shoremt", SystemKind::ShoreMt),
    ("dbmsd", SystemKind::DbmsD),
    ("dbms-d", SystemKind::DbmsD),
    ("voltdb", SystemKind::VoltDb),
    ("hyper", SystemKind::HyPer),
    ("dbmsm", DBMS_M),
    ("dbms-m", DBMS_M),
    (
        "dbmsm-interp",
        SystemKind::DbmsM {
            index: DbmsMIndex::Hash,
            compiled: false,
        },
    ),
    (
        "dbmsm-btree",
        SystemKind::DbmsM {
            index: DbmsMIndex::BTree,
            compiled: true,
        },
    ),
];

const fn micro(read_only: bool) -> WorkloadCfg {
    WorkloadCfg::Micro {
        size: DbSize::Gb10,
        rows_per_txn: 1,
        read_only,
        strings: false,
    }
}

/// Accepted workload names.
pub const WORKLOADS: &[(&str, WorkloadCfg)] = &[
    ("micro", micro(true)),
    ("micro-rw", micro(false)),
    ("tpcb", WorkloadCfg::TpcB),
    ("tpcc", WorkloadCfg::TpcC),
];

fn normalized(s: &str) -> String {
    s.to_ascii_lowercase().replace(['_', ' '], "-")
}

/// Parse a CLI system name (case, `_` and spaces are forgiven).
pub fn parse_system(s: &str) -> Result<SystemKind, String> {
    let name = normalized(s);
    SYSTEMS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, kind)| kind)
        .ok_or_else(|| format!("unknown system: {s}"))
}

/// Canonical CLI name of a system, the inverse of [`parse_system`]. The
/// B-tree DBMS M has one name whatever its compilation setting.
pub fn system_cli(kind: SystemKind) -> &'static str {
    SYSTEMS
        .iter()
        .find(|(_, k)| *k == kind)
        .map_or("dbmsm-btree", |(name, _)| name)
}

/// Parse a CLI workload name (one of [`WORKLOADS`]).
pub fn parse_workload(s: &str) -> Result<WorkloadCfg, String> {
    let name = normalized(s);
    WORKLOADS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, workload)| workload.clone())
        .ok_or_else(|| format!("unknown workload: {s}"))
}

/// File-name slug for a label ("Shore-MT" -> "shore_mt").
pub fn slug(label: &str) -> String {
    label.to_ascii_lowercase().replace([' ', '-'], "_")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_names() {
        assert_eq!(parse_system("voltdb"), Ok(SystemKind::VoltDb));
        assert_eq!(parse_system("Shore-MT"), Ok(SystemKind::ShoreMt));
        assert!(parse_system("oracle").is_err());
        assert!(parse_workload("tpcc").is_ok());
        assert!(parse_workload("nope").is_err());
    }

    #[test]
    fn canonical_names_round_trip() {
        for &(_, kind) in SYSTEMS {
            assert_eq!(parse_system(system_cli(kind)), Ok(kind));
        }
        assert_eq!(system_cli(SystemKind::dbms_m_for_tpcc()), "dbmsm-btree");
        assert_eq!(slug("Shore-MT"), "shore_mt");
        assert_eq!(slug("micro-rw"), "micro_rw");
    }
}
