//! What the chaos and crash-recovery harnesses share: the worker-private
//! oracle rows — their key layout and the `(key, hits)` counter tables that
//! hold them (the manifests pin `uarch_sim::rng::Fnv` digests — the same
//! construction as the golden-counter digests in `tests/`, so drift
//! anywhere in the hashed state flips them).

use oltp::{Column, DataType, Db, OltpResult, Schema, Session, TableDef, TableId, Value};

/// Worker-private oracle rows per worker.
pub(crate) const KEYS_PER_WORKER: u64 = 4;

/// Stable oracle key for `(worker, k)`; strided so index structures see
/// the same sparsity the workload tables do.
pub(crate) fn oracle_key(worker: usize, workers: usize, k: u64) -> u64 {
    (k * workers as u64 + worker as u64) * 64
}

/// A `(key Long, hits Long)` table of worker-private counters:
/// `per_worker` rows for each of `workers` workers, at [`oracle_key`] plus
/// `offset` (two tables with offsets 0 and 1 never share a key).
pub(crate) struct Counters {
    pub(crate) table: TableId,
    workers: usize,
    per_worker: u64,
    offset: u64,
}

impl Counters {
    /// Create the (empty) table `name` on `db`.
    pub(crate) fn create(
        db: &mut dyn Db,
        name: &str,
        workers: usize,
        per_worker: u64,
        offset: u64,
    ) -> Counters {
        let columns = ["key", "hits"].map(|c| Column::new(c, DataType::Long));
        let schema = Schema::new(columns.to_vec());
        let table = db.create_table(TableDef::new(name, schema, workers as u64 * per_worker));
        Counters {
            table,
            workers,
            per_worker,
            offset,
        }
    }

    /// `worker`'s keys, in row order.
    pub(crate) fn keys(&self, worker: usize) -> Vec<u64> {
        (0..self.per_worker)
            .map(|k| oracle_key(worker, self.workers, k) + self.offset)
            .collect()
    }

    /// Insert `worker`'s rows at zero hits, one transaction each, through
    /// that worker's session `s` so partitioned engines keep them
    /// single-site.
    pub(crate) fn load(&self, s: &mut dyn Session, worker: usize) {
        for key in self.keys(worker) {
            s.begin();
            s.insert(self.table, key, &[Value::Long(key as i64), Value::Long(0)])
                .expect("oracle row insert");
            s.commit().expect("oracle row commit");
        }
    }

    /// The `hits` column of one of these tables' rows.
    pub(crate) fn hits(row: &[Value]) -> u64 {
        match row[1] {
            Value::Long(v) => v as u64,
            _ => panic!("oracle value column changed type"),
        }
    }

    /// `hits += 1` on `key` inside the caller's open transaction; returns
    /// whether the row existed.
    pub(crate) fn bump(&self, s: &mut dyn Session, key: u64) -> OltpResult<bool> {
        s.update(self.table, key, &mut |row| {
            if let Value::Long(v) = &mut row[1] {
                *v += 1;
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use engines::{SystemBuilder, SystemKind};
    use uarch_sim::MachineConfig;

    #[test]
    fn keys_of_two_workers_and_two_offsets_are_disjoint() {
        let (_sim, mut db) =
            SystemBuilder::new(SystemKind::ShoreMt).load(MachineConfig::ivy_bridge(1), |_| {});
        let hits = Counters::create(db.as_mut(), "hits", 2, KEYS_PER_WORKER, 0);
        let scratch = Counters::create(db.as_mut(), "scratch", 2, 2, 1);
        let mut all: Vec<u64> =
            [hits.keys(0), hits.keys(1), scratch.keys(0), scratch.keys(1)].concat();
        assert_eq!(all.len(), 2 * KEYS_PER_WORKER as usize + 4);
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 2 * KEYS_PER_WORKER as usize + 4, "a key repeats");
        assert_eq!(hits.keys(1)[0], oracle_key(1, 2, 0));
        assert_eq!(scratch.keys(1)[0], oracle_key(1, 2, 0) + 1);
    }

    #[test]
    fn load_then_bump_reads_back_one() {
        for system in [SystemKind::ShoreMt, SystemKind::HyPer] {
            let mut counters = None;
            let (_sim, db) =
                SystemBuilder::new(system)
                    .cores(2)
                    .load(MachineConfig::ivy_bridge(2), |db| {
                        let c = Counters::create(db, "hits", 2, KEYS_PER_WORKER, 0);
                        for worker in 0..2 {
                            c.load(db.session(worker).as_mut(), worker);
                        }
                        counters = Some(c);
                    });
            let c = counters.unwrap();
            assert_eq!(db.row_count(c.table), 2 * KEYS_PER_WORKER);
            let mut s = db.session(1);
            let key = c.keys(1)[2];
            s.begin();
            assert!(c.bump(s.as_mut(), key).unwrap());
            assert!(!c.bump(s.as_mut(), key + 1).unwrap(), "offset-1 key exists");
            s.commit().unwrap();
            s.begin();
            let row = s.read(c.table, key).unwrap().expect("bumped row");
            let untouched = s.read(c.table, c.keys(1)[0]).unwrap().expect("loaded row");
            s.commit().unwrap();
            assert_eq!(row, vec![Value::Long(key as i64), Value::Long(1)]);
            assert_eq!((Counters::hits(&row), Counters::hits(&untouched)), (1, 0));
        }
    }
}
