//! NVMe-like log device: a submit/complete queue pair with a configurable
//! write-latency profile.
//!
//! The paper configures every engine with asynchronous logging, so no
//! engine ever *waits* for the log device in the measured figures — but a
//! durability tier needs an fsync-equivalent cost to make the group-commit
//! batch size vs commit-latency trade-off a measurable curve (NVMeVirt
//! makes the same argument for storage research on real kernels). This
//! module models exactly the observable surface a log writer cares about:
//!
//! * a **submission queue** and a **completion queue** allocated in
//!   simulated memory — posting a command touches the SQ entry line and
//!   rings the doorbell line, reaping touches the CQ entry line, so the
//!   device protocol itself generates the cache traffic a real driver
//!   pays;
//! * a **deterministic service-time model**: a write of `n` bytes
//!   completes at `max(now, slot_free) + base_latency + per_4k *
//!   ceil(n/4096)` simulated cycles, with `queue_depth` commands in
//!   flight — purely a function of the submission sequence, so two runs
//!   that submit the same writes at the same simulated times observe
//!   byte-identical completion times.
//!
//! "Now" is whatever cycle clock the caller supplies (the WAL uses the
//! cycle model evaluated on the flushing core's cumulative counters — the
//! same deterministic clock the tracing layer timestamps spans with).

use crate::{Mem, LINE};

/// Latency/geometry profile of the simulated log device.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NvmeProfile {
    /// Fixed per-command latency in simulated cycles (controller +
    /// flash program time). ~20µs at 2GHz for a datacenter NVMe write.
    pub base_latency: f64,
    /// Additional cycles per 4 KB page of payload (transfer + program).
    pub per_4k: f64,
    /// Commands the device services concurrently; submissions beyond the
    /// depth queue behind the earliest-free slot.
    pub queue_depth: usize,
    /// Instructions retired by the driver per submission (command build,
    /// doorbell write, completion poll).
    pub submit_instrs: u64,
}

impl NvmeProfile {
    /// A low-latency datacenter NVMe log device (the default for
    /// `bench recover`): 12k-cycle write latency (~6µs at 2GHz),
    /// 2k cycles per 4KB page, queue depth 8.
    pub fn datacenter() -> Self {
        NvmeProfile {
            base_latency: 12_000.0,
            per_4k: 2_000.0,
            queue_depth: 8,
            submit_instrs: 160,
        }
    }

    /// Service time for one `bytes`-byte write (excluding queueing).
    pub fn service(&self, bytes: u64) -> f64 {
        self.base_latency + self.per_4k * (bytes.div_ceil(4096) as f64)
    }
}

/// Lifetime counters of one [`LogDevice`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DeviceStats {
    /// Commands submitted.
    pub submits: u64,
    /// Payload bytes written.
    pub bytes: u64,
    /// Total cycles commands spent queued behind a busy slot.
    pub queue_wait: f64,
    /// Total service cycles (latency the device itself charged).
    pub service: f64,
}

/// One NVMe-like queue pair bound to a log stream.
///
/// Not synchronized: each WAL owns its device the way each partition owns
/// its command log, so completion times are a pure function of that log's
/// submission order.
pub struct LogDevice {
    profile: NvmeProfile,
    /// Simulated base addresses of the SQ / CQ rings (64-byte entries).
    sq_addr: u64,
    cq_addr: u64,
    /// Doorbell register line.
    db_addr: u64,
    /// Ring cursor (wraps at `queue_depth`).
    head: usize,
    /// Completion time of the command occupying each slot.
    slot_done: Vec<f64>,
    stats: DeviceStats,
}

impl LogDevice {
    /// Allocate the queue pair in simulated memory.
    pub fn new(mem: &Mem, profile: NvmeProfile) -> Self {
        let depth = profile.queue_depth.max(1) as u64;
        LogDevice {
            profile,
            sq_addr: mem.alloc(depth * LINE, LINE),
            cq_addr: mem.alloc(depth * LINE, LINE),
            db_addr: mem.alloc(LINE, LINE),
            head: 0,
            slot_done: vec![0.0; profile.queue_depth.max(1)],
            stats: DeviceStats::default(),
        }
    }

    /// The device's latency profile.
    pub fn profile(&self) -> &NvmeProfile {
        &self.profile
    }

    /// Submit one `bytes`-byte write at simulated time `now` (cycles) and
    /// return its completion time. Charges the driver-side protocol work
    /// (SQ entry build, doorbell ring, CQ poll) to `mem`'s core.
    pub fn submit(&mut self, mem: &Mem, now: f64, bytes: u64) -> f64 {
        let slot = self.head;
        self.head = (self.head + 1) % self.slot_done.len();
        // Driver protocol: build the SQ entry, ring the doorbell, poll
        // the CQ entry for the previous occupant of this slot.
        mem.exec(self.profile.submit_instrs);
        mem.write(self.sq_addr + slot as u64 * LINE, LINE as u32);
        mem.write(self.db_addr, 8);
        mem.read(self.cq_addr + slot as u64 * LINE, LINE as u32);
        let free_at = self.slot_done[slot];
        let start = now.max(free_at);
        let service = self.profile.service(bytes);
        let done = start + service;
        self.slot_done[slot] = done;
        self.stats.submits += 1;
        self.stats.bytes += bytes;
        self.stats.queue_wait += start - now;
        self.stats.service += service;
        done
    }

    /// Lifetime counters.
    pub fn stats(&self) -> DeviceStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MachineConfig, Sim};

    fn mem() -> Mem {
        Sim::new(MachineConfig::ivy_bridge(1)).mem(0)
    }

    #[test]
    fn completion_is_deterministic_and_ordered() {
        let mem = mem();
        let p = NvmeProfile::datacenter();
        let mut a = LogDevice::new(&mem, p);
        let mut b = LogDevice::new(&mem, p);
        let ta: Vec<f64> = (0..32)
            .map(|i| a.submit(&mem, i as f64 * 100.0, 4096))
            .collect();
        let tb: Vec<f64> = (0..32)
            .map(|i| b.submit(&mem, i as f64 * 100.0, 4096))
            .collect();
        assert_eq!(ta, tb, "same submissions, same completions");
        assert!(ta.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn queue_depth_bounds_concurrency() {
        let mem = mem();
        let p = NvmeProfile {
            base_latency: 1000.0,
            per_4k: 0.0,
            queue_depth: 2,
            submit_instrs: 10,
        };
        let mut d = LogDevice::new(&mem, p);
        // Three simultaneous submissions: the first two run concurrently,
        // the third queues behind slot 0.
        let t0 = d.submit(&mem, 0.0, 64);
        let t1 = d.submit(&mem, 0.0, 64);
        let t2 = d.submit(&mem, 0.0, 64);
        assert_eq!(t0, 1000.0);
        assert_eq!(t1, 1000.0);
        assert_eq!(t2, 2000.0, "third write waits for a slot");
        assert!(d.stats().queue_wait > 0.0);
    }

    #[test]
    fn payload_size_charges_per_page() {
        let p = NvmeProfile::datacenter();
        assert_eq!(p.service(1), p.base_latency + p.per_4k);
        assert_eq!(p.service(4096), p.base_latency + p.per_4k);
        assert_eq!(p.service(4097), p.base_latency + 2.0 * p.per_4k);
    }

    #[test]
    fn device_protocol_touches_simulated_memory() {
        let sim = Sim::new(MachineConfig::ivy_bridge(1));
        let mem = sim.mem(0);
        let mut d = LogDevice::new(&mem, NvmeProfile::datacenter());
        let before = sim.counters(0);
        d.submit(&mem, 0.0, 4096);
        let after = sim.counters(0);
        assert!(after.instructions > before.instructions);
        assert!(after.stores > before.stores, "doorbell + SQ entry stores");
        assert!(after.loads > before.loads, "CQ poll load");
    }
}
