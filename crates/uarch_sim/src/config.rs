//! Machine configuration: cache geometry, miss penalties, and the cycle
//! model — all defaulted to Table 1 of Sirin et al. (SIGMOD'16).

use serde::{Deserialize, Serialize};

use crate::counters::{EventCounts, StallEvent};

/// Cycles the cycle model charges per store miss: store-buffer pressure. A
/// deep-missing store occasionally backs retirement up; a small fraction
/// of the DRAM latency on average.
pub const STORE_MISS_PENALTY: f64 = 12.0;

/// Geometry of one set-associative cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub size: u64,
    /// Line size in bytes (64 on Ivy Bridge).
    pub line: u32,
    /// Associativity.
    pub ways: u32,
}

impl CacheGeometry {
    /// Construct a geometry; panics on non-power-of-two or inconsistent
    /// parameters so misconfiguration fails loudly at startup.
    pub fn new(size: u64, line: u32, ways: u32) -> Self {
        assert!(size.is_power_of_two(), "cache size must be a power of two");
        assert!(line.is_power_of_two(), "line size must be a power of two");
        assert!(ways > 0, "cache must have at least one way");
        let g = CacheGeometry { size, line, ways };
        assert!(g.sets() >= 1, "size / (line * ways) must be >= 1");
        g
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.size / (u64::from(self.line) * u64::from(self.ways))
    }

    /// Number of lines this cache can hold.
    pub fn lines(&self) -> u64 {
        self.size / u64::from(self.line)
    }
}

/// How much of each miss class's latency actually stalls retirement.
///
/// An out-of-order core overlaps part of the data-miss latency with useful
/// work (memory-level parallelism), while front-end (instruction) misses
/// starve the pipeline almost completely. The paper acknowledges exactly
/// this imprecision ("one cannot be precise while showing the stall cycles
/// breakdown on an out-of-order processor") and therefore *reports* raw
/// `misses x penalty` side by side; we follow suit for reporting, and use
/// these factors only to derive total cycles (and hence IPC).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct OverlapFactors {
    pub l1i: f64,
    pub l2i: f64,
    pub llc_i: f64,
    pub l1d: f64,
    pub l2d: f64,
    pub llc_d: f64,
}

impl OverlapFactors {
    /// Default weights: front-end misses stall fully; near data misses are
    /// partially hidden by the out-of-order window; LLC data misses weigh
    /// *above* their nominal 167-cycle penalty because the effective DRAM
    /// latency under row misses / remote-socket traffic exceeds the
    /// nominal figure the bars are charged with.
    pub const fn ivy_bridge() -> Self {
        OverlapFactors {
            l1i: 1.0,
            l2i: 1.0,
            llc_i: 1.2,
            l1d: 0.5,
            l2d: 0.7,
            llc_d: 1.35,
        }
    }

    /// Factor for one stall event class.
    pub fn get(&self, e: StallEvent) -> f64 {
        match e {
            StallEvent::L1i => self.l1i,
            StallEvent::L2i => self.l2i,
            StallEvent::LlcI => self.llc_i,
            StallEvent::L1d => self.l1d,
            StallEvent::L2d => self.l2d,
            StallEvent::LlcD => self.llc_d,
        }
    }
}

/// Full machine description.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MachineConfig {
    /// Per-core L1 instruction cache.
    pub l1i: CacheGeometry,
    /// Per-core L1 data cache.
    pub l1d: CacheGeometry,
    /// Per-core unified L2.
    pub l2: CacheGeometry,
    /// Shared last-level cache.
    pub llc: CacheGeometry,
    /// Penalty of an L1 miss that hits L2 (cycles).
    pub l1_penalty: u32,
    /// Penalty of an L2 miss that hits LLC (cycles).
    pub l2_penalty: u32,
    /// Penalty of an LLC miss (cycles; the paper averages local and remote
    /// DRAM on its two-socket machine).
    pub llc_penalty: u32,
    /// IPC of a miss-free instruction stream. The paper measures 3.0 with a
    /// register-to-register loop on a 4-wide machine.
    pub ideal_ipc: f64,
    /// Maximum instructions retired per cycle (4 on Ivy Bridge).
    pub retire_width: u32,
    /// Core clock in GHz (2.0 on the paper's E5-2640 v2).
    pub clock_ghz: f64,
    /// Stall overlap model (see [`OverlapFactors`]).
    pub overlap: OverlapFactors,
    /// Cycles lost per branch misprediction (front-end refill).
    pub mispredict_penalty: f64,
    /// Next-line instruction prefetcher: an L1I miss also pulls the
    /// following line into L1I/L2 (no stall charged). Off by default so
    /// the headline figures match the paper's counter semantics; the
    /// `ablation-prefetch` experiment flips it.
    pub i_prefetch_next_line: bool,
    /// Inclusive LLC: evicting a line from the LLC back-invalidates it in
    /// every core's private caches (Ivy Bridge's LLC is inclusive). Off by
    /// default — with a 16 MB LLC over 288 KB of private capacity the
    /// effect on the headline figures is marginal, but the knob lets the
    /// back-invalidation pathology be studied.
    pub inclusive_llc: bool,
    /// Number of simulated cores sharing the LLC.
    pub cores: usize,
    /// Number of sockets. Cores are laid out socket-major (core `c` lives
    /// on socket `c / (cores / sockets)`); each socket gets its own LLC
    /// instance. 1 (the default) reproduces the paper's single-socket
    /// machine bit for bit.
    #[serde(default = "default_sockets")]
    pub sockets: usize,
    /// Extra cycles charged per cross-socket (QPI-like) access: a demand
    /// fill whose home memory is on another socket, or a coherence
    /// invalidation arriving from a remote socket. The paper's E5-2640 v2
    /// pair shows remote DRAM ~1.7x local; 110 cycles on top of the
    /// 167-cycle local penalty matches that ratio.
    #[serde(default = "default_remote_penalty")]
    pub remote_penalty: u32,
}

fn default_sockets() -> usize {
    1
}

fn default_remote_penalty() -> u32 {
    110
}

impl MachineConfig {
    /// The paper's server (Table 1): 32 KB L1I + 32 KB L1D (8-way),
    /// 256 KB L2 (8-way), a shared LLC modelled as 16 MB 16-way (the real
    /// one is 20 MB 20-way), 64 B lines, penalties 8 / 19 / 167 cycles,
    /// 2.0 GHz, 4-wide retire.
    pub fn ivy_bridge(cores: usize) -> Self {
        assert!((1..=64).contains(&cores), "1..=64 cores supported");
        MachineConfig {
            l1i: CacheGeometry::new(32 << 10, 64, 8),
            l1d: CacheGeometry::new(32 << 10, 64, 8),
            l2: CacheGeometry::new(256 << 10, 64, 8),
            // 20 MB 20-way gives no power-of-two set count; model it as
            // 16 MB 16-way, which keeps the real LLC's 16 384 sets. The
            // fits-in-LLC boundary the paper exercises (10 MB vs 10 GB) is
            // preserved.
            llc: CacheGeometry::new(16 << 20, 64, 16),
            l1_penalty: 8,
            l2_penalty: 19,
            llc_penalty: 167,
            ideal_ipc: 3.0,
            retire_width: 4,
            clock_ghz: 2.0,
            overlap: OverlapFactors::ivy_bridge(),
            mispredict_penalty: 14.0,
            i_prefetch_next_line: false,
            inclusive_llc: false,
            cores,
            sockets: default_sockets(),
            remote_penalty: default_remote_penalty(),
        }
    }

    /// A multi-socket machine: `sockets` Table-1 sockets of
    /// `cores_per_socket` cores each, one LLC per socket, linked by a
    /// QPI-like remote-access penalty. `numa(1, n)` is exactly
    /// [`MachineConfig::ivy_bridge`]`(n)`.
    pub fn numa(sockets: usize, cores_per_socket: usize) -> Self {
        assert!(sockets >= 1, "at least one socket");
        assert!(cores_per_socket >= 1, "at least one core per socket");
        let mut cfg = Self::ivy_bridge(sockets * cores_per_socket);
        cfg.sockets = sockets;
        cfg
    }

    /// Cores per socket (cores are laid out socket-major).
    pub fn cores_per_socket(&self) -> usize {
        debug_assert!(self.cores.is_multiple_of(self.sockets));
        self.cores / self.sockets
    }

    /// The socket a core belongs to.
    pub fn socket_of(&self, core: usize) -> usize {
        core / self.cores_per_socket()
    }

    /// Penalty (cycles) charged for one miss of class `e`, as the paper
    /// charges it: each level's misses are multiplied by *that level's*
    /// penalty, so an access missing everywhere contributes to all three
    /// components.
    pub fn penalty(&self, e: StallEvent) -> u32 {
        match e {
            StallEvent::L1i | StallEvent::L1d => self.l1_penalty,
            StallEvent::L2i | StallEvent::L2d => self.l2_penalty,
            StallEvent::LlcI | StallEvent::LlcD => self.llc_penalty,
        }
    }

    /// Raw stall cycles per event class: `misses x penalty` (the quantity
    /// the paper plots side by side).
    pub fn stall_cycles(&self, c: &EventCounts) -> [f64; 6] {
        let mut out = [0.0; 6];
        for e in StallEvent::ALL {
            out[e as usize] = c.misses[e as usize] as f64 * f64::from(self.penalty(e));
        }
        out
    }

    /// Estimated total execution cycles for a counter delta:
    /// `instructions / ideal_ipc + sum(misses x penalty x overlap)`.
    pub fn cycles(&self, c: &EventCounts) -> f64 {
        let mut cy = c.instructions as f64 / self.ideal_ipc;
        cy += c.mispredicts as f64 * self.mispredict_penalty;
        cy += c.store_misses as f64 * STORE_MISS_PENALTY;
        for e in StallEvent::ALL {
            cy += c.misses[e as usize] as f64 * f64::from(self.penalty(e)) * self.overlap.get(e);
        }
        // QPI hop on top of the local miss penalty already charged above.
        // Zero on single-socket machines (no remote accesses are counted).
        cy += c.remote_accesses as f64 * f64::from(self.remote_penalty);
        cy
    }

    /// Instructions retired per cycle for a counter delta, clamped to the
    /// retire width.
    pub fn ipc(&self, c: &EventCounts) -> f64 {
        let cy = self.cycles(c);
        if cy <= 0.0 {
            return 0.0;
        }
        (c.instructions as f64 / cy).min(f64::from(self.retire_width))
    }

    /// Simulated wall-clock seconds for a counter delta.
    pub fn seconds(&self, c: &EventCounts) -> f64 {
        self.cycles(c) / (self.clock_ghz * 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ivy_bridge_matches_table1() {
        let cfg = MachineConfig::ivy_bridge(1);
        assert_eq!(cfg.l1i.size, 32 << 10);
        assert_eq!(cfg.l1d.size, 32 << 10);
        assert_eq!(cfg.l2.size, 256 << 10);
        assert_eq!(cfg.l1_penalty, 8);
        assert_eq!(cfg.l2_penalty, 19);
        assert_eq!(cfg.llc_penalty, 167);
        assert_eq!(cfg.retire_width, 4);
        assert!((cfg.ideal_ipc - 3.0).abs() < f64::EPSILON);
    }

    #[test]
    fn geometry_sets_and_lines() {
        let g = CacheGeometry::new(32 << 10, 64, 8);
        assert_eq!(g.sets(), 64);
        assert_eq!(g.lines(), 512);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn geometry_rejects_odd_size() {
        let _ = CacheGeometry::new(20 << 20, 64, 20);
    }

    #[test]
    fn miss_free_stream_runs_at_ideal_ipc() {
        let cfg = MachineConfig::ivy_bridge(1);
        let c = EventCounts {
            instructions: 30_000,
            ..Default::default()
        };
        assert!((cfg.ipc(&c) - 3.0).abs() < 1e-9);
        assert_eq!(cfg.cycles(&c), 10_000.0);
    }

    #[test]
    fn stalls_lower_ipc() {
        let cfg = MachineConfig::ivy_bridge(1);
        let mut c = EventCounts {
            instructions: 1000,
            ..Default::default()
        };
        c.misses[StallEvent::LlcD as usize] = 10;
        assert!(cfg.ipc(&c) < 1.0);
        let stalls = cfg.stall_cycles(&c);
        assert_eq!(stalls[StallEvent::LlcD as usize], 1670.0);
    }

    #[test]
    fn numa_layout_is_socket_major() {
        let cfg = MachineConfig::numa(2, 4);
        assert_eq!(cfg.cores, 8);
        assert_eq!(cfg.sockets, 2);
        assert_eq!(cfg.cores_per_socket(), 4);
        assert_eq!(cfg.socket_of(0), 0);
        assert_eq!(cfg.socket_of(3), 0);
        assert_eq!(cfg.socket_of(4), 1);
        assert_eq!(cfg.socket_of(7), 1);
    }

    #[test]
    fn single_socket_numa_matches_ivy_bridge() {
        let a = MachineConfig::numa(1, 2);
        let b = MachineConfig::ivy_bridge(2);
        assert_eq!(a.sockets, b.sockets);
        assert_eq!(a.cores, b.cores);
        assert_eq!(a.llc, b.llc);
        assert_eq!(a.remote_penalty, b.remote_penalty);
    }

    #[test]
    fn remote_accesses_add_cycles() {
        let cfg = MachineConfig::numa(2, 1);
        let local = EventCounts {
            instructions: 3000,
            ..Default::default()
        };
        let mut remote = local.clone();
        remote.remote_accesses = 10;
        let delta = cfg.cycles(&remote) - cfg.cycles(&local);
        assert_eq!(delta, 10.0 * f64::from(cfg.remote_penalty));
        assert!(cfg.ipc(&remote) < cfg.ipc(&local));
    }

    #[test]
    fn ipc_clamped_to_retire_width() {
        let mut cfg = MachineConfig::ivy_bridge(1);
        cfg.ideal_ipc = 10.0; // hypothetical
        let c = EventCounts {
            instructions: 1000,
            ..Default::default()
        };
        assert_eq!(cfg.ipc(&c), 4.0);
    }
}
