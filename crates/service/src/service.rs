//! The service: builder, dispatch loop, and the serve report.
//!
//! [`ServiceBuilder`] assembles engine × workload × pool size ×
//! admission policy; [`Service::run`] drives the whole path under the
//! measurement harness:
//!
//! ```text
//!   clients ──frames──▶ parse ──▶ admission ──▶ pool ──▶ execute ──▶ respond
//!            (Parse span)   (Dispatch span)        (Txn span)   (Respond span)
//! ```
//!
//! Each simulated core runs one dispatch loop in deterministic lockstep
//! (the same `measure_workers` harness the direct driver uses). Per
//! turn the loop: polls its connections round-robin and decodes their
//! frames (Parse span, charged against the `svc/parse` module and the
//! connection's simulated buffer), admits execute tickets into the
//! bounded queue and checks the core's session out of the pool
//! (Dispatch span), coalesces up to `batch` queued executions on that
//! one session (each under a `Txn` span, so the engine's own phase
//! spans nest inside), then encodes and delivers every response
//! (Respond span). Every simulated instruction on the service path
//! falls inside one of those spans — the per-phase self counts sum
//! exactly to the measured window, the same invariant the flamegraph
//! residuals rely on.

use std::cell::RefCell;

use engines::{DurableDb, SystemBuilder, SystemKind};
use microarch::{measure_workers, Measurement, Pacing, WindowSpec};
use obs::{metrics::registry, Phase, Tracer};
use oltp::retry::{classify, ErrorClass};
use oltp::CcPolicy;
use uarch_sim::rng::Fnv;
use uarch_sim::{MachineConfig, ModuleSpec, Sim};
use workloads::Workload;

use crate::admission::{AdmissionPolicy, CoreQueue};
use crate::client::ClientConn;
use crate::pool::SessionPool;
use crate::request::{Request, Response};
use crate::wire::Frame;

/// Span/engine label for the service front end's own phases.
const SVC: &str = "svc";

/// Front-end instruction costs (per frame / per byte / per action).
/// Deliberately small: the paper's point is that even a thin front end
/// adds a measurable instruction-stall slice, not that it dominates.
mod cost {
    /// Poll a connection for output (scheduling + readiness check).
    pub const POLL: u64 = 2;
    /// Per decoded frame.
    pub const PARSE_FRAME: u64 = 16;
    /// Per request byte.
    pub const PARSE_BYTE: u64 = 1;
    /// Admission decision per execute ticket.
    pub const ADMIT: u64 = 14;
    /// Pool checkout + checkin per turn.
    pub const CHECKOUT: u64 = 40;
    /// Per encoded response frame.
    pub const RESPOND_FRAME: u64 = 12;
    /// Per response byte.
    pub const RESPOND_BYTE: u64 = 1;
}

/// A workload factory: the service and the matched direct-driver run
/// each need a fresh instance.
pub type WorkloadFactory = Box<dyn Fn() -> Box<dyn Workload> + Send + Sync>;

/// Configures a service instance.
pub struct ServiceBuilder {
    system: SystemKind,
    cc: CcPolicy,
    workload: WorkloadFactory,
    stmt: String,
    connections: usize,
    pool: usize,
    admission: AdmissionPolicy,
    batch: usize,
    intake: usize,
    seed: u64,
    window: WindowSpec,
    compare_direct: bool,
    fault_plan: Option<faults::FaultPlan>,
}

impl ServiceBuilder {
    /// A service for `system` executing `workload()` instances. `stmt`
    /// is the procedure name clients send in their Parse frames (any
    /// other name is answered with an `Unsupported` error frame).
    ///
    /// Defaults: 10 000 connections, pool of 4 sessions, admission cap
    /// 64, batch 4, intake 8 polls/turn, window 400+800×2.
    pub fn new(system: SystemKind, stmt: impl Into<String>, workload: WorkloadFactory) -> Self {
        ServiceBuilder {
            system,
            cc: CcPolicy::EngineDefault,
            workload,
            stmt: stmt.into(),
            connections: 10_000,
            pool: 4,
            admission: AdmissionPolicy::default(),
            batch: 4,
            intake: 8,
            seed: 0xC0FFEE,
            window: WindowSpec {
                warmup: 400,
                measured: 800,
                reps: 2,
            },
            compare_direct: true,
            fault_plan: None,
        }
    }

    /// Simulated client connections to multiplex.
    pub fn connections(mut self, n: usize) -> Self {
        assert!(n >= 1);
        self.connections = n;
        self
    }

    /// Engine sessions (== simulated cores) the pool holds.
    pub fn pool(mut self, sessions: usize) -> Self {
        assert!((1..=64).contains(&sessions), "pool must be 1..=64 sessions");
        self.pool = sessions;
        self
    }

    /// Admission policy (queue cap per core).
    pub fn admission(mut self, policy: AdmissionPolicy) -> Self {
        self.admission = policy;
        self
    }

    /// Executions coalesced per core per turn.
    pub fn batch(mut self, batch: usize) -> Self {
        assert!(batch >= 1);
        self.batch = batch;
        self
    }

    /// Connections polled per core per turn (intake pressure). Polling
    /// more connections than `batch` executions per turn is what drives
    /// the admission queue to its cap and exercises load shedding.
    pub fn intake(mut self, intake: usize) -> Self {
        assert!(intake >= 1);
        self.intake = intake;
        self
    }

    /// Concurrency-control protocol for the engine.
    pub fn cc(mut self, cc: CcPolicy) -> Self {
        self.cc = cc;
        self
    }

    /// Seed for client backoff jitter (full-run determinism).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Measurement window, in dispatch turns per core.
    pub fn window(mut self, window: WindowSpec) -> Self {
        self.window = window;
        self
    }

    /// Also run the matched direct-session driver (same engine, same
    /// worker count, no service path) for the overhead comparison.
    /// Default on.
    pub fn compare_direct(mut self, yes: bool) -> Self {
        self.compare_direct = yes;
        self
    }

    /// Arm a fault plan for the duration of the run.
    pub fn fault_plan(mut self, plan: faults::FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Finish configuration.
    pub fn build(self) -> Service {
        Service { cfg: self }
    }
}

/// A configured service; [`Service::run`] executes it.
pub struct Service {
    cfg: ServiceBuilder,
}

/// One (engine, phase) row of the service-path breakdown.
#[derive(Clone, Debug)]
pub struct StageRow {
    /// Span engine label (`svc` for front-end stages).
    pub engine: String,
    /// Phase label (`parse`, `dispatch`, `txn`, ..., `respond`).
    pub phase: String,
    /// Spans closed in the measured window.
    pub count: u64,
    /// Exclusive instructions.
    pub instructions: u64,
    /// Exclusive model cycles.
    pub cycles: f64,
    /// Fraction of the measured window's cycles.
    pub share: f64,
}

/// Everything a serve run measured.
#[derive(Debug)]
pub struct ServeReport {
    /// Engine under service.
    pub system: SystemKind,
    /// Procedure name served.
    pub stmt: String,
    /// Simulated client connections.
    pub connections: usize,
    /// Engine sessions (pool slots == cores).
    pub sessions: usize,
    /// Executions coalesced per core per turn.
    pub batch: usize,
    /// Admission queue cap per core.
    pub queue_cap: usize,
    /// Measurement of the service path (phases populated; `txns` counts
    /// dispatch turns, not transactions — see `tps_served`).
    pub measurement: Measurement,
    /// Committed transactions per simulated second through the service
    /// path (turn throughput × batch).
    pub tps_served: f64,
    /// Matched direct-session driver measurement, if requested.
    pub direct: Option<Measurement>,
    /// Execute tickets admitted.
    pub admitted: u64,
    /// Execute tickets shed by admission control.
    pub shed: u64,
    /// Deepest any core's queue got.
    pub queue_high_water: usize,
    /// Pool checkouts / busy refusals / poison re-opens.
    pub pool: crate::pool::PoolStats,
    /// Transactions executed (includes warmup turns).
    pub executed: u64,
    /// Transactions committed (includes warmup turns).
    pub committed: u64,
    /// Transactions that returned an engine error.
    pub exec_errors: u64,
    /// Measured turns that found fewer than `batch` queued tickets.
    pub starved_turns: u64,
    /// Connections that received at least one response.
    pub conns_served: u64,
    /// Connections with at least one commit.
    pub conns_committed: u64,
    /// FNV digest over every connection's response stream (determinism).
    pub digest: u64,
    /// Window counts minus per-phase self counts: must be zero
    /// instructions — every charged instruction sits inside a span.
    pub unattributed_instructions: u64,
}

impl ServeReport {
    /// Service throughput as a fraction of the direct driver's
    /// (`None` without a comparison run).
    pub fn tps_ratio(&self) -> Option<f64> {
        self.direct.as_ref().map(|d| self.tps_served / d.tps)
    }

    /// The per-stage breakdown, front-end stages and engine phases.
    pub fn stage_rows(&self) -> Vec<StageRow> {
        self.measurement
            .phases
            .iter()
            .map(|p| StageRow {
                engine: p.engine.clone(),
                phase: p.phase.clone(),
                count: p.count,
                instructions: p.counts.instructions,
                cycles: p.cycles,
                share: p.share,
            })
            .collect()
    }

    /// Fraction of service-path cycles spent in the front end (`svc`
    /// spans) rather than the engine.
    pub fn frontend_share(&self) -> f64 {
        self.measurement
            .phases
            .iter()
            .filter(|p| p.engine == SVC)
            .map(|p| p.share)
            .sum()
    }
}

/// Work admitted for execution: which connection wants its bound
/// statement run.
struct Ticket {
    conn: usize,
}

/// Per-core dispatch state, shared between that core's step closure and
/// the report that folds the outcomes.
struct CoreState {
    conns: Vec<ClientConn>,
    rr: usize,
    turn: u64,
    queue: CoreQueue<Ticket>,
    executed: u64,
    committed: u64,
    exec_errors: u64,
    /// Executions per turn, in turn order (starvation audit).
    executed_per_turn: Vec<u32>,
}

impl Service {
    /// A fresh machine of `pool` cores with the engine built and the
    /// workload loaded on it.
    fn load(&self) -> (Sim, Box<dyn DurableDb>, Box<dyn Workload>) {
        let cfg = &self.cfg;
        let mut w = (cfg.workload)();
        let (sim, db) = SystemBuilder::new(cfg.system)
            .cores(cfg.pool)
            .cc(cfg.cc)
            .load(MachineConfig::ivy_bridge(cfg.pool), |db| {
                w.setup(db, cfg.pool)
            });
        (sim, db, w)
    }

    /// Run the service under the measurement harness and report.
    pub fn run(&self) -> ServeReport {
        let cfg = &self.cfg;
        let cores = cfg.pool;
        let (sim, db, w) = self.load();
        let engine: &'static str = db.name();
        let _faults = cfg.fault_plan.clone().map(faults::install);

        // Front-end code modules: the wire/dispatch footprint that the
        // paper's isolated engine runs never pay.
        let m_parse = sim.register_module(ModuleSpec::new("svc/parse", 28 << 10).reuse(1.6));
        let m_dispatch = sim.register_module(ModuleSpec::new("svc/dispatch", 12 << 10).reuse(2.5));
        let m_respond = sim.register_module(ModuleSpec::new("svc/respond", 20 << 10).reuse(1.8));

        // Connection state: core affinity is id % cores; each connection
        // owns a small simulated wire buffer, so ten thousand connections
        // are a real (cold) data footprint for the front end.
        let states: Vec<RefCell<CoreState>> = (0..cores)
            .map(|core| {
                let conns: Vec<ClientConn> = (0..cfg.connections as u64)
                    .filter(|id| (*id as usize) % cores == core)
                    .map(|id| ClientConn::new(id, sim.alloc(192, 64), cfg.seed))
                    .collect();
                RefCell::new(CoreState {
                    conns,
                    rr: 0,
                    turn: 0,
                    queue: CoreQueue::new(cfg.admission),
                    executed: 0,
                    committed: 0,
                    exec_errors: 0,
                    executed_per_turn: Vec::new(),
                })
            })
            .collect();

        let pool = SessionPool::new(db.as_ref(), cores);
        let wl = RefCell::new(w);

        let reg = registry();
        let requests_total = reg.counter("service_requests_total", &[]);
        let admitted_total = reg.counter("service_admitted_total", &[]);
        let shed_total = reg.counter("service_shed_total", &[]);
        let txns_total = reg.counter("service_txns_total", &[]);
        let commits_total = reg.counter("service_commits_total", &[]);
        let reopens_total = reg.counter("service_pool_reopens_total", &[]);
        let depth_gauges: Vec<_> = (0..cores)
            .map(|c| reg.gauge("service_queue_depth", &[("core", &c.to_string())]))
            .collect();

        let core_list: Vec<usize> = (0..cores).collect();
        let measurement = {
            let db = &*db;
            let pool = &pool;
            let wl = &wl;
            let stmt = cfg.stmt.as_str();
            let states = &states;
            let (batch, intake) = (cfg.batch, cfg.intake);
            let requests_total = &requests_total;
            let admitted_total = &admitted_total;
            let shed_total = &shed_total;
            let txns_total = &txns_total;
            let commits_total = &commits_total;
            let depth_gauges = &depth_gauges;
            measure_workers(&sim, &core_list, cfg.window, Pacing::Lockstep, |core| {
                let state = &states[core];
                let mem_parse = sim.mem(core).with_module(m_parse);
                let mem_dispatch = sim.mem(core).with_module(m_dispatch);
                let mem_respond = sim.mem(core).with_module(m_respond);
                move |_| {
                    // No sinks: only the profiler's span aggregates are
                    // needed.
                    obs::install_with(|| Tracer::new(mem_parse.sim()));
                    let st = &mut *state.borrow_mut();
                    let turn = st.turn;
                    st.turn += 1;

                    // Responses to deliver at the end of this turn, in
                    // per-connection pipeline order.
                    let mut outbox: Vec<(usize, Vec<Response>)> = Vec::new();
                    // Connections whose pipeline wants an execution, with
                    // the responses that precede the execution result.
                    let mut exec_wanted: Vec<(usize, Vec<Response>)> = Vec::new();

                    // ── Parse: poll connections, decode, validate ──
                    {
                        let _g = obs::span(SVC, Phase::Parse, core);
                        let conns_len = st.conns.len();
                        let mut polled = 0usize;
                        // Poll at least `intake` connections, then keep
                        // going while there is not yet a full batch of
                        // work, capped at one full lap of the ring.
                        while polled < conns_len
                            && (polled < intake || st.queue.depth() + exec_wanted.len() < batch)
                        {
                            let idx = st.rr;
                            st.rr = (st.rr + 1) % conns_len;
                            polled += 1;
                            mem_parse.exec(cost::POLL);
                            let Some(bytes) = st.conns[idx].take_output(turn, stmt) else {
                                continue;
                            };
                            // The server touches the request bytes in the
                            // connection's simulated buffer.
                            mem_parse.read(st.conns[idx].buf, bytes.len() as u32);
                            let mut replies: Vec<Response> = Vec::new();
                            let mut wants_exec = false;
                            let mut at = 0;
                            while at < bytes.len() {
                                let (frame, used) =
                                    Frame::decode(&bytes[at..]).expect("client sent a bad frame");
                                at += used;
                                mem_parse.exec(cost::PARSE_FRAME + used as u64 * cost::PARSE_BYTE);
                                requests_total.inc(core);
                                match Request::from_frame(frame) {
                                    Ok(Request::Startup { .. }) => replies.push(Response::Ready),
                                    Ok(Request::Parse { stmt: name }) => {
                                        if name == stmt {
                                            replies.push(Response::ParseComplete);
                                        } else {
                                            replies.push(Response::Error {
                                                error: oltp::OltpError::Unsupported(
                                                    "unknown prepared statement",
                                                ),
                                            });
                                        }
                                    }
                                    Ok(Request::Bind { .. }) => {
                                        replies.push(Response::BindComplete)
                                    }
                                    Ok(Request::Execute) => wants_exec = true,
                                    Ok(Request::Sync) => {
                                        if !wants_exec {
                                            replies.push(Response::Ready);
                                        }
                                        // With an execution pending, Ready
                                        // follows the execute result.
                                    }
                                    Ok(Request::Terminate) => {}
                                    Err(error) => replies.push(Response::Error { error }),
                                }
                            }
                            if wants_exec {
                                exec_wanted.push((idx, replies));
                            } else {
                                outbox.push((idx, replies));
                            }
                        }
                    }

                    // ── Dispatch: admission + pool checkout ──
                    let mut session = {
                        let _g = obs::span(SVC, Phase::Dispatch, core);
                        for (idx, mut replies) in exec_wanted {
                            mem_dispatch.exec(cost::ADMIT);
                            match st.queue.try_enqueue(Ticket { conn: idx }) {
                                Ok(()) => {
                                    admitted_total.inc(core);
                                    // Pre-execution acks go out now; the
                                    // result + Ready follow on the turn
                                    // the ticket executes.
                                    outbox.push((idx, replies));
                                }
                                Err(shed) => {
                                    shed_total.inc(core);
                                    replies.push(Response::Busy { depth: shed.depth });
                                    replies.push(Response::Ready);
                                    outbox.push((idx, replies));
                                }
                            }
                        }
                        depth_gauges[core].set(st.queue.depth() as u64);
                        mem_dispatch.exec(cost::CHECKOUT);
                        pool.try_checkout(db, core)
                    };

                    // ── Execute: coalesce up to `batch` admitted tickets
                    // on the pooled session ──
                    let mut ran = 0u32;
                    if let Some(sess) = session.as_mut() {
                        for _ in 0..batch {
                            let Some(ticket) = st.queue.pop() else { break };
                            let r = {
                                let _t = obs::span(engine, Phase::Txn, core);
                                wl.borrow_mut().exec(sess.session(), core)
                            };
                            ran += 1;
                            st.executed += 1;
                            txns_total.inc(core);
                            let mut replies = Vec::with_capacity(2);
                            match r {
                                Ok(()) => {
                                    st.committed += 1;
                                    commits_total.inc(core);
                                    replies.push(Response::Complete { rows: 1 });
                                }
                                Err(e) => {
                                    st.exec_errors += 1;
                                    if classify(&e) == ErrorClass::Reopen {
                                        // The session is wedged: park it
                                        // poisoned, never call into it again.
                                        sess.poison();
                                    } else {
                                        // The workload propagates errors with
                                        // the transaction still open.
                                        let _t = obs::span(engine, Phase::Txn, core);
                                        sess.session().abort();
                                    }
                                    replies.push(Response::Error { error: e });
                                }
                            }
                            replies.push(Response::Ready);
                            outbox.push((ticket.conn, replies));
                        }
                    }
                    drop(session);
                    st.executed_per_turn.push(ran);

                    // ── Respond: encode + deliver every reply ──
                    {
                        let _g = obs::span(SVC, Phase::Respond, core);
                        let mut buf = Vec::with_capacity(64);
                        for (idx, replies) in outbox {
                            if replies.is_empty() {
                                continue;
                            }
                            buf.clear();
                            for r in &replies {
                                let n = r.to_frame().encode(&mut buf);
                                mem_respond
                                    .exec(cost::RESPOND_FRAME + n as u64 * cost::RESPOND_BYTE);
                            }
                            mem_respond.write(st.conns[idx].buf, buf.len() as u32);
                            st.conns[idx].deliver(turn, &buf);
                        }
                    }
                }
            })
        };
        reopens_total.add(0, pool.stats().reopens);

        // Fold the per-core outcomes.
        let mut admitted = 0u64;
        let mut shed = 0u64;
        let mut queue_high_water = 0usize;
        let mut executed = 0u64;
        let mut committed = 0u64;
        let mut exec_errors = 0u64;
        let mut starved = 0u64;
        let mut conns_served = 0u64;
        let mut conns_committed = 0u64;
        let mut digest = Fnv::default().0;
        let measured_turns = (cfg.window.measured * cfg.window.reps.max(1) as u64) as usize;
        for state in &states {
            let st = state.borrow();
            admitted += st.queue.admitted();
            shed += st.queue.shed();
            queue_high_water = queue_high_water.max(st.queue.high_water());
            executed += st.executed;
            committed += st.committed;
            exec_errors += st.exec_errors;
            // Starvation only matters inside the measured window (the
            // ramp-up turns at the start of warmup legitimately run dry).
            let turns = st.executed_per_turn.len();
            starved += st.executed_per_turn[turns.saturating_sub(measured_turns)..]
                .iter()
                .filter(|&&n| (n as usize) < cfg.batch)
                .count() as u64;
            for c in &st.conns {
                if c.served() {
                    conns_served += 1;
                }
                if c.committed > 0 {
                    conns_committed += 1;
                }
                digest ^= c
                    .digest
                    .wrapping_mul(Fnv::PRIME)
                    .wrapping_add(c.committed << 1)
                    .wrapping_add(c.busy << 33)
                    .rotate_left((c.id % 63) as u32);
            }
        }

        let unattributed = measurement.phase_unattributed().instructions;
        let tps_served = measurement.tps * cfg.batch as f64;

        let direct = if cfg.compare_direct {
            Some(self.run_direct())
        } else {
            None
        };

        ServeReport {
            system: cfg.system,
            stmt: cfg.stmt.clone(),
            connections: cfg.connections,
            sessions: pool.sessions(),
            batch: cfg.batch,
            queue_cap: cfg.admission.queue_cap,
            measurement,
            tps_served,
            direct,
            admitted,
            shed,
            queue_high_water,
            pool: pool.stats(),
            executed,
            committed,
            exec_errors,
            starved_turns: starved,
            conns_served,
            conns_committed,
            digest,
            unattributed_instructions: unattributed,
        }
    }

    /// The matched baseline: same engine, same worker count, same window,
    /// one transaction per worker per turn driven straight on the
    /// sessions — the paper's deployment, no service path.
    fn run_direct(&self) -> Measurement {
        let cfg = &self.cfg;
        let cores = cfg.pool;
        let (sim, db, w) = self.load();
        let wl = RefCell::new(w);
        let core_list: Vec<usize> = (0..cores).collect();
        let db = &*db;
        let wl = &wl;
        measure_workers(&sim, &core_list, cfg.window, Pacing::Lockstep, |core| {
            let mut s = db.session(core);
            move |_| {
                wl.borrow_mut()
                    .exec(s.as_mut(), core)
                    .expect("direct transaction failed");
            }
        })
    }
}
