//! Pluggable consumers for closed span records.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::io::Write;
use std::rc::Rc;

use crate::json::Json;
use crate::{counts_json, stall_labels, SpanRecord};

/// A consumer of closed spans. Sinks run inside the tracer's borrow, so
/// they must not open spans themselves.
pub trait TraceSink {
    /// Called once per closed span, in close order.
    fn record(&mut self, rec: &SpanRecord);
    /// Called once when tracing ends; buffering sinks write output here.
    fn finish(&mut self) {}
}

/// Bounded in-memory buffer keeping the most recent spans. The handle is
/// cheaply cloneable: box one clone into the tracer, keep another to read
/// the records afterwards.
#[derive(Clone, Default)]
pub struct RingBufferSink {
    buf: Rc<RefCell<VecDeque<SpanRecord>>>,
    capacity: usize,
}

impl RingBufferSink {
    pub fn new(capacity: usize) -> Self {
        RingBufferSink {
            buf: Rc::new(RefCell::new(VecDeque::new())),
            capacity: capacity.max(1),
        }
    }

    /// Buffered records, oldest first.
    pub fn records(&self) -> Vec<SpanRecord> {
        self.buf.borrow().iter().cloned().collect()
    }

    pub fn len(&self) -> usize {
        self.buf.borrow().len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.borrow().is_empty()
    }
}

impl TraceSink for RingBufferSink {
    fn record(&mut self, rec: &SpanRecord) {
        let mut buf = self.buf.borrow_mut();
        if buf.len() == self.capacity {
            buf.pop_front();
        }
        buf.push_back(rec.clone());
    }
}

fn record_json(rec: &SpanRecord) -> Json {
    Json::obj(vec![
        ("engine", Json::str(rec.engine)),
        ("phase", Json::str(rec.phase.label())),
        ("core", Json::u64(rec.core as u64)),
        ("depth", Json::u64(rec.depth as u64)),
        ("seq", Json::u64(rec.seq)),
        ("start_cycles", Json::Num(rec.start_cycles)),
        ("end_cycles", Json::Num(rec.end_cycles)),
        ("incl", counts_json(&rec.incl)),
        ("self", counts_json(&rec.self_counts)),
    ])
}

/// Streams one JSON object per closed span to a writer (JSONL).
pub struct JsonlSink {
    out: Box<dyn Write>,
}

impl JsonlSink {
    pub fn new(out: Box<dyn Write>) -> Self {
        JsonlSink { out }
    }
}

impl TraceSink for JsonlSink {
    fn record(&mut self, rec: &SpanRecord) {
        let line = record_json(rec).render();
        let _ = writeln!(self.out, "{line}");
    }

    fn finish(&mut self) {
        let _ = self.out.flush();
    }
}

/// Chrome `trace_event` / Perfetto exporter. Spans become complete
/// (`"ph":"X"`) events on one track per simulated core; per-class stall
/// cycles become counter (`"ph":"C"`) tracks. Open the output at
/// ui.perfetto.dev or chrome://tracing.
pub struct PerfettoSink {
    out: Box<dyn Write>,
    clock_ghz: f64,
    /// (ts_us, seq, event) — buffered so the document can be emitted in
    /// non-decreasing timestamp order.
    events: Vec<(f64, u64, Json)>,
    /// Core -> engine that first opened a span on it, driving the
    /// Perfetto thread-name metadata (ui.perfetto.dev shows
    /// "VoltDB worker (core 1)" instead of a bare tid).
    cores_seen: Vec<(usize, &'static str)>,
}

impl PerfettoSink {
    pub fn new(out: Box<dyn Write>, clock_ghz: f64) -> Self {
        PerfettoSink {
            out,
            clock_ghz,
            events: Vec::new(),
            cores_seen: Vec::new(),
        }
    }

    fn us(&self, cycles: f64) -> f64 {
        // cycles / (GHz * 1000) = microseconds of simulated time.
        cycles / (self.clock_ghz * 1e3)
    }
}

impl TraceSink for PerfettoSink {
    fn record(&mut self, rec: &SpanRecord) {
        if !self.cores_seen.iter().any(|(c, _)| *c == rec.core) {
            self.cores_seen.push((rec.core, rec.engine));
        }
        let ts = self.us(rec.start_cycles);
        let dur = self.us(rec.end_cycles) - ts;
        let name = format!("{}:{}", rec.engine, rec.phase.label());
        let span_event = Json::obj(vec![
            ("name", Json::str(&name)),
            ("cat", Json::str("phase")),
            ("ph", Json::str("X")),
            ("ts", Json::Num(ts)),
            ("dur", Json::Num(dur)),
            ("pid", Json::u64(0)),
            ("tid", Json::u64(rec.core as u64)),
            (
                "args",
                Json::obj(vec![
                    ("instructions", Json::u64(rec.incl.instructions)),
                    ("self_instructions", Json::u64(rec.self_counts.instructions)),
                    ("loads", Json::u64(rec.incl.loads)),
                    ("stores", Json::u64(rec.incl.stores)),
                    (
                        "misses",
                        Json::Arr(rec.incl.misses.iter().map(|&m| Json::u64(m)).collect()),
                    ),
                ]),
            ),
        ]);
        self.events.push((ts, rec.seq, span_event));

        // Counter sample at span close: cumulative stall cycles per class.
        let end_ts = self.us(rec.end_cycles);
        let labels = stall_labels();
        let args: Vec<(String, Json)> = labels
            .iter()
            .zip(rec.end_stalls.iter())
            .map(|(l, &v)| (l.to_string(), Json::Num(v)))
            .collect();
        let counter_event = Json::obj(vec![
            ("name", Json::str(&format!("stall_cycles.core{}", rec.core))),
            ("ph", Json::str("C")),
            ("ts", Json::Num(end_ts)),
            ("pid", Json::u64(0)),
            ("tid", Json::u64(rec.core as u64)),
            ("args", Json::Obj(args)),
        ]);
        self.events.push((end_ts, rec.seq, counter_event));
    }

    fn finish(&mut self) {
        let mut events = std::mem::take(&mut self.events);
        events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

        let mut items: Vec<Json> = Vec::with_capacity(events.len() + self.cores_seen.len() + 1);
        items.push(Json::obj(vec![
            ("name", Json::str("process_name")),
            ("ph", Json::str("M")),
            ("pid", Json::u64(0)),
            ("args", Json::obj(vec![("name", Json::str("imoltp sim"))])),
        ]));
        let mut cores = std::mem::take(&mut self.cores_seen);
        cores.sort_unstable();
        for (core, engine) in cores {
            items.push(Json::obj(vec![
                ("name", Json::str("thread_name")),
                ("ph", Json::str("M")),
                ("pid", Json::u64(0)),
                ("tid", Json::u64(core as u64)),
                (
                    "args",
                    Json::obj(vec![(
                        "name",
                        Json::str(&format!("{engine} worker (core {core})")),
                    )]),
                ),
            ]));
        }
        items.extend(events.into_iter().map(|(_, _, e)| e));

        let doc = Json::obj(vec![
            ("traceEvents", Json::Arr(items)),
            ("displayTimeUnit", Json::str("ns")),
        ]);
        let _ = self.out.write_all(doc.render().as_bytes());
        let _ = self.out.flush();
    }
}

/// Unbounded thread-safe record buffer — the [`RingBufferSink`]'s `Send`
/// counterpart, used for per-worker tracers. Box one clone into the
/// worker's tracer, keep another in the harness, and drain the records
/// after the window.
#[derive(Clone, Default)]
pub struct VecSink {
    buf: std::sync::Arc<std::sync::Mutex<Vec<SpanRecord>>>,
}

impl VecSink {
    pub fn new() -> Self {
        Self::default()
    }

    /// Drain all records captured so far, in close order.
    pub fn take(&self) -> Vec<SpanRecord> {
        std::mem::take(&mut *self.buf.lock().unwrap())
    }

    pub fn len(&self) -> usize {
        self.buf.lock().unwrap().len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.lock().unwrap().is_empty()
    }
}

impl TraceSink for VecSink {
    fn record(&mut self, rec: &SpanRecord) {
        self.buf.lock().unwrap().push(rec.clone());
    }
}

/// An `io::Write` target backed by a shared byte buffer — lets callers
/// keep a handle to output a boxed sink writes (tests, post-run parsing).
#[derive(Clone, Default)]
pub struct SharedBuf {
    buf: Rc<RefCell<Vec<u8>>>,
}

impl SharedBuf {
    pub fn new() -> Self {
        Self::default()
    }

    /// The bytes written so far, as UTF-8.
    pub fn contents(&self) -> String {
        String::from_utf8_lossy(&self.buf.borrow()).into_owned()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.buf.borrow_mut().extend_from_slice(data);
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{install, json, span, uninstall, Phase, Tracer};
    use uarch_sim::config::MachineConfig;
    use uarch_sim::Sim;

    fn traced_run(sinks: Vec<Box<dyn TraceSink>>) -> Tracer {
        let sim = Sim::new(MachineConfig::ivy_bridge(1));
        let mem = sim.mem(0);
        let tracer = Tracer::new(&sim);
        for s in sinks {
            tracer.add_sink(s);
        }
        install(tracer.clone());
        for _ in 0..3 {
            let _t = span("X", Phase::Txn, 0);
            mem.exec(20);
            {
                let _i = span("X", Phase::Index, 0);
                mem.exec(10);
            }
        }
        uninstall();
        tracer.finish();
        tracer
    }

    #[test]
    fn ring_buffer_keeps_most_recent() {
        let ring = RingBufferSink::new(4);
        traced_run(vec![Box::new(ring.clone())]);
        // 6 spans closed, capacity 4: the first two were evicted.
        assert_eq!(ring.len(), 4);
        // Records arrive in close order (children close before parents),
        // so end_cycles is the monotone axis, not seq.
        let records = ring.records();
        assert!(records
            .windows(2)
            .all(|w| w[0].end_cycles <= w[1].end_cycles));
    }

    #[test]
    fn jsonl_lines_parse() {
        let buf = SharedBuf::new();
        traced_run(vec![Box::new(JsonlSink::new(Box::new(buf.clone())))]);
        let text = buf.contents();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 6);
        for line in lines {
            let v = json::parse(line).unwrap();
            assert!(v.get("engine").is_some());
            assert!(v
                .get("incl")
                .unwrap()
                .get("instructions")
                .unwrap()
                .as_f64()
                .is_some());
        }
    }

    #[test]
    fn perfetto_doc_is_valid_and_ordered() {
        let buf = SharedBuf::new();
        traced_run(vec![Box::new(PerfettoSink::new(
            Box::new(buf.clone()),
            2.0,
        ))]);
        let doc = json::parse(&buf.contents()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert!(!events.is_empty());
        // Thread metadata names the worker after its engine, not a bare
        // core number.
        assert!(events.iter().any(|e| {
            e.get("name").and_then(|n| n.as_str()) == Some("thread_name")
                && e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(|n| n.as_str())
                    == Some("X worker (core 0)")
        }));
        let mut last_ts = f64::NEG_INFINITY;
        for e in events {
            if let Some(ts) = e.get("ts").and_then(|t| t.as_f64()) {
                assert!(ts >= last_ts, "timestamps must be non-decreasing");
                last_ts = ts;
            }
        }
    }
}
