//! Timing wrappers installed around each layer's public seams (router
//! model, traffic model, storage policy) plus an in-memory span recorder
//! that is written out as Chrome trace-event JSON when the run ends.
//!
//! Nothing here reaches inside a crate: every number is taken at a call
//! the benchmark itself makes or at a trait the crates already expose.

use crate::report::json_str;
use noc_campaign::io::{IoFault, IoOp, IoPolicy};
use noc_core::flit::PacketDesc;
use noc_core::types::{Cycle, NodeId, NUM_LINK_PORTS};
use noc_sim::router::{RouterModel, StepCtx};
use noc_traffic::generator::{DeliveredPacket, TrafficModel};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Per-thread router-step totals. Each thread writes only its own tally,
/// so plain relaxed load/store pairs suffice (no read-modify-write); the
/// harness reads them between runs, after the stepping threads joined the
/// engine's barrier.
#[derive(Default)]
struct ThreadTally {
    step_ns: AtomicU64,
    steps: AtomicU64,
    /// Flits handed back by routers (link outputs + ejections + drops).
    flits: AtomicU64,
    link_sends: AtomicU64,
    ejections: AtomicU64,
}

fn bump(a: &AtomicU64, v: u64) {
    a.store(a.load(Ordering::Relaxed) + v, Ordering::Relaxed);
}

fn registry() -> &'static Mutex<Vec<Arc<ThreadTally>>> {
    static REG: OnceLock<Mutex<Vec<Arc<ThreadTally>>>> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static TALLY: Arc<ThreadTally> = {
        let t = Arc::new(ThreadTally::default());
        registry().lock().expect("tally registry poisoned").push(t.clone());
        t
    };
}

/// Router-step totals summed over threads, plus each thread's busy time.
#[derive(Debug, Default, Clone)]
pub struct RouterTotals {
    pub step_ns: u64,
    pub steps: u64,
    pub flits: u64,
    pub link_sends: u64,
    pub ejections: u64,
    /// Busy (router-step) ns of every thread that stepped a router.
    pub per_thread_ns: Vec<u64>,
}

impl RouterTotals {
    /// Read and zero every thread's tally. Call only while no network is
    /// stepping.
    pub fn take() -> RouterTotals {
        let reg = registry().lock().expect("tally registry poisoned");
        let mut t = RouterTotals::default();
        for th in reg.iter() {
            let ns = th.step_ns.swap(0, Ordering::Relaxed);
            t.step_ns += ns;
            t.steps += th.steps.swap(0, Ordering::Relaxed);
            t.flits += th.flits.swap(0, Ordering::Relaxed);
            t.link_sends += th.link_sends.swap(0, Ordering::Relaxed);
            t.ejections += th.ejections.swap(0, Ordering::Relaxed);
            if ns > 0 {
                t.per_thread_ns.push(ns);
            }
        }
        t
    }
}

/// A router wrapped so every `step` is timed and its outputs counted.
pub struct TimedRouter<R>(pub R);

impl<R: RouterModel> RouterModel for TimedRouter<R> {
    fn node(&self) -> NodeId {
        self.0.node()
    }

    fn step(&mut self, ctx: &mut StepCtx) {
        let t0 = Instant::now();
        self.0.step(ctx);
        let ns = t0.elapsed().as_nanos() as u64;
        let links = ctx.out_links.iter().flatten().count() as u64;
        let ejected = ctx.ejected.len() as u64;
        let flits = links + ejected + ctx.dropped.len() as u64;
        TALLY.with(|t| {
            bump(&t.step_ns, ns);
            bump(&t.steps, 1);
            bump(&t.flits, flits);
            bump(&t.link_sends, links);
            bump(&t.ejections, ejected);
        });
    }

    fn is_idle(&self) -> bool {
        self.0.is_idle()
    }

    fn occupancy(&self) -> usize {
        self.0.occupancy()
    }

    fn design_name(&self) -> &'static str {
        self.0.design_name()
    }

    fn set_faulty_links(&mut self, down: [bool; NUM_LINK_PORTS]) {
        self.0.set_faulty_links(down)
    }
}

/// A traffic model wrapped so `poll_into` is timed and its packets counted.
pub struct TimedTraffic<T> {
    pub inner: T,
    pub poll_ns: u64,
    pub polls: u64,
    pub packets: u64,
}

impl<T> TimedTraffic<T> {
    pub fn new(inner: T) -> TimedTraffic<T> {
        TimedTraffic {
            inner,
            poll_ns: 0,
            polls: 0,
            packets: 0,
        }
    }
}

impl<T: TrafficModel> TrafficModel for TimedTraffic<T> {
    fn poll(&mut self, cycle: Cycle) -> Vec<PacketDesc> {
        let mut out = Vec::new();
        self.poll_into(cycle, &mut out);
        out
    }

    fn poll_into(&mut self, cycle: Cycle, out: &mut Vec<PacketDesc>) {
        let before = out.len();
        let t0 = Instant::now();
        self.inner.poll_into(cycle, out);
        self.poll_ns += t0.elapsed().as_nanos() as u64;
        self.polls += 1;
        self.packets += (out.len() - before) as u64;
    }

    fn on_delivered(&mut self, delivered: &DeliveredPacket) {
        self.inner.on_delivered(delivered)
    }

    fn finished(&self) -> bool {
        self.inner.finished()
    }

    fn lossless(&self) -> bool {
        self.inner.lossless()
    }

    fn label(&self) -> String {
        self.inner.label()
    }
}

/// One completed storage operation seen by [`TimingIo`].
#[derive(Debug, Clone)]
pub struct IoRecord {
    pub op: IoOp,
    pub path: PathBuf,
    /// First attempt's `inject` to `on_success`.
    pub ns: u64,
    pub attempts: u32,
}

/// A fault-free storage policy that times every store from its first
/// attempt to its success. Stores run on the thread that started them, so
/// open operations are keyed by thread and path.
#[derive(Debug, Default)]
pub struct TimingIo {
    open: Mutex<HashMap<(std::thread::ThreadId, PathBuf), Instant>>,
    done: Mutex<Vec<IoRecord>>,
}

impl TimingIo {
    pub fn records(&self) -> Vec<IoRecord> {
        self.done.lock().expect("io records poisoned").clone()
    }
}

impl IoPolicy for TimingIo {
    fn inject(&self, _op: IoOp, path: &Path, attempt: u32) -> Option<IoFault> {
        if attempt == 1 {
            self.open.lock().expect("io timer poisoned").insert(
                (std::thread::current().id(), path.to_path_buf()),
                Instant::now(),
            );
        }
        None
    }

    fn on_success(&self, op: IoOp, path: &Path, attempt: u32) {
        let key = (std::thread::current().id(), path.to_path_buf());
        let Some(t0) = self.open.lock().expect("io timer poisoned").remove(&key) else {
            return;
        };
        let ns = t0.elapsed().as_nanos() as u64;
        self.done
            .lock()
            .expect("io records poisoned")
            .push(IoRecord {
                op,
                path: path.to_path_buf(),
                ns,
                attempts: attempt,
            });
        span_since(op.name(), "storage", t0);
    }
}

/// A finished span: one timed call at a layer boundary.
#[derive(Debug, Clone)]
struct Span {
    name: String,
    cat: &'static str,
    tid: u64,
    start_ns: u64,
    dur_ns: u64,
}

struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    tids: HashMap<std::thread::ThreadId, u64>,
}

fn spans() -> &'static Mutex<Spans> {
    static SPANS: OnceLock<Mutex<Spans>> = OnceLock::new();
    SPANS.get_or_init(|| {
        Mutex::new(Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
            tids: HashMap::new(),
        })
    })
}

static RECORDING: AtomicBool = AtomicBool::new(false);

/// Turn span recording on (traced runs only; timed runs keep it off).
pub fn record_spans() {
    spans();
    RECORDING.store(true, Ordering::Relaxed);
}

/// Record a span named `name` that started at `start` and ends now.
pub fn span_since(name: &str, cat: &'static str, start: Instant) {
    if !RECORDING.load(Ordering::Relaxed) {
        return;
    }
    let end = Instant::now();
    let mut s = spans().lock().expect("span store poisoned");
    let next = s.tids.len() as u64 + 1;
    let tid = *s.tids.entry(std::thread::current().id()).or_insert(next);
    let start_ns = start.saturating_duration_since(s.epoch).as_nanos() as u64;
    s.spans.push(Span {
        name: name.to_string(),
        cat,
        tid,
        start_ns,
        dur_ns: end.saturating_duration_since(start).as_nanos() as u64,
    });
}

/// Write every recorded span as Chrome trace-event JSON (complete `X`
/// events, microseconds), loadable in Perfetto or `chrome://tracing`.
/// Spans on one thread nest by time: a job encloses its HTTP calls.
pub fn write_chrome_trace(path: &Path) -> std::io::Result<()> {
    let s = spans().lock().expect("span store poisoned");
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (i, sp) in s.spans.iter().enumerate() {
        let _ = write!(
            out,
            "{}{{\"name\":{},\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3}}}",
            if i == 0 { "" } else { ",\n" },
            json_str(&sp.name),
            sp.cat,
            sp.tid,
            sp.start_ns as f64 / 1e3,
            sp.dur_ns as f64 / 1e3
        );
    }
    out.push_str("\n]}\n");
    std::fs::write(path, out)
}
