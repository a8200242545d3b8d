//! The `service` workload: an in-process daemon on loopback and one
//! closed-loop HTTP client on one keep-alive connection. The client submits
//! small verified jobs with distinct seeds, polls each to `done`, then
//! resubmits them as cache replays.

use crate::calib;
use crate::probe::{span_since, TimingIo};
use crate::report::{percentile, summarize, Checks, Metric};
use dxbar_noc::noc_traffic::patterns::Pattern;
use dxbar_noc::{Design, SimConfig};
use noc_campaign::io::{IoFault, IoOp, IoPolicy};
use noc_campaign::{run_point, run_point_verified, CampaignSpec, PointGroup, WorkloadAxis};
use noc_daemon::{Daemon, DaemonConfig, DaemonHandle};
use serde::Value;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// Daemon worker threads.
const WORKERS: usize = 2;

/// Daemon starts timed for `setup_s`.
const SETUP_STARTS: usize = 15;

/// Pause between status polls, so the client does not spin on the
/// daemon's state lock.
const POLL_GAP: Duration = Duration::from_millis(1);

/// Largest response the client accepts.
const MAX_BODY: usize = 16 << 20;

/// One HTTP/1.1 client connection (keep-alive, Content-Length framing).
struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Client {
            stream,
            buf: Vec::new(),
        })
    }

    /// Send one request and read its response: `(status, body)`.
    fn request(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<(u16, String)> {
        let req = format!(
            "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.stream.write_all(req.as_bytes())?;
        let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string());
        let head_end = loop {
            if let Some(i) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break i + 4;
            }
            self.fill()?;
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let len: usize = head
            .lines()
            .find_map(|l| {
                let (k, v) = l.split_once(':')?;
                k.eq_ignore_ascii_case("content-length")
                    .then(|| v.trim().parse().ok())?
            })
            .ok_or_else(|| bad("response without Content-Length"))?;
        if len > MAX_BODY {
            return Err(bad("response body too large"));
        }
        while self.buf.len() < head_end + len {
            self.fill()?;
        }
        let body = String::from_utf8_lossy(&self.buf[head_end..head_end + len]).into_owned();
        self.buf.drain(..head_end + len);
        Ok((status, body))
    }

    fn fill(&mut self) -> std::io::Result<()> {
        let mut chunk = [0u8; 8192];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }
}

/// The `i`-th job: one verified point on the 8x8 mesh, designs in
/// rotation, a distinct seed per job.
fn job_spec(seed: u64, i: usize) -> CampaignSpec {
    CampaignSpec::new(format!("perfbench-job-{i}")).with_group(PointGroup {
        label: "service".into(),
        config: SimConfig {
            warmup_cycles: 100,
            measure_cycles: 400,
            drain_cycles: 100,
            ..SimConfig::default()
        },
        designs: vec![Design::ALL[i % Design::ALL.len()]],
        workload: WorkloadAxis::Synthetic {
            patterns: vec![Pattern::UniformRandom],
            loads: vec![0.3],
        },
        fault_fractions: vec![],
        transient_rates: vec![],
        link_faults: vec![],
        seeds: vec![crate::mix(seed, 0x5E4 + i as u64)],
        tag: None,
    })
}

fn daemon_config(dir: &Path, io: Arc<dyn IoPolicy>) -> DaemonConfig {
    DaemonConfig {
        addr: "127.0.0.1:0".into(),
        state_dir: dir.join("state"),
        cache_dir: dir.join("cache"),
        workers: WORKERS,
        verify_default: true,
        io_policy: io,
        ..DaemonConfig::default()
    }
}

fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("cannot clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))
}

fn stop(handle: DaemonHandle) {
    handle.begin_drain();
    handle.wait();
}

/// Start a daemon in a fresh directory and wait until `/healthz` answers.
fn start(dir: &Path, io: Arc<dyn IoPolicy>) -> Result<(DaemonHandle, f64), String> {
    fresh_dir(dir)?;
    let t0 = Instant::now();
    let handle = Daemon::start(daemon_config(dir, io)).map_err(|e| format!("daemon start: {e}"))?;
    let mut c = Client::connect(handle.addr).map_err(|e| format!("connect: {e}"))?;
    let (status, _) = c
        .request("GET", "/healthz", "")
        .map_err(|e| format!("healthz: {e}"))?;
    let dt = t0.elapsed().as_secs_f64();
    if status != 200 {
        return Err(format!("healthz answered {status}"));
    }
    Ok((handle, dt))
}

/// Timings of one job, submit to `done`.
struct JobRun {
    id: u64,
    latency_s: f64,
    post_ms: f64,
    get_ms: Vec<f64>,
    run_ms: f64,
    simulated: u64,
}

/// Submit `spec` and poll it to a terminal state. Every HTTP status must
/// be 2xx and the job must end `done` with no failed point and no oracle
/// violation.
fn submit_and_wait(
    c: &mut Client,
    spec: &CampaignSpec,
    checks: &mut Checks,
) -> Result<JobRun, String> {
    let body = format!(
        "{{\"spec\":{},\"verify\":true,\"priority\":\"interactive\"}}",
        spec.to_json()
    );
    let t0 = Instant::now();
    let (status, text) = c
        .request("POST", "/jobs", &body)
        .map_err(|e| format!("POST /jobs: {e}"))?;
    let post_ms = t0.elapsed().as_secs_f64() * 1e3;
    span_since("POST /jobs", "http", t0);
    checks.check((200..300).contains(&status), || {
        format!("POST /jobs answered {status}: {text}")
    });
    let id = serde_json::parse(&text)
        .ok()
        .and_then(|v| v.field("job").as_u64())
        .ok_or_else(|| format!("POST /jobs: no job id in {text}"))?;
    let path = format!("/jobs/{id}");
    let mut get_ms = Vec::new();
    let status_v: Value = loop {
        let g0 = Instant::now();
        let (status, text) = c
            .request("GET", &path, "")
            .map_err(|e| format!("GET {path}: {e}"))?;
        get_ms.push(g0.elapsed().as_secs_f64() * 1e3);
        span_since("GET /jobs/<id>", "http", g0);
        checks.check((200..300).contains(&status), || {
            format!("GET {path} answered {status}")
        });
        let v = serde_json::parse(&text).map_err(|e| format!("GET {path}: {e}"))?;
        match v.field("state").as_str() {
            Some("queued") | Some("running") => std::thread::sleep(POLL_GAP),
            _ => break v,
        }
    };
    let latency_s = t0.elapsed().as_secs_f64();
    span_since(&format!("job {id}"), "job", t0);
    let summary = status_v.field("summary");
    let state = status_v.field("state").as_str().unwrap_or("?").to_string();
    let violations = summary.field("violations").as_u64().unwrap_or(u64::MAX);
    let failed = summary.field("failed").as_u64().unwrap_or(u64::MAX);
    checks.check(state == "done" && violations == 0 && failed == 0, || {
        format!("job {id}: state {state}, {violations} violation(s), {failed} failed point(s)")
    });
    Ok(JobRun {
        id,
        latency_s,
        post_ms,
        get_ms,
        run_ms: summary.field("wall_ms").as_u64().unwrap_or(0) as f64,
        simulated: summary.field("simulated").as_u64().unwrap_or(0),
    })
}

/// A fault-free storage policy that times each simulated point on the
/// daemon worker that runs it, the only hook the daemon offers into its
/// workers: the point's claim, taken right before the run, calibrates that
/// thread and starts the clock, and the point's cache store right after
/// the run stops it. Calibrating the client instead misjudges the worker,
/// which may sit on the other, differently loaded vCPU.
#[derive(Debug, Default)]
struct WorkerClock {
    open: Mutex<HashMap<ThreadId, (Instant, f64)>>,
    /// `(run seconds, worker speed)` per point, in completion order.
    done: Mutex<Vec<(f64, f64)>>,
}

impl WorkerClock {
    fn take(&self) -> Vec<(f64, f64)> {
        std::mem::take(&mut *self.done.lock().expect("worker clock poisoned"))
    }
}

impl IoPolicy for WorkerClock {
    fn inject(&self, op: IoOp, _path: &Path, attempt: u32) -> Option<IoFault> {
        let me = std::thread::current().id();
        match op {
            IoOp::Claim => {
                let speed = calib::speed();
                self.open
                    .lock()
                    .expect("worker clock poisoned")
                    .insert(me, (Instant::now(), speed));
            }
            IoOp::CacheStore if attempt == 1 => {
                let started = self.open.lock().expect("worker clock poisoned").remove(&me);
                if let Some((t0, speed)) = started {
                    self.done
                        .lock()
                        .expect("worker clock poisoned")
                        .push((t0.elapsed().as_secs_f64(), speed));
                }
            }
            _ => {}
        }
        None
    }
}

/// Router-steps of one job's point.
fn job_steps(spec: &CampaignSpec) -> f64 {
    let cfg = &spec.groups[0].config;
    (cfg.num_nodes() as u64 * cfg.total_cycles()) as f64
}

/// What one closed-loop session produced.
struct Session {
    cold: Vec<JobRun>,
    replays: Vec<JobRun>,
    specs: Vec<CampaignSpec>,
}

/// `jobs` cold jobs, then a replay of each.
fn drive(
    handle: &DaemonHandle,
    seed: u64,
    jobs: usize,
    checks: &mut Checks,
) -> Result<Session, String> {
    let mut c = Client::connect(handle.addr).map_err(|e| format!("connect: {e}"))?;
    let (mut cold, mut replays) = (Vec::new(), Vec::new());
    let specs: Vec<CampaignSpec> = (0..jobs).map(|i| job_spec(seed, i)).collect();
    for spec in &specs {
        let run = submit_and_wait(&mut c, spec, checks)?;
        checks.check(run.simulated == 1, || {
            format!(
                "cold job {}: simulated {} point(s), expected 1",
                run.id, run.simulated
            )
        });
        cold.push(run);
    }
    for (spec, first) in specs.iter().zip(&cold) {
        let run = submit_and_wait(&mut c, spec, checks)?;
        let state = handle.state();
        let replayed = state.job_results(run.id).ok();
        let same = replayed.is_some() && replayed == state.job_results(first.id).ok();
        checks.check(run.simulated == 0 && same, || {
            format!(
                "replay job {}: simulated {} point(s) or results differ from job {}",
                run.id, run.simulated, first.id
            )
        });
        replays.push(run);
    }
    Ok(Session {
        cold,
        replays,
        specs,
    })
}

/// One rotation over the designs at each design's median point run, from
/// per-job run times (job `i` runs design `i % designs`). A run can lose a
/// time slice to another tenant; the medians drop such runs, and every
/// design weighs the same.
fn median_rotation(run_s: &[f64]) -> f64 {
    let designs = Design::ALL.len();
    (0..designs)
        .map(|d| {
            let runs: Vec<f64> = run_s.iter().skip(d).step_by(designs).copied().collect();
            summarize(&runs).median
        })
        .sum()
}

/// Cold jobs per timed run: whole rotations over the designs, about one
/// rotation per two seconds asked for, so the arguments alone fix the work
/// (job latency is bounded below by HTTP round trips; see README).
fn jobs_for(seconds: f64) -> usize {
    Design::ALL.len() * ((seconds / 2.0).round() as usize).max(1)
}

/// Timed run.
pub fn run(
    seed: u64,
    seconds: f64,
    work: &Path,
    checks: &mut Checks,
) -> Result<(Vec<Metric>, Vec<Metric>), String> {
    let dir: PathBuf = work.join("service");
    let clock = Arc::new(WorkerClock::default());
    let mut setup = Vec::new();
    let mut handle = None;
    for _ in 0..SETUP_STARTS {
        if let Some(h) = handle.take() {
            stop(h);
        }
        let (h, dt) = start(&dir, clock.clone())?;
        setup.push(dt);
        handle = Some(h);
    }
    let handle = handle.expect("set-up ran");
    let result = drive(&handle, seed, jobs_for(seconds), checks);
    stop(handle);
    let _ = std::fs::remove_dir_all(&dir);
    let Session {
        cold,
        replays,
        specs,
    } = result?;

    // Job latency moves in whole HTTP round trips (see README), so the
    // simulation rate is taken over each point's run on its worker, scaled
    // to the reference host like every CPU-bound timing. Jobs run one at a
    // time, so the clock's points are the cold jobs in order.
    let points = clock.take();
    if points.len() != cold.len() {
        return Err(format!(
            "the daemon timed {} point run(s) for {} cold jobs: it no longer claims and stores each point through its IoPolicy",
            points.len(),
            cold.len()
        ));
    }
    let raw_s: Vec<f64> = points.iter().map(|&(t, _)| t).collect();
    let run_s: Vec<f64> = points.iter().map(|(t, speed)| t * speed).collect();
    let rates: Vec<f64> = specs
        .iter()
        .zip(&run_s)
        .map(|(s, t)| job_steps(s) / t)
        .collect();
    let steps = job_steps(&specs[0]) * Design::ALL.len() as f64;
    let rate = steps / median_rotation(&run_s);
    let raw_rate = steps / median_rotation(&raw_s);
    let latency: Vec<f64> = cold.iter().map(|r| r.latency_s).collect();
    let replay_ms: Vec<f64> = replays.iter().map(|r| r.latency_s * 1e3).collect();
    let replay_s: Vec<f64> = replays.iter().map(|r| r.latency_s).collect();
    Ok((
        vec![
            Metric::median("setup_s", "s", &setup),
            Metric::with_value("router_steps_per_s", "1/s", rate, &rates),
            Metric::median("op_p50_ms", "ms", &replay_ms),
        ],
        vec![
            Metric::median("job_p50_s", "s", &latency),
            Metric::with_value("job_p90_s", "s", percentile(&latency, 0.9), &latency),
            Metric::median("replay_p50_s", "s", &replay_s),
            Metric::single("router_steps_per_s_raw", "1/s", raw_rate),
        ],
    ))
}

/// Traced run: `/healthz` probes on an idle daemon, a fixed number of
/// jobs and replays with every HTTP call timed, the journal's stores timed
/// through the storage policy, and the oracle overhead measured directly
/// on the same point set.
pub fn trace(
    seed: u64,
    jobs: usize,
    work: &Path,
    checks: &mut Checks,
) -> Result<Vec<Metric>, String> {
    let dir: PathBuf = work.join("service-trace");
    let io = Arc::new(TimingIo::default());
    let (handle, _) = start(&dir, io.clone())?;
    let mut healthz = Vec::new();
    let probe = (|| -> Result<(), String> {
        let mut c = Client::connect(handle.addr).map_err(|e| format!("connect: {e}"))?;
        for _ in 0..20 {
            let t0 = Instant::now();
            let (status, _) = c
                .request("GET", "/healthz", "")
                .map_err(|e| format!("healthz: {e}"))?;
            healthz.push(t0.elapsed().as_secs_f64() * 1e3);
            span_since("GET /healthz", "http", t0);
            checks.check(status == 200, || format!("GET /healthz answered {status}"));
        }
        Ok(())
    })();
    let result = probe.and_then(|_| drive(&handle, seed, jobs, checks));
    stop(handle);
    let journal_bytes =
        std::fs::metadata(dir.join("state").join("journal.json")).map_or(0.0, |m| m.len() as f64);
    let _ = std::fs::remove_dir_all(&dir);
    let Session { cold, specs, .. } = result?;

    let post: Vec<f64> = cold.iter().map(|r| r.post_ms).collect();
    let gets: Vec<f64> = cold.iter().flat_map(|r| r.get_ms.iter().copied()).collect();
    let run_ms: Vec<f64> = cold.iter().map(|r| r.run_ms).collect();
    let wait_ms: Vec<f64> = cold
        .iter()
        .map(|r| (r.latency_s * 1e3 - r.post_ms - r.run_ms).max(0.0))
        .collect();
    let polls = gets.len() as f64 / cold.len() as f64;
    let journal: Vec<f64> = io
        .records()
        .iter()
        .filter(|r| r.op == IoOp::JournalStore)
        .map(|r| r.ns as f64 / 1e6)
        .collect();

    // Oracle overhead on the service point set: the same points, plain
    // and verified, timed in this thread.
    let (mut plain_s, mut verified_s, mut violations) = (0.0, 0.0, 0u64);
    for spec in specs.iter().take(Design::ALL.len()) {
        for p in spec.points() {
            let t0 = Instant::now();
            let plain = run_point(&p);
            plain_s += t0.elapsed().as_secs_f64();
            span_since("run_point", "verify", t0);
            let t0 = Instant::now();
            let (verified, v) = run_point_verified(&p);
            verified_s += t0.elapsed().as_secs_f64();
            span_since("run_point_verified", "verify", t0);
            violations += v.violations;
            checks.check(
                serde_json::to_string(&plain).ok() == serde_json::to_string(&verified).ok(),
                || format!("verified run changed the result of {}", p.describe()),
            );
        }
    }
    checks.check(violations == 0, || {
        format!("{violations} oracle violation(s)")
    });

    Ok(vec![
        Metric::median("http.healthz_ms_p50", "ms", &healthz),
        Metric::median("http.post_jobs_ms_p50", "ms", &post),
        Metric::with_value("http.post_jobs_ms_p90", "ms", percentile(&post, 0.9), &post),
        Metric::median("http.get_job_ms_p50", "ms", &gets),
        Metric::with_value("http.get_job_ms_p90", "ms", percentile(&gets, 0.9), &gets),
        Metric::median("daemon.queue_wait_ms_p50", "ms", &wait_ms),
        Metric::median("daemon.run_ms_p50", "ms", &run_ms),
        Metric::single("daemon.polls_per_job", "count", polls),
        Metric::median("journal.store_ms_p50", "ms", &journal),
        Metric::single("journal.bytes_final", "bytes", journal_bytes),
        Metric::single("verify.overhead_ratio", "ratio", verified_s / plain_s),
        Metric::single("verify.violations", "count", violations as f64),
    ])
}
