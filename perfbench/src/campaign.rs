//! The `campaign` workload: a frozen subset of the quick-window
//! `repro_all` spec, run cold into an empty cache and then replayed from
//! that cache, through `noc_campaign::run_campaign_with`.

use crate::calib;
use crate::probe::{span_since, IoRecord, TimingIo};
use crate::report::{percentile, Checks, Metric};
use dxbar_noc::RunResult;
use noc_campaign::io::{IoOp, IoPolicy};
use noc_campaign::{
    no_faults, render_table, run_campaign_with, run_point, CampaignReport, CampaignSpec,
    ExecOptions, PointSpec, ResultCache, Workload, CODE_VERSION,
};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The frozen spec, relative to the checkout root.
pub const SPEC_PATH: &str = "perfbench/campaign_spec.json";

/// Campaign worker threads (the host budget of two busy threads).
const JOBS: usize = 2;

/// Cached replays timed after each cold pass.
const REPLAYS_PER_COLD: usize = 8;

/// Read, re-seed and validate the frozen spec: every group's replicate
/// seed is derived from the run's seed.
pub fn load_spec(seed: u64) -> Result<CampaignSpec, String> {
    let text =
        std::fs::read_to_string(SPEC_PATH).map_err(|e| format!("cannot read {SPEC_PATH}: {e}"))?;
    let mut spec = CampaignSpec::from_json(&text)?;
    for g in &mut spec.groups {
        g.seeds = vec![crate::mix(seed, 0xCA4A)];
    }
    spec.validate()?;
    Ok(spec)
}

fn options(cache: &Path, io: Arc<dyn IoPolicy>) -> ExecOptions {
    ExecOptions {
        cache_dir: Some(cache.to_path_buf()),
        jobs: Some(JOBS),
        code_salt: CODE_VERSION.to_string(),
        progress: false,
        verify: false,
        cooperative: false,
        io_policy: io,
    }
}

/// Router-steps one simulated point cost: nodes x simulated cycles.
pub fn point_steps(p: &PointSpec, r: &RunResult) -> f64 {
    let cycles = match p.workload {
        Workload::Splash { max_cycles, .. } => r.finish_cycle.unwrap_or(max_cycles),
        _ => p.config.total_cycles(),
    };
    (p.config.num_nodes() as u64 * cycles) as f64
}

fn simulated_steps(report: &CampaignReport) -> f64 {
    report
        .outcomes
        .iter()
        .filter(|o| !o.cache_hit && !o.deduped)
        .filter_map(|o| o.result().map(|r| point_steps(&o.point, r)))
        .sum()
}

fn check_cold(report: &CampaignReport, checks: &mut Checks) {
    checks.check(
        report.failed_count() == 0 && report.quarantined().is_empty(),
        || {
            format!(
                "campaign cold pass: {} failed point(s)",
                report.failed_count()
            )
        },
    );
    checks.check(report.cache_hits() == 0, || {
        format!(
            "campaign cold pass: {} cache hit(s) in an empty cache",
            report.cache_hits()
        )
    });
}

fn check_replay(cold_table: &str, replay: &CampaignReport, checks: &mut Checks) {
    checks.check(
        replay.failed_count() == 0 && replay.cache_misses() == 0,
        || {
            format!(
                "campaign replay: {} miss(es), {} failure(s)",
                replay.cache_misses(),
                replay.failed_count()
            )
        },
    );
    checks.check(render_table(&replay.aggregates()) == cold_table, || {
        "campaign replay: aggregate table differs from the cold pass".into()
    });
}

fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("cannot clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))
}

/// Timed run: set-up (spec load + cache open), then cold passes each
/// followed by cached replays until `seconds` have passed.
pub fn run(
    seed: u64,
    seconds: f64,
    work: &Path,
    checks: &mut Checks,
) -> Result<(Vec<Metric>, Vec<Metric>), String> {
    let cache = work.join("campaign-cache");
    let mut setup = Vec::new();
    let mut spec = None;
    for _ in 0..50 {
        fresh_dir(&cache)?;
        let (dt, loaded) = calib::best_of(|| {
            let s = load_spec(seed)?;
            ResultCache::open(&cache, CODE_VERSION)
                .map_err(|e| format!("cannot open cache {}: {e}", cache.display()))?;
            Ok::<_, String>(s)
        });
        setup.push(dt);
        spec = Some(loaded?);
    }
    let spec = spec.expect("set-up ran");

    let (mut rates, mut cold_s, mut cached_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut raw_cold_s, mut raw_cached_s, mut steps) = (Vec::new(), Vec::new(), 0.0);
    // Each point calibrates on the worker thread that runs it; a cold pass
    // is scaled by the time-weighted mean speed of its points.
    let points = Mutex::new((0.0, 0.0));
    let runner = |p: &PointSpec| {
        let speed = calib::speed();
        let t0 = Instant::now();
        let r = run_point(p);
        let dt = t0.elapsed().as_secs_f64();
        let mut acc = points.lock().expect("point timer poisoned");
        acc.0 += dt;
        acc.1 += dt * speed;
        r
    };
    let budget = Instant::now();
    while rates.is_empty() || budget.elapsed().as_secs_f64() < seconds {
        fresh_dir(&cache)?;
        let opts = options(&cache, no_faults());
        *points.lock().expect("point timer poisoned") = (0.0, 0.0);
        let t0 = Instant::now();
        let cold = run_campaign_with(&spec, &opts, &runner)?;
        let dt = t0.elapsed().as_secs_f64();
        check_cold(&cold, checks);
        let (raw, scaled) = *points.lock().expect("point timer poisoned");
        let scaled_dt = dt * scaled / raw;
        let simulated = simulated_steps(&cold);
        steps += simulated;
        rates.push(simulated / scaled_dt);
        cold_s.push(scaled_dt);
        raw_cold_s.push(dt);
        let table = render_table(&cold.aggregates());
        for _ in 0..REPLAYS_PER_COLD {
            let speed = calib::speed_of_two();
            let t0 = Instant::now();
            let replay = run_campaign_with(&spec, &opts, &run_point)?;
            let dt = t0.elapsed().as_secs_f64();
            cached_ms.push(dt * speed * 1e3);
            raw_cached_s.push(dt);
            check_replay(&table, &replay, checks);
        }
    }
    let _ = std::fs::remove_dir_all(&cache);
    Ok((
        vec![
            Metric::median("setup_s", "s", &setup),
            Metric::with_value(
                "router_steps_per_s",
                "1/s",
                steps / cold_s.iter().sum::<f64>(),
                &rates,
            ),
            Metric::median("op_p50_ms", "ms", &cached_ms),
        ],
        vec![
            Metric::median("campaign_cold_s", "s", &cold_s),
            Metric::median("campaign_cold_s_raw", "s", &raw_cold_s),
            Metric::median("campaign_cached_s_raw", "s", &raw_cached_s),
        ],
    ))
}

fn ms_of(records: &[IoRecord], op: IoOp) -> Vec<f64> {
    records
        .iter()
        .filter(|r| r.op == op)
        .map(|r| r.ns as f64 / 1e6)
        .collect()
}

/// Traced run: one cold pass with the point runner and the storage policy
/// timed, then every cache record loaded through `ResultCache::load`, then
/// one replay to confirm the tables still match.
pub fn trace(seed: u64, work: &Path, checks: &mut Checks) -> Result<Vec<Metric>, String> {
    let cache: PathBuf = work.join("campaign-trace-cache");
    fresh_dir(&cache)?;
    let spec = load_spec(seed)?;
    let io = Arc::new(TimingIo::default());
    let opts = options(&cache, io.clone());
    let point_ms = Mutex::new(Vec::new());
    let runner = |p: &PointSpec| {
        let t0 = Instant::now();
        let r = run_point(p);
        point_ms
            .lock()
            .expect("point timer poisoned")
            .push(t0.elapsed().as_secs_f64() * 1e3);
        span_since(&p.describe(), "campaign-point", t0);
        r
    };
    let t0 = Instant::now();
    let cold = run_campaign_with(&spec, &opts, &runner)?;
    let cold_ms = t0.elapsed().as_secs_f64() * 1e3;
    span_since("campaign cold pass", "campaign", t0);
    check_cold(&cold, checks);
    let table = render_table(&cold.aggregates());
    let point_ms = point_ms.lock().expect("point timer poisoned").clone();

    let records = io.records();
    let stores = ms_of(&records, IoOp::CacheStore);
    let retries: u32 = records.iter().map(|r| r.attempts - 1).sum();
    let sizes: Vec<f64> = records
        .iter()
        .filter(|r| r.op == IoOp::CacheStore)
        .filter_map(|r| std::fs::metadata(&r.path).ok())
        .map(|m| m.len() as f64 / 1024.0)
        .collect();

    let reader = ResultCache::open(&cache, opts.cache_salt())
        .map_err(|e| format!("cannot open cache {}: {e}", cache.display()))?;
    let mut hit_ms = Vec::new();
    for o in cold.outcomes.iter().filter(|o| !o.deduped) {
        let t0 = Instant::now();
        let hit = reader.load(&o.point);
        hit_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        span_since("cache load", "storage", t0);
        checks.check(hit.is_some(), || {
            format!("cache record missing after store: {}", o.point.describe())
        });
    }
    let t0 = Instant::now();
    let replay = run_campaign_with(&spec, &opts, &runner)?;
    span_since("campaign cached replay", "campaign", t0);
    check_replay(&table, &replay, checks);
    let _ = std::fs::remove_dir_all(&cache);

    let busy: f64 = point_ms.iter().sum();
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    Ok(vec![
        Metric::single("campaign.points_total", "count", spec.points().len() as f64),
        Metric::single(
            "campaign.points_simulated",
            "count",
            cold.cache_misses() as f64,
        ),
        Metric::median("campaign.point_ms_p50", "ms", &point_ms),
        Metric::with_value(
            "campaign.point_ms_p90",
            "ms",
            percentile(&point_ms, 0.9),
            &point_ms,
        ),
        Metric::single(
            "campaign.worker_busy_ratio",
            "ratio",
            busy / (JOBS as f64 * cold_ms),
        ),
        Metric::median("cache.store_ms_p50", "ms", &stores),
        Metric::single("cache.store_ops", "count", stores.len() as f64),
        Metric::single("cache.store_retries", "count", f64::from(retries)),
        Metric::with_value("cache.record_kb_mean", "KB", mean(&sizes), &sizes),
        Metric::with_value("cache.hit_ms_mean", "ms", mean(&hit_ms), &hit_ms),
    ])
}
