//! mega_mesh: weak-scaling benchmark of the tile-parallel stepping engine.
//!
//! For each mesh size (default 32x32, 64x64, 128x128) and each tile-worker
//! count (sequential baseline plus {1, 2, 4, 8}), drives a fixed
//! uniform-random workload straight through the cycle kernel and reports
//! wall-clock cycles/sec. Every row also carries a fingerprint of the
//! network's event counters; rows of the same (design, size) cell must
//! agree — the benchmark double-checks the engine's bit-identity contract
//! while measuring it, and exits 1 if any worker count simulated different
//! traffic.
//!
//! The second section re-times the separable allocator designs
//! (unified-dor / unified-wf, with dxbar-dor as the reference point) on
//! the perf_gate workload, so the artifact records the allocator
//! flattening's before/after pair: pass the pre-change report via
//! `--allocator-baseline` to copy its numbers into
//! `baseline_cycles_per_sec`.
//!
//! ```text
//! mega_mesh [options]
//!
//!   --out FILE                 JSON report path (default BENCH_6.json)
//!   --design KEY               design for the scaling sweep (default
//!                              scarab; repeatable)
//!   --sizes LIST               comma-separated mesh edges (default
//!                              32,64,128; DXBAR_QUICK=1 default 16,32)
//!   --workers LIST             tile-worker counts (default 0,1,2,4,8;
//!                              0 = sequential engine)
//!   --cycles N                 measured cycles per run (default 2000;
//!                              DXBAR_QUICK=1 drops to 500)
//!   --allocator-baseline FILE  BENCH_5/BENCH_6-style report whose
//!                              cycles/sec become the allocator section's
//!                              baselines
//! ```
//!
//! The report's `host_cores` field records how much parallelism the
//! machine actually had — speedups are only meaningful relative to it
//! (a single-core host runs every worker count at sequential speed minus
//! coordination overhead). See EXPERIMENTS.md for the regeneration
//! recipe on a multicore host.

use bench::perf::{self, design_for_key, key_of, Workload};
use dxbar_noc::noc_topology::Mesh;
use dxbar_noc::noc_traffic::generator::SyntheticTraffic;
use dxbar_noc::noc_traffic::patterns::Pattern;
use dxbar_noc::{Design, SimConfig};
use noc_faults::FaultPlan;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::process::exit;
use std::time::Instant;

/// One (design, mesh size, worker count) timing row.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ScalingRow {
    design: String,
    width: u16,
    height: u16,
    /// Tile workers; 0 is the single inline tile.
    tile_workers: usize,
    cycles: u64,
    elapsed_s: f64,
    cycles_per_sec: f64,
    /// Speedup over this (design, size) cell's sequential row.
    speedup_vs_sequential: f64,
    flits_delivered: u64,
    /// FNV-1a over the serialized event counters; equal across worker
    /// counts iff the engine kept its bit-identity contract.
    stats_fingerprint: String,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct MegaMeshReport {
    /// PR number that introduced the artifact schema.
    bench: u32,
    /// `available_parallelism` of the machine that produced the numbers.
    host_cores: usize,
    load: f64,
    weak_scaling: Vec<ScalingRow>,
    /// Allocator before/after on the perf_gate workload (8x8, 40k cycles).
    allocator: Vec<perf::PerfResult>,
    allocator_workload: Workload,
    peak_rss_kb: u64,
}

fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!(
        "usage: mega_mesh [--out FILE] [--design KEY] [--sizes LIST] [--workers LIST] \
         [--cycles N] [--allocator-baseline FILE]"
    );
    exit(2);
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Time one run; returns the row minus the speedup (filled in later).
fn measure(design: Design, edge: u16, workers: usize, cycles: u64, load: f64) -> ScalingRow {
    let cfg = SimConfig {
        width: edge,
        height: edge,
        warmup_cycles: 0,
        measure_cycles: cycles,
        drain_cycles: 0,
        ..SimConfig::default()
    };
    let mesh = Mesh::new(cfg.width, cfg.height);
    let mut net = design.build(&cfg, &FaultPlan::none(&mesh));
    net.set_tile_threads(workers);
    let mut model = SyntheticTraffic::new(
        Pattern::UniformRandom,
        mesh,
        cfg.injection_rate(load),
        cfg.packet_len,
        cfg.seed,
    );
    let start = Instant::now();
    net.run_cycles(&mut model, cycles);
    let elapsed_s = start.elapsed().as_secs_f64();
    let stats = serde_json::to_string(net.stats()).expect("serialize stats");
    ScalingRow {
        design: key_of(design).to_string(),
        width: edge,
        height: edge,
        tile_workers: workers,
        cycles,
        elapsed_s,
        cycles_per_sec: cycles as f64 / elapsed_s.max(1e-9),
        speedup_vs_sequential: 0.0,
        flits_delivered: net.stats().events.ejections,
        stats_fingerprint: format!("{:016x}", fnv1a(stats.as_bytes())),
    }
}

struct Args {
    out: PathBuf,
    designs: Vec<Design>,
    sizes: Vec<u16>,
    workers: Vec<usize>,
    cycles: u64,
    allocator_baseline: Option<PathBuf>,
}

fn parse_args() -> Args {
    let quick = bench::quick_mode();
    let mut args = Args {
        out: PathBuf::from("BENCH_6.json"),
        designs: Vec::new(),
        sizes: if quick {
            vec![16, 32]
        } else {
            vec![32, 64, 128]
        },
        workers: vec![0, 1, 2, 4, 8],
        cycles: if quick { 500 } else { 2_000 },
        allocator_baseline: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |flag: &str| -> String {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match a.as_str() {
            "--out" => args.out = PathBuf::from(value("--out")),
            "--design" => {
                let v = value("--design");
                args.designs.push(
                    design_for_key(&v)
                        .unwrap_or_else(|| usage(&format!("unknown design key {v:?}"))),
                );
            }
            "--sizes" => {
                args.sizes = value("--sizes")
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse()
                            .unwrap_or_else(|_| usage(&format!("bad mesh edge {s:?}")))
                    })
                    .collect();
            }
            "--workers" => {
                args.workers = value("--workers")
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse()
                            .unwrap_or_else(|_| usage(&format!("bad worker count {s:?}")))
                    })
                    .collect();
            }
            "--cycles" => {
                args.cycles = value("--cycles")
                    .parse()
                    .unwrap_or_else(|_| usage("--cycles needs a positive integer"));
            }
            "--allocator-baseline" => {
                args.allocator_baseline = Some(PathBuf::from(value("--allocator-baseline")));
            }
            "--help" | "-h" => usage("help requested"),
            flag => usage(&format!("unknown option {flag}")),
        }
    }
    if args.designs.is_empty() {
        args.designs = vec![Design::Scarab, Design::DXbarDor];
    }
    if !args.workers.contains(&0) {
        // The sequential row anchors both the speedup and the
        // fingerprint check; always measure it.
        args.workers.insert(0, 0);
    }
    args
}

/// Pull `cycles_per_sec` per design key out of a BENCH_5 or BENCH_6 JSON.
fn baseline_numbers(path: &PathBuf) -> Vec<(String, f64)> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| usage(&format!("cannot read {}: {e}", path.display())));
    if let Ok(report) = serde_json::from_str::<MegaMeshReport>(&text) {
        return report
            .allocator
            .iter()
            .map(|r| (r.design.clone(), r.cycles_per_sec))
            .collect();
    }
    match perf::GateReport::from_json(&text) {
        Ok(report) => report
            .results
            .iter()
            .map(|r| (r.design.clone(), r.cycles_per_sec))
            .collect(),
        Err(e) => usage(&format!("bad baseline {}: {e}", path.display())),
    }
}

fn main() {
    let args = parse_args();
    let load = 0.3;

    let mut rows: Vec<ScalingRow> = Vec::new();
    let mut identity_broken = false;
    for &design in &args.designs {
        for &edge in &args.sizes {
            let mut cell: Vec<ScalingRow> = Vec::new();
            for &workers in &args.workers {
                let mut row = measure(design, edge, workers, args.cycles, load);
                eprintln!(
                    "{:<10} {:>3}x{:<3} workers={:<2} {:>12.0} cycles/s  fp={}",
                    row.design, edge, edge, workers, row.cycles_per_sec, row.stats_fingerprint
                );
                let seq = cell.iter().find(|r| r.tile_workers == 0);
                if let Some(seq) = seq {
                    row.speedup_vs_sequential = row.cycles_per_sec / seq.cycles_per_sec.max(1e-9);
                    if row.stats_fingerprint != seq.stats_fingerprint {
                        eprintln!(
                            "BIT-IDENTITY VIOLATION: {} {edge}x{edge} workers={workers} \
                             fingerprint {} != sequential {}",
                            row.design, row.stats_fingerprint, seq.stats_fingerprint
                        );
                        identity_broken = true;
                    }
                } else {
                    row.speedup_vs_sequential = 1.0;
                }
                cell.push(row);
            }
            rows.extend(cell);
        }
    }

    // Allocator section: the perf_gate workload, restricted to the
    // designs the flattening touches plus the bufferless reference.
    let allocator_workload = Workload {
        width: 8,
        height: 8,
        load,
        cycles: if bench::quick_mode() { 4_000 } else { 40_000 },
    };
    let mut allocator: Vec<perf::PerfResult> =
        [Design::UnifiedDor, Design::UnifiedWf, Design::DXbarDor]
            .into_iter()
            .map(|d| {
                let r = perf::measure(d, &allocator_workload);
                eprintln!(
                    "allocator {:<12} {:>12.0} cycles/s",
                    r.design, r.cycles_per_sec
                );
                r
            })
            .collect();
    if let Some(path) = &args.allocator_baseline {
        for (design, cps) in baseline_numbers(path) {
            if let Some(r) = allocator.iter_mut().find(|r| r.design == design) {
                r.baseline_cycles_per_sec = cps;
            }
        }
    }

    let report = MegaMeshReport {
        bench: 6,
        host_cores: std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
        load,
        weak_scaling: rows,
        allocator,
        allocator_workload,
        peak_rss_kb: perf::peak_rss_kb(),
    };
    let mut json = serde_json::to_string_pretty(&report).expect("serialize report");
    json.push('\n');
    if let Some(parent) = args.out.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent)
            .unwrap_or_else(|e| usage(&format!("cannot create {}: {e}", parent.display())));
    }
    std::fs::write(&args.out, &json)
        .unwrap_or_else(|e| usage(&format!("cannot write {}: {e}", args.out.display())));
    eprintln!("wrote {}", args.out.display());
    if identity_broken {
        exit(1);
    }
}
