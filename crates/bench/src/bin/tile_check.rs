//! tile_check: CI smoke test for tile-parallel bit-identity.
//!
//! Runs a 16x16 uniform-random workload once on the sequential engine and
//! once with 2 tile workers (the smallest configuration with a real seam
//! and real cross-thread scheduling), and compares the **serialized**
//! `RunResult`s byte for byte. Any divergence — a reordered commit, a
//! non-commutative stat, a seam channel applied in the wrong phase —
//! fails the process with exit 1 and a field-level diff hint.
//!
//! ```text
//! tile_check [--design KEY]... [--cycles N] [--workers N]
//! ```
//!
//! Defaults: dxbar-dor and scarab (the drop/NACK/retransmit design is the
//! most order-sensitive), 1500 measured cycles, 2 workers. DXBAR_QUICK=1
//! halves the cycle count. Runtime is a few seconds — cheap enough for
//! every CI run, unlike the full `tile_determinism` matrix.

use bench::perf::design_for_key;
use dxbar_noc::noc_power::energy::EnergyModel;
use dxbar_noc::noc_sim::runner::{run, RunMode};
use dxbar_noc::noc_topology::Mesh;
use dxbar_noc::noc_traffic::generator::SyntheticTraffic;
use dxbar_noc::noc_traffic::patterns::Pattern;
use dxbar_noc::{Design, SimConfig};
use noc_faults::FaultPlan;
use std::process::exit;

fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!("usage: tile_check [--design KEY]... [--cycles N] [--workers N]");
    exit(2);
}

fn run_once(design: Design, cfg: &SimConfig, load: f64, workers: usize) -> String {
    let mesh = Mesh::new(cfg.width, cfg.height);
    let mut net = design.build(cfg, &FaultPlan::none(&mesh));
    net.set_tile_threads(workers);
    let mut model = SyntheticTraffic::new(
        Pattern::UniformRandom,
        mesh,
        cfg.injection_rate(load),
        cfg.packet_len,
        cfg.seed,
    );
    let result = run(
        &mut net,
        &mut model,
        RunMode::OpenLoop,
        &EnergyModel::default(),
    );
    serde_json::to_string_pretty(&result).expect("serialize RunResult")
}

/// First differing line of two pretty-printed JSON documents, for the
/// failure message (byte equality is the actual check).
fn first_diff(a: &str, b: &str) -> String {
    for (la, lb) in a.lines().zip(b.lines()) {
        if la != lb {
            return format!("sequential: {}\n  tiled:      {}", la.trim(), lb.trim());
        }
    }
    "documents differ in length".to_string()
}

fn main() {
    let mut designs: Vec<Design> = Vec::new();
    let mut cycles: u64 = if bench::quick_mode() { 750 } else { 1_500 };
    let mut workers: usize = 2;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |flag: &str| -> String {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match a.as_str() {
            "--design" => {
                let v = value("--design");
                designs.push(
                    design_for_key(&v)
                        .unwrap_or_else(|| usage(&format!("unknown design key {v:?}"))),
                );
            }
            "--cycles" => {
                cycles = value("--cycles")
                    .parse()
                    .unwrap_or_else(|_| usage("--cycles needs a positive integer"));
            }
            "--workers" => {
                workers = value("--workers")
                    .parse()
                    .unwrap_or_else(|_| usage("--workers needs a positive integer"));
                if workers == 0 {
                    usage("--workers must be >= 1 (0 is the sequential baseline itself)");
                }
            }
            "--help" | "-h" => usage("help requested"),
            flag => usage(&format!("unknown option {flag}")),
        }
    }
    if designs.is_empty() {
        designs = vec![Design::DXbarDor, Design::Scarab];
    }

    let cfg = SimConfig {
        width: 16,
        height: 16,
        warmup_cycles: 200,
        measure_cycles: cycles,
        drain_cycles: 300,
        ..SimConfig::default()
    };

    let mut failed = false;
    for design in designs {
        let sequential = run_once(design, &cfg, 0.35, 0);
        let tiled = run_once(design, &cfg, 0.35, workers);
        if sequential == tiled {
            eprintln!(
                "tile_check OK: {} 16x16, {workers} workers, {cycles} cycles — bit-identical",
                design.name()
            );
        } else {
            eprintln!(
                "tile_check FAILED: {} diverged with {workers} tile workers\n  {}",
                design.name(),
                first_diff(&sequential, &tiled)
            );
            failed = true;
        }
    }
    if failed {
        exit(1);
    }
}
