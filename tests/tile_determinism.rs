//! Tile-parallel stepping must be invisible in the results: for every
//! router design and every worker count, the tiled engine's `RunResult`
//! must be **byte-identical** (same serialized JSON) to the sequential
//! engine's. This is the contract that lets sweeps enable tile workers
//! freely — they are a throughput knob, never a model change, and
//! deliberately not part of the campaign cache key.

use dxbar_noc::noc_faults::FaultPlan;
use dxbar_noc::noc_power::energy::EnergyModel;
use dxbar_noc::noc_sim::runner::{run, RunMode};
use dxbar_noc::noc_topology::Mesh;
use dxbar_noc::noc_traffic::patterns::Pattern;
use dxbar_noc::noc_traffic::splash::{AppParams, SplashApp, SplashTraffic};
use dxbar_noc::{Design, Run, RunResult, SimConfig};

fn json(r: &RunResult) -> String {
    serde_json::to_string(r).expect("serialize RunResult")
}

/// The serialized result of a synthetic run stepped by `tiles` workers.
fn synthetic(design: Design, cfg: &SimConfig, pattern: Pattern, load: f64, tiles: usize) -> String {
    let out = Run::new(design, cfg)
        .synthetic(pattern, load)
        .tile_threads(tiles)
        .run();
    json(&out.result)
}

#[test]
fn every_design_every_worker_count_matches_sequential() {
    // 6x6 so every grid in the matrix has real seams (2 tiles split 6x6
    // into two 3x6 halves; 8 requested workers clamp to the feasible
    // grid), while staying fast enough for debug-profile CI.
    let cfg = SimConfig {
        width: 6,
        height: 6,
        warmup_cycles: 200,
        measure_cycles: 600,
        drain_cycles: 300,
        seed: 7,
        ..SimConfig::default()
    };
    for design in Design::ALL {
        // Moderate load: enough traffic for deflections, drops and
        // buffering on every design without saturating the slow ones.
        let load = 0.3;
        let baseline = synthetic(design, &cfg, Pattern::MatrixTranspose, load, 0);
        for workers in [1usize, 2, 4, 8] {
            let tiled = synthetic(design, &cfg, Pattern::MatrixTranspose, load, workers);
            assert_eq!(
                tiled,
                baseline,
                "{} with {workers} tile workers diverged from sequential",
                design.name()
            );
        }
    }
}

#[test]
fn scarab_under_heavy_drops_matches_sequential() {
    // SCARAB's drop/NACK/retransmit path is the most order-sensitive
    // cross-tile effect (the retransmit queue is a FIFO whose sequence
    // numbers encode arrival order), so hammer it specifically.
    let cfg = SimConfig {
        width: 8,
        height: 8,
        warmup_cycles: 300,
        measure_cycles: 1500,
        drain_cycles: 500,
        seed: 99,
        ..SimConfig::default()
    };
    let baseline = synthetic(Design::Scarab, &cfg, Pattern::UniformRandom, 0.6, 0);
    for workers in [2usize, 4] {
        let tiled = synthetic(Design::Scarab, &cfg, Pattern::UniformRandom, 0.6, workers);
        assert_eq!(tiled, baseline, "scarab diverged at {workers} workers");
    }
}

#[test]
fn closed_loop_splash_matches_sequential() {
    // Closed-loop runs feed deliveries back into the traffic model
    // (`on_delivered`), so delivery *order* — not just the delivery set —
    // must replay exactly. The commit-phase node-order merge is what
    // makes this hold; this is the test that pins it.
    let cfg = SimConfig {
        warmup_cycles: 0,
        measure_cycles: u64::MAX / 4,
        drain_cycles: 0,
        ..SimConfig::default()
    };
    let params = AppParams {
        issue_prob: 0.08,
        locality: 0.3,
        l2_miss_rate: 0.1,
        txns_per_core: 30,
        burst_len: 4,
    };
    let splash = |design: Design, workers: usize| {
        let mesh = Mesh::new(cfg.width, cfg.height);
        let mut net = design.build(&cfg, &FaultPlan::none(&mesh));
        net.set_tile_threads(workers);
        let mut model = SplashTraffic::with_params(SplashApp::Fft, params, mesh, cfg.seed);
        json(&run(
            &mut net,
            &mut model,
            RunMode::ClosedLoop {
                max_cycles: 2_000_000,
            },
            &EnergyModel::default(),
        ))
    };
    for design in [Design::DXbarDor, Design::Scarab] {
        let baseline = splash(design, 0);
        for workers in [2usize, 4] {
            let tiled = splash(design, workers);
            assert_eq!(
                tiled,
                baseline,
                "splash fft on {} diverged at {workers} workers",
                design.name()
            );
        }
    }
}
