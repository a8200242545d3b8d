//! Tile-parallel stepping on scenario fabrics: torus and concentrated-mesh
//! topologies (whose wraparound / concentration links cross tile seams in
//! ways a plain mesh never produces) and heterogeneous router mixes must
//! all be byte-identical to the sequential engine.

use dxbar_noc::{Design, Run};
use noc_core::SimConfig;
use noc_scenario::{ScenarioRun, ScenarioSpec};

/// `scenario` on a Flit-BLESS base must serialize identically at 0, 1, 2,
/// 4 and 8 tile workers.
fn matches_sequential_at_every_worker_count(scenario: &str) {
    let cfg = SimConfig {
        width: 8,
        height: 8,
        warmup_cycles: 200,
        measure_cycles: 800,
        drain_cycles: 300,
        seed: 21,
        ..SimConfig::default()
    };
    let spec = ScenarioSpec::resolve(scenario, &cfg).expect("known scenario");
    let run = |tiles: usize| {
        let out = Run::new(Design::FlitBless, &cfg)
            .tile_threads(tiles)
            .scenario(spec.clone(), 0.3)
            .expect("scenario runs")
            .run();
        serde_json::to_string(&out.result).expect("serialize RunResult")
    };
    let baseline = run(0);
    for workers in [1usize, 2, 4, 8] {
        assert_eq!(
            run(workers),
            baseline,
            "{scenario} diverged from sequential at {workers} tile workers"
        );
    }
}

/// Wrap links connect opposite seam edges of the tile grid.
#[test]
fn torus_matches_sequential_at_every_worker_count() {
    matches_sequential_at_every_worker_count("torus_ur");
}

/// The concentrated mesh re-shapes the node grid entirely.
#[test]
fn cmesh_matches_sequential_at_every_worker_count() {
    matches_sequential_at_every_worker_count("cmesh_ur");
}

/// DAMQ/MinBD islands inside a bufferless fabric put different
/// RouterKinds on the two sides of a seam.
#[test]
fn mixed_islands_match_sequential_at_every_worker_count() {
    matches_sequential_at_every_worker_count("mixed_islands");
}
