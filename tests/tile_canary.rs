//! Mutation canary for the tile-equivalence test suite.
//!
//! `DXBAR_TILE_CANARY=1` makes the tiled engine's commit phase flush seam
//! *credits* one cycle late — the classic double-buffer bug (draining the
//! outbox after the swap instead of before it). The per-tile work is
//! still correct and no data is lost; only cross-seam flow-control timing
//! skews, which is precisely the kind of regression a tile-parallel
//! engine could silently introduce. If the equivalence tests could not
//! catch that bug, byte-identical results would be a vacuous guarantee.
//! This test proves they can: on a credit-flow-controlled design (dxbar
//! DOR) under load, stale seam credits stall upstream routers a cycle
//! longer and the run must produce a *different* result.
//!
//! Why not seed a commit-*ordering* bug instead? Because commit order is
//! provably unobservable today: every order-sensitive-looking sink is
//! commutative (stats are sums/min/max/buckets), and same-cycle drops of
//! one source always sit at distinct hop distances, so their retransmits
//! never share a due cycle and the retransmit FIFO's tie-break never
//! fires. A canary must seed a bug that *can* change the output.
//!
//! Lives in its own integration-test binary because the canary is a
//! process-wide environment variable.

use dxbar_noc::noc_traffic::patterns::Pattern;
use dxbar_noc::{Design, Run, SimConfig};

fn dxbar_json(tiles: usize, canary: bool) -> String {
    if canary {
        std::env::set_var("DXBAR_TILE_CANARY", "1");
    }
    let cfg = SimConfig {
        width: 8,
        height: 8,
        warmup_cycles: 300,
        measure_cycles: 4000,
        drain_cycles: 500,
        seed: 13,
        ..SimConfig::default()
    };
    let r = Run::new(Design::DXbarDor, &cfg)
        .synthetic(Pattern::UniformRandom, 0.6)
        .tile_threads(tiles)
        .run()
        .result;
    std::env::remove_var("DXBAR_TILE_CANARY");
    serde_json::to_string(&r).expect("serialize RunResult")
}

#[test]
fn seeded_seam_flush_bug_is_caught_by_equivalence_check() {
    let sequential = dxbar_json(0, false);
    let healthy = dxbar_json(4, false);
    assert_eq!(
        healthy, sequential,
        "sanity: the healthy tiled engine must match sequential"
    );

    // The canary only corrupts the tiled commit path; sequential runs are
    // untouched even with the variable set.
    let sequential_canary = dxbar_json(0, true);
    assert_eq!(
        sequential_canary, sequential,
        "canary must not affect the sequential engine"
    );

    let broken = dxbar_json(4, true);
    assert_ne!(
        broken, sequential,
        "the seeded stale-seam-credit bug went undetected — the \
         equivalence suite would miss a real commit-phase regression"
    );
}
