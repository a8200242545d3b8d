//! End-to-end runtime verification: every design runs clean under the full
//! oracle suite (flit conservation, exclusivity, route legality, FIFO
//! bounds, fairness, watchdog).
//!
//! The quick tests keep tier-1 fast (4x4 mesh, short windows). The
//! `#[ignore]`d acceptance sweep is the PR's full matrix — 8x8, >= 20k
//! cycles, all designs x {0.1, 0.5} load x {0 %, 50 %} faults — run by the
//! CI verify-smoke job with `--release`.

use dxbar_noc::noc_verify::{VerifyOptions, VerifyReport};
use dxbar_noc::{Design, Run, RunResult, SimConfig};
use noc_faults::FaultPlan;
use noc_topology::Mesh;
use noc_traffic::patterns::Pattern;

fn quick_cfg() -> SimConfig {
    SimConfig {
        width: 4,
        height: 4,
        warmup_cycles: 200,
        measure_cycles: 600,
        drain_cycles: 200,
        ..SimConfig::default()
    }
}

fn checked_run(
    design: Design,
    cfg: &SimConfig,
    pattern: Pattern,
    load: f64,
    faults: &FaultPlan,
) -> (RunResult, VerifyReport) {
    let out = Run::new(design, cfg)
        .synthetic(pattern, load)
        .faults(faults)
        .verify(VerifyOptions::default())
        .run();
    (out.result, out.verify.expect("verified run"))
}

fn verify_point(design: Design, cfg: &SimConfig, load: f64, faults: &FaultPlan) {
    let (result, report) = checked_run(design, cfg, Pattern::UniformRandom, load, faults);
    assert!(
        report.is_clean(),
        "{} at load {load} with {} fault(s): {}",
        design.name(),
        faults.count(),
        report.summary()
    );
    assert!(
        report.checks.cycles >= cfg.total_cycles(),
        "{}: verifier observed {} of {} cycles",
        design.name(),
        report.checks.cycles,
        cfg.total_cycles()
    );
    assert!(
        report.checks.conservation > 0,
        "{}: conservation oracle never engaged",
        design.name()
    );
    assert!(result.accepted_fraction > 0.0, "{}", design.name());
}

#[test]
fn all_designs_run_clean_low_load() {
    let cfg = quick_cfg();
    let none = FaultPlan::none(&Mesh::new(4, 4));
    for d in Design::ALL {
        verify_point(d, &cfg, 0.1, &none);
    }
}

#[test]
fn crossbar_designs_run_clean_high_load() {
    let cfg = quick_cfg();
    let none = FaultPlan::none(&Mesh::new(4, 4));
    for d in [
        Design::DXbarDor,
        Design::DXbarWf,
        Design::UnifiedDor,
        Design::UnifiedWf,
        Design::Buffered8,
    ] {
        verify_point(d, &cfg, 0.5, &none);
    }
}

#[test]
fn dxbar_runs_clean_through_fault_transitions() {
    let cfg = quick_cfg();
    // Faults manifest inside the warmup window so the run exercises the
    // Dormant -> Undetected -> Detected reconfiguration under the oracles.
    let faults = FaultPlan::generate(&Mesh::new(4, 4), 0.5, 50, 150, 9);
    assert!(faults.count() > 0);
    for d in [Design::DXbarDor, Design::DXbarWf] {
        verify_point(d, &cfg, 0.3, &faults);
    }
}

#[test]
fn verified_run_matches_unverified_result() {
    // The observer must not perturb the simulation: identical statistics
    // with and without the oracle suite attached.
    let cfg = quick_cfg();
    let none = FaultPlan::none(&Mesh::new(4, 4));
    for d in [Design::DXbarDor, Design::UnifiedWf, Design::Buffered4] {
        let plain = Run::new(d, &cfg)
            .synthetic(Pattern::MatrixTranspose, 0.4)
            .run()
            .result;
        let (verified, report) = checked_run(d, &cfg, Pattern::MatrixTranspose, 0.4, &none);
        assert!(report.is_clean(), "{}", d.name());
        assert_eq!(
            plain.accepted_packets,
            verified.accepted_packets,
            "{}",
            d.name()
        );
        assert_eq!(plain.accepted_rate, verified.accepted_rate, "{}", d.name());
        assert_eq!(
            plain.avg_packet_latency,
            verified.avg_packet_latency,
            "{}",
            d.name()
        );
    }
}

/// The PR's acceptance matrix. ~36 verified 8x8 runs; run with
/// `cargo test --release --test verify -- --ignored`.
#[test]
#[ignore = "full 8x8 acceptance sweep; CI verify-smoke runs it with --release"]
fn acceptance_sweep_8x8_all_designs() {
    let cfg = SimConfig {
        width: 8,
        height: 8,
        warmup_cycles: 4_000,
        measure_cycles: 12_000,
        drain_cycles: 4_000,
        ..SimConfig::default()
    };
    assert!(cfg.total_cycles() >= 20_000);
    let mesh = Mesh::new(8, 8);
    let none = FaultPlan::none(&mesh);
    let half = FaultPlan::generate(&mesh, 0.5, 1_000, 3_000, 13);
    for d in Design::ALL {
        for load in [0.1, 0.5] {
            verify_point(d, &cfg, load, &none);
            if d.supports_faults() {
                verify_point(d, &cfg, load, &half);
            }
        }
    }
}
