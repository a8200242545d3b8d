//! Tile-parallel stepping must be invisible in the results: for every
//! router design and every worker count, the tiled engine's `RunResult`
//! must be **byte-identical** (same serialized JSON) to the sequential
//! engine's. This is the contract that lets sweeps enable tile workers
//! freely — they are a throughput knob, never a model change, and
//! deliberately not part of the campaign cache key.

use dxbar_noc::noc_core::flit::Flit;
use dxbar_noc::noc_core::types::{Direction, NodeId};
use dxbar_noc::noc_faults::FaultPlan;
use dxbar_noc::noc_power::energy::EnergyModel;
use dxbar_noc::noc_resilience::{LinkFault, ResiliencePlan, TransientSpec};
use dxbar_noc::noc_sim::noc_trace::{RecordingSink, TraceEvent};
use dxbar_noc::noc_sim::runner::{run, RunMode};
use dxbar_noc::noc_sim::{RunObserver, StepCtx, StepInputs};
use dxbar_noc::noc_topology::Mesh;
use dxbar_noc::noc_traffic::generator::SyntheticTraffic;
use dxbar_noc::noc_traffic::patterns::Pattern;
use dxbar_noc::noc_traffic::splash::{AppParams, SplashApp, SplashTraffic};
use dxbar_noc::noc_verify::VerifyOptions;
use dxbar_noc::{Design, Run, RunResult, SimConfig};
use std::any::Any;
use std::sync::OnceLock;

fn json(r: &RunResult) -> String {
    serde_json::to_string(r).expect("serialize RunResult")
}

/// The serialized result of a synthetic run stepped by `tiles` workers.
fn synthetic(design: Design, cfg: &SimConfig, pattern: Pattern, load: f64, tiles: usize) -> String {
    json(
        &Run::new(design, cfg)
            .synthetic(pattern, load)
            .tile_threads(tiles)
            .run()
            .result,
    )
}

/// Asserts `observe(design, n)` for every `n` in `tiles` equals the
/// sequential `observe(design, 0)`, for each of `designs`.
fn same_at_tile_counts<T: PartialEq>(
    designs: &[Design],
    tiles: &[usize],
    observe: impl Fn(Design, usize) -> T,
) {
    for &design in designs {
        let baseline = observe(design, 0);
        for &n in tiles {
            let same = observe(design, n) == baseline;
            assert!(same, "{} on {n} tile workers diverged", design.name());
        }
    }
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
    // Moderate load: enough traffic for deflections, drops and buffering
    // on every design without saturating the slow ones.
    same_at_tile_counts(&Design::ALL, &[1, 2, 4, 8], |design, tiles| {
        synthetic(design, &cfg, Pattern::MatrixTranspose, 0.3, tiles)
    });
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
    same_at_tile_counts(&[Design::Scarab], &[2, 4], |design, tiles| {
        synthetic(design, &cfg, Pattern::UniformRandom, 0.6, tiles)
    });
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
    same_at_tile_counts(
        &[Design::DXbarDor, Design::Scarab],
        &[2, 4],
        |design, tiles| {
            let mesh = Mesh::new(cfg.width, cfg.height);
            let mut net = design.build(&cfg, &FaultPlan::none(&mesh));
            net.set_tile_threads(tiles);
            let mut model = SplashTraffic::with_params(SplashApp::Fft, params, mesh, cfg.seed);
            let mode = RunMode::ClosedLoop {
                max_cycles: 2_000_000,
            };
            json(&run(&mut net, &mut model, mode, &EnergyModel::default()))
        },
    );
}

/// Diagnosed runs (verified, traced, resilient) visit every node in
/// row-major order whatever the tile count, but their sends, seam sends
/// and commit phase are the tiled ones: one design per router family.
const DIAGNOSED: [Design; 3] = [Design::DXbarDor, Design::Scarab, Design::Afc];

/// A synthetic run on 6x6, where 4 tiles are 3x3 quadrants with seams.
fn diagnosed(design: Design, tiles: usize) -> Run<'static> {
    static CFG: OnceLock<SimConfig> = OnceLock::new();
    let cfg = CFG.get_or_init(|| SimConfig {
        width: 6,
        height: 6,
        warmup_cycles: 100,
        measure_cycles: 400,
        drain_cycles: 300,
        seed: 5,
        ..SimConfig::default()
    });
    Run::new(design, cfg)
        .synthetic(Pattern::UniformRandom, 0.3)
        .tile_threads(tiles)
}

#[test]
fn verified_runs_match_at_every_tile_count() {
    same_at_tile_counts(&DIAGNOSED, &[1, 4], |design, tiles| {
        let out = diagnosed(design, tiles)
            .verify(VerifyOptions::default())
            .run();
        let report = out.verify.expect("verified run");
        assert!(report.is_clean(), "{}", report.summary());
        (json(&out.result), format!("{report:?}"))
    });
}

#[test]
fn traced_runs_match_at_every_tile_count() {
    same_at_tile_counts(&DIAGNOSED, &[1, 4], |design, tiles| {
        let out = diagnosed(design, tiles)
            .trace(RecordingSink::new(0, 1))
            .run();
        let sink = out.trace.expect("traced run");
        let events: Vec<TraceEvent> = sink.recorder.iter().cloned().collect();
        assert!(!events.is_empty());
        (json(&out.result), events, format!("{:?}", sink.series))
    });
}

/// Folds every observer call the node kernel and the end of a cycle make,
/// in order and with its arguments, into one hash: two runs agree only if
/// those hooks fired identically.
struct HookLog(u64);

impl HookLog {
    fn record(&mut self, call: std::fmt::Arguments) {
        for b in call.to_string().bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
}

impl RunObserver for HookLog {
    fn is_active(&self) -> bool {
        true
    }
    fn on_router_step(&mut self, n: NodeId, i: &StepInputs, c: &StepCtx, b: usize, a: usize) {
        let (out, ej, dr) = (&c.out_links, &c.ejected, &c.dropped);
        let (ev, probes) = (&c.events, c.probe.events());
        self.record(format_args!(
            "{n} {i:?} {out:?} {ej:?} {dr:?} {ev:?} {probes:?} {b} {a}"
        ));
    }
    fn on_cycle_end(&mut self, cycle: u64, in_flight: usize) {
        self.record(format_args!("end {cycle} {in_flight}"));
    }
    fn on_transit_corrupt(&mut self, node: NodeId, dir: Direction, flit: &Flit) {
        self.record(format_args!("corrupt {node} {dir} {flit:?}"));
    }
    fn on_transit_loss(&mut self, node: NodeId, dir: Direction, flit: &Flit) {
        self.record(format_args!("loss {node} {dir} {flit:?}"));
    }
    fn on_crc_reject(&mut self, node: NodeId, flit: &Flit) {
        self.record(format_args!("crc {node} {flit:?}"));
    }
    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

#[test]
fn resilient_runs_match_at_every_tile_count() {
    // Transients everywhere, and a link dying mid-run on the seam between
    // the two upper quadrants ((2,2) -> (3,2)).
    let plan = ResiliencePlan::none()
        .with_transients(TransientSpec {
            rate: 2e-3,
            drop_fraction: 0.5,
            seed: 3,
        })
        .with_link_faults(vec![LinkFault {
            node: NodeId(14),
            dir: Direction::East,
            onset: 150,
        }]);
    same_at_tile_counts(&DIAGNOSED, &[1, 4], |design, tiles| {
        let resilient = diagnosed(design, tiles).resilience(plan.clone());
        let cfg = resilient.config();
        let plain = resilient.run().result;
        let events = &plain.stats.events;
        assert!(
            events.transit_losses > 0 && events.crc_rejects > 0,
            "{events:?}"
        );
        // The same run with every hook call logged.
        let mut net = design.build(cfg, &plan.crossbar);
        net.set_tile_threads(tiles);
        net.set_resilience(plan.clone());
        net.set_observer(Box::new(HookLog(0)));
        let rate = cfg.injection_rate(0.3);
        let mesh = Mesh::for_config(cfg);
        let mut model =
            SyntheticTraffic::new(Pattern::UniformRandom, mesh, rate, cfg.packet_len, cfg.seed);
        let observed = run(
            &mut net,
            &mut model,
            RunMode::OpenLoop,
            &EnergyModel::default(),
        );
        let log = net.take_observer().into_any().downcast::<HookLog>();
        (json(&plain), json(&observed), log.expect("hook log").0)
    });
}
