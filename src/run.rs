//! The one way to run an experiment: [`Run`] names a design, a config and
//! a workload, takes the optional attachments (faults, resilience, tracing,
//! runtime verification, tile workers), and drives the network through
//! [`noc_sim::runner::run`].
//!
//! Scenario workloads plug in from `noc-scenario` through the [`Workload`]
//! trait; so can any other workload, including one that builds its own
//! routers.

use crate::designs::Design;
use noc_core::SimConfig;
use noc_faults::FaultPlan;
use noc_power::energy::EnergyModel;
use noc_resilience::ResiliencePlan;
use noc_sim::noc_trace::RecordingSink;
use noc_sim::runner::{run, RunMode};
use noc_sim::{Network, RouterModel, RunResult};
use noc_topology::Mesh;
use noc_traffic::generator::{SyntheticTraffic, TrafficModel};
use noc_traffic::patterns::Pattern;
use noc_traffic::splash::{SplashApp, SplashTraffic};
use noc_verify::{Verifier, VerifyOptions, VerifyReport};

/// What a [`Run`] simulates. An implementation builds its network and
/// traffic model for the engine's design, config and fault plan, hands
/// both to [`Engine::run`], and finishes the result (labels,
/// per-application statistics).
pub trait Workload {
    fn drive(&self, engine: Engine<'_>) -> RunOutput;
}

/// Open-loop synthetic traffic: `pattern` at `offered_load` (fraction of
/// capacity), converted through the config's injection-rate model.
struct Synthetic {
    pattern: Pattern,
    offered_load: f64,
}

impl Workload for Synthetic {
    fn drive(&self, engine: Engine<'_>) -> RunOutput {
        let cfg = engine.config();
        let mut net = engine.design().build(cfg, engine.faults());
        let mut model = SyntheticTraffic::new(
            self.pattern,
            Mesh::for_config(cfg),
            cfg.injection_rate(self.offered_load),
            cfg.packet_len,
            cfg.seed,
        );
        let mut out = engine.run(&mut net, &mut model, RunMode::OpenLoop);
        out.result.offered_load = Some(self.offered_load);
        out
    }
}

/// A closed-loop SPLASH-2 workload run to completion: no warmup or drain,
/// capped at `max_cycles` (a design that cannot finish reports
/// `completed = false`).
struct Splash {
    app: SplashApp,
    max_cycles: u64,
}

impl Workload for Splash {
    fn drive(&self, engine: Engine<'_>) -> RunOutput {
        let cfg = SimConfig {
            warmup_cycles: 0,
            measure_cycles: self.max_cycles.max(1),
            drain_cycles: 0,
            ..engine.config().clone()
        };
        let mut net = engine.design().build(&cfg, engine.faults());
        let mut model = SplashTraffic::new(self.app, Mesh::for_config(&cfg), cfg.seed);
        let mode = RunMode::ClosedLoop {
            max_cycles: self.max_cycles,
        };
        engine.run(&mut net, &mut model, mode)
    }
}

/// A [`Run`]'s design, config and options, as its [`Workload`] sees them.
pub struct Engine<'a> {
    design: Design,
    cfg: &'a SimConfig,
    faults: FaultPlan,
    tile_threads: usize,
    resilience: Option<ResiliencePlan>,
    trace: Option<RecordingSink>,
    verify: Option<VerifyOptions>,
}

impl<'a> Engine<'a> {
    /// The design under test.
    pub fn design(&self) -> Design {
        self.design
    }

    /// The run's base config.
    pub fn config(&self) -> &'a SimConfig {
        self.cfg
    }

    /// The crossbar fault plan (fault-free unless the run set one).
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// Attach the run's options to `net`, run it to `mode`'s end through
    /// [`noc_sim::runner::run`], then detach the trace sink and the oracle
    /// suite.
    pub fn run<R: RouterModel>(
        self,
        net: &mut Network<R>,
        model: &mut dyn TrafficModel,
        mode: RunMode,
    ) -> RunOutput {
        if self.tile_threads > 0 {
            net.set_tile_threads(self.tile_threads);
        }
        if let Some(plan) = self.resilience {
            net.set_resilience(plan);
        }
        let tracing = self.trace.is_some();
        if let Some(sink) = self.trace {
            net.set_trace_sink(Box::new(sink));
        }
        if let Some(opts) = self.verify {
            net.set_observer(Box::new(Verifier::for_network(net, opts)));
        }
        let result = run(net, model, mode, &EnergyModel::default());
        let trace = if tracing {
            net.take_trace_sink().into_recording()
        } else {
            None
        };
        let verify = self.verify.map(|_| {
            let verifier = net.take_observer().into_any().downcast::<Verifier>();
            verifier.expect("the run attached a Verifier").finalize(net)
        });
        RunOutput {
            result,
            trace,
            verify,
        }
    }
}

/// Everything one [`Run`] produced.
#[derive(Debug)]
pub struct RunOutput {
    pub result: RunResult,
    /// The recording, when the run was traced.
    pub trace: Option<RecordingSink>,
    /// The oracle report, when the run was verified — clean or not; check
    /// [`VerifyReport::is_clean`].
    pub verify: Option<VerifyReport>,
}

/// One simulation run, configured by chaining.
///
/// ```
/// use dxbar_noc::noc_sim::noc_trace::RecordingSink;
/// use dxbar_noc::noc_traffic::patterns::Pattern;
/// use dxbar_noc::noc_verify::VerifyOptions;
/// use dxbar_noc::{Design, Run, SimConfig};
/// use noc_scenario::{ScenarioRun, ScenarioSpec};
///
/// let cfg = SimConfig {
///     width: 4,
///     height: 4,
///     warmup_cycles: 200,
///     measure_cycles: 600,
///     drain_cycles: 300,
///     ..SimConfig::default()
/// };
///
/// // A plain synthetic run: uniform random traffic at 0.3 of capacity.
/// let plain = Run::new(Design::DXbarDor, &cfg)
///     .synthetic(Pattern::UniformRandom, 0.3)
///     .run();
/// assert!(plain.result.accepted_packets > 0);
///
/// // The same run verified and traced: the report comes back whether the
/// // run was clean or not, and neither attachment changes the result.
/// let out = Run::new(Design::DXbarDor, &cfg)
///     .synthetic(Pattern::UniformRandom, 0.3)
///     .verify(VerifyOptions::default())
///     .trace(RecordingSink::new(0, 1))
///     .run();
/// assert!(out.verify.expect("verified").is_clean());
/// assert!(out.trace.expect("traced").recorder.total_seen() > 0);
/// assert_eq!(out.result.accepted_packets, plain.result.accepted_packets);
///
/// // A scenario workload from `noc-scenario`: two applications sharing the
/// // mesh, with per-application statistics in the result.
/// let spec = ScenarioSpec::named("interfere2", &cfg).unwrap();
/// let out = Run::new(Design::DXbarDor, &cfg)
///     .scenario(spec, 0.15)
///     .expect("interfere2 runs on DXbar")
///     .run();
/// assert_eq!(out.result.apps.len(), 2);
/// ```
pub struct Run<'a> {
    workload: Option<Box<dyn Workload + 'a>>,
    engine: Engine<'a>,
}

impl<'a> Run<'a> {
    /// A fault-free, untraced, unverified, sequential run of `design`;
    /// choose a workload before calling [`Run::run`].
    pub fn new(design: Design, cfg: &'a SimConfig) -> Run<'a> {
        Run {
            workload: None,
            engine: Engine {
                design,
                cfg,
                faults: FaultPlan::default(),
                tile_threads: 0,
                resilience: None,
                trace: None,
                verify: None,
            },
        }
    }

    /// The design under test.
    pub fn design(&self) -> Design {
        self.engine.design
    }

    /// The base config.
    pub fn config(&self) -> &'a SimConfig {
        self.engine.cfg
    }

    /// Open-loop synthetic traffic: `pattern` at `offered_load` (fraction
    /// of network capacity).
    pub fn synthetic(self, pattern: Pattern, offered_load: f64) -> Self {
        self.workload(Synthetic {
            pattern,
            offered_load,
        })
    }

    /// Closed-loop SPLASH-2 workload run to completion, capped at
    /// `max_cycles`.
    pub fn splash(self, app: SplashApp, max_cycles: u64) -> Self {
        self.workload(Splash { app, max_cycles })
    }

    /// Any other workload (scenarios, custom router networks).
    pub fn workload(mut self, workload: impl Workload + 'a) -> Self {
        self.workload = Some(Box::new(workload));
        self
    }

    /// Crossbar fault plan (Figs. 11/12), honoured by the designs that
    /// support faults and ignored by the others.
    pub fn faults(mut self, plan: &FaultPlan) -> Self {
        self.engine.faults = plan.clone();
        self
    }

    /// Full fault-and-recovery plan: crossbar faults (which become the
    /// run's [`Run::faults`] plan), link faults, transient soft errors and
    /// the CRC + retransmission protocol. Partitioned pairs burn their
    /// retry budget and land in `lost_flits`; check
    /// [`ResiliencePlan::reachability`] beforehand when that matters.
    pub fn resilience(mut self, plan: ResiliencePlan) -> Self {
        self.engine.faults = plan.crossbar.clone();
        self.engine.resilience = Some(plan);
        self
    }

    /// Record flit lifetimes, ring-buffered events and per-cycle series
    /// into `sink`, returned in [`RunOutput::trace`].
    pub fn trace(mut self, sink: RecordingSink) -> Self {
        self.engine.trace = Some(sink);
        self
    }

    /// Attach the runtime-oracle suite; the report comes back in
    /// [`RunOutput::verify`].
    pub fn verify(mut self, opts: VerifyOptions) -> Self {
        self.engine.verify = Some(opts);
        self
    }

    /// Tile-parallel stepping workers (0 = the sequential engine). Results
    /// are bit-identical at any count; traced, verified and resilient runs
    /// always step sequentially.
    pub fn tile_threads(mut self, workers: usize) -> Self {
        self.engine.tile_threads = workers;
        self
    }

    /// Execute the run.
    ///
    /// # Panics
    ///
    /// If no workload was chosen.
    pub fn run(self) -> RunOutput {
        let workload = self.workload.expect("Run::run needs a workload");
        workload.drive(self.engine)
    }
}
