//! Scenario execution: the [`Workload`] that builds the (possibly
//! heterogeneous) network on the scenario's topology, drives it with
//! [`ScenarioTraffic`], and returns the standard [`noc_sim::RunResult`]
//! with the per-app slice filled in. [`ScenarioRun::scenario`] plugs it
//! into a [`Run`].

use crate::spec::{RouterMix, ScenarioSpec};
use crate::traffic::ScenarioTraffic;
use dxbar_noc::{Design, Engine, RouterKind, Run, RunOutput, Workload};
use noc_core::SimConfig;
use noc_faults::FaultPlan;
use noc_sim::runner::RunMode;
use noc_sim::Network;
use noc_topology::Mesh;

/// The base config with the scenario's topology applied.
pub fn scenario_config(cfg: &SimConfig, spec: &ScenarioSpec) -> SimConfig {
    SimConfig {
        topology: spec.topology,
        ..cfg.clone()
    }
}

/// Build the scenario's network for a base design: every router is `base`
/// except where the mix places an island. `cfg` must already carry the
/// scenario topology (see [`scenario_config`]).
pub fn build_network(
    base: Design,
    cfg: &SimConfig,
    spec: &ScenarioSpec,
    faults: &FaultPlan,
) -> Network<RouterKind> {
    let mesh = Mesh::for_config(cfg);
    Network::new(cfg, &|n| {
        let d = spec.mix.island_at(mesh.coord_of(n)).unwrap_or(base);
        d.build_router(cfg, faults, n)
    })
}

/// Display name of the fabric ("Flit-Bless", "Flit-Bless + DAMQ islands").
fn fabric_name(base: Design, spec: &ScenarioSpec) -> String {
    match spec.mix {
        RouterMix::Uniform => base.name().to_string(),
        RouterMix::Islands { island, .. } => {
            format!("{} + {} islands", base.name(), island.name())
        }
    }
}

/// One scenario point open-loop: the run's design (plus the scenario's
/// island overlay) at `offered_load` (fraction of capacity; each app
/// scales it by its `load_scale`). The result's `apps` carry the
/// per-application statistics; the global fields aggregate over all apps
/// as usual.
struct Scenario {
    spec: ScenarioSpec,
    offered_load: f64,
}

impl Workload for Scenario {
    fn drive(&self, engine: Engine<'_>) -> RunOutput {
        let base = engine.design();
        let cfg = scenario_config(engine.config(), &self.spec);
        let mut net = build_network(base, &cfg, &self.spec, engine.faults());
        let mut model =
            ScenarioTraffic::new(&self.spec, Mesh::for_config(&cfg), &cfg, self.offered_load);
        let mut out = engine.run(&mut net, &mut model, RunMode::OpenLoop);
        out.result.design = fabric_name(base, &self.spec);
        out.result.offered_load = Some(self.offered_load);
        out.result.apps = model.app_stats();
        out
    }
}

/// Scenario workloads for [`Run`].
pub trait ScenarioRun<'a> {
    /// Run `spec` at `offered_load`, after checking that the scenario
    /// accepts the run's design and config.
    fn scenario(self, spec: ScenarioSpec, offered_load: f64) -> Result<Run<'a>, String>;
}

impl<'a> ScenarioRun<'a> for Run<'a> {
    fn scenario(self, spec: ScenarioSpec, offered_load: f64) -> Result<Run<'a>, String> {
        spec.validate(self.config(), self.design())?;
        Ok(self.workload(Scenario { spec, offered_load }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_sim::RunResult;

    fn scenario_result(
        base: Design,
        cfg: &SimConfig,
        spec: &ScenarioSpec,
        offered_load: f64,
    ) -> Result<RunResult, String> {
        Ok(Run::new(base, cfg)
            .scenario(spec.clone(), offered_load)?
            .run()
            .result)
    }

    fn cfg() -> SimConfig {
        SimConfig {
            width: 4,
            height: 4,
            warmup_cycles: 100,
            measure_cycles: 400,
            drain_cycles: 200,
            ..SimConfig::default()
        }
    }

    #[test]
    fn interference_run_fills_per_app_stats() {
        let c = cfg();
        let spec = ScenarioSpec::named("interfere2", &c).unwrap();
        let r = scenario_result(Design::DXbarDor, &c, &spec, 0.15).unwrap();
        assert_eq!(r.apps.len(), 2);
        assert_eq!(r.apps[0].name, "fg");
        assert_eq!(r.apps[1].name, "bg");
        for a in &r.apps {
            assert!(a.accepted_packets > 0, "{} delivered nothing", a.name);
            assert!(a.avg_packet_latency > 0.0);
            assert!(a.accepted_packets <= a.offered_packets);
        }
        // The per-app split partitions the global aggregate.
        assert_eq!(
            r.apps.iter().map(|a| a.accepted_packets).sum::<u64>(),
            r.accepted_packets
        );
        assert_eq!(r.traffic, "scn:interfere2@0.150");
    }

    #[test]
    fn mixed_fabric_builds_heterogeneous_network() {
        let c = cfg();
        let spec = ScenarioSpec::named("mixed_islands", &c).unwrap();
        let sc = scenario_config(&c, &spec);
        let net = build_network(
            Design::FlitBless,
            &sc,
            &spec,
            &FaultPlan::none(&Mesh::for_config(&sc)),
        );
        assert!(!net.is_homogeneous());
        assert_eq!(net.design_name(), "Flit-Bless");
        let mesh = Mesh::for_config(&c);
        let mut damq = 0;
        for n in mesh.nodes() {
            if net.router_design_name(n) == "DAMQ" {
                damq += 1;
            }
        }
        assert!(damq > 0 && damq < 16);
        let r = scenario_result(Design::FlitBless, &c, &spec, 0.1).unwrap();
        assert_eq!(r.design, "Flit-Bless + DAMQ islands");
        assert!(r.accepted_packets > 0);
    }

    #[test]
    fn credit_coupled_mix_is_rejected() {
        let c = cfg();
        let spec = ScenarioSpec::named("mixed_islands", &c).unwrap();
        assert!(scenario_result(Design::DXbarDor, &c, &spec, 0.1)
            .unwrap_err()
            .contains("credit"));
    }

    #[test]
    fn torus_and_cmesh_scenarios_run_verified_clean() {
        let c = cfg();
        for name in ["torus_ur", "cmesh_ur"] {
            let spec = ScenarioSpec::named(name, &c).unwrap();
            let out = Run::new(Design::FlitBless, &c)
                .scenario(spec, 0.1)
                .unwrap()
                .verify(dxbar_noc::noc_verify::VerifyOptions::default())
                .run();
            let (r, report) = (out.result, out.verify.unwrap());
            assert!(
                report.is_clean(),
                "{name}: {} violations",
                report.total_violations
            );
            assert!(r.accepted_packets > 0, "{name} delivered nothing");
        }
    }

    #[test]
    fn scenario_runs_are_deterministic() {
        let c = cfg();
        let spec = ScenarioSpec::named("interfere2", &c).unwrap();
        let a = scenario_result(Design::FlitBless, &c, &spec, 0.2).unwrap();
        let b = scenario_result(Design::FlitBless, &c, &spec, 0.2).unwrap();
        assert_eq!(a.accepted_packets, b.accepted_packets);
        assert_eq!(
            a.avg_packet_latency.to_bits(),
            b.avg_packet_latency.to_bits()
        );
        assert_eq!(a.apps, b.apps);
    }
}
