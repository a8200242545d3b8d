//! Criterion micro- and macro-benchmarks of the simulator itself:
//!
//! * `router_step/*` — single-router step cost per design under a loaded
//!   input pattern (the simulator's hot loop);
//! * `flit_pool/*` — the engine's slab arena: steady-state park/unpark
//!   churn (the per-hop cost) and cold warmup growth;
//! * `allocator/*` — the unified design's separable allocator and the
//!   conflict-free resolution;
//! * `network_cycle/*` — whole 8x8-network cycles per second per design at
//!   a moderate load;
//! * `full_run/*` — a complete warmup+measure+drain run at Fig. 5 scale
//!   (reduced windows), the unit of work of every figure regenerator.

use criterion::{criterion_group, criterion_main, Criterion};
use dxbar_noc::noc_core::flit::{Flit, PacketId};
use dxbar_noc::noc_core::types::{Direction, NodeId};
use dxbar_noc::noc_core::SimConfig;
use dxbar_noc::noc_faults::FaultPlan;
use dxbar_noc::noc_sim::router::{RouterModel, StepCtx};
use dxbar_noc::noc_topology::Mesh;
use dxbar_noc::noc_traffic::generator::SyntheticTraffic;
use dxbar_noc::noc_traffic::patterns::Pattern;
use dxbar_noc::{dxbar, noc_baseline, Design, Run};
use std::hint::black_box;

fn mesh() -> Mesh {
    Mesh::new(8, 8)
}

/// A legal upstream/downstream environment for one router under heavy
/// load: arrivals respect the FIFO credit ledger and downstream returns
/// credits for every flit the router emits.
struct BenchDriver {
    ledger: [i64; 4],
    owed: [u64; 4],
    cycle: u64,
    pid: u64,
}

impl BenchDriver {
    fn new(depth: i64) -> BenchDriver {
        BenchDriver {
            ledger: [depth; 4],
            owed: [0; 4],
            cycle: 0,
            pid: 0,
        }
    }

    /// Build the busiest legal input for this cycle.
    fn ctx(&mut self) -> StepCtx {
        let mut ctx = StepCtx::new(self.cycle);
        let dsts = [7u16, 12, 28, 35];
        for (i, d) in [
            Direction::North,
            Direction::East,
            Direction::South,
            Direction::West,
        ]
        .into_iter()
        .enumerate()
        {
            if self.ledger[d.index()] > 0 {
                ctx.arrivals[d.index()] = Some(Flit::synthetic(
                    PacketId(self.pid),
                    NodeId(0),
                    NodeId(dsts[(i + self.cycle as usize) % 4]),
                    self.cycle,
                ));
                self.pid += 1;
                self.ledger[d.index()] -= 1;
            }
            if self.owed[d.index()] > 0 {
                ctx.credits_in[d.index()] = 1;
                self.owed[d.index()] -= 1;
            }
        }
        ctx.injection = Some(Flit::synthetic(
            PacketId(u64::MAX - self.pid),
            NodeId(27),
            NodeId(60),
            self.cycle,
        ));
        ctx
    }

    /// Account the router's outputs back into the environment.
    fn absorb(&mut self, ctx: &StepCtx) {
        for d in [
            Direction::North,
            Direction::East,
            Direction::South,
            Direction::West,
        ] {
            if ctx.out_links[d.index()].is_some() {
                self.owed[d.index()] += 1;
            }
            self.ledger[d.index()] += ctx.credits_out[d.index()] as i64;
        }
        self.cycle += 1;
    }
}

fn bench_router_step(c: &mut Criterion) {
    let mut g = c.benchmark_group("router_step");
    let node = NodeId(27); // interior node (3,3)

    macro_rules! bench_router {
        ($name:literal, $router:expr) => {
            g.bench_function($name, |b| {
                let mut r = $router;
                let mut driver = BenchDriver::new(4);
                b.iter(|| {
                    let mut ctx = driver.ctx();
                    r.step(&mut ctx);
                    driver.absorb(&ctx);
                    black_box(ctx.flits_out())
                });
            });
        };
    }

    bench_router!(
        "dxbar_dor",
        dxbar::DXbarRouter::healthy(node, mesh(), dxbar_noc::noc_routing::Algorithm::Dor, 4, 4)
    );
    bench_router!(
        "unified_dor",
        dxbar::UnifiedRouter::new(node, mesh(), dxbar_noc::noc_routing::Algorithm::Dor, 4, 4)
    );
    bench_router!("bless", noc_baseline::BlessRouter::new(node, mesh()));
    bench_router!("scarab", noc_baseline::ScarabRouter::new(node, mesh()));
    bench_router!(
        "buffered8",
        noc_baseline::BufferedRouter::new(
            node,
            mesh(),
            noc_baseline::BufferedVariant::Buffered8,
            dxbar_noc::noc_routing::Algorithm::Dor,
            4,
        )
    );
    g.finish();
}

fn bench_flit_pool(c: &mut Criterion) {
    use dxbar_noc::noc_core::pool::{FlitId, FlitPool};

    let mut g = c.benchmark_group("flit_pool");
    let flit = |p: u64| Flit::synthetic(PacketId(p), NodeId(0), NodeId(63), p);

    // The per-hop path: a warmed pool at link-occupancy depth, one take +
    // one alloc per iteration. This is what every flit crossing a delay
    // line costs the engine; steady state must never touch the heap.
    g.bench_function("steady_state_churn", |b| {
        let mut pool = FlitPool::with_capacity(256);
        let mut ids: Vec<FlitId> = (0..256).map(|i| pool.alloc(flit(i))).collect();
        let mut round = 0u64;
        b.iter(|| {
            let slot = (round % 251) as usize; // prime stride scrambles reuse order
            let id = ids[slot];
            let f = pool.take(id);
            ids[slot] = pool.alloc(black_box(f));
            round += 1;
            black_box(pool.live())
        });
    });

    // Cold growth: the warmup-phase cost of growing the slab from empty to
    // the run's high-water mark, then draining it.
    g.bench_function("warmup_growth_256", |b| {
        b.iter(|| {
            let mut pool = FlitPool::new();
            let ids: Vec<FlitId> = (0..256).map(|i| pool.alloc(flit(i))).collect();
            for id in ids {
                black_box(pool.take(id));
            }
            black_box(pool.slots())
        });
    });
    g.finish();
}

fn bench_allocator(c: &mut Criterion) {
    use dxbar::allocator::{allocate, InputRequests};
    use dxbar::conflict_free::{resolve, RowSelection};

    let mut g = c.benchmark_group("allocator");
    g.bench_function("separable_5x5_dual_input", |b| {
        let inputs: Vec<InputRequests<u64>> = (0..5)
            .map(|i| InputRequests {
                slots: [
                    Some((0b10110, 10 - i as u64)),
                    Some((0b01101, 5 - i as u64)),
                ],
            })
            .collect();
        b.iter(|| black_box(allocate(black_box(&inputs), 5)));
    });
    g.bench_function("conflict_free_resolve", |b| {
        b.iter(|| {
            black_box(resolve(black_box(RowSelection {
                bufferless_out: 4,
                buffered_out: 1,
            })))
        });
    });
    g.finish();
}

fn bench_network_cycle(c: &mut Criterion) {
    let mut g = c.benchmark_group("network_cycle");
    g.sample_size(20);
    let cfg = SimConfig {
        warmup_cycles: 0,
        measure_cycles: u64::MAX / 4,
        drain_cycles: 0,
        ..SimConfig::default()
    };
    for design in [Design::DXbarDor, Design::FlitBless, Design::Buffered8] {
        g.bench_function(design.name().replace(' ', "_").to_lowercase(), |b| {
            let mesh = Mesh::new(8, 8);
            let mut net = design.build(&cfg, &FaultPlan::none(&mesh));
            let mut model = SyntheticTraffic::new(Pattern::UniformRandom, mesh, 0.25, 1, 1);
            b.iter(|| {
                net.step(&mut model);
                black_box(net.cycle())
            });
        });
    }
    g.finish();
}

/// Tracing-cost check: identical network-cycle workloads with the default
/// `NullSink` (emission sites reduce to one predictable branch) and with a
/// full `RecordingSink` attached. The null-sink number must stay within
/// noise of `network_cycle/dxbar_dor` — that is the "tracing is free when
/// off" guarantee.
fn bench_trace_overhead(c: &mut Criterion) {
    use dxbar_noc::noc_sim::noc_trace::RecordingSink;

    let mut g = c.benchmark_group("trace_overhead");
    g.sample_size(20);
    let cfg = SimConfig {
        warmup_cycles: 0,
        measure_cycles: u64::MAX / 4,
        drain_cycles: 0,
        ..SimConfig::default()
    };
    g.bench_function("null_sink", |b| {
        let mesh = Mesh::new(8, 8);
        let mut net = Design::DXbarDor.build(&cfg, &FaultPlan::none(&mesh));
        let mut model = SyntheticTraffic::new(Pattern::UniformRandom, mesh, 0.25, 1, 1);
        b.iter(|| {
            net.step(&mut model);
            black_box(net.cycle())
        });
    });
    g.bench_function("recording_sink", |b| {
        let mesh = Mesh::new(8, 8);
        let mut net = Design::DXbarDor.build(&cfg, &FaultPlan::none(&mesh));
        // Bounded ring so an arbitrarily long benchmark run cannot grow
        // without limit; lifetimes still see every event.
        net.set_trace_sink(Box::new(RecordingSink::new(1 << 16, 16)));
        let mut model = SyntheticTraffic::new(Pattern::UniformRandom, mesh, 0.25, 1, 1);
        b.iter(|| {
            net.step(&mut model);
            black_box(net.cycle())
        });
    });
    g.finish();
}

fn bench_full_run(c: &mut Criterion) {
    let mut g = c.benchmark_group("full_run");
    g.sample_size(10);
    let cfg = SimConfig {
        warmup_cycles: 500,
        measure_cycles: 1_500,
        drain_cycles: 750,
        ..SimConfig::default()
    };
    g.bench_function("dxbar_dor_ur_load04", |b| {
        b.iter(|| {
            black_box(
                Run::new(Design::DXbarDor, &cfg)
                    .synthetic(Pattern::UniformRandom, 0.4)
                    .run()
                    .result,
            )
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_router_step,
    bench_flit_pool,
    bench_allocator,
    bench_network_cycle,
    bench_trace_overhead,
    bench_full_run
);
criterion_main!(benches);
