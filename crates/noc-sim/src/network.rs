//! The network: routers + links + injection queues + ejection/reassembly +
//! SCARAB drop/NACK bookkeeping.
//!
//! # Hot-path storage
//!
//! Every flit parked inside the engine — waiting in a source queue or
//! flying on a link delay line — lives in a slab [`FlitPool`] (one per
//! tile shard; a single pool when running sequentially); the queues and
//! channels themselves move only 4-byte [`FlitId`] handles. Together with
//! the persistent [`StepCtx`] and the scratch buffers below, a warmed-up
//! sequential run with tracing, verification and resilience disabled
//! performs **zero heap allocations per cycle** (pinned by
//! `tests/zero_alloc.rs` and the root crate's allocation-regression
//! test).
//!
//! # Tile-parallel stepping
//!
//! [`Network::set_tile_threads`] shards the node sweep into rectangular
//! tiles stepped by a persistent worker pool, with a deterministic commit
//! phase that keeps every observable result **bit-identical** to the
//! sequential engine — same `RunResult` bytes, same golden replay hashes,
//! same verifier oracle outcomes — at any tile count. See [`crate::tiles`]
//! for the worker half and the race-freedom argument; diagnosed runs
//! (tracing, verification, resilience) always take the sequential path.

use crate::reassembly::Reassembler;
use crate::resilience::{AckMsg, ResilienceState};
use crate::router::{RouterModel, StepCtx};
use crate::tiles::{step_tile, SharedGrid, SharedShards, TileEngine};
use crate::verify::{NullVerifier, RunObserver, StepInputs};
use crate::{CREDIT_LATENCY, LINK_LATENCY};
use noc_core::flit::{Flit, PacketDesc};
use noc_core::pool::{FlitId, FlitPool};
use noc_core::stats::{EventCounts, NetStats};
use noc_core::types::{Cycle, NodeId, LINK_DIRECTIONS, NUM_LINK_PORTS};
use noc_core::SimConfig;
use noc_resilience::{ResiliencePlan, TimeoutAction, TransientEffect};
use noc_topology::link::TimedChannel;
use noc_topology::{DelayLine, Mesh};
use noc_trace::{CycleSample, NullSink, TraceEvent, TraceSink};
use noc_traffic::generator::{DeliveredPacket, TrafficModel};
use std::collections::VecDeque;

/// A complete simulated network of one router design.
///
/// `R` is the router type stepped at every node. The paper's designs run
/// statically dispatched (`Network<RouterKind>` via `Design::build`);
/// external implementors keep the dynamic form, which is the default
/// (`Network` = `Network<Box<dyn RouterModel>>`).
pub struct Network<R: RouterModel = Box<dyn RouterModel>> {
    mesh: Mesh,
    cfg: SimConfig,
    routers: Vec<R>,
    /// `neighbors[node][d]`: the node across the output link in direction
    /// `d` (`None` at mesh edges). Precomputed once — the send and credit
    /// loops look this up per flit-hop, and the table replaces a
    /// coordinate round-trip with one indexed load.
    neighbors: Vec<[Option<NodeId>; NUM_LINK_PORTS]>,
    /// Slab arenas for every flit parked in the engine-side queues below,
    /// one per tile shard (exactly one when running sequentially). The
    /// invariant: a flit parked at node `i` — source queue, in-flight
    /// link — lives in `pools[shard_of[i]]`, so sends allocate into the
    /// *receiver's* pool.
    pools: Vec<FlitPool>,
    /// Owning tile shard per node (all zeros when untiled).
    shard_of: Vec<u16>,
    /// `in_links[node][d]`: flits arriving at `node` on input port `d`
    /// (fed by the neighbour in direction `d`). `None` at mesh edges.
    in_links: Vec<[Option<DelayLine<FlitId>>; NUM_LINK_PORTS]>,
    /// `in_credits[node][d]`: credits returning to `node` for its *output*
    /// link in direction `d`.
    in_credits: Vec<[Option<DelayLine<u32>>; NUM_LINK_PORTS]>,
    /// Per-node injection queues (source side of the PE).
    source_queues: Vec<VecDeque<FlitId>>,
    /// Reassembly state, sharded like the pools (ejections happen at the
    /// flit's destination, so each shard's reassembler is tile-local).
    reassemblers: Vec<Reassembler>,
    /// SCARAB NACK/retransmission channel: dropped flits travel back to the
    /// source (as a NACK) and are re-enqueued at the head of its queue.
    /// Carries flits by value — a NACK in flight belongs to no node, hence
    /// to no shard's pool.
    retransmits: TimedChannel<Flit>,
    stats: NetStats,
    cycle: Cycle,
    /// Flits that could not be queued because the source queue was full
    /// (offered-load bookkeeping at deep saturation).
    pub source_overflow: u64,
    /// Destination for lifecycle events and per-cycle samples. The default
    /// [`NullSink`] reports not-recording, which keeps every router's
    /// `TraceBuf` disabled and the hot path at one branch per site.
    sink: Box<dyn TraceSink>,
    /// Runtime-verification observer. The default [`NullVerifier`] reports
    /// inactive, which keeps every router's `ProbeBuf` disabled and skips
    /// all observer hooks.
    observer: Box<dyn RunObserver>,
    /// Resilience layer (fault injection + CRC/ARQ recovery). `None` keeps
    /// the engine byte-identical to a fault-free build.
    resilience: Option<ResilienceState>,
    /// Tile-parallel stepping engine (worker pool + per-shard state).
    /// `None` runs the classic sequential sweep.
    tiles: Option<TileEngine>,
    /// `DXBAR_TILE_CANARY`: deliberately release seam credits one cycle
    /// stale during the tiled commit phase — the classic double-buffer
    /// flush bug, seeded so the sequential-vs-parallel equivalence suite
    /// can prove it catches real cross-seam regressions. Sequential runs
    /// are unaffected (the bug lives in the commit phase only).
    canary: bool,
    /// Persistent per-step context, cleared in place each router step so
    /// its buffers (ejected/dropped/trace/probe) are allocated once.
    ctx: StepCtx,
    /// Scratch for `TrafficModel::poll_into` (one use per cycle).
    poll_scratch: Vec<PacketDesc>,
    /// Scratch for draining the retransmission channel.
    retx_scratch: Vec<Flit>,
    /// Scratch for the per-router occupancy snapshot — filled only when a
    /// recording trace sink is attached.
    occ_scratch: Vec<usize>,
    /// Scratch for the resilience cycle prologue.
    degraded_scratch: Vec<NodeId>,
    action_scratch: Vec<TimeoutAction>,
}

impl<R: RouterModel> Network<R> {
    /// Build a network: one router per node from `factory`.
    pub fn new(cfg: &SimConfig, factory: &dyn Fn(NodeId) -> R) -> Network<R> {
        cfg.validate().expect("invalid SimConfig");
        let mesh = Mesh::for_config(cfg);
        let n = mesh.num_nodes();
        let routers: Vec<R> = mesh.nodes().map(factory).collect();
        for (i, r) in routers.iter().enumerate() {
            assert_eq!(r.node(), NodeId(i as u16), "factory returned wrong node id");
        }
        let mut in_links = Vec::with_capacity(n);
        let mut in_credits = Vec::with_capacity(n);
        let mut neighbors = Vec::with_capacity(n);
        for node in mesh.nodes() {
            let mut links: [Option<DelayLine<FlitId>>; NUM_LINK_PORTS] = [None, None, None, None];
            let mut credits: [Option<DelayLine<u32>>; NUM_LINK_PORTS] = [None, None, None, None];
            let mut nbrs: [Option<NodeId>; NUM_LINK_PORTS] = [None; NUM_LINK_PORTS];
            for d in LINK_DIRECTIONS {
                if let Some(nbr) = mesh.neighbor(node, d) {
                    links[d.index()] = Some(DelayLine::new(LINK_LATENCY));
                    credits[d.index()] = Some(DelayLine::new(CREDIT_LATENCY));
                    nbrs[d.index()] = Some(nbr);
                }
            }
            in_links.push(links);
            in_credits.push(credits);
            neighbors.push(nbrs);
        }
        Network {
            mesh,
            cfg: cfg.clone(),
            routers,
            neighbors,
            pools: vec![FlitPool::new()],
            shard_of: vec![0; n],
            in_links,
            in_credits,
            // Reserve the cap up front: queue growth never shows up as a
            // mid-run allocation (the cap is small — u32 handles only).
            source_queues: (0..n)
                .map(|_| VecDeque::with_capacity(cfg.source_queue_cap))
                .collect(),
            reassemblers: vec![Reassembler::new()],
            retransmits: TimedChannel::new(),
            stats: NetStats::default(),
            cycle: 0,
            source_overflow: 0,
            sink: Box::new(NullSink),
            observer: Box::new(NullVerifier),
            resilience: None,
            tiles: None,
            canary: std::env::var("DXBAR_TILE_CANARY").is_ok_and(|v| v.trim() == "1"),
            ctx: StepCtx::default(),
            poll_scratch: Vec::new(),
            retx_scratch: Vec::new(),
            occ_scratch: Vec::new(),
            degraded_scratch: Vec::new(),
            action_scratch: Vec::new(),
        }
    }

    /// Configure the tile-parallel stepping engine: shard the mesh into
    /// (up to) `threads` rectangular tiles stepped by a persistent worker
    /// pool. `0` restores the sequential sweep; `1` runs the tiled code
    /// path single-threaded (useful for pinning its equivalence). Results
    /// are bit-identical at every setting, so this is a throughput knob
    /// only — it deliberately stays out of `SimConfig` and any result
    /// cache identity.
    ///
    /// Must be called before the first [`step`](Self::step): flit storage
    /// re-shards along tile boundaries.
    pub fn set_tile_threads(&mut self, threads: usize) {
        assert_eq!(
            self.cycle, 0,
            "tile threads must be configured before the first step"
        );
        debug_assert!(self.pools.iter().all(|p| p.is_empty()));
        let n = self.mesh.num_nodes();
        if threads == 0 {
            self.tiles = None;
            self.pools = vec![FlitPool::new()];
            self.reassemblers = vec![Reassembler::new()];
            self.shard_of = vec![0; n];
            return;
        }
        let engine = TileEngine::new(self.mesh.width(), self.mesh.height(), threads);
        let nt = engine.partition.num_tiles();
        self.pools = (0..nt).map(|_| FlitPool::new()).collect();
        self.reassemblers = (0..nt).map(|_| Reassembler::new()).collect();
        self.shard_of = engine.partition.shard_of().to_vec();
        self.tiles = Some(engine);
    }

    /// Number of tile shards the parallel engine runs (0 = sequential).
    /// May be less than requested when the mesh cannot be cut that many
    /// ways.
    pub fn tile_threads(&self) -> usize {
        self.tiles.as_ref().map_or(0, |e| e.partition.num_tiles())
    }

    /// Attach a resilience plan: link faults, transient strikes and the NI
    /// retransmission protocol become live from the next cycle. (Permanent
    /// crossbar faults live inside the router models and are configured at
    /// construction, not here.)
    pub fn set_resilience(&mut self, plan: ResiliencePlan) {
        self.resilience = Some(ResilienceState::new(&self.mesh, plan));
    }

    /// The attached resilience state, if any (read-only view).
    pub fn resilience(&self) -> Option<&ResilienceState> {
        self.resilience.as_ref()
    }

    /// Attach a trace sink; subsequent cycles record into it.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.sink = sink;
    }

    /// Detach the current trace sink (replacing it with [`NullSink`]), so
    /// callers can recover recorded data after a run.
    pub fn take_trace_sink(&mut self) -> Box<dyn TraceSink> {
        std::mem::replace(&mut self.sink, Box::new(NullSink))
    }

    /// The attached trace sink (read-only view).
    pub fn trace_sink(&self) -> &dyn TraceSink {
        self.sink.as_ref()
    }

    /// Attach a runtime-verification observer; subsequent cycles report
    /// into it (and routers stage verification probes).
    pub fn set_observer(&mut self, observer: Box<dyn RunObserver>) {
        self.observer = observer;
    }

    /// Detach the current observer (replacing it with [`NullVerifier`]), so
    /// callers can recover a verifier's findings after a run.
    pub fn take_observer(&mut self) -> Box<dyn RunObserver> {
        std::mem::replace(&mut self.observer, Box::new(NullVerifier))
    }

    /// The attached observer (read-only view).
    pub fn observer(&self) -> &dyn RunObserver {
        self.observer.as_ref()
    }

    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    pub fn cycle(&self) -> Cycle {
        self.cycle
    }

    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    pub fn design_name(&self) -> &'static str {
        self.routers[0].design_name()
    }

    /// Design name of the router at one node. Homogeneous networks return
    /// [`design_name`](Self::design_name) everywhere; heterogeneous mixes
    /// (the scenario engine's island fabrics) differ per node, and the
    /// verifier derives its per-node oracle profiles from this.
    pub fn router_design_name(&self, node: NodeId) -> &'static str {
        self.routers[node.index()].design_name()
    }

    /// Whether every node runs the same router design.
    pub fn is_homogeneous(&self) -> bool {
        let first = self.routers[0].design_name();
        self.routers.iter().all(|r| r.design_name() == first)
    }

    fn created_in_window(&self, created: Cycle) -> bool {
        let lo = self.cfg.warmup_cycles;
        let hi = lo + self.cfg.measure_cycles;
        (lo..hi).contains(&created)
    }

    fn now_in_window(&self) -> bool {
        self.created_in_window(self.cycle)
    }

    /// Advance the network by one cycle, pulling new packets from `model`.
    pub fn step(&mut self, model: &mut dyn TrafficModel) {
        let t = self.cycle;

        if t == self.cfg.warmup_cycles {
            self.stats.events_at_window_start = self.stats.events;
            self.stats.measured_cycles = self.cfg.measure_cycles;
        }

        // 1. Retransmissions due this cycle rejoin their source queue at the
        //    head (SCARAB's source retransmit buffer has priority).
        let mut retx = std::mem::take(&mut self.retx_scratch);
        retx.clear();
        self.retransmits.recv_due_into(t, &mut retx);
        for &flit in &retx {
            let src = flit.src.index();
            let sh = self.shard_of[src] as usize;
            self.source_queues[src].push_front(self.pools[sh].alloc(flit));
        }
        retx.clear();
        self.retx_scratch = retx;

        // 2. New packets from the traffic model. Open-loop models tolerate
        //    source-side loss beyond the queue cap (the surplus still counts
        //    as offered load); lossless (closed-loop) models enqueue
        //    unconditionally — their in-flight volume is bounded by the
        //    workload's own windows, not by the cap.
        //
        //    When a drain phase is configured (open-loop methodology), the
        //    generator is cut off at the end of the measurement window so
        //    the drain only serves in-flight packets; closed-loop runs use
        //    drain_cycles = 0 and poll throughout.
        let offered_now = self.now_in_window();
        let generating =
            self.cfg.drain_cycles == 0 || t < self.cfg.warmup_cycles + self.cfg.measure_cycles;
        if !generating {
            self.cycle_routers(t, model);
            self.cycle += 1;
            return;
        }
        let lossless = model.lossless();
        let mut polled = std::mem::take(&mut self.poll_scratch);
        polled.clear();
        model.poll_into(t, &mut polled);
        for desc in &polled {
            let sh = self.shard_of[desc.src.index()] as usize;
            let q = &mut self.source_queues[desc.src.index()];
            for flit in desc.flits() {
                self.stats.record_offered(offered_now);
                if !lossless && q.len() >= self.cfg.source_queue_cap {
                    self.source_overflow += 1;
                } else {
                    q.push_back(self.pools[sh].alloc(flit));
                }
            }
        }
        polled.clear();
        self.poll_scratch = polled;

        self.cycle_routers(t, model);
        self.cycle += 1;
    }

    /// Resilience-layer cycle prologue: publish link-fault onsets to the
    /// degraded routers, arm this cycle's transient strikes, deliver due
    /// ACK/NACKs to the source NIs, and fire retransmission timeouts.
    fn resilience_begin_cycle(&mut self, t: Cycle, verifying: bool) {
        let Some(res) = self.resilience.as_mut() else {
            return;
        };
        let degraded = &mut self.degraded_scratch;
        degraded.clear();
        res.apply_onsets(t, degraded);
        for node in degraded.drain(..) {
            let mask = res.link_down[node.index()];
            self.routers[node.index()].set_faulty_links(mask);
        }

        res.arm_strikes(t);

        let actions = &mut self.action_scratch;
        actions.clear();
        for msg in res.acks.recv_due(t) {
            let ni = &mut res.senders[msg.to.index()];
            if msg.nack {
                if let Some(a) = ni.on_nack(msg.seq) {
                    actions.push(a);
                }
            } else {
                ni.on_ack(msg.seq);
            }
        }
        for ni in res.senders.iter_mut() {
            ni.poll(t, actions);
        }
        for action in actions.drain(..) {
            match action {
                TimeoutAction::Retransmit(flit) => {
                    self.stats.events.ni_retransmits += 1;
                    if verifying {
                        self.observer.on_retransmit_queued(&flit);
                    }
                    // The retransmit buffer has priority over fresh traffic.
                    let sh = self.shard_of[flit.src.index()] as usize;
                    self.source_queues[flit.src.index()].push_front(self.pools[sh].alloc(flit));
                }
                TimeoutAction::GiveUp(flit) => {
                    self.stats.events.flits_lost += 1;
                    if verifying {
                        self.observer.on_flit_lost(&flit);
                    }
                }
            }
        }
    }

    /// Router phase + link phase, one node at a time. Routers only read
    /// their own delay-line endpoints, so a fixed iteration order is
    /// deterministic and race-free.
    ///
    /// With a tiled engine attached and no diagnostics active, dispatches
    /// to the bit-identical parallel sweep instead. Tracing, verification
    /// and resilience pin the sequential path: their hooks observe
    /// mid-sweep state in node order, which the commit-phase replay
    /// deliberately does not reconstruct.
    fn cycle_routers(&mut self, t: Cycle, model: &mut dyn TrafficModel) {
        let tracing = self.sink.is_recording();
        let verifying = self.observer.is_active();
        if self.tiles.is_some() && !tracing && !verifying && self.resilience.is_none() {
            return self.cycle_routers_tiled(t, model);
        }
        if verifying {
            self.observer.on_cycle_start(t);
        }
        self.resilience_begin_cycle(t, verifying);
        let traversals_before = self.stats.events.link_traversals;
        // The persistent context is moved out for the loop (it borrows
        // mutably alongside routers/links/pool) and restored at the end;
        // its buffers keep their capacity across cycles.
        let mut ctx = std::mem::take(&mut self.ctx);
        for i in 0..self.routers.len() {
            let node = NodeId(i as u16);
            let sh = self.shard_of[i] as usize;
            ctx.reset(t);
            ctx.trace.set_enabled(tracing);
            ctx.probe.set_enabled(verifying);

            for d in LINK_DIRECTIONS {
                if let Some(line) = self.in_links[i][d.index()].as_mut() {
                    if let Some(id) = line.recv(t) {
                        ctx.arrivals[d.index()] = Some(self.pools[sh].take(id));
                    }
                }
                if let Some(line) = self.in_credits[i][d.index()].as_mut() {
                    if let Some(c) = line.recv(t) {
                        ctx.credits_in[d.index()] = c;
                    }
                }
            }
            // Sequence the queue head in place before copying it into the
            // offer, so the sequence number survives the eventual pop (a
            // no-op for already-sequenced retransmissions).
            if let Some(res) = self.resilience.as_mut() {
                if let Some(&front) = self.source_queues[i].front() {
                    res.senders[i].sequence(self.pools[sh].get_mut(front));
                }
            }
            ctx.injection = self.source_queues[i].front().map(|&id| {
                let mut f = *self.pools[sh].get(id);
                f.injected = t;
                f
            });

            // Routers may consume (take) their arrivals, so snapshot inputs
            // before stepping.
            let inputs = if verifying {
                Some(StepInputs {
                    arrivals: ctx.arrivals,
                    injection: ctx.injection,
                })
            } else {
                None
            };
            // Conservation inputs feed only the debug assert below and the
            // verification observer; skip the occupancy scans on the
            // unobserved release fast path.
            let conserving = verifying || cfg!(debug_assertions);
            let arrivals_offered = if conserving {
                ctx.arrivals.iter().flatten().count()
            } else {
                0
            };
            let occ_before = if conserving {
                self.routers[i].occupancy()
            } else {
                0
            };
            self.routers[i].step(&mut ctx);
            let occ_after = if conserving {
                self.routers[i].occupancy()
            } else {
                0
            };
            // With an active observer attached, conservation violations are
            // its to report (structured, non-fatal); the hard assert guards
            // unobserved runs only.
            debug_assert!(
                verifying
                    || occ_before + arrivals_offered + usize::from(ctx.injected)
                        == occ_after + ctx.flits_out(),
                "flit conservation violated at {node} cycle {t}"
            );
            if let Some(inputs) = &inputs {
                // Observe before the engine consumes the outputs below.
                self.observer
                    .on_router_step(node, inputs, &ctx, occ_before, occ_after);
            }

            // Outgoing flits onto the links.
            for d in LINK_DIRECTIONS {
                if let Some(mut flit) = ctx.out_links[d.index()].take() {
                    let nbr = self.neighbors[i][d.index()]
                        .unwrap_or_else(|| panic!("{node} routed {flit:?} off-mesh via {d}"));
                    // Resilience link phase: a dead link swallows the flit,
                    // a transient strike corrupts or drops it. Flits already
                    // on the wire when a link dies still arrive (the onset
                    // kills future sends, not in-flight data).
                    if let Some(res) = self.resilience.as_mut() {
                        if res.link_dead(node, d) {
                            ctx.events.transit_losses += 1;
                            if verifying {
                                self.observer.on_transit_loss(node, d, &flit);
                            }
                            continue;
                        }
                        match res.take_strike(node, d) {
                            Some(TransientEffect::Drop) => {
                                ctx.events.transit_losses += 1;
                                if verifying {
                                    self.observer.on_transit_loss(node, d, &flit);
                                }
                                continue;
                            }
                            Some(TransientEffect::Corrupt(mask)) => {
                                flit.corrupt_payload(mask);
                                ctx.events.transit_corruptions += 1;
                                if verifying {
                                    self.observer.on_transit_corrupt(node, d, &flit);
                                }
                            }
                            None => {}
                        }
                    }
                    flit.hops += 1;
                    ctx.events.link_traversals += 1;
                    ctx.trace.emit(|| TraceEvent::Hop {
                        cycle: t,
                        node,
                        packet: flit.packet,
                        flit_index: flit.flit_index as u16,
                        dir: d,
                    });
                    // Allocate in the receiver's shard pool — the flit is
                    // about to be parked on its inbound wire.
                    let shn = self.shard_of[nbr.index()] as usize;
                    let id = self.pools[shn].alloc(flit);
                    self.in_links[nbr.index()][d.opposite().index()]
                        .as_mut()
                        .expect("reverse link exists")
                        .send(t, id);
                }
            }

            // Credits upstream.
            for d in LINK_DIRECTIONS {
                let c = ctx.credits_out[d.index()];
                if c > 0 {
                    if let Some(upstream) = self.neighbors[i][d.index()] {
                        self.in_credits[upstream.index()][d.opposite().index()]
                            .as_mut()
                            .expect("reverse credit wire exists")
                            .send(t, c);
                    }
                }
            }

            // Injection accepted?
            if ctx.injected {
                let popped = self.source_queues[i].pop_front();
                debug_assert!(popped.is_some(), "router injected a phantom flit");
                ctx.events.injections += 1;
                if let Some(id) = popped {
                    let flit = self.pools[sh].take(id);
                    // Arm (or re-arm, for a retransmission) the ARQ timer at
                    // the actual network entry, so source queueing never
                    // burns the retry budget.
                    if let Some(res) = self.resilience.as_mut() {
                        res.senders[i].on_injected(flit.seq, t);
                    }
                    ctx.trace.emit(|| TraceEvent::Inject {
                        cycle: t,
                        node,
                        packet: flit.packet,
                        flit_index: flit.flit_index as u16,
                    });
                }
            }

            // Ejections -> CRC check/ACK (resilient runs) -> reassembly ->
            // traffic-model callback.
            let ejected_in_window = self.now_in_window();
            let win_lo = self.cfg.warmup_cycles;
            let win_hi = win_lo + self.cfg.measure_cycles;
            for flit in ctx.ejected.drain(..) {
                debug_assert_eq!(flit.dst, node, "flit ejected at wrong node");
                ctx.events.ejections += 1;
                if flit.seq != 0 {
                    if let Some(res) = self.resilience.as_mut() {
                        let back_hops = self.mesh.hop_distance(node, flit.src).max(1) as u64;
                        ctx.events.ack_hops += back_hops;
                        if !flit.crc_ok() {
                            // Detected corruption: bounce it, NACK the
                            // source NI, and wait for the retransmission.
                            ctx.events.crc_rejects += 1;
                            res.acks.send(
                                t,
                                back_hops,
                                AckMsg {
                                    to: flit.src,
                                    seq: flit.seq,
                                    nack: true,
                                },
                            );
                            if verifying {
                                self.observer.on_crc_reject(node, &flit);
                            }
                            continue;
                        }
                        res.acks.send(
                            t,
                            back_hops,
                            AckMsg {
                                to: flit.src,
                                seq: flit.seq,
                                nack: false,
                            },
                        );
                        if !res.record_delivery(flit.src, flit.seq) {
                            // A spurious-timeout retransmission of a flit
                            // that already arrived: re-ACK and suppress.
                            ctx.events.duplicates_suppressed += 1;
                            continue;
                        }
                        if flit.retransmits > 0 {
                            // Delivery needed recovery: record creation ->
                            // final-delivery latency.
                            let created_in_window = (win_lo..win_hi).contains(&flit.created);
                            self.stats
                                .record_recovery(flit.created, t, created_in_window);
                        }
                    }
                }
                ctx.trace.emit(|| TraceEvent::Eject {
                    cycle: t,
                    node,
                    packet: flit.packet,
                    flit_index: flit.flit_index as u16,
                    latency: t.saturating_sub(flit.created),
                });
                let created_in_window = self.created_in_window(flit.created);
                self.stats.record_flit_ejected(
                    flit.created,
                    flit.hops,
                    t,
                    ejected_in_window,
                    created_in_window,
                );
                if let Some(done) = self.reassemblers[sh].accept(&flit, t) {
                    self.stats
                        .record_packet_done(done.src, done.created, t, created_in_window);
                    model.on_delivered(&DeliveredPacket {
                        id: done.id,
                        src: done.src,
                        dst: done.dst,
                        kind: done.kind,
                        created: done.created,
                        delivered: t,
                    });
                }
            }

            // Drops -> NACK to source -> retransmission (SCARAB).
            for mut flit in ctx.dropped.drain(..) {
                ctx.events.drops += 1;
                ctx.trace.emit(|| TraceEvent::Drop {
                    cycle: t,
                    node,
                    packet: flit.packet,
                    flit_index: flit.flit_index as u16,
                });
                let nack_hops = self.mesh.hop_distance(node, flit.src).max(1) as u64;
                ctx.events.nack_hops += nack_hops;
                ctx.events.retransmissions += 1;
                flit.retransmits += 1;
                self.retransmits.send(t, nack_hops, flit);
            }

            if verifying {
                // The observer consumed this node's per-step event deltas;
                // harvest them now so the next router starts from zero.
                self.stats.events.merge(&ctx.events);
                ctx.events = EventCounts::default();
            }
            ctx.trace.drain_into(self.sink.as_mut());
        }
        // Unobserved runs let the counters accumulate across the whole node
        // sweep; one harvest per cycle instead of one per router.
        self.stats.events.merge(&ctx.events);
        ctx.events = EventCounts::default();
        self.ctx = ctx;

        if verifying {
            let in_flight = self.flits_in_flight();
            self.observer.on_cycle_end(t, in_flight);
        }

        if tracing {
            self.occ_scratch.clear();
            for r in &self.routers {
                self.occ_scratch.push(r.occupancy());
            }
            let backlog: u64 = self.source_queues.iter().map(|q| q.len() as u64).sum();
            let in_flight = self.flits_in_flight() as u64;
            let link_traversals = self.stats.events.link_traversals - traversals_before;
            self.sink.sample_cycle(&CycleSample {
                cycle: t,
                in_flight,
                backlog,
                link_traversals,
                per_router_occupancy: &self.occ_scratch,
            });
        }
    }

    /// The tile-parallel router sweep: workers step disjoint tiles behind
    /// a barrier, then a sequential commit phase replays every cross-tile
    /// effect in the exact order the sequential sweep would have produced
    /// it. See [`crate::tiles`] for why the result is bit-identical.
    fn cycle_routers_tiled(&mut self, t: Cycle, model: &mut dyn TrafficModel) {
        let mut engine = self.tiles.take().expect("tiled dispatch without engine");

        // Parallel phase: one worker slot per tile (the caller steps tile
        // 0), synchronised by the broadcast barrier.
        {
            let grid = SharedGrid {
                routers: self.routers.as_mut_ptr(),
                in_links: self.in_links.as_mut_ptr(),
                in_credits: self.in_credits.as_mut_ptr(),
                queues: self.source_queues.as_mut_ptr(),
                pools: self.pools.as_mut_ptr(),
                reassemblers: self.reassemblers.as_mut_ptr(),
                neighbors: self.neighbors.as_ptr(),
                shard_of: self.shard_of.as_ptr(),
                mesh: self.mesh,
            };
            let partition = &engine.partition;
            let shards = SharedShards(engine.shards.as_mut_ptr());
            let body = |w: usize| {
                // Safety: slot w dereferences only shard w, and step_tile
                // touches only tile-w-owned grid elements (see SharedGrid).
                let shard = unsafe { shards.shard(w) };
                step_tile(&grid, partition.nodes(w), shard, w as u16, t);
            };
            match engine.workers.as_ref() {
                Some(pool) => pool.broadcast(&body),
                None => body(0),
            }
        }

        // Commit phase, sequential. Seam sends first: every delay line has
        // exactly one writer per cycle and a send at `t` lands in a slot no
        // `recv(t)` read, so flushing after the sweep reconstructs the
        // sequential engine's post-cycle channel state exactly.
        let ejected_in_window = self.now_in_window();
        // Canary: release the seam credits withheld from the *previous*
        // cycle's flush — one cycle stale. Each wire carries at most one
        // credit per cycle, so shifting every seam credit by a cycle keeps
        // the one-send-per-wire-per-cycle invariant (no DelayLine overrun)
        // while skewing upstream flow control: the seeded double-buffer
        // flush bug the equivalence suite must catch.
        if self.canary {
            for c in engine.canary_held.drain(..) {
                self.in_credits[c.dst.index()][c.dir.index()]
                    .as_mut()
                    .expect("reverse credit wire exists")
                    .send(t, c.credits);
            }
        }
        for w in 0..engine.shards.len() {
            let shard = &mut engine.shards[w];
            for s in shard.seam_flits.drain(..) {
                let sh = self.shard_of[s.dst.index()] as usize;
                let id = self.pools[sh].alloc(s.flit);
                self.in_links[s.dst.index()][s.dir.index()]
                    .as_mut()
                    .expect("reverse link exists")
                    .send(t, id);
            }
            if self.canary {
                engine.canary_held.append(&mut shard.seam_credits);
            } else {
                for c in shard.seam_credits.drain(..) {
                    self.in_credits[c.dst.index()][c.dir.index()]
                        .as_mut()
                        .expect("reverse credit wire exists")
                        .send(t, c.credits);
                }
            }
            // Event counters and ejection statistics are sums, min/max and
            // bucket increments — commutative, so shard-major replay is
            // already bitwise-equal to the sequential interleaving.
            self.stats.events.merge(&shard.ctx.events);
            shard.ctx.events = EventCounts::default();
            for e in shard.ejects.drain(..) {
                let created_in_window = self.created_in_window(e.created);
                self.stats.record_flit_ejected(
                    e.created,
                    e.hops,
                    t,
                    ejected_in_window,
                    created_in_window,
                );
            }
        }

        // Packet completions drive closed-loop traffic models, and drops
        // feed the FIFO-sequenced retransmission channel: both replay in
        // ascending node order — the sequential sweep order — via a k-way
        // merge of the per-shard (node-sorted) lists. (Today every sink is
        // order-insensitive: stats are commutative sums, and same-cycle
        // drops of one source always sit at distinct hop distances, so
        // their retransmits land on distinct due cycles. The merge is
        // defensive — it keeps the contract independent of what future
        // traffic models or observers do with delivery order.)
        let ns = engine.shards.len();
        engine.cursors.iter_mut().for_each(|c| *c = 0);
        loop {
            let mut pick: Option<usize> = None;
            for w in 0..ns {
                let Some(rec) = engine.shards[w].dones.get(engine.cursors[w]) else {
                    continue;
                };
                let better =
                    pick.is_none_or(|p| rec.node < engine.shards[p].dones[engine.cursors[p]].node);
                if better {
                    pick = Some(w);
                }
            }
            let Some(w) = pick else { break };
            let rec = engine.shards[w].dones[engine.cursors[w]];
            engine.cursors[w] += 1;
            let created_in_window = self.created_in_window(rec.flit_created);
            self.stats
                .record_packet_done(rec.done.src, rec.done.created, t, created_in_window);
            model.on_delivered(&DeliveredPacket {
                id: rec.done.id,
                src: rec.done.src,
                dst: rec.done.dst,
                kind: rec.done.kind,
                created: rec.done.created,
                delivered: t,
            });
        }
        engine.cursors.iter_mut().for_each(|c| *c = 0);
        loop {
            let mut pick: Option<usize> = None;
            for w in 0..ns {
                let Some(rec) = engine.shards[w].drops.get(engine.cursors[w]) else {
                    continue;
                };
                let better =
                    pick.is_none_or(|p| rec.node < engine.shards[p].drops[engine.cursors[p]].node);
                if better {
                    pick = Some(w);
                }
            }
            let Some(w) = pick else { break };
            let rec = engine.shards[w].drops[engine.cursors[w]];
            engine.cursors[w] += 1;
            self.retransmits.send(t, rec.nack_hops, rec.flit);
        }
        for shard in engine.shards.iter_mut() {
            shard.dones.clear();
            shard.drops.clear();
        }

        self.tiles = Some(engine);
    }

    /// Run `n` cycles.
    pub fn run_cycles(&mut self, model: &mut dyn TrafficModel, n: u64) {
        for _ in 0..n {
            self.step(model);
        }
    }

    /// True when nothing is in flight anywhere (drain complete).
    pub fn is_quiescent(&self) -> bool {
        self.routers.iter().all(|r| r.is_idle())
            && self
                .in_links
                .iter()
                .flatten()
                .flatten()
                .all(|l| l.is_empty())
            && self.source_queues.iter().all(|q| q.is_empty())
            && self.retransmits.is_empty()
            && self.reassemblers.iter().all(|r| r.is_empty())
            && self.resilience.as_ref().is_none_or(|r| r.is_quiescent())
    }

    /// Flits currently inside the network (diagnostics).
    pub fn flits_in_flight(&self) -> usize {
        let in_routers: usize = self.routers.iter().map(|r| r.occupancy()).sum();
        // Everything outside the routers is parked in a shard pool (source
        // queues, link delay lines) or travelling back as a by-value NACK.
        let in_pools: usize = self.pools.iter().map(|p| p.live()).sum();
        in_routers + in_pools + self.retransmits.len()
    }

    /// Duplicate flits seen at reassembly (must be 0; exposed for tests).
    pub fn reassembly_duplicates(&self) -> u64 {
        self.reassemblers.iter().map(|r| r.duplicates()).sum()
    }

    /// Flits buffered inside one router (spatial diagnostics).
    pub fn router_occupancy(&self, node: NodeId) -> usize {
        self.routers[node.index()].occupancy()
    }

    /// Flits waiting in one node's injection queue (spatial diagnostics).
    pub fn source_backlog(&self, node: NodeId) -> usize {
        self.source_queues[node.index()].len()
    }
}
