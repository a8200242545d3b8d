//! The network: routers + links + injection queues + ejection/reassembly +
//! SCARAB drop/NACK bookkeeping.
//!
//! Per-node state lives in [`Tile`]s (see [`crate::tiles`]). A cycle is
//! the node sweep, which calls [`step_node`] once per node, then one
//! commit phase that replays seam sends, statistics, packet completions
//! and drops in the order a row-major sweep produces them.
//! [`Network::set_tile_threads`] only changes how many tiles there are; `0`
//! is one tile stepped inline. Results are **bit-identical** at every tile
//! count: same `RunResult` bytes, golden hashes and verifier outcomes.
//!
//! The fast path steps the tiles in parallel with [`NoHooks`]. A traced,
//! verified or resilient run steps every node in row-major order on the
//! calling thread with [`Diagnosed`] hooks, whatever the tile count; its
//! sends, seam sends and commit phase are the fast path's.
//!
//! Every flit parked in the engine (source queue, link delay line) lives
//! in its tile's slab [`FlitPool`](noc_core::pool::FlitPool); queues and
//! channels move 4-byte handles. A warmed-up fast-path run performs **zero
//! heap allocations per cycle** (pinned by `tests/zero_alloc.rs` and the
//! root crate's allocation-regression test).

use crate::pool::WorkerPool;
use crate::resilience::ResilienceState;
use crate::router::RouterModel;
use crate::tiles::{step_node, Diagnosed, NoHooks, Tile};
use crate::verify::{NullVerifier, RunObserver};
use noc_core::flit::{Flit, PacketDesc};
use noc_core::stats::{EventCounts, NetStats};
use noc_core::types::{Cycle, NodeId};
use noc_core::SimConfig;
use noc_resilience::{ResiliencePlan, TimeoutAction};
use noc_topology::link::TimedChannel;
use noc_topology::{Mesh, TilePartition};
use noc_trace::{CycleSample, NullSink, TraceSink};
use noc_traffic::generator::{DeliveredPacket, TrafficModel};
use std::ops::Range;

/// A complete simulated network of one router design.
///
/// `R` is the router type stepped at every node. The paper's designs run
/// statically dispatched (`Network<RouterKind>` via `Design::build`);
/// external implementors keep the dynamic form, which is the default
/// (`Network` = `Network<Box<dyn RouterModel>>`).
pub struct Network<R: RouterModel = Box<dyn RouterModel>> {
    mesh: Mesh,
    cfg: SimConfig,
    /// The node state, one tile per worker slot.
    tiles: Vec<Tile<R>>,
    /// `place[node]`: the node's `(tile, local index)`.
    place: Vec<(usize, usize)>,
    /// Steps the tiles of the fast path; one slot runs inline.
    workers: WorkerPool,
    /// Whether `set_tile_threads` asked for tiles (`tile_threads` reports
    /// 0 for the default single inline tile).
    tiled: bool,
    /// SCARAB NACK/retransmission channel: dropped flits travel back to the
    /// source (as a NACK) and are re-enqueued at the head of its queue.
    /// Carries flits by value — a NACK in flight belongs to no node, hence
    /// to no tile's pool.
    retransmits: TimedChannel<Flit>,
    stats: NetStats,
    cycle: Cycle,
    /// Flits that could not be queued because the source queue was full
    /// (offered-load bookkeeping at deep saturation).
    pub source_overflow: u64,
    /// Destination for lifecycle events and per-cycle samples. The default
    /// [`NullSink`] reports not-recording, which keeps the run on the fast
    /// path.
    sink: Box<dyn TraceSink>,
    /// Runtime-verification observer. The default [`NullVerifier`] reports
    /// inactive, which keeps the run on the fast path.
    observer: Box<dyn RunObserver>,
    /// Resilience layer (fault injection + CRC/ARQ recovery). `None` keeps
    /// the engine byte-identical to a fault-free build.
    resilience: Option<ResilienceState>,
    /// Seeded fault for the tile-equivalence test: seam flits flushed one
    /// cycle stale, the classic double-buffer bug.
    #[cfg(test)]
    stale_seams: Option<Vec<crate::tiles::Seam<Flit>>>,
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
        let mut net = Network {
            mesh,
            cfg: cfg.clone(),
            tiles: Vec::new(),
            place: Vec::new(),
            workers: WorkerPool::new(1),
            tiled: false,
            retransmits: TimedChannel::new(),
            stats: NetStats::default(),
            cycle: 0,
            source_overflow: 0,
            sink: Box::new(NullSink),
            observer: Box::new(NullVerifier),
            resilience: None,
            #[cfg(test)]
            stale_seams: None,
            poll_scratch: Vec::new(),
            retx_scratch: Vec::new(),
            occ_scratch: Vec::new(),
            degraded_scratch: Vec::new(),
            action_scratch: Vec::new(),
        };
        let routers: Vec<R> = mesh.nodes().map(factory).collect();
        for (i, r) in routers.iter().enumerate() {
            assert_eq!(r.node(), NodeId(i as u16), "factory returned wrong node id");
        }
        net.shard(&TilePartition::new(mesh.width(), mesh.height(), 1), routers);
        net
    }

    /// Lay the nodes out over the tiles of `partition`, with fresh links,
    /// queues and pools; `routers` yields the routers in row-major order.
    fn shard(&mut self, partition: &TilePartition, routers: impl IntoIterator<Item = R>) {
        self.place = vec![(0, 0); self.mesh.num_nodes()];
        for w in 0..partition.num_tiles() {
            for (i, node) in partition.nodes(w).iter().enumerate() {
                self.place[node.index()] = (w, i);
            }
        }
        self.tiles = (0..partition.num_tiles())
            .map(|w| {
                let cap = self.cfg.source_queue_cap;
                Tile::new(&self.mesh, w, partition.nodes(w), &self.place, cap)
            })
            .collect();
        let routers = routers.into_iter();
        if let [tile] = &mut self.tiles[..] {
            // One tile's local order is the row-major order, and collecting
            // a `Vec`'s own iterator keeps its buffer: no router moves.
            tile.routers = routers.collect();
            return;
        }
        for tile in &mut self.tiles {
            tile.routers.reserve_exact(tile.nodes.len());
        }
        // Each tile's nodes ascend, so pushing in row-major order lands
        // every router at its local index.
        for (r, &(w, _)) in routers.zip(&self.place) {
            self.tiles[w].routers.push(r);
        }
    }

    /// Configure the tile-parallel stepping engine: shard the mesh into
    /// (up to) `threads` rectangular tiles stepped by a persistent worker
    /// pool. `0` restores the single inline tile; `1` is the same single
    /// tile, reported as one. Results are bit-identical at every setting,
    /// so this is a throughput knob only — it deliberately stays out of
    /// `SimConfig` and any result cache identity.
    ///
    /// Must be called before the first [`step`](Self::step): flit storage
    /// re-shards along tile boundaries.
    pub fn set_tile_threads(&mut self, threads: usize) {
        assert_eq!(
            self.cycle, 0,
            "tile threads must be configured before the first step"
        );
        debug_assert!(self.tiles.iter().all(|t| t.pool.is_empty()));
        self.tiled = threads > 0;
        // A partition depends only on the tile count it settles on.
        if threads.max(1) == self.tiles.len() {
            return;
        }
        let partition = TilePartition::new(self.mesh.width(), self.mesh.height(), threads);
        let old_place = std::mem::take(&mut self.place);
        let mut old: Vec<_> = std::mem::take(&mut self.tiles)
            .into_iter()
            .map(|t| t.routers.into_iter())
            .collect();
        let routers = old_place
            .iter()
            .map(|&(w, _)| old[w].next().expect("one router per node"));
        self.shard(&partition, routers);
        self.workers = WorkerPool::new(partition.num_tiles());
    }

    /// Number of tile shards the parallel engine runs (0 = the default
    /// single inline tile). May be less than requested when the mesh
    /// cannot be cut that many ways.
    pub fn tile_threads(&self) -> usize {
        if self.tiled {
            self.tiles.len()
        } else {
            0
        }
    }

    fn router(&self, node: NodeId) -> &R {
        let (w, i) = self.place[node.index()];
        &self.tiles[w].routers[i]
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
        self.router(NodeId(0)).design_name()
    }

    /// Design name of the router at one node. Homogeneous networks return
    /// [`design_name`](Self::design_name) everywhere; heterogeneous mixes
    /// (the scenario engine's island fabrics) differ per node, and the
    /// verifier derives its per-node oracle profiles from this.
    pub fn router_design_name(&self, node: NodeId) -> &'static str {
        self.router(node).design_name()
    }

    /// Whether every node runs the same router design.
    pub fn is_homogeneous(&self) -> bool {
        let first = self.design_name();
        let mut routers = self.tiles.iter().flat_map(|t| &t.routers);
        routers.all(|r| r.design_name() == first)
    }

    /// The measurement window, in cycles.
    fn window(&self) -> Range<Cycle> {
        let lo = self.cfg.warmup_cycles;
        lo..lo + self.cfg.measure_cycles
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
            let (w, i) = self.place[flit.src.index()];
            self.tiles[w].requeue(i, flit);
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
        let generating =
            self.cfg.drain_cycles == 0 || t < self.cfg.warmup_cycles + self.cfg.measure_cycles;
        if generating {
            let offered_now = self.window().contains(&t);
            let lossless = model.lossless();
            let mut polled = std::mem::take(&mut self.poll_scratch);
            polled.clear();
            model.poll_into(t, &mut polled);
            for desc in &polled {
                let (w, i) = self.place[desc.src.index()];
                let tile = &mut self.tiles[w];
                for flit in desc.flits() {
                    self.stats.record_offered(offered_now);
                    if !lossless && tile.queues[i].len() >= self.cfg.source_queue_cap {
                        self.source_overflow += 1;
                    } else {
                        let id = tile.pool.alloc(flit);
                        tile.queues[i].push_back(id);
                    }
                }
            }
            polled.clear();
            self.poll_scratch = polled;
        }

        self.cycle_nodes(t, model);
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
            let (w, i) = self.place[node.index()];
            self.tiles[w].routers[i].set_faulty_links(mask);
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
                    let (w, i) = self.place[flit.src.index()];
                    self.tiles[w].requeue(i, flit);
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

    /// One cycle of the node sweep, then the commit phase, then the
    /// end-of-cycle observer and trace sample (which therefore see seam
    /// flits on their wires and drops in the retransmission channel).
    fn cycle_nodes(&mut self, t: Cycle, model: &mut dyn TrafficModel) {
        let tracing = self.sink.is_recording();
        let verifying = self.observer.is_active();
        let traversals_before = self.stats.events.link_traversals;
        if tracing || verifying || self.resilience.is_some() {
            if verifying {
                self.observer.on_cycle_start(t);
            }
            self.resilience_begin_cycle(t, verifying);
            let mut hooks = Diagnosed {
                window: self.window(),
                t,
                mesh: &self.mesh,
                tracing,
                observer: verifying.then_some(self.observer.as_mut()),
                sink: self.sink.as_mut(),
                resilience: self.resilience.as_mut(),
                stats: &mut self.stats,
            };
            for &(w, i) in &self.place {
                step_node(&mut self.tiles[w], i, &self.mesh, &mut hooks, t);
            }
        } else {
            let mesh = &self.mesh;
            self.workers.for_each_mut(&mut self.tiles, |_, tile| {
                for i in 0..tile.nodes.len() {
                    step_node(tile, i, mesh, &mut NoHooks, t);
                }
            });
        }
        self.commit(t, model);

        if verifying {
            let in_flight = self.flits_in_flight();
            self.observer.on_cycle_end(t, in_flight);
        }
        if tracing {
            let mut occ = std::mem::take(&mut self.occ_scratch);
            occ.clear();
            occ.extend(
                self.place
                    .iter()
                    .map(|&(w, i)| self.tiles[w].routers[i].occupancy()),
            );
            let backlog: u64 = self
                .tiles
                .iter()
                .flat_map(|tile| &tile.queues)
                .map(|q| q.len() as u64)
                .sum();
            self.sink.sample_cycle(&CycleSample {
                cycle: t,
                in_flight: self.flits_in_flight() as u64,
                backlog,
                link_traversals: self.stats.events.link_traversals - traversals_before,
                per_router_occupancy: &occ,
            });
            self.occ_scratch = occ;
        }
    }

    /// The sequential commit phase: replays every cross-tile effect of the
    /// sweep in the order a row-major sweep would have produced it. See
    /// [`crate::tiles`] for why the result is bit-identical.
    fn commit(&mut self, t: Cycle, model: &mut dyn TrafficModel) {
        // Seam sends first: every delay line has exactly one writer per
        // cycle and a send at `t` lands in a slot no `recv(t)` read, so
        // flushing after the sweep reconstructs the post-cycle channel
        // state exactly.
        #[cfg(test)]
        if let Some(held) = self.stale_seams.as_mut() {
            // Flush the seam flits held back last cycle; hold this cycle's.
            // Every seam wire still carries at most one flit per cycle.
            let stale = std::mem::take(held);
            for tile in &mut self.tiles {
                held.append(&mut tile.seam_flits);
            }
            self.tiles[0].seam_flits = stale;
        }
        let window = self.window();
        let ejected_in_window = window.contains(&t);
        for w in 0..self.tiles.len() {
            let mut flits = std::mem::take(&mut self.tiles[w].seam_flits);
            for s in flits.drain(..) {
                let dst = &mut self.tiles[s.tile as usize];
                let id = dst.pool.alloc(s.sent);
                dst.in_links[s.local as usize][s.dir.index()]
                    .as_mut()
                    .expect("reverse link exists")
                    .send(t, id);
            }
            self.tiles[w].seam_flits = flits;
            let mut credits = std::mem::take(&mut self.tiles[w].seam_credits);
            for c in credits.drain(..) {
                self.tiles[c.tile as usize].in_credits[c.local as usize][c.dir.index()]
                    .as_mut()
                    .expect("reverse credit wire exists")
                    .send(t, c.sent);
            }
            self.tiles[w].seam_credits = credits;

            // Event counters and ejection statistics are sums, min/max and
            // bucket increments — commutative, so tile-major replay is
            // bitwise-equal to the row-major interleaving.
            let tile = &mut self.tiles[w];
            self.stats.events.merge(&tile.ctx.events);
            tile.ctx.events = EventCounts::default();
            for e in tile.ejects.drain(..) {
                self.stats.record_flit_ejected(
                    e.created,
                    e.hops,
                    t,
                    ejected_in_window,
                    window.contains(&e.created),
                );
            }
        }

        // Packet completions drive closed-loop traffic models, and drops
        // feed the FIFO-sequenced retransmission channel: both replay in
        // ascending node order via a k-way merge of the per-tile
        // (node-sorted) lists. (Today every sink is order-insensitive:
        // stats are commutative sums, and same-cycle drops of one source
        // always sit at distinct hop distances, so their retransmits land
        // on distinct due cycles. The merge keeps the contract independent
        // of what future traffic models or observers do with delivery
        // order.)
        while let Some(w) = next_in_node_order(&self.tiles, |t| t.dones.front().map(|r| r.node)) {
            let rec = self.tiles[w]
                .dones
                .pop_front()
                .expect("picked tile has a record");
            let created_in_window = window.contains(&rec.flit_created);
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
        while let Some(w) = next_in_node_order(&self.tiles, |t| t.drops.front().map(|r| r.node)) {
            let rec = self.tiles[w]
                .drops
                .pop_front()
                .expect("picked tile has a record");
            self.retransmits.send(t, rec.nack_hops, rec.flit);
        }
    }

    /// Run `n` cycles.
    pub fn run_cycles(&mut self, model: &mut dyn TrafficModel, n: u64) {
        for _ in 0..n {
            self.step(model);
        }
    }

    /// True when nothing is in flight anywhere (drain complete). A tile's
    /// pool holds exactly the flits in its source queues and on its links.
    pub fn is_quiescent(&self) -> bool {
        self.tiles.iter().all(|tile| {
            tile.pool.is_empty()
                && tile.reassembler.is_empty()
                && tile.routers.iter().all(|r| r.is_idle())
        }) && self.retransmits.is_empty()
            && self.resilience.as_ref().is_none_or(|r| r.is_quiescent())
    }

    /// Flits currently inside the network (diagnostics).
    pub fn flits_in_flight(&self) -> usize {
        // Everything outside the routers is parked in a tile's pool (source
        // queues, link delay lines) or travelling back as a by-value NACK.
        let parked: usize = self
            .tiles
            .iter()
            .map(|tile| {
                tile.routers.iter().map(|r| r.occupancy()).sum::<usize>() + tile.pool.live()
            })
            .sum();
        parked + self.retransmits.len()
    }

    /// Duplicate flits seen at reassembly (must be 0; exposed for tests).
    pub fn reassembly_duplicates(&self) -> u64 {
        self.tiles.iter().map(|t| t.reassembler.duplicates()).sum()
    }

    /// Flits buffered inside one router (spatial diagnostics).
    pub fn router_occupancy(&self, node: NodeId) -> usize {
        self.router(node).occupancy()
    }

    /// Flits waiting in one node's injection queue (spatial diagnostics).
    pub fn source_backlog(&self, node: NodeId) -> usize {
        let (w, i) = self.place[node.index()];
        self.tiles[w].queues[i].len()
    }
}

/// The tile whose next record has the lowest node id, if any records
/// remain: one step of the commit phase's k-way merge.
fn next_in_node_order<R>(
    tiles: &[Tile<R>],
    next: impl Fn(&Tile<R>) -> Option<NodeId>,
) -> Option<usize> {
    let heads = tiles.iter().enumerate();
    heads
        .filter_map(|(w, tile)| Some((next(tile)?, w)))
        .min()
        .map(|(_, w)| w)
}

#[cfg(test)]
mod tests {
    use crate::runner::tests::{build_net, test_cfg};
    use crate::runner::{run, RunMode};
    use noc_power::energy::EnergyModel;
    use noc_topology::Mesh;
    use noc_traffic::generator::SyntheticTraffic;
    use noc_traffic::patterns::Pattern;

    /// The `RunResult` of a 4x4 test-router run on `tiles` tiles, with
    /// seam flits optionally flushed one cycle stale.
    fn run_on(tiles: usize, stale_seams: bool) -> String {
        let mut net = build_net(&test_cfg());
        net.set_tile_threads(tiles);
        net.stale_seams = stale_seams.then(Vec::new);
        let mut model = SyntheticTraffic::new(Pattern::UniformRandom, Mesh::new(4, 4), 0.1, 1, 5);
        let result = run(
            &mut net,
            &mut model,
            RunMode::OpenLoop,
            &EnergyModel::default(),
        );
        format!("{result:?}")
    }

    #[test]
    fn stale_seam_flush_is_caught_by_tile_equivalence() {
        // The classic double-buffer bug keeps every flit and the one send
        // per wire per cycle; only cross-seam timing skews. The 4-tile vs
        // 1-tile comparison behind every tile-determinism test must see it.
        let one_tile = run_on(1, false);
        assert_eq!(run_on(4, false), one_tile, "healthy 4-tile run diverged");
        assert_ne!(run_on(4, true), one_tile, "stale seam flush went unseen");
    }
}
