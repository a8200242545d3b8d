//! Tile-owned node state and the node kernel.
//!
//! The nodes are split into rectangular tiles (see
//! [`TilePartition`](noc_topology::TilePartition)); a sequential network
//! is the one-tile case. Each [`Tile`] owns its nodes' routers, input
//! links, input credits and source queues as contiguous vectors, plus its
//! own flit pool, reassembler, step context and commit outboxes, so tiles
//! step in parallel from disjoint `&mut` borrows.
//!
//! [`step_node`] is the only place a router is stepped and its outputs are
//! routed. Cross-node effects:
//!
//! * **Intra-tile** link and credit sends go straight onto the receiver's
//!   delay line. A send at cycle `t` lands in a ring slot (`t + latency`,
//!   latency >= 1) that no `recv(t)` reads, so node order within a cycle
//!   cannot matter.
//! * **Seam** sends, to another tile's node, go to the tile's [`Seam`]
//!   outboxes; the network's commit phase flushes them, still at `t`. Each
//!   delay line has one writer (its upstream neighbour), so it is written
//!   by its tile or by the commit phase, never both, and its post-cycle
//!   state is the same as if the send had been direct.
//! * **Statistics, completions and drops** are buffered as records
//!   ([`EjectRec`]/[`DoneRec`]/[`DropRec`]) that the commit phase replays:
//!   commutative counters tile by tile, order-sensitive effects
//!   (`on_delivered`, retransmission sequencing) in ascending node order.
//!
//! A tile's pool holds every flit parked at one of its nodes (source
//! queues, inbound links). `FlitId`s never leak into results, so
//! re-sharding the arena changes no observable bit.
//!
//! The kernel is generic over [`Hooks`]. The fast path passes the
//! zero-sized [`NoHooks`], whose hooks are all empty defaults, so tracing,
//! verification and resilience cost it nothing after monomorphisation.
//! [`Diagnosed`] lends the kernel the network's observer, trace sink,
//! resilience state and statistics for one cycle.

use crate::reassembly::{CompletedPacket, Reassembler};
use crate::resilience::{AckMsg, ResilienceState};
use crate::router::{RouterModel, StepCtx};
use crate::verify::{RunObserver, StepInputs};
use crate::{CREDIT_LATENCY, LINK_LATENCY};
use noc_core::flit::Flit;
use noc_core::pool::{FlitId, FlitPool};
use noc_core::stats::{EventCounts, NetStats};
use noc_core::types::{Cycle, Direction, NodeId, LINK_DIRECTIONS, NUM_LINK_PORTS};
use noc_resilience::TransientEffect;
use noc_topology::{DelayLine, Mesh};
use noc_trace::{TraceBuf, TraceEvent, TraceSink};
use std::collections::VecDeque;
use std::ops::Range;

/// The receiver of a node's output link in one direction.
#[derive(Clone, Copy)]
enum Peer {
    /// A local node index of the same tile.
    Local(u32),
    /// `(tile, local index)` of another tile's node, via the commit phase.
    Seam(u16, u32),
}

/// One tile's nodes and everything the kernel touches while stepping them.
/// All buffers keep their capacity across cycles.
pub(crate) struct Tile<R> {
    /// Global ids of the tile's nodes, ascending; index = local index.
    pub(crate) nodes: Vec<NodeId>,
    pub(crate) routers: Vec<R>,
    /// `peers[i][d]`: the receiver of local node `i`'s output link `d`
    /// (`None` at mesh edges).
    peers: Vec<[Option<Peer>; NUM_LINK_PORTS]>,
    /// `in_links[i][d]`: flits arriving at local node `i` on input port
    /// `d` (fed by the neighbour in direction `d`). `None` at mesh edges.
    pub(crate) in_links: Vec<[Option<DelayLine<FlitId>>; NUM_LINK_PORTS]>,
    /// `in_credits[i][d]`: credits returning to local node `i` for its
    /// *output* link in direction `d`.
    pub(crate) in_credits: Vec<[Option<DelayLine<u32>>; NUM_LINK_PORTS]>,
    /// Per-node injection queues (source side of the PE).
    pub(crate) queues: Vec<VecDeque<FlitId>>,
    /// Slab arena for every flit parked at one of the tile's nodes.
    pub(crate) pool: FlitPool,
    /// Reassembly of packets ejected at the tile's nodes.
    pub(crate) reassembler: Reassembler,
    /// Persistent step context, reset in place for every router step.
    pub(crate) ctx: StepCtx,
    pub(crate) seam_flits: Vec<Seam<Flit>>,
    pub(crate) seam_credits: Vec<Seam<u32>>,
    pub(crate) ejects: Vec<EjectRec>,
    pub(crate) dones: VecDeque<DoneRec>,
    pub(crate) drops: VecDeque<DropRec>,
}

impl<R> Tile<R> {
    /// Empty tile `me` over `nodes` (ascending); `place[node]` gives every
    /// node's `(tile, local index)`. Routers are pushed by the caller in
    /// the same order as `nodes`.
    pub(crate) fn new(
        mesh: &Mesh,
        me: usize,
        nodes: &[NodeId],
        place: &[(usize, usize)],
        queue_cap: usize,
    ) -> Tile<R> {
        let mut tile = Tile {
            nodes: nodes.to_vec(),
            routers: Vec::new(),
            peers: Vec::with_capacity(nodes.len()),
            in_links: Vec::with_capacity(nodes.len()),
            in_credits: Vec::with_capacity(nodes.len()),
            // Reserve the cap up front: queue growth never shows up as a
            // mid-run allocation (the cap is small — u32 handles only).
            queues: nodes
                .iter()
                .map(|_| VecDeque::with_capacity(queue_cap))
                .collect(),
            pool: FlitPool::new(),
            reassembler: Reassembler::new(),
            ctx: StepCtx::default(),
            seam_flits: Vec::new(),
            seam_credits: Vec::new(),
            ejects: Vec::new(),
            dones: VecDeque::new(),
            drops: VecDeque::new(),
        };
        for &node in nodes {
            let nbrs = LINK_DIRECTIONS.map(|d| mesh.neighbor(node, d));
            tile.peers.push(nbrs.map(|nbr| {
                let (w, local) = place[nbr?.index()];
                Some(if w == me {
                    Peer::Local(local as u32)
                } else {
                    Peer::Seam(w as u16, local as u32)
                })
            }));
            tile.in_links
                .push(nbrs.map(|n| n.map(|_| DelayLine::new(LINK_LATENCY))));
            tile.in_credits
                .push(nbrs.map(|n| n.map(|_| DelayLine::new(CREDIT_LATENCY))));
        }
        tile
    }

    /// Park `flit` at the head of local node `i`'s source queue (the
    /// retransmit buffer has priority over fresh traffic).
    pub(crate) fn requeue(&mut self, i: usize, flit: Flit) {
        let id = self.pool.alloc(flit);
        self.queues[i].push_front(id);
    }
}

/// A flit or credit crossing a tile seam: deliver `sent` to input port
/// `dir` of local node `local` of tile `tile`.
#[derive(Clone, Copy)]
pub(crate) struct Seam<T> {
    pub(crate) tile: u16,
    pub(crate) local: u32,
    pub(crate) dir: Direction,
    pub(crate) sent: T,
}

/// A flit ejection, replayed into `NetStats::record_flit_ejected`.
#[derive(Clone, Copy)]
pub(crate) struct EjectRec {
    pub(crate) created: Cycle,
    pub(crate) hops: u16,
}

/// A completed packet, replayed in node order (`record_packet_done` +
/// `TrafficModel::on_delivered`). `flit_created` is the completing flit's
/// creation cycle: the measurement-window flag comes from the flit, not
/// the packet head.
#[derive(Clone, Copy)]
pub(crate) struct DoneRec {
    pub(crate) node: NodeId,
    pub(crate) done: CompletedPacket,
    pub(crate) flit_created: Cycle,
}

/// A SCARAB drop, replayed in node order into the retransmission channel
/// (its FIFO sequence numbers make replay order observable).
#[derive(Clone, Copy)]
pub(crate) struct DropRec {
    pub(crate) node: NodeId,
    pub(crate) nack_hops: u64,
    pub(crate) flit: Flit,
}

/// Step local node `i` of `tile` at cycle `t`: receive its arrivals and
/// credits, offer the queue head, step the router, then route every output
/// (links, credits, injection, ejections, drops) per the module docs.
#[inline]
pub(crate) fn step_node<R: RouterModel, H: Hooks>(
    tile: &mut Tile<R>,
    i: usize,
    mesh: &Mesh,
    hooks: &mut H,
    t: Cycle,
) {
    let Tile {
        nodes,
        routers,
        peers,
        in_links,
        in_credits,
        queues,
        pool,
        reassembler,
        ctx,
        seam_flits,
        seam_credits,
        ejects,
        dones,
        drops,
    } = tile;
    let node = nodes[i];
    ctx.reset(t);
    ctx.trace.set_enabled(hooks.tracing());
    ctx.probe.set_enabled(hooks.observer().is_some());

    for d in LINK_DIRECTIONS {
        if let Some(line) = in_links[i][d.index()].as_mut() {
            if let Some(id) = line.recv(t) {
                ctx.arrivals[d.index()] = Some(pool.take(id));
            }
        }
        if let Some(line) = in_credits[i][d.index()].as_mut() {
            if let Some(c) = line.recv(t) {
                ctx.credits_in[d.index()] = c;
            }
        }
    }
    let queue = &mut queues[i];
    hooks.sequence_head(node, queue, pool);
    ctx.injection = queue.front().map(|&id| {
        let mut f = *pool.get(id);
        f.injected = t;
        f
    });

    // Routers may consume (take) their arrivals, so snapshot the inputs for
    // the observer, or for the debug conservation check, before stepping.
    let router = &mut routers[i];
    let watched = hooks.observer().is_some() || cfg!(debug_assertions);
    let before = watched.then(|| {
        let inputs = StepInputs {
            arrivals: ctx.arrivals,
            injection: ctx.injection,
        };
        (inputs, router.occupancy())
    });
    router.step(ctx);
    if let Some((inputs, occ_before)) = before {
        let occ_after = router.occupancy();
        match hooks.observer() {
            // Observed runs report conservation violations structurally,
            // before the outputs are consumed below.
            Some(observer) => observer.on_router_step(node, &inputs, ctx, occ_before, occ_after),
            None => debug_assert_eq!(
                occ_before + inputs.arrivals_offered() + usize::from(ctx.injected),
                occ_after + ctx.flits_out(),
                "flit conservation violated at {node} cycle {t}"
            ),
        }
    }

    // Outgoing flits: intra-tile straight onto the wire, seam-crossing
    // into the outbox.
    for d in LINK_DIRECTIONS {
        if let Some(mut flit) = ctx.out_links[d.index()].take() {
            let peer = peers[i][d.index()]
                .unwrap_or_else(|| panic!("{node} routed {flit:?} off-mesh via {d}"));
            if !hooks.on_send(node, d, &mut flit, &mut ctx.events) {
                continue;
            }
            flit.hops += 1;
            ctx.events.link_traversals += 1;
            hooks.emit(&mut ctx.trace, || TraceEvent::Hop {
                cycle: t,
                node,
                packet: flit.packet,
                flit_index: flit.flit_index as u16,
                dir: d,
            });
            match peer {
                Peer::Local(j) => {
                    let id = pool.alloc(flit);
                    in_links[j as usize][d.opposite().index()]
                        .as_mut()
                        .expect("reverse link exists")
                        .send(t, id);
                }
                Peer::Seam(tile, local) => seam_flits.push(Seam {
                    tile,
                    local,
                    dir: d.opposite(),
                    sent: flit,
                }),
            }
        }
    }

    // Credits upstream, same split.
    for d in LINK_DIRECTIONS {
        let c = ctx.credits_out[d.index()];
        if c > 0 {
            match peers[i][d.index()] {
                Some(Peer::Local(j)) => in_credits[j as usize][d.opposite().index()]
                    .as_mut()
                    .expect("reverse credit wire exists")
                    .send(t, c),
                Some(Peer::Seam(tile, local)) => seam_credits.push(Seam {
                    tile,
                    local,
                    dir: d.opposite(),
                    sent: c,
                }),
                None => {}
            }
        }
    }

    // Injection accepted?
    if ctx.injected {
        let popped = queue.pop_front();
        debug_assert!(popped.is_some(), "router injected a phantom flit");
        ctx.events.injections += 1;
        if let Some(id) = popped {
            let flit = pool.take(id);
            hooks.on_injected(node, &flit);
            hooks.emit(&mut ctx.trace, || TraceEvent::Inject {
                cycle: t,
                node,
                packet: flit.packet,
                flit_index: flit.flit_index as u16,
            });
        }
    }

    // Ejections -> delivery check (resilient runs) -> reassembly, which is
    // tile-local because it happens at the destination; statistics and
    // completions wait for the commit phase.
    for flit in ctx.ejected.drain(..) {
        debug_assert_eq!(flit.dst, node, "flit ejected at wrong node");
        ctx.events.ejections += 1;
        if !hooks.on_eject(node, &flit, &mut ctx.events) {
            continue;
        }
        hooks.emit(&mut ctx.trace, || TraceEvent::Eject {
            cycle: t,
            node,
            packet: flit.packet,
            flit_index: flit.flit_index as u16,
            latency: t.saturating_sub(flit.created),
        });
        ejects.push(EjectRec {
            created: flit.created,
            hops: flit.hops,
        });
        if let Some(done) = reassembler.accept(&flit, t) {
            dones.push_back(DoneRec {
                node,
                done,
                flit_created: flit.created,
            });
        }
    }

    // Drops -> NACK to the source -> retransmission (SCARAB). The channel
    // is global and FIFO-sequenced, so the sends happen at commit.
    for mut flit in ctx.dropped.drain(..) {
        ctx.events.drops += 1;
        hooks.emit(&mut ctx.trace, || TraceEvent::Drop {
            cycle: t,
            node,
            packet: flit.packet,
            flit_index: flit.flit_index as u16,
        });
        let nack_hops = mesh.hop_distance(node, flit.src).max(1) as u64;
        ctx.events.nack_hops += nack_hops;
        ctx.events.retransmissions += 1;
        flit.retransmits += 1;
        drops.push_back(DropRec {
            node,
            nack_hops,
            flit,
        });
    }

    hooks.end_node(ctx);
}

/// Per-node extension points of the node kernel. Every default is a no-op
/// (or "proceed"), which is exactly the undiagnosed behaviour.
pub(crate) trait Hooks {
    /// Whether routers and the kernel stage trace events.
    fn tracing(&self) -> bool {
        false
    }

    /// The verification observer, when one sees every step (and routers
    /// stage probes for it).
    fn observer(&mut self) -> Option<&mut dyn RunObserver> {
        None
    }

    /// Stage one kernel trace event; built only when tracing.
    #[inline]
    fn emit(&self, buf: &mut TraceBuf, event: impl FnOnce() -> TraceEvent) {
        if self.tracing() {
            buf.emit(event);
        }
    }

    /// Sequence the queue head in place before it is offered, so the
    /// sequence number survives the eventual pop.
    fn sequence_head(&mut self, _: NodeId, _: &VecDeque<FlitId>, _: &mut FlitPool) {}

    /// Link phase of one send; `false` when the wire swallowed the flit.
    fn on_send(&mut self, _: NodeId, _: Direction, _: &mut Flit, _: &mut EventCounts) -> bool {
        true
    }

    /// The source NI handed `flit` to the network.
    fn on_injected(&mut self, _: NodeId, _: &Flit) {}

    /// Delivery check of one ejected flit; `false` when it is bounced or
    /// suppressed instead of delivered.
    fn on_eject(&mut self, _: NodeId, _: &Flit, _: &mut EventCounts) -> bool {
        true
    }

    /// The node is done for this cycle.
    fn end_node(&mut self, _: &mut StepCtx) {}
}

/// The fast path: no hooks at all.
pub(crate) struct NoHooks;

impl Hooks for NoHooks {}

/// Hooks of a traced, verified or resilient run, borrowed from the
/// network for one cycle.
pub(crate) struct Diagnosed<'a> {
    pub(crate) t: Cycle,
    pub(crate) mesh: &'a Mesh,
    /// Measurement window, for the recovery-latency samples.
    pub(crate) window: Range<Cycle>,
    pub(crate) tracing: bool,
    /// The observer, when it is active.
    pub(crate) observer: Option<&'a mut dyn RunObserver>,
    pub(crate) sink: &'a mut dyn TraceSink,
    pub(crate) resilience: Option<&'a mut ResilienceState>,
    pub(crate) stats: &'a mut NetStats,
}

impl Hooks for Diagnosed<'_> {
    fn tracing(&self) -> bool {
        self.tracing
    }

    fn observer(&mut self) -> Option<&mut dyn RunObserver> {
        Some(&mut **self.observer.as_mut()?)
    }

    fn sequence_head(&mut self, node: NodeId, queue: &VecDeque<FlitId>, pool: &mut FlitPool) {
        if let (Some(res), Some(&front)) = (self.resilience.as_mut(), queue.front()) {
            res.senders[node.index()].sequence(pool.get_mut(front));
        }
    }

    /// A dead link swallows the flit, a transient strike corrupts or drops
    /// it. Flits already on the wire when a link dies still arrive (the
    /// onset kills future sends, not in-flight data).
    fn on_send(
        &mut self,
        node: NodeId,
        dir: Direction,
        flit: &mut Flit,
        events: &mut EventCounts,
    ) -> bool {
        let Some(res) = self.resilience.as_mut() else {
            return true;
        };
        let strike = if res.link_dead(node, dir) {
            Some(TransientEffect::Drop)
        } else {
            res.take_strike(node, dir)
        };
        match strike {
            Some(TransientEffect::Drop) => {
                events.transit_losses += 1;
                if let Some(observer) = self.observer() {
                    observer.on_transit_loss(node, dir, flit);
                }
                false
            }
            Some(TransientEffect::Corrupt(mask)) => {
                flit.corrupt_payload(mask);
                events.transit_corruptions += 1;
                if let Some(observer) = self.observer() {
                    observer.on_transit_corrupt(node, dir, flit);
                }
                true
            }
            None => true,
        }
    }

    /// Arm (or re-arm, for a retransmission) the ARQ timer at the actual
    /// network entry, so source queueing never burns the retry budget.
    fn on_injected(&mut self, node: NodeId, flit: &Flit) {
        if let Some(res) = self.resilience.as_mut() {
            res.senders[node.index()].on_injected(flit.seq, self.t);
        }
    }

    /// CRC check and ACK/NACK at the destination NI, then receiver-side
    /// dedup of spurious-timeout retransmissions.
    fn on_eject(&mut self, node: NodeId, flit: &Flit, events: &mut EventCounts) -> bool {
        let Some(res) = self.resilience.as_mut().filter(|_| flit.seq != 0) else {
            return true;
        };
        let back_hops = self.mesh.hop_distance(node, flit.src).max(1) as u64;
        events.ack_hops += back_hops;
        let nack = !flit.crc_ok();
        let (to, seq) = (flit.src, flit.seq);
        res.acks.send(self.t, back_hops, AckMsg { to, seq, nack });
        if nack {
            // Bounced; the source NI retransmits.
            events.crc_rejects += 1;
            if let Some(observer) = self.observer() {
                observer.on_crc_reject(node, flit);
            }
            return false;
        }
        if !res.record_delivery(to, seq) {
            // Re-ACKed above, suppressed here.
            events.duplicates_suppressed += 1;
            return false;
        }
        if flit.retransmits > 0 {
            // Delivery needed recovery: creation -> final-delivery latency.
            let created_in_window = self.window.contains(&flit.created);
            self.stats
                .record_recovery(flit.created, self.t, created_in_window);
        }
        true
    }

    fn end_node(&mut self, ctx: &mut StepCtx) {
        if self.observer.is_some() {
            // The observer consumed this node's per-step event deltas;
            // harvest them now so the next router starts from zero.
            self.stats.events.merge(&ctx.events);
            ctx.events = EventCounts::default();
        }
        ctx.trace.drain_into(&mut *self.sink);
    }
}
