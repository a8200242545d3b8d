//! Tile-sharded parallel stepping: the worker-side half of the engine.
//!
//! The synchronous two-phase update makes the router sweep embarrassingly
//! parallel *except* for five cross-node effects: link sends, credit
//! returns, global statistics, packet completions and SCARAB drops. The
//! tiled engine partitions the node sweep into rectangular tiles (one per
//! worker, see [`TilePartition`]) and splits every cross-node effect into
//! a race-free worker half (this module) and a deterministic sequential
//! commit half (`Network::cycle_routers_tiled`):
//!
//! * **Intra-tile** link/credit sends go straight onto the delay lines —
//!   both endpoints belong to the worker's tile, and a send at cycle `t`
//!   lands in a ring slot (`t + latency`, latency >= 1) that no `recv(t)`
//!   reads, so sweep order within the cycle is immaterial (the same
//!   argument that makes the sequential fused sweep race-free).
//! * **Seam** sends — receiver owned by another tile — are double-buffered
//!   in the worker's outbox ([`SeamFlit`]/[`SeamCredit`]) and flushed by
//!   the commit phase. Each `in_links[node][port]` delay line has exactly
//!   one writer (the upstream neighbour), so a channel is either
//!   worker-written or commit-written, never both; and because the flush
//!   still happens at cycle `t`, the post-cycle channel state is
//!   bit-identical to the sequential engine's.
//! * **Statistics, completions and drops** are buffered as plain records
//!   ([`EjectRec`]/[`DoneRec`]/[`DropRec`]) and replayed by the commit
//!   phase — commutative counters in shard order, order-sensitive effects
//!   (`on_delivered` into closed-loop traffic models, retransmission
//!   sequencing) in ascending node order, i.e. exactly the sequential
//!   sweep order.
//!
//! Flit storage shards with the tiles: `pools[s]` holds every flit parked
//! at a node of tile `s` (source queues, in-flight links), so workers
//! allocate and free slab slots without synchronisation. `FlitId`s are
//! opaque handles that never leak into results, which is why re-sharding
//! the arena cannot perturb a single observable bit.
//!
//! Diagnostics (tracing, verification, resilience) force the sequential
//! path in `Network::cycle_routers`; this module therefore omits those
//! hooks entirely rather than carrying dead branches in the hot loop.

use crate::reassembly::{CompletedPacket, Reassembler};
use crate::router::{RouterModel, StepCtx};
use noc_core::flit::Flit;
use noc_core::pool::{FlitId, FlitPool};
use noc_core::types::{Cycle, Direction, NodeId, LINK_DIRECTIONS, NUM_LINK_PORTS};
use noc_topology::{DelayLine, Mesh, TilePartition};
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};

/// The tiled engine attached to a `Network` by `set_tile_threads`.
pub(crate) struct TileEngine {
    pub(crate) partition: TilePartition,
    /// `None` for a single tile: the caller steps it inline, which keeps
    /// the 1-tile configuration on the exact same code path as N tiles
    /// (the determinism matrix leans on this).
    pub(crate) workers: Option<WorkerPool>,
    pub(crate) shards: Vec<TileShard>,
    /// Per-shard cursors for the commit phase's k-way node-order merge.
    pub(crate) cursors: Vec<usize>,
    /// `DXBAR_TILE_CANARY` only: seam credits withheld from this cycle's
    /// flush and released one cycle stale. Empty in healthy runs.
    pub(crate) canary_held: Vec<SeamCredit>,
}

impl TileEngine {
    pub(crate) fn new(width: u16, height: u16, threads: usize) -> TileEngine {
        let partition = TilePartition::new(width, height, threads);
        let nt = partition.num_tiles();
        TileEngine {
            partition,
            workers: (nt > 1).then(|| WorkerPool::new(nt)),
            shards: (0..nt).map(|_| TileShard::default()).collect(),
            cursors: vec![0; nt],
            canary_held: Vec::new(),
        }
    }
}

/// One worker's private state: its step context plus the outboxes the
/// commit phase drains. All buffers keep their capacity across cycles.
#[derive(Default)]
pub(crate) struct TileShard {
    pub(crate) ctx: StepCtx,
    pub(crate) seam_flits: Vec<SeamFlit>,
    pub(crate) seam_credits: Vec<SeamCredit>,
    pub(crate) ejects: Vec<EjectRec>,
    pub(crate) dones: Vec<DoneRec>,
    pub(crate) drops: Vec<DropRec>,
}

/// A flit crossing a tile seam: deliver to `dst`'s input port `dir`.
#[derive(Clone, Copy)]
pub(crate) struct SeamFlit {
    pub(crate) dst: NodeId,
    pub(crate) dir: Direction,
    pub(crate) flit: Flit,
}

/// A credit return crossing a tile seam.
#[derive(Clone, Copy)]
pub(crate) struct SeamCredit {
    pub(crate) dst: NodeId,
    pub(crate) dir: Direction,
    pub(crate) credits: u32,
}

/// A flit ejection, replayed into `NetStats::record_flit_ejected`.
#[derive(Clone, Copy)]
pub(crate) struct EjectRec {
    pub(crate) created: Cycle,
    pub(crate) hops: u16,
}

/// A completed packet, replayed in node order (`record_packet_done` +
/// `TrafficModel::on_delivered`). `flit_created` is the completing flit's
/// creation cycle — the sequential engine derives the measurement-window
/// flag from the flit, not the packet head.
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

/// Raw views of the network's per-node arrays, shared across workers for
/// the duration of one parallel phase.
///
/// # Safety contract
///
/// Workers only dereference elements their tile owns: `routers[i]`,
/// `queues[i]` and `pools`/`reassemblers` at the worker's own shard index
/// for `i` in the tile, plus `in_links[j]`/`in_credits[j]` for intra-tile
/// sends where `shard_of[j]` is the worker's tile. Tiles partition the
/// nodes, so element accesses from different workers never alias;
/// `neighbors`/`shard_of` are read-only.
pub(crate) struct SharedGrid<R> {
    pub(crate) routers: *mut R,
    pub(crate) in_links: *mut [Option<DelayLine<FlitId>>; NUM_LINK_PORTS],
    pub(crate) in_credits: *mut [Option<DelayLine<u32>>; NUM_LINK_PORTS],
    pub(crate) queues: *mut VecDeque<FlitId>,
    pub(crate) pools: *mut FlitPool,
    pub(crate) reassemblers: *mut Reassembler,
    pub(crate) neighbors: *const [Option<NodeId>; NUM_LINK_PORTS],
    pub(crate) shard_of: *const u16,
    pub(crate) mesh: Mesh,
}

// Safety: per the contract above, concurrent access through the pointers
// is to disjoint elements only; `R: Send` makes moving that access across
// threads sound.
unsafe impl<R: Send> Sync for SharedGrid<R> {}

/// Base pointer of the shard array; each broadcast slot dereferences only
/// its own index.
pub(crate) struct SharedShards(pub(crate) *mut TileShard);
unsafe impl Sync for SharedShards {}

impl SharedShards {
    /// Safety: callers pass distinct in-bounds `w` per concurrent borrow.
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn shard(&self, w: usize) -> &mut TileShard {
        unsafe { &mut *self.0.add(w) }
    }
}

/// One worker's router phase over its tile: the sequential per-node body
/// minus tracing/verification/resilience (all force the sequential path),
/// with cross-node effects split per the module docs. `nodes` is in
/// ascending id order, so every outbox comes out node-sorted.
pub(crate) fn step_tile<R: RouterModel>(
    grid: &SharedGrid<R>,
    nodes: &[NodeId],
    shard: &mut TileShard,
    me: u16,
    t: Cycle,
) {
    let TileShard {
        ctx,
        seam_flits,
        seam_credits,
        ejects,
        dones,
        drops,
    } = shard;
    // Safety (this and every dereference below): tile `me` owns `nodes`,
    // see the SharedGrid contract.
    let pool = unsafe { &mut *grid.pools.add(me as usize) };
    let reassembler = unsafe { &mut *grid.reassemblers.add(me as usize) };
    for &node in nodes {
        let i = node.index();
        debug_assert_eq!(unsafe { *grid.shard_of.add(i) }, me, "node outside tile");
        ctx.reset(t);
        ctx.trace.set_enabled(false);
        ctx.probe.set_enabled(false);

        let in_links = unsafe { &mut *grid.in_links.add(i) };
        let in_credits = unsafe { &mut *grid.in_credits.add(i) };
        for d in LINK_DIRECTIONS {
            if let Some(line) = in_links[d.index()].as_mut() {
                if let Some(id) = line.recv(t) {
                    ctx.arrivals[d.index()] = Some(pool.take(id));
                }
            }
            if let Some(line) = in_credits[d.index()].as_mut() {
                if let Some(c) = line.recv(t) {
                    ctx.credits_in[d.index()] = c;
                }
            }
        }
        let queue = unsafe { &mut *grid.queues.add(i) };
        ctx.injection = queue.front().map(|&id| {
            let mut f = *pool.get(id);
            f.injected = t;
            f
        });

        let router = unsafe { &mut *grid.routers.add(i) };
        #[cfg(debug_assertions)]
        let (arrivals_offered, occ_before) =
            (ctx.arrivals.iter().flatten().count(), router.occupancy());
        router.step(ctx);
        #[cfg(debug_assertions)]
        debug_assert!(
            occ_before + arrivals_offered + usize::from(ctx.injected)
                == router.occupancy() + ctx.flits_out(),
            "flit conservation violated at {node} cycle {t}"
        );

        let neighbors = unsafe { &*grid.neighbors.add(i) };

        // Outgoing flits: intra-tile straight onto the wire, seam-crossing
        // into the outbox.
        for d in LINK_DIRECTIONS {
            if let Some(mut flit) = ctx.out_links[d.index()].take() {
                let nbr = neighbors[d.index()]
                    .unwrap_or_else(|| panic!("{node} routed {flit:?} off-mesh via {d}"));
                flit.hops += 1;
                ctx.events.link_traversals += 1;
                if unsafe { *grid.shard_of.add(nbr.index()) } == me {
                    let id = pool.alloc(flit);
                    let lines = unsafe { &mut *grid.in_links.add(nbr.index()) };
                    lines[d.opposite().index()]
                        .as_mut()
                        .expect("reverse link exists")
                        .send(t, id);
                } else {
                    seam_flits.push(SeamFlit {
                        dst: nbr,
                        dir: d.opposite(),
                        flit,
                    });
                }
            }
        }

        // Credits upstream, same split.
        for d in LINK_DIRECTIONS {
            let c = ctx.credits_out[d.index()];
            if c > 0 {
                if let Some(upstream) = neighbors[d.index()] {
                    if unsafe { *grid.shard_of.add(upstream.index()) } == me {
                        let wires = unsafe { &mut *grid.in_credits.add(upstream.index()) };
                        wires[d.opposite().index()]
                            .as_mut()
                            .expect("reverse credit wire exists")
                            .send(t, c);
                    } else {
                        seam_credits.push(SeamCredit {
                            dst: upstream,
                            dir: d.opposite(),
                            credits: c,
                        });
                    }
                }
            }
        }

        // Injection accepted?
        if ctx.injected {
            let popped = queue.pop_front();
            debug_assert!(popped.is_some(), "router injected a phantom flit");
            ctx.events.injections += 1;
            if let Some(id) = popped {
                let _ = pool.take(id);
            }
        }

        // Ejections -> reassembly (sharded by destination, so tile-local);
        // stats and completions buffer for the commit phase.
        for flit in ctx.ejected.drain(..) {
            debug_assert_eq!(flit.dst, node, "flit ejected at wrong node");
            ctx.events.ejections += 1;
            ejects.push(EjectRec {
                created: flit.created,
                hops: flit.hops,
            });
            if let Some(done) = reassembler.accept(&flit, t) {
                dones.push(DoneRec {
                    node,
                    done,
                    flit_created: flit.created,
                });
            }
        }

        // Drops buffer whole flits: the retransmission channel is global
        // and FIFO-sequenced, so sends happen at commit in node order.
        for mut flit in ctx.dropped.drain(..) {
            ctx.events.drops += 1;
            let nack_hops = grid.mesh.hop_distance(node, flit.src).max(1) as u64;
            ctx.events.nack_hops += nack_hops;
            ctx.events.retransmissions += 1;
            flit.retransmits += 1;
            drops.push(DropRec {
                node,
                nack_hops,
                flit,
            });
        }
    }
}

/// Type-erased broadcast job: a pointer to the caller's closure plus a
/// monomorphic trampoline that invokes it with a worker-slot index.
#[derive(Clone, Copy)]
struct Job {
    data: *const (),
    call: unsafe fn(*const (), usize),
}
// SAFETY: the pointer is only dereferenced while `broadcast` blocks on
// the completion barrier, so the pointee outlives every use.
unsafe impl Send for Job {}

struct PoolState {
    /// Bumped once per broadcast; workers run each epoch exactly once.
    epoch: u64,
    job: Option<Job>,
    /// Spawned workers still running the current epoch.
    remaining: usize,
    /// Spawned workers whose closure panicked this epoch.
    panicked: usize,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Signalled on a new epoch (and on shutdown).
    work_cv: Condvar,
    /// Signalled when the last spawned worker finishes an epoch.
    done_cv: Condvar,
}

/// The persistent scoped worker pool behind the tiled sweep: threads are
/// spawned once and parked between cycles, and
/// [`WorkerPool::broadcast`] runs one closure invocation per worker slot
/// with the caller participating as slot 0. The call does not return
/// until every slot finished, so the closure may borrow the caller's
/// stack (the pool erases the lifetime internally; the completion barrier
/// restores soundness).
pub(crate) struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<std::thread::JoinHandle<()>>,
    /// Total worker slots, including the calling thread (slot 0).
    workers: usize,
}

impl WorkerPool {
    /// Pool with `workers` total slots. Slot 0 is the calling thread, so
    /// `workers - 1` threads are spawned; a one-slot pool spawns nothing
    /// and [`broadcast`](Self::broadcast) degenerates to a plain call.
    pub(crate) fn new(workers: usize) -> WorkerPool {
        let workers = workers.max(1);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                epoch: 0,
                job: None,
                remaining: 0,
                panicked: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let handles = (1..workers)
            .map(|slot| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("dxbar-pool-{slot}"))
                    .spawn(move || worker_loop(&shared, slot))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            shared,
            handles,
            workers,
        }
    }

    /// Run `f(slot)` once per worker slot (`0..workers`), the caller
    /// executing slot 0, and return only after every slot finished.
    /// Panics from any slot are re-raised here after the barrier, so
    /// borrowed data is never touched past its lifetime even on unwind.
    pub(crate) fn broadcast<F: Fn(usize) + Sync>(&self, f: &F) {
        if self.workers == 1 {
            return f(0);
        }
        unsafe fn trampoline<F: Fn(usize) + Sync>(data: *const (), slot: usize) {
            unsafe { (*(data as *const F))(slot) }
        }
        {
            let mut st = self.shared.state.lock().unwrap();
            assert_eq!(st.remaining, 0, "overlapping broadcast");
            st.job = Some(Job {
                data: f as *const F as *const (),
                call: trampoline::<F>,
            });
            st.epoch += 1;
            st.remaining = self.workers - 1;
            self.shared.work_cv.notify_all();
        }
        let own = catch_unwind(AssertUnwindSafe(|| f(0)));
        let worker_panicked = {
            let mut st = self.shared.state.lock().unwrap();
            while st.remaining > 0 {
                st = self.shared.done_cv.wait(st).unwrap();
            }
            st.job = None;
            std::mem::take(&mut st.panicked) > 0
        };
        if let Err(payload) = own {
            resume_unwind(payload);
        }
        if worker_panicked {
            panic!("WorkerPool: a worker thread panicked during broadcast");
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &PoolShared, slot: usize) {
    let mut seen = 0u64;
    loop {
        let job = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen {
                    if let Some(job) = st.job {
                        seen = st.epoch;
                        break job;
                    }
                }
                st = shared.work_cv.wait(st).unwrap();
            }
        };
        let result = catch_unwind(AssertUnwindSafe(|| unsafe { (job.call)(job.data, slot) }));
        let mut st = shared.state.lock().unwrap();
        if result.is_err() {
            st.panicked += 1;
        }
        st.remaining -= 1;
        if st.remaining == 0 {
            shared.done_cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::WorkerPool;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn broadcast_runs_every_slot_exactly_once() {
        let pool = WorkerPool::new(4);
        let hits: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        for _ in 0..50 {
            pool.broadcast(&|slot| {
                hits[slot].fetch_add(1, Ordering::Relaxed);
            });
        }
        for h in &hits {
            assert_eq!(h.load(Ordering::Relaxed), 50);
        }
    }

    #[test]
    fn broadcast_borrows_caller_stack() {
        // The whole point of the scoped design: workers mutate disjoint
        // parts of a stack-local buffer through raw-pointer partitioning.
        struct Cells(*mut u64);
        unsafe impl Sync for Cells {}
        impl Cells {
            unsafe fn set(&self, i: usize, v: u64) {
                unsafe { *self.0.add(i) = v }
            }
        }
        let pool = WorkerPool::new(3);
        let mut out = [0u64; 3];
        let cells = Cells(out.as_mut_ptr());
        pool.broadcast(&|slot| unsafe { cells.set(slot, slot as u64 + 7) });
        assert_eq!(out, [7, 8, 9]);
    }

    #[test]
    fn single_slot_pool_runs_inline() {
        let pool = WorkerPool::new(1);
        let count = AtomicUsize::new(0);
        pool.broadcast(&|slot| {
            assert_eq!(slot, 0);
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let pool = WorkerPool::new(2);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.broadcast(&|slot| {
                if slot == 1 {
                    panic!("boom");
                }
            });
        }));
        assert!(r.is_err());
        // The pool is still usable after a propagated panic.
        let count = AtomicUsize::new(0);
        pool.broadcast(&|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 2);
    }
}
