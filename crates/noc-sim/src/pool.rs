//! The persistent worker pool behind the tile-parallel sweep.
//!
//! This is the one module of the crate allowed `unsafe` code. Handing a
//! stack closure to parked threads needs its lifetime erased, and
//! [`WorkerPool::for_each_mut`] hands each slot a `&mut` into the caller's
//! slice. Both are sound for one reason: a broadcast returns only after
//! every slot finished, panics included. Everything outside this module
//! reaches the pool through the safe `for_each_mut`.

#![allow(unsafe_code)]

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};

/// Jobs run outside the lock and under `catch_unwind`, so nothing panics
/// while holding it.
const POISONED: &str = "worker pool lock poisoned";

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

/// Threads spawned once and parked between cycles. A broadcast runs one
/// closure invocation per worker slot, with the caller as slot 0.
pub(crate) struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<std::thread::JoinHandle<()>>,
    /// Total worker slots, including the calling thread (slot 0).
    workers: usize,
}

/// Base pointer of the slice `for_each_mut` splits across slots.
struct Items<T>(*mut T);
// SAFETY: slots dereference disjoint elements only (see `for_each_mut`),
// and `T: Send` makes handing each element to another thread sound.
unsafe impl<T: Send> Sync for Items<T> {}

impl<T> Items<T> {
    /// # Safety
    ///
    /// `i` is in bounds of the slice and no other live borrow covers it.
    #[allow(clippy::mut_from_ref)]
    unsafe fn get(&self, i: usize) -> &mut T {
        // SAFETY: the caller's contract.
        unsafe { &mut *self.0.add(i) }
    }
}

impl WorkerPool {
    /// Pool with `workers` total slots. Slot 0 is the calling thread, so
    /// `workers - 1` threads are spawned; a one-slot pool spawns nothing
    /// and every call runs inline.
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

    /// Call `f(i, &mut items[i])` for every element, slot `s` taking the
    /// indices `i ≡ s (mod workers)`, and return once all are done. With
    /// one element per slot, each slot owns exactly one element.
    pub(crate) fn for_each_mut<T: Send, F: Fn(usize, &mut T) + Sync>(&self, items: &mut [T], f: F) {
        let len = items.len();
        let workers = self.workers;
        let base = Items(items.as_mut_ptr());
        self.broadcast(&|slot| {
            for i in (slot..len).step_by(workers) {
                // SAFETY: `i < len`, and the residue classes of the slots
                // are disjoint, so no element is borrowed twice. `items`
                // stays mutably borrowed until `broadcast` has returned.
                f(i, unsafe { base.get(i) });
            }
        });
    }

    /// Run `f(slot)` once per worker slot (`0..workers`), the caller
    /// executing slot 0, and return only after every slot finished.
    /// Panics from any slot are re-raised here after the barrier, so
    /// borrowed data is never touched past its lifetime even on unwind.
    fn broadcast<F: Fn(usize) + Sync>(&self, f: &F) {
        if self.workers == 1 {
            return f(0);
        }
        /// # Safety
        ///
        /// `data` points to a live `F`.
        unsafe fn trampoline<F: Fn(usize) + Sync>(data: *const (), slot: usize) {
            // SAFETY: the caller's contract.
            unsafe { (*(data as *const F))(slot) }
        }
        {
            let mut st = self.shared.state.lock().expect(POISONED);
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
            let mut st = self.shared.state.lock().expect(POISONED);
            while st.remaining > 0 {
                st = self.shared.done_cv.wait(st).expect(POISONED);
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
            // Never panic in drop: setting the flag is sound on any state.
            let mut st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
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
            let mut st = shared.state.lock().expect(POISONED);
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
                st = shared.work_cv.wait(st).expect(POISONED);
            }
        };
        // SAFETY: `broadcast` keeps its closure alive until every worker
        // has decremented `remaining` below, so `job.data` is live.
        let result = catch_unwind(AssertUnwindSafe(|| unsafe { (job.call)(job.data, slot) }));
        let mut st = shared.state.lock().expect(POISONED);
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

    #[test]
    fn broadcast_borrows_caller_stack() {
        // One slot runs inline on the caller; four use three threads and
        // borrow the caller's stack. More elements than slots.
        for workers in [1, 4] {
            let pool = WorkerPool::new(workers);
            let mut hits = [0u64; 7];
            for _ in 0..50 {
                pool.for_each_mut(&mut hits, |i, h| *h += i as u64 + 1);
            }
            assert_eq!(hits, [50, 100, 150, 200, 250, 300, 350]);
        }
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let pool = WorkerPool::new(2);
        let mut items = [0u8; 2];
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.for_each_mut(&mut items, |i, _| assert_ne!(i, 1, "boom"));
        }));
        assert!(r.is_err());
        // The pool is still usable after a propagated panic.
        pool.for_each_mut(&mut items, |_, v| *v += 1);
        assert_eq!(items, [1, 1]);
    }
}
