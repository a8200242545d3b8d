//! Host-speed calibration.
//!
//! On shared hosts the simulator's speed drifts by 10-30% between runs
//! and within one, while the work stays the same (see README, "Noise").
//! Sorting a fixed array is branchy, cache-resident work that slows down
//! under the same contention, so timing one sort right before each timed
//! operation gives a speed factor for that moment. CPU-bound timings are
//! scaled by it to the reference host; the raw timings stay in the run
//! record.

use std::cell::RefCell;
use std::hint::black_box;
use std::time::Instant;

/// Calibration sort time on the reference host (2-core Xeon VM at
/// 2.0 GHz), in microseconds.
const REFERENCE_US: f64 = 400.0;

/// Elements sorted per calibration (64 KiB of `u32`).
const LEN: usize = 16 * 1024;

/// The calibration input and a scratch copy to sort, one pair per thread.
struct Calibrator {
    src: Vec<u32>,
    buf: Vec<u32>,
}

impl Calibrator {
    fn new() -> Calibrator {
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let src: Vec<u32> = (0..LEN)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u32
            })
            .collect();
        Calibrator {
            buf: src.clone(),
            src,
        }
    }

    fn speed(&mut self) -> f64 {
        self.buf.copy_from_slice(&self.src);
        let t0 = Instant::now();
        self.buf.sort_unstable();
        black_box(&self.buf);
        REFERENCE_US / (t0.elapsed().as_secs_f64() * 1e6)
    }
}

thread_local! {
    static LOCAL: RefCell<Calibrator> = RefCell::new(Calibrator::new());
}

/// How fast the calling thread runs right now relative to the reference
/// host (above 1 = faster). Multiply a host time by it, or divide a host
/// rate by it, to express the measurement at reference speed.
pub fn speed() -> f64 {
    LOCAL.with(|c| c.borrow_mut().speed())
}

/// Mean [`speed`] of two threads calibrating at once: the factor for work
/// that keeps both cores busy.
pub fn speed_of_two() -> f64 {
    std::thread::scope(|s| {
        // The helper thread's first sort pays for faulting in its fresh
        // buffers; its second is the measurement.
        let other = s.spawn(|| {
            speed();
            speed()
        });
        (speed() + other.join().expect("calibration thread panicked")) / 2.0
    })
}

/// Runs per set-up sample.
const BEST_OF: usize = 3;

/// One set-up sample: `f` run three times back to back on the calling
/// thread, its fastest time scaled by the fastest of three calibrations
/// taken right before. A set-up takes milliseconds, so on a shared host a
/// preemption can land inside one run (or inside a calibration) and add a
/// whole time slice; keeping the fastest of each drops it instead of
/// scaling it. Returns the scaled seconds and the value of the last run;
/// each earlier value is dropped before the next run starts, outside the
/// timing.
pub fn best_of<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let fastest = (0..BEST_OF).map(|_| speed()).fold(0.0, f64::max);
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..BEST_OF {
        drop(last.take());
        let t0 = Instant::now();
        let value = f();
        best = best.min(t0.elapsed().as_secs_f64());
        last = Some(value);
    }
    (best * fastest, last.expect("best_of runs at least once"))
}
