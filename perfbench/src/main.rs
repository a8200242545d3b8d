//! perfbench: end-to-end and per-layer benchmark of the simulator, the
//! campaign engine and the daemon. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <kernel8|mesh64|campaign|service> [--seed N]
//!           [--seconds S] [--trace 0|1]
//! perfbench --print-pins --seed N
//! ```
//!
//! Run from the repository root. The last stdout line is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`; the lines before it
//! are a table of every metric with its in-run spread.

mod calib;
mod campaign;
mod probe;
mod report;
mod service;
mod sim;

use report::{peak_rss_mb, Checks, Host, Metric, RunRecord};
use std::path::Path;
use std::time::Instant;

const WORKLOADS: [&str; 4] = ["kernel8", "mesh64", "campaign", "service"];

/// Run records, traces and scratch files, relative to the checkout root.
const OUT: &str = ".perfbench_out";

/// splitmix64 of `seed ^ salt`: independent, reproducible sub-seeds.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z =
        (seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    print_pins: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]\n       perfbench --print-pins --seed N",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        print_pins: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => a.workload = value(),
            "--seed" => a.seed = value().parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                a.seconds = value()
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .unwrap_or_else(|| usage("bad --seconds"))
            }
            "--trace" => {
                a.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--print-pins" => a.print_pins = true,
            _ => usage(&format!("unknown argument {flag}")),
        }
    }
    if !a.print_pins && !WORKLOADS.contains(&a.workload.as_str()) {
        usage(&format!("unknown workload {:?}", a.workload));
    }
    a
}

/// Metrics of a timed (untraced) run, plus informational ones that the
/// result line leaves out.
fn timed(a: &Args, work: &Path, checks: &mut Checks) -> Result<(Vec<Metric>, Vec<Metric>), String> {
    match a.workload.as_str() {
        "kernel8" => Ok(sim::run(&sim::KERNEL8, a.seed, a.seconds, checks)),
        "mesh64" => Ok(sim::run(&sim::MESH64, a.seed, a.seconds, checks)),
        "campaign" => campaign::run(a.seed, a.seconds, work, checks),
        "service" => service::run(a.seed, a.seconds, work, checks),
        w => unreachable!("workload {w} was validated"),
    }
}

/// The traced run: every layer, whichever workload was named, so each
/// traced run reports the full per-layer set. Each part drives the layer
/// with the workload that exercises it.
fn traced(a: &Args, work: &Path, checks: &mut Checks) -> Result<Vec<Metric>, String> {
    probe::record_spans();
    let mut m = Vec::new();
    let (k8, _) = sim::trace(&sim::KERNEL8, "k8", a.seed, 4, checks);
    m.extend(k8);
    let tiled = sim::SimWorkload {
        tile_threads: 2,
        ..sim::MESH64
    };
    let (m64, in_flight) = sim::trace(&tiled, "m64", a.seed, 4, checks);
    m.extend(m64);
    m.extend(sim::trace_seq64(a.seed, 4));
    m.extend(sim::components(in_flight as usize, a.seed));
    m.extend(campaign::trace(a.seed, work, checks)?);
    m.extend(service::trace(a.seed, 24, work, checks)?);
    Ok(m)
}

/// Point every setting this benchmark controls at its arguments: no
/// inherited `DXBAR_*` switch may change the work a run does.
fn clear_env() {
    for (k, _) in std::env::vars_os() {
        if k.to_str()
            .is_some_and(|k| k.starts_with("DXBAR_") || k.starts_with("NOC_DAEMON_"))
        {
            std::env::remove_var(k);
        }
    }
}

fn main() {
    clear_env();
    let a = parse_args();
    if a.print_pins {
        sim::print_pins(&sim::KERNEL8, a.seed);
        sim::print_pins(&sim::MESH64, a.seed);
        return;
    }
    let out = Path::new(OUT);
    let work = out.join(format!("work-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        std::process::exit(1);
    }
    let host = Host::probe();
    let mut checks = Checks::default();
    let t0 = Instant::now();
    let outcome = if a.trace {
        traced(&a, &work, &mut checks).map(|m| (m, vec![]))
    } else {
        timed(&a, &work, &mut checks)
    };
    let _ = std::fs::remove_dir_all(&work);
    let (mut metrics, mut extra) = match outcome {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", a.workload);
            std::process::exit(1);
        }
    };
    if !a.trace {
        metrics.push(Metric::single("peak_rss_mb", "MB", peak_rss_mb()));
    }
    extra.push(Metric::single("error_rate", "ratio", checks.error_rate()));
    extra.push(Metric::single("wall_s", "s", t0.elapsed().as_secs_f64()));

    let record = RunRecord {
        workload: &a.workload,
        seed: a.seed,
        trace: a.trace,
        host: &host,
        metrics: &metrics,
        extra: &extra,
        checks: &checks,
    };
    let stem = format!("{}-seed{}-trace{}", a.workload, a.seed, u8::from(a.trace));
    let written = std::fs::write(out.join(format!("{stem}.json")), record.to_json() + "\n")
        .and_then(|_| std::fs::write(out.join(format!("{stem}.txt")), record.table()))
        .and_then(|_| {
            if a.trace {
                probe::write_chrome_trace(&out.join(format!("{stem}.chrome.json")))
            } else {
                Ok(())
            }
        });
    if let Err(e) = written {
        eprintln!(
            "perfbench: cannot write run record under {}: {e}",
            out.display()
        );
        std::process::exit(1);
    }
    print!("{}", record.table());
    println!("{}", record.result_line());
}
