//! The per-layer probes: fixed, small pieces of work that time calls
//! into one layer's public functions from outside.
//!
//! Every traced run executes the same probes whatever workload it
//! traces, so a layer's numbers are comparable between any two traced
//! runs; the probes run on a thread pinned to the load CPU.

mod flight;
mod history;
mod native;
mod objects;
mod protocol;
mod server;
mod sim;
mod snapshot;
mod table;
mod telemetry;
mod universal;

use crate::stats::{self, Better};
use std::time::Instant;

/// Metric rows a probe reports.
pub type Rows = Vec<(&'static str, f64)>;

/// ns per call: `reps` timed blocks of `iters` calls each, reduced by
/// the one-sided estimator (rule 2) — interference only slows a block.
pub fn ns_per_call(reps: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    let blocks: Vec<f64> = (0..reps + 1)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .skip(1) // warm-up block
        .collect();
    stats::best_share_median(&blocks, 0.5, Better::Lower)
}

/// ns of one call of `f`, each call on a fresh input from `make`
/// (made and dropped outside the clock): for work that mutates what it
/// is given.
pub fn ns_per_fresh<T>(reps: usize, mut make: impl FnMut() -> T, mut f: impl FnMut(&mut T)) -> f64 {
    let samples: Vec<f64> = (0..reps + 1)
        .map(|_| {
            let mut input = make();
            let t0 = Instant::now();
            f(&mut input);
            t0.elapsed().as_nanos() as f64
        })
        .skip(1)
        .collect();
    stats::best_share_median(&samples, 0.5, Better::Lower)
}

/// Run every probe. `seed` feeds the probes that replay a generated
/// stream; `procs` is the host's process count.
pub fn run_all(seed: u64, procs: usize) -> Rows {
    std::thread::scope(|scope| {
        scope
            .spawn(move || {
                if let Some(cpu) = crate::host::load_cpu() {
                    crate::host::pin_current_thread(cpu);
                }
                let mut rows = Rows::new();
                let codec = protocol::probe(&mut rows);
                let execute_ns = table::probe(seed, &mut rows);
                server::probe(seed, codec, execute_ns, &mut rows);
                objects::probe(seed, procs, &mut rows);
                native::probe(&mut rows);
                flight::probe(&mut rows);
                telemetry::probe(&mut rows);
                snapshot::probe(&mut rows);
                universal::probe(seed, &mut rows);
                sim::probe(procs, &mut rows);
                history::probe(procs, &mut rows);
                rows
            })
            .join()
            .expect("probe thread")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_helpers_report_positive_per_call_times() {
        let mut x = 0u64;
        let ns = ns_per_call(4, 1000, || x = std::hint::black_box(x.wrapping_mul(3) + 1));
        assert!(ns > 0.0 && ns < 1e6, "{ns}");
        let mut made = 0;
        let ns = ns_per_fresh(
            3,
            || {
                made += 1;
                vec![1u8; 64]
            },
            |v| v.push(std::hint::black_box(2)),
        );
        assert!(ns >= 0.0);
        assert_eq!(made, 4);
    }
}
