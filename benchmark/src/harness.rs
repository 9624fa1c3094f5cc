//! The segment runner shared by every workload.
//!
//! A run is one discarded warm-up segment plus N measured segments of
//! *fixed work* (rule 3). Generator threads are spawned once, pinned
//! one per core (rule 5), and released together at each segment start;
//! the main thread sleeps on the barrier while they work and does its
//! bookkeeping (sorting latencies, draining recorders) between
//! segments, outside every clock.

use crate::host;
use crate::stats::{self, Better};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

/// One generator thread of a workload.
pub trait Worker: Send {
    /// Run one fixed-work segment, pushing latency samples (ns per op)
    /// into `lat`; `traced` says whether to record spans. Returns the
    /// number of failed ops.
    fn segment(&mut self, traced: bool, lat: &mut Vec<f32>) -> u64;

    /// Ops one segment of this worker issues.
    fn segment_ops(&self) -> u64;

    /// Latency samples one segment pushes (a sample may cover a batch).
    fn segment_samples(&self) -> usize;

    /// The CPU to pin to, if any (workers that spawn their own threads
    /// stay unpinned, since children inherit the mask).
    fn pin(&self) -> Option<usize>;
}

/// What one segment measured.
#[derive(Clone, Debug)]
pub struct SegStat {
    pub traced: bool,
    pub ops: u64,
    pub failed: u64,
    pub wall: Duration,
    pub cpu: Duration,
    /// CPU the generator threads alone consumed (for a served workload
    /// the rest of `cpu` is the server's).
    pub gen_cpu: Duration,
    /// Median latency sample of the segment, ns per op.
    pub p50_ns: f64,
    pub samples: u64,
}

impl SegStat {
    pub fn ops_per_s(&self) -> f64 {
        (self.ops - self.failed) as f64 / self.wall.as_secs_f64()
    }

    pub fn cpu_us_per_op(&self) -> f64 {
        self.cpu.as_secs_f64() * 1e6 / self.ops as f64
    }
}

/// The measured segments of a run (warm-up already dropped).
#[derive(Debug, Default)]
pub struct Measured {
    pub segs: Vec<SegStat>,
    /// Every latency sample of the untraced measured segments,
    /// ascending; filled only when asked for (tail metrics).
    pub all_samples: Vec<f32>,
    /// Ops issued in all segments, warm-up included.
    pub attempted: u64,
    pub failed: u64,
}

impl Measured {
    fn pick(&self, traced: bool, f: impl Fn(&SegStat) -> f64) -> Vec<f64> {
        self.segs
            .iter()
            .filter(|s| s.traced == traced)
            .map(f)
            .collect()
    }

    pub fn ops_per_s(&self, traced: bool) -> Vec<f64> {
        self.pick(traced, SegStat::ops_per_s)
    }

    pub fn p50_us(&self, traced: bool) -> Vec<f64> {
        self.pick(traced, |s| s.p50_ns / 1e3)
    }

    pub fn cpu_us_per_op(&self, traced: bool) -> Vec<f64> {
        self.pick(traced, SegStat::cpu_us_per_op)
    }

    pub fn samples(&self, traced: bool) -> u64 {
        self.segs
            .iter()
            .filter(|s| s.traced == traced)
            .map(|s| s.samples)
            .sum()
    }
}

/// Run `plan.len()` segments (`plan[i]` = traced?) after one untraced
/// warm-up. `between` runs on the main thread after every segment,
/// warm-up included, outside the clocks.
pub fn run_segments<W: Worker>(
    workers: &mut [W],
    plan: &[bool],
    keep_samples: bool,
    mut between: impl FnMut(),
) -> Measured {
    struct Slot {
        span: Option<(Instant, Instant)>,
        cpu: Duration,
        failed: u64,
        lat: Vec<f32>,
    }
    let slots: Vec<Mutex<Slot>> = workers
        .iter()
        .map(|w| {
            Mutex::new(Slot {
                span: None,
                cpu: Duration::ZERO,
                failed: 0,
                // Pre-touched so the first measured push never faults.
                lat: vec![0.0; w.segment_samples()],
            })
        })
        .collect();
    let seg_ops: u64 = workers.iter().map(|w| w.segment_ops()).sum();
    let flags: Vec<bool> = std::iter::once(false).chain(plan.iter().copied()).collect();
    let barrier = Barrier::new(workers.len() + 1);
    let mut out = Measured::default();
    let mut merged: Vec<f32> =
        Vec::with_capacity(workers.iter().map(|w| w.segment_samples()).sum());

    std::thread::scope(|scope| {
        for (w, slot) in workers.iter_mut().zip(&slots) {
            let (barrier, flags) = (&barrier, &flags);
            scope.spawn(move || {
                if let Some(cpu) = w.pin() {
                    host::pin_current_thread(cpu);
                }
                for &traced in flags {
                    barrier.wait();
                    let mut slot = slot
                        .lock()
                        .expect("slot lock: main never panics holding it");
                    slot.lat.clear();
                    let cpu0 = host::thread_cpu();
                    let t0 = Instant::now();
                    let failed = w.segment(traced, &mut slot.lat);
                    let t1 = Instant::now();
                    slot.cpu = host::thread_cpu() - cpu0;
                    slot.span = Some((t0, t1));
                    slot.failed = failed;
                    drop(slot);
                    barrier.wait();
                }
            });
        }
        for (i, &traced) in flags.iter().enumerate() {
            let cpu0 = host::process_cpu();
            barrier.wait();
            barrier.wait();
            let cpu = host::process_cpu() - cpu0;

            merged.clear();
            let (mut first, mut last, mut failed) = (None::<Instant>, None::<Instant>, 0);
            let mut gen_cpu = Duration::ZERO;
            for slot in &slots {
                let slot = slot
                    .lock()
                    .expect("slot lock: a panicked worker aborts the scope");
                let (t0, t1) = slot
                    .span
                    .expect("worker stored its span before the barrier");
                first = Some(first.map_or(t0, |f| f.min(t0)));
                last = Some(last.map_or(t1, |l| l.max(t1)));
                failed += slot.failed;
                gen_cpu += slot.cpu;
                merged.extend_from_slice(&slot.lat);
            }
            out.attempted += seg_ops;
            out.failed += failed;
            between();
            if i == 0 {
                continue; // warm-up
            }
            merged.sort_unstable_by(f32::total_cmp);
            out.segs.push(SegStat {
                traced,
                ops: seg_ops,
                failed,
                wall: last.expect("at least one worker") - first.expect("at least one worker"),
                cpu,
                gen_cpu,
                p50_ns: stats::quantile_sorted_f32(&merged, 0.5) as f64,
                samples: merged.len() as u64,
            });
            if keep_samples && !traced {
                out.all_samples.extend_from_slice(&merged);
            }
        }
    });
    out.all_samples.sort_unstable_by(f32::total_cmp);
    out
}

/// Rule 1: the system under test is built `reps` times in the warm
/// process, in chunks between the segments so that the reps sample the
/// whole run and one burst of interference cannot cover them all.
/// `build` times only the program's own set-up and hands the instance
/// back for (untimed) teardown; the very first rep is discarded.
pub struct SetupReps {
    per_chunk: usize,
    warm: bool,
    samples: Vec<f64>,
}

impl SetupReps {
    /// `reps` spread over `chunks` calls of [`SetupReps::chunk`].
    pub fn new(reps: usize, chunks: usize) -> SetupReps {
        SetupReps {
            per_chunk: reps.div_ceil(chunks.max(1)),
            warm: false,
            samples: Vec::with_capacity(reps + chunks),
        }
    }

    pub fn chunk<S>(
        &mut self,
        mut build: impl FnMut() -> (Duration, S),
        mut teardown: impl FnMut(S),
    ) {
        for _ in 0..self.per_chunk + usize::from(!self.warm) {
            let (d, sut) = build();
            teardown(sut);
            if self.warm {
                self.samples.push(d.as_secs_f64());
            }
            self.warm = true;
        }
    }

    /// Seconds of every rep after the first.
    pub fn into_samples(self) -> Vec<f64> {
        self.samples
    }
}

/// The run-level value of a per-segment metric (rule 2) with the
/// quartiles over all segments beside it.
pub fn estimate(xs: &[f64], better: Better) -> (f64, (f64, f64, f64)) {
    (
        stats::best_share_median(xs, crate::plan::BEST_SHARE, better),
        stats::quartiles(xs),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Spin {
        ops: u64,
        fail_every: u64,
        calls: u64,
    }

    impl Worker for Spin {
        fn segment(&mut self, _traced: bool, lat: &mut Vec<f32>) -> u64 {
            self.calls += 1;
            for i in 0..self.ops {
                lat.push(100.0 + i as f32);
            }
            self.ops / self.fail_every
        }
        fn segment_ops(&self) -> u64 {
            self.ops
        }
        fn segment_samples(&self) -> usize {
            self.ops as usize
        }
        fn pin(&self) -> Option<usize> {
            None
        }
    }

    #[test]
    fn warm_up_is_dropped_and_work_is_counted() {
        let mut workers = vec![
            Spin {
                ops: 10,
                fail_every: 5,
                calls: 0,
            },
            Spin {
                ops: 10,
                fail_every: 10,
                calls: 0,
            },
        ];
        let mut boundaries = 0;
        let m = run_segments(&mut workers, &[false, true, false], true, || {
            boundaries += 1
        });
        assert_eq!(m.segs.len(), 3);
        assert_eq!(boundaries, 4);
        assert!(workers.iter().all(|w| w.calls == 4));
        assert_eq!(m.attempted, 80);
        assert_eq!(m.failed, 12);
        assert_eq!(m.segs[0].ops, 20);
        assert_eq!(m.segs[0].failed, 3);
        assert_eq!(m.segs[0].samples, 20);
        assert_eq!(m.segs[0].p50_ns, 104.0);
        assert_eq!(m.ops_per_s(true).len(), 1);
        // Tail samples come from the two untraced measured segments.
        assert_eq!(m.all_samples.len(), 40);
    }

    #[test]
    fn setup_reps_are_chunked_and_the_first_is_discarded() {
        let mut built = 0;
        let mut torn = 0;
        let mut reps = SetupReps::new(5, 3);
        for _ in 0..3 {
            reps.chunk(
                || {
                    built += 1;
                    (Duration::from_millis(built), built)
                },
                |_| torn += 1,
            );
        }
        // Two per chunk, plus the discarded warm-up rep in the first.
        assert_eq!((built, torn), (7, 7));
        assert_eq!(
            reps.into_samples(),
            vec![0.002, 0.003, 0.004, 0.005, 0.006, 0.007]
        );
    }
}
