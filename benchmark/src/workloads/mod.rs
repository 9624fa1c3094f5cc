//! The six workloads. Each module builds its system under test through
//! the crates' public API only, drives it with a pre-generated stream,
//! and checks what came back.

pub mod explore;
pub mod native;
pub mod serve;
pub mod universal;

use crate::harness::Measured;
use crate::plan::{self, WorkloadPlan};
use crate::trace::SpanBuf;

/// How one run was asked to behave.
#[derive(Clone, Debug)]
pub struct RunCtx {
    pub seed: u64,
    /// Processes per workload (`min(nproc, 4)`): sessions, handles,
    /// explorer workers. The load itself runs on one core (rule 5).
    pub procs: usize,
    /// Traced run (per-layer numbers) or plain run (end-to-end numbers).
    pub trace: bool,
    /// Two segments instead of a full run; every check still runs.
    pub quick: bool,
    /// `--seconds`: how many fixed-work segments an untraced run
    /// measures ([`plan::SEGMENTS_PER_SECOND`] each).
    pub seconds: u64,
}

impl RunCtx {
    /// The traced flag of every measured segment, in order.
    pub fn segment_plan(&self) -> Vec<bool> {
        match (self.trace, self.quick) {
            (false, false) => vec![false; plan::SEGMENTS_PER_SECOND * self.seconds as usize],
            (false, true) => vec![false; plan::QUICK_SEGMENTS],
            (true, false) => [false, true].repeat(plan::TRACE_PAIRS),
            (true, true) => vec![false, true],
        }
    }

    pub fn setup_reps(&self, plan: &WorkloadPlan) -> usize {
        if self.quick {
            (plan.setup_reps / 20).max(3)
        } else {
            plan.setup_reps
        }
    }
}

/// Spans a traced run recorded, with the table their `name` indexes.
pub struct Trace {
    pub names: &'static [&'static str],
    pub bufs: Vec<SpanBuf>,
}

/// What a workload hands back.
pub struct Outcome {
    pub measured: Measured,
    /// Program-only set-up time of each rep after the first, seconds.
    pub setup_s: Vec<f64>,
    /// One line per failed output check (empty = correct).
    pub problems: Vec<String>,
    /// Identity of the generated inputs.
    pub stream_hash: u64,
    /// Ops of one segment.
    pub segment_ops: u64,
    pub trace: Option<Trace>,
    /// Generator cost (ns per op) of replaying the stream with the
    /// program call replaced by a no-op: `bench.load.gen_ns_per_op`.
    pub gen_ns_per_op: f64,
}

pub fn run(name: &str, ctx: &RunCtx) -> Option<Outcome> {
    let plan = plan::workload(name)?;
    Some(match name {
        "serve_steady" => serve::run(plan, ctx),
        "native_update_heavy" => native::run(plan, ctx, native::Variant::UpdateHeavy),
        "native_read_heavy" => native::run(plan, ctx, native::Variant::ReadHeavy),
        "native_recorded" => native::run(plan, ctx, native::Variant::Recorded),
        "universal_lwwmap" => universal::run(plan, ctx),
        "explore_verify" => explore::run(plan, ctx),
        _ => return None,
    })
}

/// The stream hash a workload would run with, without running it.
#[cfg(test)]
pub fn stream_hash(name: &str, ctx: &RunCtx) -> Option<u64> {
    let plan = plan::workload(name)?;
    Some(match name {
        "serve_steady" => serve::stream_hash(plan, ctx),
        "native_update_heavy" => native::stream_hash(ctx, native::Variant::UpdateHeavy),
        "native_read_heavy" => native::stream_hash(ctx, native::Variant::ReadHeavy),
        "native_recorded" => native::stream_hash(ctx, native::Variant::Recorded),
        "universal_lwwmap" => universal::stream_hash(plan, ctx),
        "explore_verify" => explore::stream_hash(ctx),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(seed: u64) -> RunCtx {
        RunCtx {
            seed,
            procs: 2,
            trace: false,
            quick: true,
            seconds: plan::RUN_SECONDS,
        }
    }

    #[test]
    fn same_seed_same_inputs_for_every_workload() {
        for w in &plan::WORKLOADS {
            let a = stream_hash(w.name, &ctx(11)).unwrap();
            let b = stream_hash(w.name, &ctx(11)).unwrap();
            let c = stream_hash(w.name, &ctx(12)).unwrap();
            assert_eq!(a, b, "{}", w.name);
            assert_ne!(a, c, "{}", w.name);
        }
    }

    #[test]
    fn segment_plans_have_the_documented_shape() {
        let mut c = ctx(1);
        assert_eq!(c.segment_plan(), vec![false, false]);
        c.quick = false;
        assert_eq!(
            c.segment_plan().len(),
            plan::SEGMENTS_PER_SECOND * plan::RUN_SECONDS as usize
        );
        c.seconds = 3;
        assert_eq!(c.segment_plan().len(), 3 * plan::SEGMENTS_PER_SECOND);
        c.trace = true;
        let p = c.segment_plan();
        assert_eq!(p.len(), 2 * plan::TRACE_PAIRS);
        assert_eq!(p.iter().filter(|&&t| t).count(), plan::TRACE_PAIRS);
    }
}
