//! One fluent budget vocabulary for every exploration entry point.
//!
//! [`ExploreConfig`](super::ExploreConfig),
//! [`CertifyConfig`](super::CertifyConfig) and
//! [`SampleConfig`](super::SampleConfig) all bound their work the same
//! way — a run cap, a branching/schedule depth, a crash-fault budget
//! and an optional progress heartbeat — and before this module each
//! config duplicated the four builder methods. They now embed one
//! [`Budget`] and implement [`Budgeted`], whose provided methods give
//! every config the identical fluent surface:
//!
//! ```
//! use apram_model::sim::{Budgeted, CertifyConfig, ExploreConfig, SampleConfig};
//!
//! let e = ExploreConfig::new().max_runs(10_000).max_crashes(1);
//! let c = CertifyConfig::new([2, 2]).max_runs(10_000).max_crashes(1);
//! let s = SampleConfig::new([2, 2]).max_runs(10_000).max_crashes(1);
//! assert_eq!(e.budget.max_runs, 10_000);
//! assert_eq!(c.explore.budget.max_runs, 10_000);
//! assert_eq!(s.budget.max_runs, 10_000);
//! ```

use crate::telemetry::Heartbeat;

/// Shared exploration limits: how much work an engine may do and how it
/// reports progress while doing it. Interpretation of `max_depth` is
/// per-engine (branching depth for the exhaustive explorers, a
/// schedule-length hint for the sampler); `max_runs` and `max_crashes`
/// mean the same thing everywhere.
#[derive(Clone, Debug)]
pub struct Budget {
    /// Stop after this many runs (exhaustive engines) / sample exactly
    /// this many schedules (the sampler).
    pub max_runs: u64,
    /// Exhaustive engines: only branch within the first `max_depth`
    /// decision points. Sampler: must stay unbounded (the sampler
    /// refuses any other value); a sampled schedule's length is bounded
    /// by [`SimBuilder::max_steps`](super::SimBuilder::max_steps).
    pub max_depth: usize,
    /// Crash-fault budget `f`: the exhaustive engines branch on at most
    /// `f` crashes per execution; the sampler injects a random crash
    /// plan of exactly `f` victims per run. 0 (the default) keeps every
    /// execution crash-free.
    pub max_crashes: usize,
    /// When set, emit a JSONL progress line to the heartbeat's sink at
    /// least every [`Heartbeat::every`] (plus one final line), so long
    /// explorations stream live progress instead of staying silent.
    pub heartbeat: Option<Heartbeat>,
}

impl Default for Budget {
    fn default() -> Self {
        Budget {
            max_runs: 1_000_000,
            max_depth: usize::MAX,
            max_crashes: 0,
            heartbeat: None,
        }
    }
}

impl Budget {
    /// Default limits (1M runs, unbounded depth, no crashes, no
    /// heartbeat).
    pub fn new() -> Self {
        Self::default()
    }
}

/// Fluent access to an embedded [`Budget`] — the one vocabulary shared
/// by every exploration config. Implementors only provide
/// [`budget_mut`](Self::budget_mut); the chainable setters come for
/// free and keep the familiar `Config::new().max_runs(..)` call shape.
pub trait Budgeted: Sized {
    /// The embedded budget this config's limits live in.
    fn budget_mut(&mut self) -> &mut Budget;

    /// Stop after this many runs even if the work is not exhausted
    /// (for the sampler: sample exactly this many schedules).
    fn max_runs(mut self, max_runs: u64) -> Self {
        self.budget_mut().max_runs = max_runs;
        self
    }

    /// Only branch within the first `max_depth` decision points
    /// (exhaustive engines; the sampler refuses a depth bound).
    fn max_depth(mut self, max_depth: usize) -> Self {
        self.budget_mut().max_depth = max_depth;
        self
    }

    /// Crash-fault budget `f`: explore (or randomly inject) up to `f`
    /// crashes per execution.
    fn max_crashes(mut self, f: usize) -> Self {
        self.budget_mut().max_crashes = f;
        self
    }

    /// Install (or, with `None`, clear) a progress heartbeat: a JSONL
    /// line (runs, runs/sec, sleep-skips, queue depth, violation-found)
    /// to its sink at least every [`Heartbeat::every`], plus a final
    /// line when the work ends. Build one over any sink with
    /// [`Heartbeat::new`]; an `Option` passes through as it is.
    fn heartbeat(mut self, heartbeat: impl Into<Option<Heartbeat>>) -> Self {
        self.budget_mut().heartbeat = heartbeat.into();
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[derive(Default)]
    struct Cfg {
        budget: Budget,
    }

    impl Budgeted for Cfg {
        fn budget_mut(&mut self) -> &mut Budget {
            &mut self.budget
        }
    }

    #[test]
    fn provided_setters_write_through() {
        let cfg = Cfg::default()
            .max_runs(7)
            .max_depth(3)
            .max_crashes(2)
            .heartbeat(Heartbeat::new(Duration::from_secs(1), std::io::sink()));
        assert_eq!(cfg.budget.max_runs, 7);
        assert_eq!(cfg.budget.max_depth, 3);
        assert_eq!(cfg.budget.max_crashes, 2);
        assert!(cfg.budget.heartbeat.is_some());
        let cleared = cfg.heartbeat(None);
        assert!(cleared.budget.heartbeat.is_none());
    }

    #[test]
    fn defaults_match_the_historical_explore_defaults() {
        let b = Budget::new();
        assert_eq!(b.max_runs, 1_000_000);
        assert_eq!(b.max_depth, usize::MAX);
        assert_eq!(b.max_crashes, 0);
        assert!(b.heartbeat.is_none());
    }
}
