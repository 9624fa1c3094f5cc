//! The striped counter: the §5.1 counter restricted to *unit
//! increments*, on word-sized per-process stripes.
//!
//! Register `p` holds process `p`'s total contribution as a bare `u64`.
//! `inc` is **one** register write (the handle caches its own running
//! total); `read` is one collect of the `n` stripes.
//!
//! Restricting to unit increments is what makes the collect-read
//! linearizable *without* an atomic scan: every stripe is monotone, so
//! the collect's sum is bracketed by the true total at the collect's
//! start and at its end — and since unit increments move the true total
//! through **every** intermediate integer, the sum read equals the
//! counter's value at some instant inside the read's window. The
//! restriction is load-bearing twice over: with arbitrary deltas a
//! collect can include a late big increment while missing an earlier
//! small one and return a sum the counter never held (the checker in
//! this module's tests finds such histories immediately), and with
//! decrements monotonicity itself dies; both cases need the full
//! [`crate::DirectCounter`] scan machinery.
//!
//! Because its registers are bare words, this is the object the E13
//! scaling grid uses to drive the native backend's *packed* register
//! tier; the same code runs unchanged on the simulator, on the buffered
//! tier, and on the lock-per-register tier E13 measures it against. Every
//! build compiles that tier, the repo benchmark's included, but a memory
//! is on it only when built with `NativeMemory::new_locked`: no packed or
//! buffered access ever takes a lock.

use apram_history::ProcId;
use apram_model::MemCtx;

/// An increment-only counter on per-process word stripes.
#[derive(Clone, Copy, Debug)]
pub struct StripedCounter {
    n: usize,
}

impl StripedCounter {
    /// A counter shared by `n` processes.
    pub fn new(n: usize) -> Self {
        StripedCounter { n }
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Initial register contents: one zero stripe per process.
    pub fn registers(&self) -> Vec<u64> {
        vec![0; self.n]
    }

    /// Single-writer owner map: stripe `p` is written only by `p`.
    pub fn owners(&self) -> Vec<ProcId> {
        (0..self.n).collect()
    }

    /// A per-process handle. **One handle per process for the object's
    /// lifetime**: it caches the process's own stripe value.
    pub fn handle(&self) -> StripedCounterHandle {
        StripedCounterHandle { own: 0 }
    }

    /// Audit the counter value from the registers alone (test harnesses
    /// with direct memory access; not a process operation).
    pub fn audit_total(&self, mut peek: impl FnMut(usize) -> u64) -> u64 {
        (0..self.n).map(&mut peek).sum()
    }
}

/// Per-process handle on a [`StripedCounter`].
#[derive(Clone, Debug)]
pub struct StripedCounterHandle {
    own: u64,
}

impl StripedCounterHandle {
    /// Add one: a single register write.
    pub fn inc<C: MemCtx<u64>>(&mut self, ctx: &mut C) {
        self.own += 1;
        let p = ctx.proc();
        ctx.write(p, self.own);
    }

    /// Read the current value: one collect of the `n` stripes.
    pub fn read<C: MemCtx<u64>>(&mut self, ctx: &mut C) -> u64 {
        (0..ctx.n_regs()).map(|r| ctx.read(r)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apram_core::counter::{CounterOp, CounterResp};
    use apram_history::check::{check_linearizable, CheckerConfig};
    use apram_history::Recorder;
    use apram_model::sim::strategy::SeededRandom;
    use apram_model::sim::SimBuilder;
    use apram_model::NativeMemory;

    #[test]
    fn sequential_counts() {
        let c = StripedCounter::new(2);
        let mem = NativeMemory::new_packed(2, c.registers()).with_owners(c.owners());
        let mut h0 = c.handle();
        let mut h1 = c.handle();
        let mut c0 = mem.ctx(0);
        let mut c1 = mem.ctx(1);
        assert_eq!(h0.read(&mut c0), 0);
        for _ in 0..5 {
            h0.inc(&mut c0);
        }
        h1.inc(&mut c1);
        h1.inc(&mut c1);
        assert_eq!(h0.read(&mut c0), 7);
        assert_eq!(h1.read(&mut c1), 7);
        assert_eq!(c.n(), 2);
        assert_eq!(c.audit_total(|r| mem.peek(r)), 7);
    }

    /// Linearizability of the collect-read under random simulated
    /// schedules, against the reset-free counter spec.
    #[test]
    fn linearizable_under_random_schedules() {
        for seed in 0..15u64 {
            let n = 3;
            let c = StripedCounter::new(n);
            let rec: Recorder<CounterOp, CounterResp> = Recorder::new();
            let rec2 = rec.clone();
            let out = SimBuilder::new(c.registers())
                .owners(c.owners())
                .strategy(SeededRandom::new(seed))
                .run_symmetric(n, move |ctx| {
                    let p = ctx.proc();
                    let mut h = c.handle();
                    for _ in 0..3 {
                        rec2.invoke(p, CounterOp::Inc(1));
                        h.inc(ctx);
                        rec2.respond(p, CounterResp::Ack);
                        rec2.invoke(p, CounterOp::Read);
                        let v = h.read(ctx);
                        rec2.respond(p, CounterResp::Value(v as i64));
                    }
                });
            out.assert_no_panics();
            let hist = rec.snapshot();
            assert!(
                check_linearizable(&apram_core::CounterSpec, &hist, &CheckerConfig::default())
                    .is_ok(),
                "seed {seed}: {hist:?}"
            );
        }
    }

    /// Native packed-tier stress: exact final total, monotone reads.
    #[test]
    fn native_packed_stress() {
        let n = 4;
        let per = 1000u64;
        let c = StripedCounter::new(n);
        let mem = NativeMemory::new_packed(n, c.registers()).with_owners(c.owners());
        std::thread::scope(|s| {
            for p in 0..n {
                let mem = mem.clone();
                let mut h = c.handle();
                s.spawn(move || {
                    let mut ctx = mem.ctx(p);
                    let mut last = 0;
                    for k in 0..per {
                        h.inc(&mut ctx);
                        let v = h.read(&mut ctx);
                        assert!(v >= last, "collect-read went backwards");
                        assert!(v > k, "own increments must be visible");
                        assert!(v <= n as u64 * per);
                        last = v;
                    }
                });
            }
        });
        assert_eq!(c.audit_total(|r| mem.peek(r)), n as u64 * per);
    }
}
