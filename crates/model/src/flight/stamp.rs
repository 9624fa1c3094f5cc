//! Where the flight recorder's timestamps come from, and why a span
//! built from two of them contains the operation it brackets.
//!
//! Linearizability is judged on real-time precedence: the audit infers
//! "A preceded B" from `end(A) < begin(B)`, so that inference must never
//! hold of two operations whose accesses actually overlapped. It is
//! enough that every recorded interval *contains* the true one — from
//! before the op's first shared access takes effect to after its last
//! one has. A clock read alone does not give that: the processor may
//! read the clock early or late relative to the accesses around it, and
//! a store that has retired may still sit in the core's store buffer,
//! invisible to every other core, when a stamp taken "after" it is read.
//!
//! The stamps here are fenced so that, on x86-64 (TSO):
//!
//! * **begin** = `rdtsc; lfence`. `lfence` lets no later instruction
//!   start until the counter read has completed, so no access of the op
//!   runs ahead of its begin stamp.
//! * **end** = `mfence` *if the op wrote*, then `lfence; rdtsc`. `lfence`
//!   completes only after every earlier load has, and `mfence` before it
//!   only after every earlier store is globally visible, so the counter
//!   is read after the op's last access has taken effect everywhere. A
//!   read-only op has no store to wait for and skips the `mfence` — its
//!   loads are ordered by the `lfence` alone.
//!
//! (`lfence` has had these semantics on Intel from the start; on AMD it
//! has them when the kernel sets the dispatch-serialising MSR bit, which
//! Linux does on every part that has it.)
//!
//! So if `end(A) < begin(B)` in counter time, every access of A took
//! effect before any access of B began. Comparing counters *across
//! cores* is valid exactly when they are one clock — synchronised, at a
//! constant rate, never stopping — which is what the kernel certifies by
//! running its own timekeeping on the TSC: the counter is used only when
//! Linux reports `tsc` as the current clocksource (it demotes the TSC
//! the moment its watchdog sees cores disagree).
//!
//! Events carry raw ticks; the drain converts them to nanoseconds
//! through one process-wide anchor pair `(Instant, ticks)` and one
//! scale, fixed at the first conversion. The map is *monotone*
//! (non-decreasing), which is all the audit needs: it may merge two
//! stamps a fraction of a nanosecond apart — a tie is read as overlap,
//! the conservative direction — but it can never reorder them.
//!
//! Everywhere else — other architectures, miri, loom, an x86-64 kernel
//! that does not trust its TSC — the same functions read `Instant` with
//! a `SeqCst` fence between the clock read and the op on both sides
//! (unconditionally: off TSO the full fence is also what orders the
//! loads). That is as strong as the language can say it; how tightly the
//! platform's clock read is itself ordered against the fence is the
//! platform's business (Linux's vDSO reads the counter behind its own
//! barrier), and the containment argument above is made for the counter
//! path only.

use std::sync::atomic::{fence, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

#[cfg(all(target_arch = "x86_64", not(miri), not(loom)))]
mod tsc;

/// No cycle counter on this target: [`Clock::tsc`] is never set, so
/// these are never reached.
#[cfg(not(all(target_arch = "x86_64", not(miri), not(loom))))]
mod tsc {
    pub(super) fn rdtsc() -> u64 {
        unreachable!("no cycle counter on this target")
    }
    pub(super) fn lfence() {}
}

/// A conversion's scale is fixed from the anchor to a second paired
/// read at least this much later (waited out, once per process, if the
/// first drain comes sooner): two clock reads some tens of nanoseconds
/// loose then put the scale within a part in a thousand.
const CALIBRATION_BASELINE_NS: u128 = 100_000;

/// A stamp source: the cycle counter or the `Instant` fallback, with
/// the anchor its raw stamps are converted against.
pub(crate) struct Clock {
    /// The moment raw stamp `anchor_ticks` was read.
    anchor: Instant,
    /// 0 on the fallback, whose raw stamps are already nanoseconds
    /// since `anchor`.
    anchor_ticks: u64,
    tsc: bool,
    /// Nanoseconds per tick × 2³², fixed by the first conversion.
    scale: OnceLock<u64>,
}

/// The process's one clock. The sysfs read and the anchor happen on the
/// first call.
pub(crate) fn clock() -> &'static Clock {
    static CLOCK: OnceLock<Clock> = OnceLock::new();
    CLOCK.get_or_init(|| Clock::new(kernel_trusts_tsc()))
}

/// Which source this process's flight-recorder stamps are read from:
/// `"tsc"` (fenced cycle counter) or `"instant"` (the fallback).
pub fn source() -> &'static str {
    if clock().tsc {
        "tsc"
    } else {
        "instant"
    }
}

fn kernel_trusts_tsc() -> bool {
    cfg!(all(
        target_arch = "x86_64",
        target_os = "linux",
        not(miri),
        not(loom)
    )) && std::fs::read_to_string(
        "/sys/devices/system/clocksource/clocksource0/current_clocksource",
    )
    .is_ok_and(|s| s.trim() == "tsc")
}

/// An `Instant` and the counter at (nearly) one moment: the tightest of
/// three brackets, so a preemption between the two reads does not skew
/// the pair.
fn paired_read() -> (Instant, u64) {
    (0..3)
        .map(|_| {
            let before = tsc::rdtsc();
            let now = Instant::now();
            let width = tsc::rdtsc().saturating_sub(before);
            (width, now, before + width / 2)
        })
        .min_by_key(|&(width, ..)| width)
        .map(|(_, now, ticks)| (now, ticks))
        .expect("three reads")
}

impl Clock {
    fn new(tsc: bool) -> Clock {
        let (anchor, anchor_ticks) = if tsc {
            paired_read()
        } else {
            (Instant::now(), 0)
        };
        Clock {
            anchor,
            anchor_ticks,
            tsc,
            scale: OnceLock::new(),
        }
    }

    /// A plain, unfenced read, for events that are instants on a trace:
    /// nothing is inferred from where exactly they fall.
    #[inline]
    pub(crate) fn now(&self) -> u64 {
        if self.tsc {
            tsc::rdtsc()
        } else {
            self.anchor.elapsed().as_nanos() as u64
        }
    }

    /// A begin stamp: no later access starts before the clock is read.
    #[inline]
    pub(crate) fn begin(&self) -> u64 {
        let t = self.now();
        if self.tsc {
            tsc::lfence();
        } else {
            fence(Ordering::SeqCst);
        }
        t
    }

    /// An end stamp: the clock is read after every earlier load has
    /// completed and — `wrote` says whether there was one — every
    /// earlier store is visible to all cores.
    #[inline]
    pub(crate) fn end(&self, wrote: bool) -> u64 {
        if self.tsc {
            if wrote {
                fence(Ordering::SeqCst);
            }
            tsc::lfence();
        } else {
            fence(Ordering::SeqCst);
        }
        self.now()
    }

    /// Nanoseconds since the anchor for a raw stamp of this clock.
    /// Monotone: `a <= b` implies `to_ns(a) <= to_ns(b)`.
    pub(crate) fn to_ns(&self, ticks: u64) -> u64 {
        let d = ticks.saturating_sub(self.anchor_ticks);
        if !self.tsc {
            return d;
        }
        let scale = *self.scale.get_or_init(|| self.calibrate());
        // Saturating (five centuries of nanoseconds) rather than
        // wrapping, which would not be monotone.
        u64::try_from((u128::from(d) * u128::from(scale)) >> 32).unwrap_or(u64::MAX)
    }

    /// Nanoseconds per tick × 2³², from the anchor to now.
    fn calibrate(&self) -> u64 {
        loop {
            let (now, ticks) = paired_read();
            let ns = now.duration_since(self.anchor).as_nanos();
            let d = u128::from(ticks.saturating_sub(self.anchor_ticks));
            if ns >= CALIBRATION_BASELINE_NS && d > 0 {
                return ((ns << 32) / d) as u64;
            }
            std::hint::spin_loop();
        }
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::atomic::AtomicU64;

    /// One thread's spans through `clock`: every end at or after its
    /// begin, every begin at or after the previous end, in raw stamps
    /// and after conversion.
    fn spans_are_ordered(clock: &Clock) {
        let cell = AtomicU64::new(0);
        let mut last_end = 0;
        for i in 0..2_000u64 {
            let b = clock.begin();
            if i % 2 == 0 {
                cell.store(i, Ordering::Relaxed);
            } else {
                std::hint::black_box(cell.load(Ordering::Relaxed));
            }
            let e = clock.end(i % 2 == 0);
            assert!(last_end <= b && b <= e, "op {i}: {last_end} {b} {e}");
            assert!(clock.to_ns(last_end) <= clock.to_ns(b));
            assert!(clock.to_ns(b) <= clock.to_ns(e));
            let mid = clock.now();
            assert!(e <= mid, "unfenced read went backwards: {e} {mid}");
            last_end = e;
        }
    }

    #[test]
    fn process_clock_orders_one_threads_spans() {
        spans_are_ordered(clock());
    }

    #[test]
    fn instant_fallback_orders_one_threads_spans() {
        let fallback = Clock::new(false);
        spans_are_ordered(&fallback);
        // Its raw stamps are already nanoseconds since the anchor.
        assert_eq!(fallback.to_ns(12_345), 12_345);
    }

    #[test]
    fn conversion_is_anchored_and_tracks_instant() {
        let c = clock();
        assert_eq!(c.to_ns(c.anchor_ticks), 0);
        assert_eq!(c.to_ns(0), 0, "a stamp before the anchor saturates");
        // A millisecond by `Instant` is a millisecond of converted
        // ticks, to well within the calibration's part in a thousand
        // (the bound leaves room for a preemption between the reads).
        let (i0, t0) = (Instant::now(), c.now());
        std::thread::sleep(std::time::Duration::from_millis(1));
        let (i1, t1) = (Instant::now(), c.now());
        let by_instant = i1.duration_since(i0).as_nanos() as u64;
        let by_ticks = c.to_ns(t1) - c.to_ns(t0);
        assert!(
            by_ticks.abs_diff(by_instant) <= by_instant / 20 + 50_000,
            "{by_ticks} ns by ticks, {by_instant} ns by Instant ({})",
            source()
        );
    }

    proptest! {
        /// Monotone for any scale a real counter could have (0.01 to
        /// 100 ns per tick) and any pair of stamps, before the anchor
        /// included.
        #[test]
        fn conversion_is_monotone(
            anchor_ticks in any::<u64>(),
            scale in (1u64 << 25)..(100u64 << 32),
            a in any::<u64>(),
            b in any::<u64>(),
            near in 0u64..1_000,
        ) {
            let c = Clock {
                anchor: Instant::now(),
                anchor_ticks,
                tsc: true,
                scale: OnceLock::from(scale),
            };
            let (lo, hi) = (a.min(b), a.max(b));
            prop_assert!(c.to_ns(lo) <= c.to_ns(hi));
            prop_assert!(c.to_ns(a) <= c.to_ns(a.saturating_add(near)));
            prop_assert_eq!(c.to_ns(anchor_ticks), 0);
        }
    }
}
