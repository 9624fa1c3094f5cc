use super::*;

#[test]
fn single_thread_read_write() {
    let mem = NativeMemory::new(1, vec![0u64; 3]);
    let mut ctx = mem.ctx(0);
    assert_eq!(ctx.read(1), 0);
    ctx.write(1, 42);
    assert_eq!(ctx.read(1), 42);
    assert_eq!(mem.peek(1), 42);
    assert_eq!(
        ctx.counts(),
        StepCounts {
            reads: 2,
            writes: 1
        }
    );
    ctx.reset_counts();
    assert_eq!(ctx.counts().total(), 0);
    assert_eq!(ctx.n_procs(), 1);
    assert_eq!(ctx.n_regs(), 3);
    assert_eq!(ctx.proc(), 0);
}

#[test]
#[should_panic(expected = "SWMR violation")]
fn owner_map_enforced() {
    let mem = NativeMemory::new(2, vec![0u64; 2]).with_owners(vec![0, 1]);
    let mut ctx = mem.ctx(0);
    ctx.write(1, 5);
}

#[test]
#[should_panic(expected = "out of range")]
fn proc_bounds_checked() {
    let mem = NativeMemory::new(2, vec![0u64; 1]);
    let _ = mem.ctx(2);
}

#[test]
fn concurrent_writers_to_distinct_registers() {
    let mem = NativeMemory::new(8, vec![0u64; 8]).with_owners((0..8).collect());
    std::thread::scope(|s| {
        for p in 0..8 {
            let mem = mem.clone();
            s.spawn(move || {
                let mut ctx = mem.ctx(p);
                for i in 0..1000u64 {
                    ctx.write(p, i);
                    let _ = ctx.read((p + 1) % 8);
                }
            });
        }
    });
    for p in 0..8 {
        assert_eq!(mem.peek(p), 999);
    }
}

#[test]
fn clone_shares_storage() {
    let mem = NativeMemory::new(1, vec![7u64]);
    let mem2 = mem.clone();
    mem.ctx(0).write(0, 9);
    assert_eq!(mem2.peek(0), 9);
    assert_eq!(mem2.n_regs(), 1);
    assert_eq!(mem2.n_procs(), 1);
}

// ---- tier selection and tier-specific behavior ----

#[test]
fn tier_names() {
    let tiers = [
        NativeMemory::new(2, vec![0u64; 1]).tier(),
        NativeMemory::new_packed(2, vec![0u64; 1]).tier(),
        NativeMemory::new_locked(2, vec![0u64; 1]).tier(),
    ];
    assert_eq!(tiers, [Tier::Buffered, Tier::Packed, Tier::Rwlock]);
    let labels = tiers.map(|t| t.label());
    assert_eq!(labels, ["buffered", "packed", "rwlock"]);
    let ceilings = tiers.map(|t| t.max_procs());
    assert_eq!(ceilings, [Some(buffered::MAX_PROCS), None, None]);
}

#[test]
fn packed_tier_round_trips_words() {
    let mem = NativeMemory::new_packed(2, vec![-1i64, 5]);
    let mut c0 = mem.ctx(0);
    assert_eq!(c0.read(0), -1);
    c0.write(0, i64::MIN);
    assert_eq!(c0.read(0), i64::MIN);
    assert_eq!(mem.peek(1), 5);
    assert_eq!(mem.read_retries(), 0);
}

#[test]
fn packed_tier_honours_owner_map() {
    let mem = NativeMemory::new_packed(2, vec![0u64; 2]).with_owners(vec![0, 1]);
    let mut c1 = mem.ctx(1);
    c1.write(1, 3);
    assert_eq!(mem.peek(1), 3);
    let got = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        mem.ctx(0).write(1, 9);
    }));
    assert!(got.is_err(), "packed tier must enforce the owner map too");
}

#[test]
fn buffered_tier_holds_wide_values() {
    // Values far wider than a machine word go through the buffered tier.
    let init: Vec<Vec<u64>> = vec![vec![0; 32]; 4];
    let mem = NativeMemory::new(4, init).with_owners((0..4).collect());
    std::thread::scope(|s| {
        for p in 0..4 {
            let mem = mem.clone();
            s.spawn(move || {
                let mut ctx = mem.ctx(p);
                for i in 1..=200u64 {
                    ctx.write(p, vec![i; 32]);
                    let seen = ctx.read((p + 1) % 4);
                    // Never a torn value: every element identical.
                    assert!(seen.iter().all(|&x| x == seen[0]), "torn read: {seen:?}");
                }
            });
        }
    });
    for p in 0..4 {
        assert_eq!(mem.peek(p), vec![200u64; 32]);
    }
}

#[test]
fn mwmr_default_allows_any_writer() {
    // Without an owner map, every process may write every register.
    let mem = NativeMemory::new(3, vec![String::new()]);
    std::thread::scope(|s| {
        for p in 0..3 {
            let mem = mem.clone();
            s.spawn(move || {
                let mut ctx = mem.ctx(p);
                for i in 0..100 {
                    ctx.write(0, format!("P{p}:{i}"));
                    let _ = ctx.read(0);
                }
            });
        }
    });
    let last = mem.peek(0);
    assert!(
        last.ends_with(":99"),
        "final value {last:?} not a last write"
    );
}

#[test]
#[should_panic(expected = "before the memory is shared")]
fn with_owners_rejects_shared_memory() {
    let mem = NativeMemory::new(2, vec![0u64; 2]);
    let _extra_handle = mem.clone();
    let _ = mem.with_owners(vec![0, 1]);
}

#[test]
fn rwlock_baseline_tier_still_works() {
    let mem = NativeMemory::new_locked(2, vec![0u64; 2]).with_owners(vec![0, 1]);
    let mut c0 = mem.ctx(0);
    c0.write(0, 7);
    assert_eq!(c0.read(0), 7);
    assert_eq!(mem.peek(0), 7);
    assert_eq!(mem.read_retries(), 0);
    // In place too: `clone_from` under the write lock.
    c0.write_from(0, &8);
    assert_eq!((c0.read(0), c0.counts().writes), (8, 2));
    assert_eq!(c0.read_with(0, |v| *v + 1), 9);
}

// ---------------------------------------------------------------------
// Flight recorder instrumentation (see `crate::flight` for the ring's
// own tests; these cover the NativeCtx gating and event emission).
// ---------------------------------------------------------------------

#[test]
fn flight_off_is_inert() {
    let mem = NativeMemory::new(1, vec![0u64]).with_flight(FlightMode::Off, 64);
    assert!(mem.flight_recorder().is_none());
    assert!(mem.flight_log().is_none());
    let mut ctx = mem.ctx(0);
    assert!(!ctx.op_begin(0, 0), "no recorder: never sampled");
    ctx.write(0, 1);
    ctx.op_end(0, 0);
}

#[test]
fn flight_sampling_records_one_in_n() {
    let mem = NativeMemory::new_packed(1, vec![0u64]).with_flight(FlightMode::Sampled(64), 1 << 10);
    let mut ctx = mem.ctx(0);
    let mut sampled = Vec::new();
    for k in 0..130u64 {
        if ctx.op_begin(0, k) {
            sampled.push(k);
        }
        ctx.write(0, k);
        ctx.op_end(0, k);
    }
    assert_eq!(sampled, vec![0, 64, 128], "op 0, then every 64th");
    let log = mem.flight_log().unwrap();
    assert_eq!(log.dropped, 0);
    let args: Vec<u64> = log.op_spans().iter().map(|s| s.arg).collect();
    assert_eq!(args, sampled);
    assert_eq!(log.recorded, 6, "begin + end per sampled op, packed tier");
}

#[test]
fn flight_period_one_samples_every_op() {
    for mode in [
        FlightMode::Always,
        FlightMode::Sampled(1),
        FlightMode::Sampled(0),
    ] {
        let mem = NativeMemory::new_packed(1, vec![0u64]).with_flight(mode, 64);
        let mut ctx = mem.ctx(0);
        for k in 0..5u64 {
            assert!(ctx.op_begin(0, k), "{mode:?}: op {k}");
            ctx.op_end(0, k);
        }
        assert_eq!(mem.flight_log().unwrap().op_spans().len(), 5);
    }
}

/// One thread's spans, as stamped: every end at or after its begin with
/// no clamp needed, every begin at or after the previous end — writes
/// (fenced end stamp) and reads (unfenced) alike, on both tiers.
#[test]
fn flight_spans_of_one_thread_are_ordered_without_clamping() {
    let packed = NativeMemory::new_packed(1, vec![0u64]);
    let buffered = NativeMemory::new(1, vec![0u64]);
    for mem in [packed, buffered] {
        let mem = mem.with_flight(FlightMode::Always, 1 << 12);
        let mut ctx = mem.ctx(0);
        for k in 0..500u64 {
            ctx.op_begin(0, k);
            if k % 2 == 0 {
                ctx.write(0, k);
            } else {
                let _ = ctx.read(0);
            }
            ctx.op_end(0, k);
        }
        let log = mem.flight_log().unwrap();
        assert_eq!((log.dropped, log.clamped_spans()), (0, 0));
        let spans = log.op_spans();
        assert_eq!(spans.len(), 500);
        for pair in spans.windows(2) {
            assert!(pair[0].end_ns <= pair[1].begin_ns, "{pair:?}");
        }
        // Register-level instants fall inside their op's span.
        let mut open = None;
        for ev in &log.events[0] {
            match *ev {
                FlightEvent::OpBegin { t_ns, .. } => open = Some(t_ns),
                FlightEvent::OpEnd { t_ns, .. } => assert!(open.take().unwrap() <= t_ns),
                _ => assert!(open.unwrap() <= ev.t_ns(), "{ev:?}"),
            }
        }
    }
}

#[test]
fn flight_always_traces_buffered_slot_choices_and_retries() {
    let mem = NativeMemory::new(2, vec![vec![0u8]; 2])
        .with_owners(vec![0, 1])
        .with_flight(FlightMode::Always, 1 << 10);
    let mut ctx = mem.ctx(0);
    assert!(ctx.op_begin(7, 1));
    ctx.write(0, vec![1, 2]);
    let _ = ctx.read(1);
    ctx.op_end(7, 2);
    let log = mem.flight_log().unwrap();
    assert_eq!(log.dropped, 0);
    let spans = log.op_spans();
    assert_eq!(spans.len(), 1);
    assert_eq!((spans[0].op, spans[0].arg, spans[0].resp), (7, 1, 2));
    assert!(spans[0].end_ns >= spans[0].begin_ns);
    // The SWMR write reported which buffer slot the announce scan chose.
    assert_eq!(log.slot_choices(), 1);
    assert_eq!(log.ticket_draws(), 0, "owner-mapped cells draw no tickets");
}

#[test]
fn flight_traces_mwmr_ticket_draws() {
    // No owner map: registers stay multi-writer, writes draw tickets.
    let mem = NativeMemory::new(2, vec![0u64]).with_flight(FlightMode::Always, 1 << 10);
    let mut ctx = mem.ctx(1);
    assert!(ctx.op_begin(0, 0));
    ctx.write(0, 5);
    ctx.op_end(0, 0);
    assert_eq!(mem.ticket_draws(), 1);
    let log = mem.flight_log().unwrap();
    assert_eq!(log.ticket_draws(), 1);
    assert_eq!(log.slot_choices(), 1, "the writer's own SWMR slot");
}

#[test]
fn flight_unsampled_ops_emit_no_register_events() {
    let mem = NativeMemory::new(1, vec![0u64]).with_flight(FlightMode::Sampled(1000), 1 << 10);
    let mut ctx = mem.ctx(0);
    assert!(ctx.op_begin(0, 0), "the first op is always sampled");
    ctx.write(0, 1);
    ctx.op_end(0, 0);
    for k in 1..10u64 {
        assert!(!ctx.op_begin(0, k));
        ctx.write(0, k);
        ctx.op_end(0, k);
    }
    let log = mem.flight_log().unwrap();
    // Begin + end + one MWMR write (ticket + slot) from the sampled op;
    // the nine unsampled ops contribute nothing.
    assert_eq!(log.recorded, 4);
}

/// `read_with` is `read` to every observer: the same value and one step
/// in the context's counts, on the borrowed path (owner-mapped, recorded
/// or not) and on every path that falls back to the by-value read.
#[test]
fn read_with_is_one_read_step_on_every_path() {
    let wide = || vec![vec![7u8, 8], vec![9u8]];
    let borrowed = NativeMemory::new(2, wide()).with_owners(vec![0, 1]);
    let multi_writer = NativeMemory::new(2, wide());
    let recorded = NativeMemory::new(2, wide())
        .with_owners(vec![0, 1])
        .with_flight(FlightMode::Always, 64);
    for mem in [&borrowed, &multi_writer, &recorded] {
        let mut ctx = mem.ctx(1);
        ctx.op_begin(0, 0);
        assert_eq!(ctx.read_with(0, |v| v.len()), 2);
        assert_eq!(ctx.read_with(1, Vec::clone), ctx.read(1));
        ctx.op_end(0, 0);
        assert_eq!(ctx.counts().reads, 3);
        assert_eq!(mem.read_retries(), 0);
    }
    let packed = NativeMemory::new_packed(1, vec![5u64]);
    assert_eq!(packed.ctx(0).read_with(0, |v| *v + 1), 6);
}

/// A value that counts its clones, per thread: each test counts its own.
struct Counted(u8);
thread_local!(static CLONES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) });
impl Clone for Counted {
    fn clone(&self) -> Self {
        CLONES.set(CLONES.get() + 1);
        Counted(self.0)
    }
}

/// Inside a sampled op `read_with` still runs on the published slot:
/// recording adds events, never a clone.
#[test]
fn recorded_read_with_borrows_the_slot() {
    let mem = NativeMemory::new(2, vec![Counted(7), Counted(9)])
        .with_owners(vec![0, 1])
        .with_flight(FlightMode::Always, 64);
    let mut ctx = mem.ctx(1);
    let before = CLONES.get();
    assert!(ctx.op_begin(0, 0));
    assert_eq!(ctx.read_with(0, |v| v.0), 7);
    assert_eq!(ctx.read_with(1, |v| v.0), 9);
    ctx.op_end(0, 0);
    assert_eq!(CLONES.get(), before, "a recorded read cloned");
    assert_eq!(ctx.counts().reads, 2);
    assert_eq!(mem.flight_log().unwrap().op_spans().len(), 1);
}

/// An offset window forwards `read_with` and `write_from` as themselves:
/// a borrowed read through it is one read step and no clone, at the
/// shifted register.
#[test]
fn offset_window_forwards_the_borrowing_accesses() {
    let mem = NativeMemory::new(1, vec![Counted(7), Counted(9)]).with_owners(vec![0, 0]);
    let mut ctx = mem.ctx(0);
    let mut window = crate::OffsetCtx {
        inner: &mut ctx,
        base: 1,
    };
    assert_eq!(window.n_regs(), 1);
    let before = CLONES.get();
    assert_eq!(window.read_with(0, |v| v.0), 9);
    assert_eq!(CLONES.get(), before, "a borrowed read cloned");
    window.write_from(0, &Counted(4));
    assert_eq!(window.read_with(0, |v| v.0), 4);
    assert_eq!((ctx.counts().reads, ctx.counts().writes), (2, 1));
    assert_eq!(ctx.read_with(0, |v| v.0), 7);
}

/// The by-value `read` clones what the cell's protocol clones and
/// nothing on top, recorded or not: the value once on a single-writer
/// cell, one stamp per *opened* writer in a multi-writer register's
/// collect (an unopened writer is not read; the winner is moved out of
/// its stamp, not cloned again).
#[test]
fn read_clones_once_recorded_or_not() {
    let regs = || vec![Counted(7), Counted(9)];
    let (n_procs, capacity) = (2, 64);
    for mode in [FlightMode::Off, FlightMode::Always] {
        let swmr = NativeMemory::new(n_procs, regs())
            .with_owners(vec![0, 1])
            .with_flight(mode, capacity);
        let mwmr = NativeMemory::new(n_procs, regs()).with_flight(mode, capacity);
        // The reader is P1; `others` is whether P0 has a context too.
        for (mem, others, clones) in [(&swmr, 0, 1), (&mwmr, 0, 1), (&mwmr, 1, 2)] {
            let _others: Vec<_> = (0..others).map(|p| mem.ctx(p)).collect();
            let mut ctx = mem.ctx(1);
            assert_eq!(ctx.op_begin(0, 0), mode.enabled());
            let before = CLONES.get();
            assert_eq!(ctx.read(0).0, 7);
            let label = format!("{mode:?} {:?}, {} open", mem.tier(), others + 1);
            assert_eq!(CLONES.get() - before, clones, "{label}");
            ctx.op_end(0, 0);
        }
    }
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 64 }))]

    /// A multi-writer memory against a sequential model, with contexts
    /// made at random points: a writer's cells are built only by its
    /// `ctx`, and whatever has or has not been built, every read —
    /// `read`, `read_with` or `peek` — returns the last write, or the
    /// initial value before any.
    #[test]
    fn mwmr_memory_reads_unopened_writers_as_init(
        n in 1usize..4,
        steps in proptest::collection::vec((0u8..5, 0usize..3, 0usize..3, 0u8..99), 0..32),
    ) {
        const REGS: usize = 3;
        let init = |reg: usize| vec![reg as u8; reg];
        let mem = NativeMemory::new(n, (0..REGS).map(init).collect());
        let mut model: Vec<Vec<u8>> = (0..REGS).map(init).collect();
        let mut ctxs: Vec<Option<NativeCtx<Vec<u8>>>> = (0..n).map(|_| None).collect();
        let mut writes = 0;
        for (kind, p, reg, v) in steps {
            match (kind, &mut ctxs[p % n]) {
                (0, ctx) => *ctx = Some(mem.ctx(p % n)),
                (1, Some(ctx)) => {
                    let val = vec![v; 1 + v as usize % 3];
                    ctx.write(reg, val.clone());
                    model[reg] = val;
                    writes += 1;
                }
                (2, Some(ctx)) => proptest::prop_assert_eq!(&ctx.read(reg), &model[reg]),
                (3, Some(ctx)) => proptest::prop_assert_eq!(&ctx.read_with(reg, Vec::clone), &model[reg]),
                // No context for the process yet: read from outside.
                _ => proptest::prop_assert_eq!(&mem.peek(reg), &model[reg]),
            }
        }
        proptest::prop_assert_eq!(mem.ticket_draws(), writes);
        for (reg, want) in model.iter().enumerate() {
            proptest::prop_assert_eq!(&mem.peek(reg), want);
        }
    }
}

/// A memory given owners keeps no multi-writer register, whether or
/// not a writer was opened before: every register is a single-writer
/// cell holding its current value, and no ticket is left to count. An
/// untouched register's initial value is moved into its cell, which
/// clones it as often as a cell built directly does.
#[test]
fn mwmr_registers_are_gone_once_owners_are_given() {
    let regs = || vec![String::from("a"), String::from("b")];
    let written = NativeMemory::new(2, regs());
    written.ctx(1).write(1, "w".into());
    assert_eq!(written.ticket_draws(), 1);
    for (mem, want) in [
        (NativeMemory::new(2, regs()), ["a", "b"]),
        (written, ["a", "w"]),
    ] {
        let mem = mem.with_owners(vec![0, 1]);
        assert!(matches!(&*mem.regs, Regs::Swmr(_)));
        assert_eq!(mem.ticket_draws(), 0);
        assert_eq!([mem.peek(0), mem.peek(1)], want);
    }

    let before = CLONES.get();
    let _direct = SwmrFile::new(3, [Counted(1)]);
    let direct = CLONES.get() - before;
    let _owned = NativeMemory::new(3, vec![Counted(1)]).with_owners(vec![0]);
    assert_eq!(
        CLONES.get() - before,
        2 * direct,
        "with_owners cloned the initial value"
    );
}

/// The buffered tier's process ceiling is checked when the memory is
/// built, not when its first writer is opened.
#[test]
#[should_panic(expected = "at most 61 processes")]
fn native_new_checks_the_process_ceiling() {
    let _ = NativeMemory::new(buffered::MAX_PROCS + 1, vec![0u64]);
}

/// Every validation retry of a sampled op reaches the recorder, from
/// `read` and from `read_with` alike. Retries cannot be forced from one
/// thread, so two run free and the test holds whatever count came out.
#[test]
fn every_read_retry_of_a_sampled_op_is_recorded() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 2 {
        println!(
            "skipped: {cores} CPU available, and a read is only retried by a concurrent write"
        );
        return;
    }
    const OPS: u64 = 10_000;
    // Three events an op at most: begin, end, and a slot choice or a retry.
    let mem = NativeMemory::new(2, vec![vec![0u64; 16]; 2])
        .with_owners(vec![0, 1])
        .with_flight(FlightMode::Always, 1 << 15);
    std::thread::scope(|s| {
        let mut writer = mem.ctx(0);
        s.spawn(move || {
            for k in 0..OPS {
                writer.op_begin(0, k);
                writer.write(0, vec![k; 16]);
                writer.op_end(0, k);
            }
        });
        let mut reader = mem.ctx(1);
        s.spawn(move || {
            for k in 0..OPS {
                reader.op_begin(1, k);
                let v = if k % 2 == 0 {
                    reader.read(0)
                } else {
                    reader.read_with(0, Vec::clone)
                };
                reader.op_end(1, k);
                assert!(v.iter().all(|&x| x == v[0]), "torn read: {v:?}");
            }
        });
    });
    let log = mem.flight_log().unwrap();
    assert_eq!(log.dropped, 0);
    assert_eq!(log.read_retries(), mem.read_retries());
    println!("{} retries in {OPS} reads", mem.read_retries());
}

/// A value that tells a copy made in place from one built outside.
#[derive(Debug, PartialEq)]
struct InPlace(u8);
static BUILT: AtomicU64 = AtomicU64::new(0);
static COPIED_IN_PLACE: AtomicU64 = AtomicU64::new(0);
impl Clone for InPlace {
    fn clone(&self) -> Self {
        BUILT.fetch_add(1, Ordering::Relaxed);
        InPlace(self.0)
    }
    fn clone_from(&mut self, source: &Self) {
        COPIED_IN_PLACE.fetch_add(1, Ordering::Relaxed);
        self.0 = source.0;
    }
}

/// `write_from` is `write` to every observer — one step in the
/// context's counts, one `SlotChoice` in a sampled op — and on a
/// single-writer cell, observed or not, the copy
/// is made in the slot: `clone_from`, never `clone`. A multi-writer
/// cell takes the default, a clone moved in.
#[test]
fn write_from_is_one_write_step_and_copies_in_place() {
    let regs = || vec![InPlace(0), InPlace(0)];
    let plain = NativeMemory::new(2, regs()).with_owners(vec![0, 1]);
    let recorded = NativeMemory::new(2, regs())
        .with_owners(vec![0, 1])
        .with_flight(FlightMode::Always, 64);
    for mem in [&plain, &recorded] {
        let mut ctx = mem.ctx(1);
        let copied = COPIED_IN_PLACE.load(Ordering::Relaxed);
        ctx.op_begin(0, 0);
        for k in 1..=3 {
            let built = BUILT.load(Ordering::Relaxed);
            ctx.write_from(1, &InPlace(k));
            assert_eq!(BUILT.load(Ordering::Relaxed), built, "a copy was built");
            assert_eq!(ctx.read(1), InPlace(k));
        }
        ctx.op_end(0, 0);
        assert_eq!(COPIED_IN_PLACE.load(Ordering::Relaxed), copied + 3);
        assert_eq!(ctx.counts().writes, 3);
    }
    assert_eq!(recorded.flight_log().unwrap().slot_choices(), 3);

    let multi_writer = NativeMemory::new(2, regs());
    let built = BUILT.load(Ordering::Relaxed);
    multi_writer.ctx(1).write_from(0, &InPlace(9));
    assert!(BUILT.load(Ordering::Relaxed) > built);
    assert_eq!(multi_writer.peek(0), InPlace(9));
    let packed = NativeMemory::new_packed(1, vec![5u64]);
    packed.ctx(0).write_from(0, &6);
    assert_eq!(packed.peek(0), 6);
}

#[test]
fn snapshot_prometheus_emits_labeled_series() {
    let n = 3;
    let mem = NativeMemory::new(n, vec![vec![0u64; 4]; 2]);
    std::thread::scope(|s| {
        for p in 0..n {
            let mem = mem.clone();
            s.spawn(move || {
                let mut ctx = mem.ctx(p);
                for k in 0..200u64 {
                    ctx.write(p % 2, vec![k; 4]);
                    let _ = ctx.read((p + 1) % 2);
                }
            });
        }
    });
    // The first export's delta is the lifetime total.
    let reg = crate::telemetry::TelemetryRegistry::new(1);
    assert!(mem.snapshot_prometheus(&reg, "stress").is_none());
    assert_eq!(
        reg.labeled_counter_total("native_ticket_draws", &[("object", "stress")]),
        Some(n as u64 * 200),
    );
    let retries = reg
        .labeled_counter_total("native_read_retries", &[("object", "stress")])
        .unwrap();
    assert_eq!(retries, mem.read_retries());
    let text = reg.to_prometheus();
    assert!(text.contains("native_ticket_draws{object=\"stress\"}"));
    crate::telemetry::validate_prometheus(&text).unwrap();
}
