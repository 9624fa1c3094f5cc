//! Loom model tests for the buffered register cells' publication
//! ordering (build and run with `RUSTFLAGS="--cfg loom"`).
//!
//! These check the two index-word invariants the announce/validate
//! protocol rests on:
//!
//! 1. **No torn clone**: a reader never observes a slot mid-overwrite —
//!    every value read is exactly one the writer published.
//! 2. **Publication order**: successive reads by one process never go
//!    backwards through the writer's publication sequence.
//!
//! The announce words belong to a file, one per process, and every
//! register of the file is read through them; one test has two
//! registers share them.
//!
//! Thread counts are deliberately tiny: under real loom every
//! interleaving of these few steps is enumerated; under the offline
//! shim (`vendored/loom`) each model body instead runs many times on
//! the OS scheduler. Source-compatible with both. The repo's own
//! explorer checks the index protocol itself exhaustively, in
//! sequential consistency (`native/index_tests.rs`).

#![cfg(loom)]

use apram_model::native::buffered::{MwmrFile, SwmrFile};
use loom::sync::atomic::{AtomicBool, Ordering};
use loom::sync::Arc;
use loom::thread;

/// One writer publishing 1 then 2; one reader reading twice. Every read
/// must be untorn (all lanes equal) and the pair must be monotone.
#[test]
fn swmr_publication_is_untorn_and_ordered() {
    loom::model(|| {
        let file = Arc::new(SwmrFile::new(2, [vec![0u64; 4]]));
        let w = {
            let file = Arc::clone(&file);
            thread::spawn(move || {
                file.write(0, vec![1; 4]);
                file.write(0, vec![2; 4]);
            })
        };
        let r = {
            let file = Arc::clone(&file);
            thread::spawn(move || {
                let mut last = 0;
                for _ in 0..2 {
                    let v = file.read(1, 0);
                    assert!(v.iter().all(|&x| x == v[0]), "torn clone {v:?}");
                    assert!(v[0] <= 2, "value never published: {v:?}");
                    assert!(v[0] >= last, "read went backwards: {} < {last}", v[0]);
                    last = v[0];
                }
            })
        };
        w.join().unwrap();
        r.join().unwrap();
        assert_eq!(file.peek(0), vec![2; 4]);
    });
}

/// The writer's slot choice must never collide with a slot a reader has
/// announced: with reads and writes racing, the reader's re-validation
/// guarantees it clones only a stable slot.
#[test]
fn swmr_writer_avoids_announced_slot() {
    loom::model(|| {
        let file = Arc::new(SwmrFile::new(1, [(0u64, 0u64)]));
        let w = {
            let file = Arc::clone(&file);
            thread::spawn(move || {
                for k in 1..=3u64 {
                    file.write(0, (k, k.wrapping_mul(7)));
                }
            })
        };
        let r = {
            let file = Arc::clone(&file);
            thread::spawn(move || {
                for _ in 0..2 {
                    let (a, b) = file.read(0, 0);
                    assert_eq!(b, a.wrapping_mul(7), "torn pair ({a}, {b})");
                }
            })
        };
        w.join().unwrap();
        r.join().unwrap();
    });
}

/// The borrowed read ([`SwmrFile::read_with`]) keeps its announce word
/// set for as long as the closure runs. With the reader parked inside
/// the closure, the writer publishes `n + 3` times — once per slot the
/// cell has: the reader never sees its slot change, and the writer never
/// picks it. The reader's entry races the writer's first publish, so the
/// announce/validate window is in play too.
#[test]
fn swmr_borrowed_read_pins_its_slot() {
    borrowed_read_pins_its_slot(|file, v| file.write_traced(0, v));
}

/// The same with the writer copying in place: the slot a `read_with`
/// pins is never the target of [`SwmrFile::write_from`]'s `clone_from`,
/// which overwrites the buffer a reader would be looking at.
#[test]
fn swmr_borrowed_read_pins_its_slot_against_in_place_writes() {
    borrowed_read_pins_its_slot(|file, v| file.write_from(0, &v));
}

fn borrowed_read_pins_its_slot(write: fn(&SwmrFile<Vec<u64>>, Vec<u64>) -> usize) {
    loom::model(move || {
        let n = 1;
        let file = Arc::new(SwmrFile::new(n, [vec![0u64; 4]]));
        let inside = Arc::new(AtomicBool::new(false));
        let done = Arc::new(AtomicBool::new(false));
        let w = {
            let (file, inside, done) = (file.clone(), inside.clone(), done.clone());
            thread::spawn(move || {
                // slots[k] holds value k; the cell starts with 0 in slot 0.
                let mut slots = vec![0, write(&file, vec![1; 4])];
                while !inside.load(Ordering::SeqCst) {
                    thread::yield_now();
                }
                for k in 2..2 + (n as u64 + 3) {
                    slots.push(write(&file, vec![k; 4]));
                }
                done.store(true, Ordering::SeqCst);
                slots
            })
        };
        let r = {
            let (file, inside, done) = (file.clone(), inside.clone(), done.clone());
            thread::spawn(move || {
                file.read_with(0, 0, |v, _| {
                    let seen = v[0];
                    inside.store(true, Ordering::SeqCst);
                    while !done.load(Ordering::SeqCst) {
                        assert!(v.iter().all(|&x| x == seen), "slot changed: {v:?}");
                        thread::yield_now();
                    }
                    assert!(v.iter().all(|&x| x == seen), "slot changed: {v:?}");
                    seen
                })
            })
        };
        let slots = w.join().unwrap();
        let seen = r.join().unwrap() as usize;
        assert!(seen <= 1, "value never published before the read: {seen}");
        let pinned = slots[seen];
        assert!(
            !slots[2..].contains(&pinned),
            "the writer picked slot {pinned}, borrowed by the reader: {slots:?}"
        );
        assert_eq!(file.peek(0), vec![n as u64 + 4; 4]);
    });
}

/// Two registers of one file share the reader's announce word. With the
/// reader parked inside a borrowed read of register A, A's writer and
/// B's writer each publish `n + 3` times: A's writer never picks the
/// pinned slot, and B's writer is held back by nothing — it reuses the
/// slot index the reader pins in A, since the word names A alone.
#[test]
fn swmr_registers_share_announce_words() {
    loom::model(|| {
        let n = 1;
        let file = Arc::new(SwmrFile::new(n, [vec![0u64; 4], vec![0u64; 4]]));
        let inside = Arc::new(AtomicBool::new(false));
        let done = Arc::new(AtomicBool::new(false));
        let writers: Vec<_> = (0..2)
            .map(|reg| {
                let (file, inside) = (file.clone(), inside.clone());
                thread::spawn(move || {
                    while !inside.load(Ordering::SeqCst) {
                        thread::yield_now();
                    }
                    (1..=n as u64 + 3)
                        .map(|k| file.write_traced(reg, vec![k; 4]))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let r = {
            let (file, inside, done) = (file.clone(), inside.clone(), done.clone());
            thread::spawn(move || {
                file.read_with(0, 0, |v, _| {
                    inside.store(true, Ordering::SeqCst);
                    while !done.load(Ordering::SeqCst) {
                        assert_eq!(v, &vec![0; 4], "the pinned slot changed");
                        thread::yield_now();
                    }
                    assert_eq!(v, &vec![0; 4], "the pinned slot changed");
                })
            })
        };
        let mut slots = writers.into_iter().map(|w| w.join().unwrap());
        let (a, b) = (slots.next().unwrap(), slots.next().unwrap());
        done.store(true, Ordering::SeqCst);
        r.join().unwrap();
        // The reader pinned A's initial slot, 0.
        assert!(!a.contains(&0), "A's writer picked the pinned slot: {a:?}");
        assert!(b.contains(&0), "B's writer avoided A's pin: {b:?}");
        let last = vec![n as u64 + 3; 4];
        assert_eq!([file.peek(0), file.peek(1)], [last.clone(), last]);
    });
}

/// Two writers racing on a multi-writer register: the ticket layering
/// must leave it holding one of the two written values (never init,
/// never a mix), and a racing reader sees only published stamps.
#[test]
fn mwmr_ticket_layering_converges() {
    loom::model(|| {
        let file = Arc::new(MwmrFile::new(2, vec![(usize::MAX, 0u64)]));
        let handles: Vec<_> = (0..2)
            .map(|p| {
                file.open(p);
                let file = Arc::clone(&file);
                thread::spawn(move || {
                    file.write(p, 0, (p, 41 + p as u64));
                    let (wp, wv) = file.read(p, 0);
                    assert!(wp < 2, "read init after a write");
                    assert_eq!(wv, 41 + wp as u64, "torn stamp ({wp}, {wv})");
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let (p, v) = file.peek(0);
        assert!(p < 2 && v == 41 + p as u64, "final value ({p}, {v})");
    });
}

// ---------------------------------------------------------------------
// Flight-recorder ring: the record/drain index protocol.
// ---------------------------------------------------------------------

use apram_model::flight::{FlightEvent, FlightRing};

/// One writer lapping a tiny ring while a drainer races it: every
/// drained event must be untorn (its payload words consistent), the
/// per-drain order monotone, and the accounting exact once the writer
/// stopped. This pins the busy-mark/fence/publish protocol: a drain
/// that overlaps an overwrite must count the slot dropped, never
/// surface a mixed event.
#[test]
fn flight_ring_drain_never_tears_and_accounts_exactly() {
    loom::model(|| {
        let ring = Arc::new(FlightRing::new(2));
        const EVENTS: u64 = 5;
        let w = {
            let ring = Arc::clone(&ring);
            thread::spawn(move || {
                for i in 0..EVENTS {
                    // Payload is a function of the index: a torn slot
                    // (words from two different events) breaks t == arg.
                    ring.record(&FlightEvent::OpBegin {
                        t_ns: i,
                        op: 9,
                        arg: i,
                    });
                }
            })
        };
        let d = {
            let ring = Arc::clone(&ring);
            thread::spawn(move || {
                let mut out = Vec::new();
                ring.drain_into(&mut out);
                let mut last = None;
                for ev in &out {
                    let FlightEvent::OpBegin { t_ns, op, arg } = *ev else {
                        panic!("decoded a tag never recorded: {ev:?}");
                    };
                    assert_eq!(op, 9);
                    assert_eq!(t_ns, arg, "torn slot: {t_ns} vs {arg}");
                    assert!(last.is_none_or(|l| arg > l), "drain went backwards");
                    last = Some(arg);
                }
            })
        };
        w.join().unwrap();
        d.join().unwrap();
        // Final drain with the writer stopped: nothing is in flight, so
        // the absolute accounting must balance to the event count.
        let mut rest = Vec::new();
        ring.drain_into(&mut rest);
        assert_eq!(ring.recorded(), EVENTS);
        assert_eq!(ring.recorded(), ring.drained() + ring.dropped());
    });
}
