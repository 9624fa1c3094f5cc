//! Op-stream generation: everything the program under test receives is
//! made here, from `--seed`, before any clock starts (rule 5). The
//! program only ever sees `(opcode, object, a, b)`.
//!
//! Written values carry their provenance so the correctness checks need
//! no side tables: an owner tag in the high bits (`tagged`) for values
//! a particular thread wrote, the key in the high bits (`keyed`) for
//! map values.

use apram_model::seed::{fnv1a, split};
use apram_serve::{Zipfian, OPC_READ, OPC_UPDATE};

/// One generated operation, as handed to the program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Op {
    pub opcode: u8,
    /// Index into the workload's object list.
    pub object: u8,
    pub a: u32,
    pub b: u32,
}

/// SplitMix64 over the repo's own `split` mixer.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(split(seed, stream))
    }

    pub fn next(&mut self) -> u64 {
        self.0 = split(self.0, 1);
        self.0
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Nonce bits under an owner or key tag.
const NONCE_BITS: u32 = 16;

/// A value written by `owner` (thread or tenant index): never zero, so
/// it cannot be confused with an object's initial state.
pub fn tagged(owner: usize, nonce: u64) -> u32 {
    ((owner as u32 + 1) << NONCE_BITS) | (nonce as u32 & ((1 << NONCE_BITS) - 1))
}

/// The owner of a `tagged` value, if it is one.
pub fn tag_owner(v: u64) -> Option<usize> {
    let owner = (v >> NONCE_BITS) as usize;
    (v <= u32::MAX as u64 && owner > 0).then(|| owner - 1)
}

/// A map value bound to `key`.
pub fn keyed(key: u32, nonce: u64) -> u32 {
    (key << NONCE_BITS) | (nonce as u32 & ((1 << NONCE_BITS) - 1))
}

/// The key a `keyed` value was written under.
pub fn value_key(v: u64) -> u64 {
    v >> NONCE_BITS
}

/// The object families the workloads drive; the family fixes what the
/// op arguments mean and what a correct output looks like.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// No arguments; reads return the number of increments.
    Counter,
    /// Update writes a plain 31-bit value; reads return the maximum.
    MaxReg,
    /// `a` is a zipfian key; update writes a `keyed` value.
    Map,
    /// Update writes an owner-tagged value into the caller's segment;
    /// reads return the whole view.
    Afek,
    /// No arguments; update ticks, read returns the current time.
    Clock,
    /// Update writes an owner-tagged value; reads return the last one.
    MwReg,
}

/// One object's share of a mix.
#[derive(Clone, Copy, Debug)]
pub struct MixEntry {
    pub name: &'static str,
    pub weight: u32,
    pub kind: Kind,
}

/// A workload's traffic mix.
#[derive(Clone, Debug)]
pub struct Mix {
    pub objects: &'static [MixEntry],
    /// Percentage of ops that are reads.
    pub read_pct: u32,
    /// Key space of the keyed objects.
    pub keys: u64,
    /// Zipfian exponent of key draws.
    pub theta: f64,
}

/// `len` ops for generator thread `owner`, deterministic in
/// `(seed, owner)`.
///
/// The *composition* of a stream is exact and the same for every seed:
/// each object gets `len × weight / total` ops, of which `read_pct` %
/// are reads (largest-remainder rounding). The seed decides only the
/// order, the keys and the values — so two seeds ask the program for
/// the same amount of work (rule 4).
pub fn generate(mix: &Mix, seed: u64, owner: usize, len: usize) -> Vec<Op> {
    let zipf = Zipfian::new(mix.keys, mix.theta);
    let total: u64 = mix.objects.iter().map(|o| o.weight as u64).sum();
    let mut rng = Rng::new(seed, owner as u64);

    // (object, is_read) slots in exact proportion.
    let mut slots: Vec<(u8, bool)> = Vec::with_capacity(len);
    let mut carry = 0u64;
    for (object, entry) in mix.objects.iter().enumerate() {
        carry += len as u64 * entry.weight as u64;
        let n = carry / total;
        carry %= total;
        let reads = (n * mix.read_pct as u64 + 50) / 100;
        slots.extend((0..n).map(|i| (object as u8, i < reads)));
    }
    debug_assert_eq!(slots.len(), len);
    // Fisher–Yates.
    for i in (1..slots.len()).rev() {
        slots.swap(i, rng.below(i as u64 + 1) as usize);
    }

    slots
        .into_iter()
        .map(|(object, read)| {
            let nonce = rng.next();
            let (a, b) = match (mix.objects[object as usize].kind, read) {
                (Kind::Counter | Kind::Clock, _) => (0, 0),
                (Kind::MaxReg | Kind::Afek | Kind::MwReg, true) => (0, 0),
                (Kind::MaxReg, false) => ((nonce >> 33) as u32, 0),
                (Kind::Afek | Kind::MwReg, false) => (tagged(owner, nonce), 0),
                (Kind::Map, read) => {
                    let key = zipf.sample(rng.next()) as u32;
                    (key, if read { 0 } else { keyed(key, nonce) })
                }
            };
            Op {
                opcode: if read { OPC_READ } else { OPC_UPDATE },
                object,
                a,
                b,
            }
        })
        .collect()
}

/// FNV-1a over the ops' fields: the identity of a generated stream.
pub fn stream_hash<'a>(streams: impl IntoIterator<Item = &'a [Op]>) -> u64 {
    let bytes: Vec<u8> = streams
        .into_iter()
        .flatten()
        .flat_map(|op| {
            [op.opcode, op.object]
                .into_iter()
                .chain(op.a.to_le_bytes())
                .chain(op.b.to_le_bytes())
        })
        .collect();
    fnv1a(&bytes)
}

/// The ops of `ops` on one object that are updates (or reads): what the
/// per-object layer rows replay.
pub fn select(ops: &[Op], object: usize, update: bool) -> Vec<Op> {
    ops.iter()
        .copied()
        .filter(|op| op.object as usize == object && (op.opcode == OPC_UPDATE) == update)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIX: Mix = Mix {
        objects: &[
            MixEntry {
                name: "counter",
                weight: 30,
                kind: Kind::Counter,
            },
            MixEntry {
                name: "maxreg",
                weight: 20,
                kind: Kind::MaxReg,
            },
            MixEntry {
                name: "lwwmap-direct",
                weight: 40,
                kind: Kind::Map,
            },
            MixEntry {
                name: "afek",
                weight: 10,
                kind: Kind::Afek,
            },
        ],
        read_pct: 50,
        keys: 4096,
        theta: 0.99,
    };

    #[test]
    fn mix_is_exact_whatever_the_seed() {
        for seed in [7, 8] {
            let ops = generate(&MIX, seed, 0, 40_000);
            let count = |o: u8| ops.iter().filter(|op| op.object == o).count();
            assert_eq!(
                [count(0), count(1), count(2), count(3)],
                [12_000, 8_000, 16_000, 4_000]
            );
            let reads = ops.iter().filter(|op| op.opcode == OPC_READ).count();
            assert_eq!(reads, 20_000);
        }
        // A length the weights do not divide still adds up.
        assert_eq!(generate(&MIX, 1, 0, 1_001).len(), 1_001);
        let ops = generate(&MIX, 7, 0, 40_000);
        // Keys stay inside the key space and map values carry their key.
        for op in ops.iter().filter(|op| op.object == 2) {
            assert!((op.a as u64) < MIX.keys);
            if op.opcode == OPC_UPDATE {
                assert_eq!(value_key(op.b as u64), op.a as u64);
            }
        }
    }

    #[test]
    fn tags_round_trip_and_are_never_zero() {
        for owner in [0usize, 1, 3] {
            let v = tagged(owner, 0);
            assert_ne!(v, 0);
            assert_eq!(tag_owner(v as u64), Some(owner));
        }
        assert_eq!(tag_owner(0), None);
        assert_eq!(tag_owner(u64::MAX), None);
    }

    #[test]
    fn same_seed_same_stream_different_seed_different_stream() {
        let a = generate(&MIX, 1, 0, 4096);
        let b = generate(&MIX, 1, 0, 4096);
        let c = generate(&MIX, 2, 0, 4096);
        let d = generate(&MIX, 1, 1, 4096);
        assert_eq!(stream_hash([&a[..]]), stream_hash([&b[..]]));
        assert_ne!(stream_hash([&a[..]]), stream_hash([&c[..]]));
        assert_ne!(stream_hash([&a[..]]), stream_hash([&d[..]]));
    }
}
