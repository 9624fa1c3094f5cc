//! The tagged-array lattice used to instantiate the scan as a snapshot.
//!
//! End of Section 6: "we make each value an n-element array of pointers,
//! where the entire array is kept in a single register ... Each array entry
//! has an associated tag, and the maximum of two entries is the one with
//! the higher tag. The join of two values is the element-wise maximum of
//! the two arrays. The ⊥ value is just an array whose tags are all zero."
//!
//! [`Tagged`] is one slot (a tag plus a payload); [`TaggedVec`] is the
//! element-wise array lattice.

use crate::JoinSemilattice;

/// One slot of the snapshot lattice: a payload stamped with a tag.
///
/// Join keeps the entry with the higher tag. Tag `0` is the bottom slot
/// (payload `None`). **Correctness requires that each writer never reuses
/// a tag for a different payload** — exactly the single-writer discipline
/// the paper's snapshot imposes (process `P` alone writes slot `P`, and
/// bumps the tag on every write). Under that discipline two slots with
/// equal tags carry equal payloads, so the tie-break below is immaterial.
///
/// `Clone` is written by hand so that `clone_from` copies field by field
/// into the payload already there: a register value overwritten in place
/// (see `MemCtx::write_from`) then costs what its payload's `clone_from`
/// costs, which for a payload that is already equal can be nothing.
#[derive(PartialEq, Eq, Debug)]
pub struct Tagged<T: Clone> {
    /// Monotone per-writer sequence number; 0 means "never written".
    pub tag: u64,
    /// The payload; `None` iff `tag == 0`.
    pub value: Option<T>,
}

impl<T: Clone> Clone for Tagged<T> {
    fn clone(&self) -> Self {
        Tagged {
            tag: self.tag,
            value: self.value.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.tag = source.tag;
        self.value.clone_from(&source.value);
    }
}

impl<T: Clone> Tagged<T> {
    /// The bottom slot (tag 0, no payload).
    pub fn empty() -> Self {
        Tagged {
            tag: 0,
            value: None,
        }
    }

    /// A written slot.
    pub fn new(tag: u64, value: T) -> Self {
        debug_assert!(tag > 0, "tag 0 is reserved for the bottom slot");
        Tagged {
            tag,
            value: Some(value),
        }
    }

    /// `true` when this slot has never been written.
    pub fn is_empty(&self) -> bool {
        self.tag == 0
    }
}

impl<T: Clone> Default for Tagged<T> {
    fn default() -> Self {
        Self::empty()
    }
}

impl<T: Clone> JoinSemilattice for Tagged<T> {
    fn bottom() -> Self {
        Self::empty()
    }

    fn join(&self, other: &Self) -> Self {
        if other.tag > self.tag {
            other.clone()
        } else {
            self.clone()
        }
    }

    fn join_assign(&mut self, other: &Self) {
        if other.tag > self.tag {
            self.clone_from(other);
        }
    }
}

/// The element-wise array lattice: slot `i` holds writer `i`'s latest
/// tagged value. Joining two arrays takes the higher-tagged entry per slot.
///
/// Arrays of different lengths join by treating missing slots as bottom,
/// which realizes the paper's "simple optimization" of omitting the
/// all-zero-tag slots from a writer's initial value.
///
/// `clone_from` copies slot by slot into the slots already there (see
/// [`Tagged`]'s), allocating only when the array outgrows its buffer —
/// and then at its exact size: an array has at most one slot per
/// process, so it outgrows a buffer at most that often.
#[derive(PartialEq, Eq, Debug, Default)]
pub struct TaggedVec<T: Clone>(pub Vec<Tagged<T>>);

impl<T: Clone> Clone for TaggedVec<T> {
    fn clone(&self) -> Self {
        TaggedVec(self.0.clone())
    }

    fn clone_from(&mut self, source: &Self) {
        if self.0.capacity() < source.0.len() {
            *self = source.clone();
        } else {
            self.0.clone_from(&source.0);
        }
    }
}

impl<T: Clone> TaggedVec<T> {
    /// An array of `n` bottom slots.
    pub fn bottom_n(n: usize) -> Self {
        TaggedVec(vec![Tagged::empty(); n])
    }

    /// The value process `p` (of `n`) contributes when writing `value`
    /// with sequence number `tag`: every slot bottom except slot `p`.
    pub fn singleton(n: usize, p: usize, tag: u64, value: T) -> Self {
        assert!(p < n, "writer index {p} out of range for {n} slots");
        let mut v = Self::bottom_n(n);
        v.0[p] = Tagged::new(tag, value);
        v
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` when there are no slots at all.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Slot accessor (bottom for out-of-range indices).
    pub fn slot(&self, i: usize) -> Tagged<T> {
        self.0.get(i).cloned().unwrap_or_default()
    }

    /// The payloads currently visible, as `(writer, tag, value)` triples,
    /// skipping never-written slots.
    pub fn present(&self) -> impl Iterator<Item = (usize, u64, &T)> {
        self.0
            .iter()
            .enumerate()
            .filter_map(|(i, t)| t.value.as_ref().map(|v| (i, t.tag, v)))
    }
}

impl<T: Clone> JoinSemilattice for TaggedVec<T> {
    fn bottom() -> Self {
        TaggedVec(Vec::new())
    }

    fn join(&self, other: &Self) -> Self {
        let n = self.0.len().max(other.0.len());
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let a = self.0.get(i);
            let b = other.0.get(i);
            out.push(match (a, b) {
                (Some(a), Some(b)) => a.join(b),
                (Some(a), None) => a.clone(),
                (None, Some(b)) => b.clone(),
                (None, None) => unreachable!("i < max(len, len)"),
            });
        }
        TaggedVec(out)
    }

    fn join_assign(&mut self, other: &Self) {
        if other.0.len() > self.0.len() {
            if self.0.is_empty() {
                // ⊥ ∨ x = x, copied at its exact size.
                return self.clone_from(other);
            }
            self.0.resize(other.0.len(), Tagged::empty());
        }
        for (i, b) in other.0.iter().enumerate() {
            self.0[i].join_assign(b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::laws;
    use proptest::prelude::*;

    #[test]
    fn tagged_join_takes_higher_tag() {
        let a = Tagged::new(1, "a");
        let b = Tagged::new(2, "b");
        assert_eq!(a.join(&b), b);
        assert_eq!(b.join(&a), b);
        assert_eq!(a.join(&Tagged::empty()), a);
    }

    #[test]
    fn tagged_empty_is_bottom() {
        let e: Tagged<u32> = Tagged::empty();
        assert!(e.is_empty());
        assert!(!Tagged::new(1, 0u32).is_empty());
        assert_eq!(Tagged::<u32>::default(), e);
    }

    #[test]
    fn tagged_vec_joins_elementwise() {
        let a = TaggedVec::singleton(3, 0, 1, 'x');
        let b = TaggedVec::singleton(3, 2, 1, 'y');
        let j = a.join(&b);
        assert_eq!(j.slot(0), Tagged::new(1, 'x'));
        assert!(j.slot(1).is_empty());
        assert_eq!(j.slot(2), Tagged::new(1, 'y'));
        assert_eq!(
            j.present().map(|(i, t, v)| (i, t, *v)).collect::<Vec<_>>(),
            vec![(0, 1, 'x'), (2, 1, 'y')]
        );
    }

    #[test]
    fn unequal_lengths_pad_with_bottom() {
        let short = TaggedVec(vec![Tagged::new(5, 1u32)]);
        let long = TaggedVec::singleton(3, 2, 1, 9u32);
        let j = short.join(&long);
        assert_eq!(j.len(), 3);
        assert_eq!(j.slot(0), Tagged::new(5, 1));
        assert_eq!(j.slot(2), Tagged::new(1, 9));
        let mut s2 = short.clone();
        s2.join_assign(&long);
        assert_eq!(s2, j);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn singleton_rejects_out_of_range_writer() {
        let _ = TaggedVec::singleton(2, 2, 1, 0u8);
    }

    /// Strategy producing tagged vecs with per-slot tags drawn from a tiny
    /// domain *where the payload is a function of the tag*, so that equal
    /// tags always carry equal payloads — the single-writer discipline.
    fn tvec() -> impl Strategy<Value = TaggedVec<u64>> {
        proptest::collection::vec(0u64..4, 0..4).prop_map(|tags| {
            TaggedVec(
                tags.into_iter()
                    .map(|t| {
                        if t == 0 {
                            Tagged::empty()
                        } else {
                            Tagged::new(t, t * 10)
                        }
                    })
                    .collect(),
            )
        })
    }

    /// Equality on `TaggedVec` treats missing trailing slots as bottom, so
    /// normalize before comparing in the law checks.
    fn pad(v: &TaggedVec<u64>, n: usize) -> TaggedVec<u64> {
        let mut v = v.clone();
        if v.0.len() < n {
            v.0.resize(n, Tagged::empty());
        }
        v
    }

    proptest! {
        #[test]
        fn tagged_vec_laws(x in tvec(), y in tvec(), z in tvec()) {
            let n = x.len().max(y.len()).max(z.len());
            let (x, y, z) = (pad(&x, n), pad(&y, n), pad(&z, n));
            laws::assert_idempotent(&x);
            laws::assert_identity(&x);
            laws::assert_commutative(&x, &y);
            laws::assert_associative(&x, &y, &z);
            laws::assert_join_assign_consistent(&x, &y);
            laws::assert_upper_bound(&x, &y);
        }

        /// The hand-written `clone_from`s copy exactly what `clone`
        /// does, whatever the target held: longer, shorter, empty
        /// slots over written ones and back — on a payload with a
        /// `clone_from` of its own (a `Vec` keeps its buffer).
        #[test]
        fn clone_from_agrees_with_clone(x in tvec(), y in tvec()) {
            laws::assert_clone_from_consistent(&x, &y);
            let heap = |v: &TaggedVec<u64>| {
                TaggedVec(
                    v.0.iter()
                        .map(|t| Tagged {
                            tag: t.tag,
                            value: t.value.map(|k| vec![k; k as usize % 7]),
                        })
                        .collect(),
                )
            };
            let (hx, hy) = (heap(&x), heap(&y));
            laws::assert_clone_from_consistent(&hx, &hy);
            for (a, b) in hx.0.iter().zip(&hy.0) {
                laws::assert_clone_from_consistent(a, b);
            }
        }
    }
}
