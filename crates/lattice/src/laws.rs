//! Assertion helpers for the semilattice laws.
//!
//! These are plain functions (not macros) so that both unit tests and
//! proptest strategies can call them on arbitrary triples of values.

use crate::JoinSemilattice;
use std::fmt::Debug;

/// Assert `x ∨ x = x`.
pub fn assert_idempotent<L: JoinSemilattice + PartialEq + Debug>(x: &L) {
    assert_eq!(&x.join(x), x, "join must be idempotent");
}

/// Assert `x ∨ y = y ∨ x`.
pub fn assert_commutative<L: JoinSemilattice + PartialEq + Debug>(x: &L, y: &L) {
    assert_eq!(x.join(y), y.join(x), "join must be commutative");
}

/// Assert `(x ∨ y) ∨ z = x ∨ (y ∨ z)`.
pub fn assert_associative<L: JoinSemilattice + PartialEq + Debug>(x: &L, y: &L, z: &L) {
    assert_eq!(
        x.join(y).join(z),
        x.join(&y.join(z)),
        "join must be associative"
    );
}

/// Assert `⊥ ∨ x = x` and `x ∨ ⊥ = x`.
pub fn assert_identity<L: JoinSemilattice + PartialEq + Debug>(x: &L) {
    let bot = L::bottom();
    assert_eq!(&bot.join(x), x, "bottom must be a left identity");
    assert_eq!(&x.join(&bot), x, "bottom must be a right identity");
}

/// Assert `join_assign` agrees with `join`.
pub fn assert_join_assign_consistent<L: JoinSemilattice + PartialEq + Debug>(x: &L, y: &L) {
    let mut a = x.clone();
    a.join_assign(y);
    assert_eq!(a, x.join(y), "join_assign must agree with join");
}

/// Assert that `clone_from` agrees with `clone`: whatever `target` held,
/// after `target.clone_from(source)` it equals `source.clone()`. The
/// law a hand-written in-place `clone_from` must keep — registers are
/// overwritten through it (`MemCtx::write_from`).
pub fn assert_clone_from_consistent<T: Clone + PartialEq + Debug>(target: &T, source: &T) {
    let mut t = target.clone();
    t.clone_from(source);
    assert_eq!(t, source.clone(), "clone_from must agree with clone");
}

/// Run every law over all ordered triples drawn from `values`.
pub fn assert_laws<L: JoinSemilattice + PartialEq + Debug>(values: &[L]) {
    for x in values {
        assert_idempotent(x);
        assert_identity(x);
        for y in values {
            assert_commutative(x, y);
            assert_join_assign_consistent(x, y);
            for z in values {
                assert_associative(x, y, z);
            }
        }
    }
}

/// Assert that `join` is monotone: `x ≤ x ∨ y` and `y ≤ x ∨ y`.
pub fn assert_upper_bound<L: JoinSemilattice + PartialEq + Debug>(x: &L, y: &L) {
    let j = x.join(y);
    assert!(x.leq(&j), "x must be ≤ x ∨ y");
    assert!(y.leq(&j), "y must be ≤ x ∨ y");
}
