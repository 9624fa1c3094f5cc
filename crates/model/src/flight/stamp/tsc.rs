//! The two instructions a flight-recorder stamp is made of, and the
//! only `unsafe` outside `native::buffered`: the `core::arch`
//! intrinsics are `unsafe fn` on this toolchain although neither has a
//! precondition on this target.

#![allow(unsafe_code)]

use core::arch::x86_64::{_mm_lfence, _rdtsc};

/// Read the time-stamp counter. Not ordered against anything by itself.
#[inline(always)]
pub(super) fn rdtsc() -> u64 {
    // SAFETY: RDTSC is part of baseline x86-64; it reads a counter into
    // registers and touches no memory.
    unsafe { _rdtsc() }
}

/// `LFENCE`: completes only once every earlier instruction has, and no
/// later instruction starts until it completes.
#[inline(always)]
pub(super) fn lfence() {
    // SAFETY: LFENCE is SSE2, which is baseline x86-64; it orders
    // instruction execution and touches no memory.
    unsafe { _mm_lfence() }
}
