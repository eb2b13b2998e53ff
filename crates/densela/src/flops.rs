//! Per-thread floating-point operation accounting.
//!
//! Each simulated MPI rank runs on its own thread, so a thread-local counter
//! gives exact per-rank flop totals with zero synchronization cost. The
//! simulated machine converts these totals into compute time via its
//! flop-rate constant, which is how the `T_scu` component of the paper's
//! Fig. 9 is charged.

use std::cell::Cell;

thread_local! {
    static FLOPS: Cell<u64> = const { Cell::new(0) };
    static SKIPPED: Cell<u64> = const { Cell::new(0) };
}

/// Add `n` flops to the calling thread's counter. Called by every dense
/// kernel in this crate.
#[inline]
pub fn add(n: u64) {
    FLOPS.with(|f| f.set(f.get() + n));
}

/// The calling thread's accumulated flop count.
pub fn get() -> u64 {
    FLOPS.with(|f| f.get())
}

/// Reset the calling thread's counter to zero and return the prior value.
pub fn reset() -> u64 {
    FLOPS.with(|f| f.replace(0))
}

/// Record `n` flops of *skipped* work: multiply-adds a kernel avoided by
/// short-circuiting on zero scale factors (zero entries of a panel).
/// Skipped work is never charged to the simulated clock — only [`add`]
/// feeds compute time — but the separate ledger keeps the nominal `2mnk`
/// total reconstructible as `get() + skipped()` for kernels that would
/// otherwise overcount.
#[inline]
pub fn add_skipped(n: u64) {
    SKIPPED.with(|f| f.set(f.get() + n));
}

/// The calling thread's accumulated skipped-flop count.
pub fn skipped() -> u64 {
    SKIPPED.with(|f| f.get())
}

/// Reset the calling thread's skipped-flop counter, returning the prior
/// value.
pub fn reset_skipped() -> u64 {
    SKIPPED.with(|f| f.replace(0))
}

/// Flops for an `m x n x k` GEMM update (`C += A*B`): `2 m n k`.
#[inline]
pub fn gemm_flops(m: usize, n: usize, k: usize) -> u64 {
    2 * (m as u64) * (n as u64) * (k as u64)
}

/// Flops for an in-place LU of an `m x n` panel (`m >= n`):
/// the standard `getrf` count `m n^2 - n^3/3` (leading order).
#[inline]
pub fn getrf_flops(m: usize, n: usize) -> u64 {
    let m = m as u64;
    let n = n as u64;
    (m * n * n).saturating_sub(n * n * n / 3)
}

/// Flops for a triangular solve with an `n x n` triangle against `nrhs`
/// right-hand sides: `n^2 * nrhs`.
#[inline]
pub fn trsm_flops(n: usize, nrhs: usize) -> u64 {
    (n as u64) * (n as u64) * (nrhs as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates_and_resets() {
        reset();
        add(10);
        add(32);
        assert_eq!(get(), 42);
        assert_eq!(reset(), 42);
        assert_eq!(get(), 0);
    }

    #[test]
    fn counters_are_per_thread() {
        reset();
        add(7);
        let other = std::thread::spawn(|| {
            add(100);
            get()
        })
        .join()
        .unwrap();
        assert_eq!(other, 100);
        assert_eq!(get(), 7);
        reset();
    }

    #[test]
    fn skipped_counter_is_independent() {
        reset();
        reset_skipped();
        add(8);
        add_skipped(6);
        assert_eq!(get(), 8);
        assert_eq!(skipped(), 6);
        assert_eq!(reset_skipped(), 6);
        assert_eq!(get(), 8, "resetting skipped must not touch charged flops");
        reset();
    }

    #[test]
    fn formulas() {
        assert_eq!(gemm_flops(2, 3, 4), 48);
        assert_eq!(trsm_flops(4, 2), 32);
        // square getrf: n^3 - n^3/3 = 2/3 n^3
        assert_eq!(getrf_flops(3, 3), 27 - 9);
    }
}
