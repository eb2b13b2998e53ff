//! Per-thread floating-point operation accounting.
//!
//! Every dense kernel adds its flops to a thread-local counter, with zero
//! synchronization cost. A simulated rank reads the counter around its own
//! kernel calls and charges the difference to its clock via the machine's
//! flop-rate constant, which is how the `T_scu` component of the paper's
//! Fig. 9 is charged.
//!
//! A difference is this rank's only while no other rank runs on the thread
//! in between. Rank tasks share one thread under the one-slot executor and
//! switch only where a rank awaits a receive: a span that awaits measures
//! its flops with a [`Meter`], which counts only the segments between its
//! awaits.

use std::cell::Cell;
use std::future::Future;

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

/// The calling thread's flops over the segments of one span that run
/// between its awaits: the other tasks polled on the thread while this one
/// waits add to the counter, never to the meter.
#[derive(Debug)]
pub struct Meter {
    total: u64,
    since: u64,
}

impl Meter {
    /// Start metering at the counter's current value.
    pub fn start() -> Meter {
        Meter {
            total: 0,
            since: get(),
        }
    }

    /// Await `fut` unmetered: the segment so far is counted, and metering
    /// restarts once `fut` is done.
    pub async fn excluding<F: Future>(&mut self, fut: F) -> F::Output {
        self.total += get() - self.since;
        let out = fut.await;
        self.since = get();
        out
    }

    /// The flops of every metered segment, the current one included.
    pub fn total(&self) -> u64 {
        self.total + (get() - self.since)
    }
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
    fn a_meter_counts_only_its_own_segments() {
        let mut meter = Meter::start();
        add(5);
        let other = async {
            // Another task's kernel, run while the metered one waits.
            add(1000);
            3
        };
        let mut cx = std::task::Context::from_waker(std::task::Waker::noop());
        let waited = std::pin::pin!(meter.excluding(other)).poll(&mut cx);
        assert_eq!(waited, std::task::Poll::Ready(3));
        add(7);
        assert_eq!(meter.total(), 12);
    }

    #[test]
    fn formulas() {
        assert_eq!(gemm_flops(2, 3, 4), 48);
        assert_eq!(trsm_flops(4, 2), 32);
        // square getrf: n^3 - n^3/3 = 2/3 n^3
        assert_eq!(getrf_flops(3, 3), 27 - 9);
    }
}
