//! Property tests for the allocation ledger: for *any* interleaving of
//! charges and credits that never frees more than was allocated, the
//! ledger's running totals, peak, and attribution stay consistent.
//!
//! The op stream is generated from a sampled seed with a xorshift PRNG
//! (the proptest shim supplies range strategies only, no collections).

use obs::memprof::{MemClass, MemLedger};
use proptest::prelude::*;

struct Xorshift(u64);

impl Xorshift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Drive a random alloc/free stream, mirroring it in a shadow list of live
/// allocations. Frees always pick a live allocation, so the stream is
/// well-formed by construction.
fn run_stream(seed: u64, len: usize) -> (MemLedger, Vec<(MemClass, u32, u64)>) {
    let mut rng = Xorshift(seed | 1);
    let mut ledger = MemLedger::new(true);
    let mut live: Vec<(MemClass, u32, u64)> = Vec::new();
    for step in 0..len {
        let t = step as f64;
        if rng.below(3) == 0 && !live.is_empty() {
            let idx = rng.below(live.len() as u64) as usize;
            let (c, l, b) = live.remove(idx);
            ledger.credit(c, l, b, t);
        } else {
            let class = MemClass::ALL[rng.below(MemClass::ALL.len() as u64) as usize];
            let level = rng.below(4) as u32;
            let bytes = rng.below(10_000) + 1;
            ledger.charge(class, level, bytes, t);
            live.push((class, level, bytes));
        }
    }
    (ledger, live)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn ledger_invariants_hold_for_any_stream(
        seed in 0u64..1_000_000,
        len in 0usize..150,
    ) {
        let (mut ledger, live) = run_stream(seed, len);

        // 1. The running total equals the sum of per-class balances, and
        //    matches the shadow model's live bytes exactly.
        let by_class: u64 = MemClass::ALL.iter().map(|&c| ledger.balance(c)).sum();
        prop_assert_eq!(ledger.total(), by_class);
        let shadow: u64 = live.iter().map(|&(_, _, b)| b).sum();
        prop_assert_eq!(ledger.total(), shadow);

        // 2. Peak equals the max prefix sum of the recorded timeline, and
        //    is never below the final balance.
        let timeline = ledger.take_timeline();
        let mut run = 0i64;
        let mut max_run = 0i64;
        for ev in &timeline {
            run += ev.delta;
            prop_assert!(run >= 0, "running balance dipped negative");
            max_run = max_run.max(run);
        }
        prop_assert_eq!(ledger.peak(), max_run as u64);
        prop_assert!(ledger.peak() >= ledger.total());

        // 3. The peak attribution sums to exactly the peak.
        let report = ledger.report();
        prop_assert_eq!(report.peak_attr_sum(), report.peak_bytes);
        prop_assert_eq!(report.peak_bytes, max_run as u64);
    }

    #[test]
    fn draining_everything_returns_to_zero(
        seed in 0u64..1_000_000,
        len in 0usize..100,
    ) {
        let (mut ledger, live) = run_stream(seed, len);
        let mut t = 1e6;
        for (c, l, b) in live {
            t += 1.0;
            ledger.credit(c, l, b, t);
        }
        prop_assert_eq!(ledger.total(), 0);
        for &c in &MemClass::ALL {
            prop_assert_eq!(ledger.balance(c), 0);
        }
        // Final attribution in the report is empty; the peak survives.
        let report = ledger.report();
        prop_assert_eq!(report.final_bytes, 0);
        prop_assert!(report.final_by.is_empty());
        prop_assert_eq!(report.peak_attr_sum(), report.peak_bytes);
    }
}
