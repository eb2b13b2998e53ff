//! Whether two runs agree on everything the simulation determines. Shared
//! by `backends`, `determinism` and `solve_waves`.

use salu::prelude::*;

/// Two runs agree on everything the simulation determines, and on nothing
/// the host adds: their accounts' `sim` sections — counters, memory and
/// wire ledgers — and every rank's ledgers and counters those are summed
/// from.
pub fn assert_same_sim(a: &Output3d, b: &Output3d, label: &str) {
    let sim = |o: &Output3d| o.account().get("sim").expect("sim section").pretty();
    assert_eq!(sim(a), sim(b), "{label}: the accounts' sim sections differ");
    assert_eq!(a.reports.len(), b.reports.len(), "{label}: rank counts");
    for (rank, (p, q)) in a.reports.iter().zip(&b.reports).enumerate() {
        assert_eq!(p.commvol, q.commvol, "{label}: rank {rank} wire ledger");
        assert_eq!(p.memprof, q.memprof, "{label}: rank {rank} memory ledger");
        assert_eq!(p.metrics, q.metrics, "{label}: rank {rank} counters");
    }
}
