//! The receive-timeout backstop (threaded backend, no fault plan, so no
//! watchdog): the panic must name the missing message *and* the whole
//! wait-for-graph state, so even an unwatched hang is diagnosable.
//!
//! The timeout is per-[`Machine`] config ([`Machine::with_recv_timeout`])
//! with `SALU_RECV_TIMEOUT_SECS` as the run-time default — NOT latched
//! once per process — so one process can run machines with different
//! backstops. Still its own integration-test binary: the env-var case
//! mutates process-global state.

use simgrid::{Machine, TimeModel};
use std::panic::AssertUnwindSafe;
use std::time::Duration;

/// Run a 2-rank machine where rank 0 waits forever on rank 1 (which exits
/// immediately); return the backstop panic message.
fn hang_until_backstop(m: Machine) -> String {
    let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
        m.run(|rank| {
            let world = rank.world();
            rank.set_phase("fact");
            if rank.id() == 0 {
                // Rank 1 exits immediately; this can never be satisfied.
                let _ = rank.recv(&world, 1, 33);
            }
        })
    }))
    .expect_err("run must hit the timeout");
    err.downcast_ref::<String>()
        .cloned()
        .expect("panic payload must be a string")
}

#[test]
fn timeout_backstop_names_wait_graph_state() {
    let m = Machine::new(2, TimeModel::zero()) // no fault plan: no detector
        .with_recv_timeout(Duration::from_secs(1));
    let msg = hang_until_backstop(m);
    assert!(
        msg.contains("recv timeout waiting for (ctx=0, src=1, tag=33)"),
        "{msg}"
    );
    assert!(msg.contains("wait-for graph:"), "{msg}");
    assert!(msg.contains("rank 0: blocked in recv"), "{msg}");
    assert!(msg.contains("(ctx=0, src=1, tag=33, phase=fact)"), "{msg}");
    assert!(msg.contains("rank 1: finished"), "{msg}");
}

#[test]
fn env_default_is_read_per_run_and_explicit_config_wins() {
    // The env var is the default for machines without an explicit timeout…
    std::env::set_var("SALU_RECV_TIMEOUT_SECS", "1");
    let msg = hang_until_backstop(Machine::new(2, TimeModel::zero()));
    assert!(msg.contains("recv timeout"), "{msg}");
    // …and per-machine config beats it in the same process: with the env
    // var now pointing at an hour, an explicit 1s machine still trips
    // promptly. Before the fix the first run latched the env read for the
    // whole process, so neither knob could vary between runs.
    std::env::set_var("SALU_RECV_TIMEOUT_SECS", "3600");
    let m = Machine::new(2, TimeModel::zero()).with_recv_timeout(Duration::from_secs(1));
    let msg = hang_until_backstop(m);
    assert!(msg.contains("recv timeout"), "{msg}");
    std::env::remove_var("SALU_RECV_TIMEOUT_SECS");
}
