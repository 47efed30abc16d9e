//! Regression test: a publish that succeeds after a degraded epoch must
//! clear the `degraded` flag on the served reply (it used to stick).

use bwpart_mc::TelemetryDelta;
use bwpartd::{EngineConfig, ShardMap};

fn clean(apc: f64) -> TelemetryDelta {
    let cyc = 1_000_000u64;
    TelemetryDelta {
        accesses: (apc * cyc as f64) as u64,
        shared_cycles: cyc,
        interference_cycles: 0,
    }
}

#[test]
fn recovered_publish_not_degraded() {
    let map = ShardMap::new(EngineConfig::default(), 1).unwrap();
    let id = map.register("a", 0.01).unwrap();
    // Live-but-silent epoch: zero-rate estimate -> solve fails.
    map.push_telemetry(
        id,
        TelemetryDelta {
            accesses: 0,
            shared_cycles: 1000,
            interference_cycles: 0,
        },
    )
    .unwrap();
    map.run_epochs();
    // Good telemetry: solve succeeds, first publish.
    map.push_telemetry(id, clean(0.05)).unwrap();
    let out = map.run_epochs();
    println!("outcome = {out:?}");
    let reply = map.get_shares().unwrap();
    assert!(
        !reply.degraded,
        "freshly repartitioned reply must not be degraded (snapshot.degraded = {})",
        map.snapshot().degraded
    );
}
