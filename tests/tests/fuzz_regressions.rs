//! Shrunk repro scenarios landed from fuzz campaigns, kept as permanent
//! regression tests.
//!
//! Each constant below is the verbatim repro file a campaign failure
//! shrank to. Every one of them used to violate an oracle; they must now
//! pass all of them, and they must replay deterministically (the same
//! repro file always yields the same fingerprint and trace digest —
//! exactly what `turbinesim repro` relies on).

use turbine_fuzz::{run_case, FuzzScenario};

/// Checks one landed repro: parses, passes every oracle, and replays
/// bit-for-bit.
fn check_repro(name: &str, json: &str) {
    let scenario = FuzzScenario::from_json(json)
        .unwrap_or_else(|e| panic!("{name}: repro does not parse: {e}"));
    let report = run_case(&scenario);
    assert!(
        report.passed(),
        "{name}: oracle failures: {:?}",
        report.failures
    );
    // `run_case` already compares the event run against its own replay;
    // also pin canonical serialization so the repro file stays stable.
    assert_eq!(
        FuzzScenario::from_json(&scenario.to_json())
            .unwrap_or_else(|e| panic!("{name}: canonical JSON does not parse: {e}")),
        scenario,
        "{name}: repro JSON is not canonical"
    );
}

/// Fuzz seed 9: a host flap on a tiny-host cluster. When the flapped
/// host's container expired, `check_failover` re-placed *all* shards and
/// stripped the source off every resulting move — including survivor
/// rebalancing moves — so the old live owner never dropped the shard and
/// two Task Managers owned it at once (single-shard-ownership violation).
const HOST_FLAP_DUAL_OWNERSHIP: &str = r#"{"band":0.22877808563856694,"faults":[],"flaps":[{"fail_min":17,"host":3,"recover_min":21}],"headroom":0.165126206263714,"horizon_mins":25,"host_cpu":3.191739340804935,"host_memory_mb":13073.364339937014,"hosts":5,"jobs":[{"diurnal":0.37158967367908013,"events":[],"key_cardinality":4794081.14556258,"max_tasks":3,"message_bytes":390.4204328426721,"name":"fuzz1","partitions":20,"per_thread_rate":1765913.934640292,"rate":1174474.218135737,"stateful":true,"tasks":1,"threads":2,"traffic_seed":148}],"scaler_enabled":true,"seed":9,"tick_secs":1}"#;

/// Fuzz seed 12: same root cause reached through a `heartbeat_loss`
/// fault instead of a whole-host flap, on a 3-host cluster with zero
/// placement headroom.
const HEARTBEAT_LOSS_DUAL_OWNERSHIP: &str = r#"{"band":0.26808421914751707,"faults":[{"from_min":25,"kind":"heartbeat_loss","len_min":4,"target":2}],"flaps":[],"headroom":0.0,"horizon_mins":50,"host_cpu":2.2457572197027273,"host_memory_mb":9198.621571902371,"hosts":3,"jobs":[{"diurnal":0.0,"events":[],"key_cardinality":810231.664608039,"max_tasks":1,"message_bytes":483.2150377551196,"name":"fuzz0","partitions":16,"per_thread_rate":678717.9914215382,"rate":5785250.914341209,"stateful":true,"tasks":1,"threads":2,"traffic_seed":718}],"scaler_enabled":true,"seed":12,"tick_secs":5}"#;

/// Fuzz seed 18: two stateless jobs and a narrow utilization band
/// (0.01), where the post-fail-over placement had the most survivor
/// rebalancing to do — dozens of shards ended up dual-owned.
const NARROW_BAND_DUAL_OWNERSHIP: &str = r#"{"band":0.01,"faults":[{"from_min":73,"kind":"heartbeat_loss","len_min":7,"target":0}],"flaps":[],"headroom":0.20080720800155558,"horizon_mins":114,"host_cpu":3.4223294613599617,"host_memory_mb":14017.861473730403,"hosts":5,"jobs":[{"diurnal":0.0,"events":[],"key_cardinality":0.0,"max_tasks":1,"message_bytes":770.8920919815529,"name":"fuzz0","partitions":7,"per_thread_rate":1730775.9076928792,"rate":580473.1696088638,"stateful":false,"tasks":1,"threads":2,"traffic_seed":473},{"diurnal":0.15604792264446907,"events":[],"key_cardinality":0.0,"max_tasks":3,"message_bytes":120.04458041091696,"name":"fuzz1","partitions":18,"per_thread_rate":907151.6065184504,"rate":5299.140396207196,"stateful":false,"tasks":3,"threads":3,"traffic_seed":540}],"scaler_enabled":true,"seed":18,"tick_secs":2}"#;

/// Resiliency-tier corner, landed with the warm-standby fast path: a
/// critical stateful job loses its primary's heartbeats (sustained, so
/// the standby gets promoted) while another host flaps across the
/// promotion window — the standby itself may be on the flapping host,
/// forcing the double-fault degradation to the standard path. Pins the
/// promotion-single-owner and standby-isolation invariants plus mode
/// equivalence for the whole corner.
const STANDBY_FLAP_DURING_PROMOTION: &str = r#"{"band":0.15,"faults":[{"from_min":10,"kind":"heartbeat_loss","len_min":5,"target":0}],"flaps":[{"fail_min":10,"host":2,"recover_min":15}],"headroom":0.1,"horizon_mins":40,"host_cpu":8.0,"host_memory_mb":32768.0,"hosts":3,"jobs":[{"diurnal":0.0,"events":[],"key_cardinality":100000.0,"max_tasks":2,"message_bytes":256.0,"name":"crit0","partitions":8,"per_thread_rate":1000000.0,"rate":1000000.0,"resiliency":"critical","stateful":true,"tasks":2,"threads":2,"traffic_seed":1},{"diurnal":0.0,"events":[],"key_cardinality":0.0,"max_tasks":2,"message_bytes":256.0,"name":"std1","partitions":8,"per_thread_rate":1000000.0,"rate":500000.0,"resiliency":"standard","stateful":false,"tasks":2,"threads":2,"traffic_seed":2}],"scaler_enabled":false,"seed":0,"tick_secs":5}"#;

#[test]
fn host_flap_no_longer_dual_owns_shards() {
    check_repro("seed-9", HOST_FLAP_DUAL_OWNERSHIP);
}

#[test]
fn heartbeat_loss_no_longer_dual_owns_shards() {
    check_repro("seed-12", HEARTBEAT_LOSS_DUAL_OWNERSHIP);
}

#[test]
fn narrow_band_failover_no_longer_dual_owns_shards() {
    check_repro("seed-18", NARROW_BAND_DUAL_OWNERSHIP);
}

#[test]
fn standby_host_flap_during_promotion_stays_single_owner() {
    check_repro("standby-flap", STANDBY_FLAP_DURING_PROMOTION);
}
