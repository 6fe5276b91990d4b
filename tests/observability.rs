//! Observability integration tests: the anomaly detector that powers
//! the live admin plane's `/status` feed, the `/health` verdict, and
//! the metric namespace, observed end to end through scripted
//! fault-injection runs.
//!
//! Three scripted scenarios pin the detector's semantics on real
//! cluster span streams — the same streams `scenario` scans for its
//! report and each replica's embedded detector watches live:
//!
//! 1. A **flapping peer** (two crash/restart cycles inside the flap
//!    window) is flagged by the offline scan, naming the peer and the
//!    transition count.
//! 2. A **lost quorum** (two of four nodes down, f = 1) stalls the
//!    open round; the per-node detectors embedded in the consensus
//!    cores flag it *live* — during the run, with no post-hoc
//!    analysis — and mirror the anomaly into the flight-recorder span
//!    ring. The nodes run inside `ObservedNode`, so the same run
//!    drives `/health` deterministically: 200 before the outage, 503
//!    for missing peers during it, and 503 for the stall that outlives
//!    the heal.
//! 3. A node starved by `SlowLinks` falls behind over and over and
//!    rejoins by certified catch-up each time: a **catch-up storm**,
//!    flagged live by that node's own detector.
//!
//! Finally, a sim node and a TCP node render the same metric families.
//! The detector scenarios need the `telemetry` feature; the `/health`
//! and metric-name checks run in both lanes.

use icc_core::cluster::{Cluster, ClusterBuilder};
use icc_core::events::NodeEvent;
use icc_core::keys::generate_keys;
use icc_gossip::{GossipConfig, GossipNode, Overlay};
use icc_net::{ClusterSpec, NetOptions, TcpTransport};
use icc_node::ObservedNode;
use icc_sim::delay::FixedDelay;
use icc_sim::runtime::drive;
use icc_sim::FaultPlan;
use icc_telemetry::{AnomalyKind, SpanKind};
use icc_types::{NodeIndex, SimDuration, SimTime, SubnetConfig};
use std::collections::BTreeSet;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};
#[cfg(feature = "telemetry")]
use {
    icc_gossip::gossip_cluster,
    icc_sim::policy::SlowLinks,
    icc_telemetry::{anomaly, AnomalyConfig},
};

fn ms(v: u64) -> SimDuration {
    SimDuration::from_millis(v)
}

fn at(millis: u64) -> SimTime {
    SimTime::ZERO + ms(millis)
}

fn builder(n: usize, seed: u64) -> ClusterBuilder {
    ClusterBuilder::new(n)
        .seed(seed)
        .network(FixedDelay::new(ms(10)))
        .protocol_delays(ms(60), SimDuration::ZERO)
}

/// An ICC1 cluster of [`ObservedNode`]s over a full mesh.
fn observed_cluster(builder: ClusterBuilder, n: usize) -> Cluster<ObservedNode> {
    let overlay = Arc::new(Overlay::full_mesh(n));
    builder.build_with(move |core| {
        ObservedNode::new(GossipNode::new(
            core,
            Arc::clone(&overlay),
            GossipConfig::default(),
        ))
    })
}

#[cfg(feature = "telemetry")]
#[test]
fn flapping_peer_is_flagged_by_the_scan() {
    // Node 3 crashes and restarts three times inside the default 10 s
    // flap window. The engine records each lifecycle edge as a
    // NodeDown/NodeUp span, which is exactly what the detector folds
    // into per-peer transition counts — the first edge only sets the
    // baseline, leaving four counted transitions (the flap threshold).
    let plan = FaultPlan::new()
        .crash_between(NodeIndex::new(3), at(1000), at(1500))
        .crash_between(NodeIndex::new(3), at(2000), at(2500))
        .crash_between(NodeIndex::new(3), at(3000), at(3500));
    let mut cluster = builder(4, 5).fault_plan(plan).build();
    cluster.run_for(SimDuration::from_secs(5));
    cluster.assert_safety();

    let anomalies = anomaly::scan(&cluster.flight_events(), &AnomalyConfig::default());
    let flap = anomalies
        .iter()
        .find_map(|a| match a.kind {
            AnomalyKind::PeerFlap {
                peer, transitions, ..
            } => Some((peer, transitions)),
            _ => None,
        })
        .expect("two crash/restart cycles must be flagged as a peer flap");
    assert_eq!(flap.0, 3, "the flagged peer must be the flapping node");
    assert!(
        flap.1 >= 4,
        "four lifecycle transitions expected, saw {}",
        flap.1
    );
}

#[test]
fn lost_quorum_round_stall_is_flagged_live() {
    // Four nodes tolerate f = 1; crashing two kills the notarization
    // quorum, so the round open at t = 2 s stays open until the
    // restart at 4 s — two full seconds against a ~100 ms median. The
    // publish tick keeps the survivors' detectors ticking through the
    // silence, so the stall is flagged *during* the outage and
    // mirrored into the span ring, not reconstructed afterwards.
    let plan = FaultPlan::new()
        .crash_between(NodeIndex::new(2), at(2000), at(4000))
        .crash_between(NodeIndex::new(3), at(2000), at(4000));
    let mut cluster = observed_cluster(builder(4, 7).fault_plan(plan).checkpoint_interval(8), 4);

    // `/health` before, during and after the outage. A survivor sees
    // one peer up during it: below the n − f − 1 = 2 it needs for a
    // notarization quorum.
    cluster.run_until(at(1900));
    let health = cluster.sim.node(0).health();
    assert_eq!(
        health.status(),
        200,
        "healthy before the outage: {health:?}"
    );
    cluster.run_until(at(3500));
    let health = cluster.sim.node(0).health();
    assert_eq!(health.status(), 503, "quorum lost: {health:?}");
    assert!(
        health.reasons.contains(&"insufficient_peers"),
        "503 must name the missing peers: {health:?}"
    );
    assert_eq!(health.inputs.peers_up, 1);
    // After the heal every peer is back, so the peers reason clears on
    // the survivor and on the restarted node 2. The cluster itself does
    // not resume: flood-mode gossip never re-sends the round's beacon
    // shares and proposals the crashed nodes missed, so no notarization
    // quorum forms and the committed round stays where the outage left
    // it. `/health` reports exactly that stall.
    cluster.run_until(at(7000));
    cluster.assert_safety();
    for i in [0, 2] {
        let health = cluster.sim.node(i).health();
        assert_eq!(health.inputs.peers_up, 3, "node {i}: {health:?}");
        assert_eq!(
            health.reasons,
            vec!["round_progress_stalled"],
            "node {i} after the heal: {health:?}"
        );
        // A restarted node's publish timer was re-armed: its verdict is
        // fresh, not frozen at the crash.
        assert!(
            health.inputs.now_us > 6_500_000,
            "node {i} stopped ticking: {health:?}"
        );
    }

    if cfg!(feature = "telemetry") {
        // Live path: a survivor's embedded detector flagged the stall
        // and retained the event for `/status`.
        let survivor = cluster.sim.node(0).core().telemetry();
        let counts = survivor.anomalies.counts();
        assert!(
            counts.round_stalls >= 1,
            "survivor 0 never flagged the lost-quorum stall: {counts:?}"
        );
        let stall = survivor
            .recent_anomalies()
            .into_iter()
            .find_map(|a| match a.kind {
                AnomalyKind::RoundStall {
                    round,
                    waited_us,
                    median_us,
                } => Some((round, waited_us, median_us)),
                _ => None,
            })
            .expect("a RoundStall event must be retained for /status");
        assert!(
            stall.1 > 4 * stall.2,
            "flagged wait {} µs must exceed stall_factor × median {} µs",
            stall.1,
            stall.2
        );

        // Mirror path: the same anomaly landed in the flight-recorder
        // ring as a span, where traces and the offline scan can see it.
        let events = cluster.flight_events();
        assert!(
            events
                .iter()
                .any(|e| matches!(e.kind, SpanKind::Anomaly { .. })
                    && e.kind.label() == "round_stall"),
            "the stall must be mirrored into the span ring"
        );
    }

    // The cluster committed well past warm-up before the outage.
    assert!(
        cluster.min_committed_round() > 20,
        "cluster never recovered after the outage"
    );
}

#[cfg(feature = "telemetry")]
#[test]
fn starved_node_flags_a_catch_up_storm_live() {
    // Every link *into* node 0 carries +1.5 s: it perpetually lags
    // ~25 rounds behind the frontier it hears about, so the gossip
    // layer repeatedly pulls certified catch-up packages for it. Three
    // of those inside the 5 s window is the storm the detector exists
    // to name — one catch-up is healthy recovery, a steady diet of
    // them is a sick replica.
    let slow = SlowLinks {
        links: (1..4)
            .map(|from| (NodeIndex::new(from), NodeIndex::new(0)))
            .collect(),
        extra: ms(1500),
    };
    // `inline_threshold: 0` forces the advert/request path: round-
    // tagged adverts are the behind-detection signal catch-up rides on
    // (the same setting the `replica` binary runs with).
    let config = GossipConfig {
        inline_threshold: 0,
        ..GossipConfig::default()
    };
    let mut cluster = gossip_cluster(builder(4, 11).policy(slow), Overlay::full_mesh(4), config);
    cluster.run_for(SimDuration::from_secs(10));
    cluster.assert_safety();

    let starved = cluster.sim.node(0).core().telemetry();
    let counts = starved.anomalies.counts();
    assert!(
        counts.catch_up_storms >= 1,
        "node 0's repeated catch-ups never flagged a storm: {counts:?}"
    );
    // The fast majority keeps a healthy cadence — their detectors
    // must not storm.
    for i in 1..4 {
        let c = cluster.sim.node(i).core().telemetry().anomalies.counts();
        assert_eq!(
            c.catch_up_storms, 0,
            "healthy node {i} falsely flagged a catch-up storm: {c:?}"
        );
    }
}

/// The `# TYPE` family names of a Prometheus render.
fn families(render: &str) -> BTreeSet<String> {
    render
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .filter_map(|l| l.split_whitespace().next())
        .map(str::to_string)
        .collect()
}

#[test]
fn sim_and_tcp_nodes_export_the_same_metric_families() {
    const N: usize = 4;
    let mut cluster = observed_cluster(builder(N, 3), N);
    cluster.run_for(SimDuration::from_secs(2));
    let sim = cluster.sim.node(0).metrics();

    // The same wrapper over in-process TCP, with the transport's
    // counters and link gauges attached as the replica binary does.
    let listeners: Vec<TcpListener> = (0..N)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind :0"))
        .collect();
    let spec = ClusterSpec::from_addrs(
        listeners
            .iter()
            .map(|l| l.local_addr().expect("bound"))
            .collect(),
    )
    .expect("spec");
    let overlay = Arc::new(Overlay::full_mesh(N));
    let start = Instant::now();
    let mut handles = Vec::new();
    let mut threads = Vec::new();
    for (i, (keys, listener)) in generate_keys(SubnetConfig::new(N), 3)
        .into_iter()
        .zip(listeners)
        .enumerate()
    {
        let transport: TcpTransport<_, _> = TcpTransport::with_listener(
            listener,
            &spec,
            NodeIndex::new(i as u32),
            NetOptions::default(),
        );
        let core = icc_core::consensus::ConsensusCore::new(
            keys,
            icc_core::delays::StaticDelays::new(ms(200), ms(20)),
            icc_core::Behavior::Honest,
        );
        let node = ObservedNode::new(GossipNode::new(
            core,
            Arc::clone(&overlay),
            GossipConfig::default(),
        ))
        .with_transport(transport.counters_handle(), transport.links_handle());
        handles.push(transport.handle());
        threads.push(std::thread::spawn(move || {
            drive(
                node,
                transport,
                start,
                |_: icc_sim::engine::OutputRecord<NodeEvent>| {},
            )
        }));
    }
    std::thread::sleep(Duration::from_millis(1500));
    for h in &handles {
        h.stop();
    }
    let nodes: Vec<ObservedNode> = threads
        .into_iter()
        .map(|t| t.join().expect("driver thread"))
        .collect();
    let tcp = nodes[0].metrics();

    assert!(tcp.contains("icc_replica_link_connected{peer=\"1\"}"));
    assert_eq!(families(&sim), families(&tcp));
}
