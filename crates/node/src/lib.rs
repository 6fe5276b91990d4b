//! The observed node: one ICC1 [`GossipNode`] with the observability
//! plane attached, identical under the discrete-event simulator and as
//! a TCP replica process.
//!
//! [`ObservedNode`] delegates every event to the gossip node and, on its
//! own publish timer, does what only the driver loop can see:
//!
//! * feeds the anomaly detector peer liveness transitions, fsync latency
//!   deltas and clock ticks (silent stalls);
//! * re-evaluates `/health` — the paper's liveness property: healthy
//!   while the committed chain keeps growing and the node can still
//!   reach a notarization quorum. Peers are counted with
//!   [`Context::peer_up`], which over TCP reads the transport's link
//!   gauges and in the simulator reads the engine's liveness;
//! * when an admin plane is attached ([`ObservedNode::serve_admin`]),
//!   renders `/metrics`, `/status`, `/health` and `/trace` into a
//!   snapshot the HTTP handlers serve without touching consensus state.
//!
//! [`render_metrics`] is the one Prometheus render of a node: the live
//! scrape, the replica's exit-time `--metrics-out` and `scenario
//! --metrics-out` all call it, so a sim node and a TCP node export the
//! same `icc_replica_*` families. [`ReplicaReport`] is the replica's
//! typed `REPORT` line, decoded by the `net_cluster` launcher.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod report;

pub use report::{ReplicaReport, ReportError};

use icc_core::cluster::CoreAccess;
use icc_core::consensus::ConsensusCore;
use icc_core::events::NodeEvent;
use icc_core::storage::StorageCounters;
use icc_gossip::{GossipMessage, GossipNode};
use icc_net::{LinkGauges, NetCounters, NetCountersSnapshot};
use icc_sim::{Context, GossipCounters, Node};
use icc_telemetry::{
    chrome_trace_tagged, evaluate_health, AdminBuilder, AdminResponse, AdminServer, HealthInputs,
    HealthReport, PeerLinkStatus, PromSnapshot, StatusReport,
};
use icc_types::{Command, NodeIndex, SimDuration, SubnetConfig};
use std::sync::{Arc, Mutex};

/// Publish cadence, which is also the anomaly tick granularity.
const PUBLISH_PERIOD: SimDuration = SimDuration::from_millis(250);

/// Timer tags with this bit set belong to the publisher; the low bits
/// carry the timer chain's generation. The gossip layer only uses small
/// tags, so the wrapper intercepts these and never delegates them.
const PUBLISH_TAG: u64 = 1 << 63;

/// `/health` calls a node stalled after this long without commit
/// progress: ten round paces, floored at 2 s for fast-paced configs.
fn stall_after_us(core: &ConsensusCore) -> u64 {
    (10 * core.delta_bound().as_micros()).max(2_000_000)
}

/// The snapshot the admin endpoints serve. Swapped wholesale by the
/// publish tick; handlers only ever clone strings out of the mutex, so
/// a scrape can never block (or observe a half-written) round.
struct Published {
    metrics: String,
    status: String,
    health_status: u16,
    health: String,
    trace: String,
}

impl Default for Published {
    fn default() -> Self {
        // Pre-first-tick scrapes get a valid, optimistic skeleton.
        Published {
            metrics: String::new(),
            status: "{}".to_string(),
            health_status: 200,
            health: "{\"healthy\":true,\"reasons\":[]}".to_string(),
            trace: "{\"traceEvents\":[]}".to_string(),
        }
    }
}

/// One Prometheus render of everything a node knows. All counter-set
/// families go through `fields()`, so a counter added to any set shows
/// up here without touching this function. Under the simulator pass
/// `NetCountersSnapshot::default()` and no links: the families are the
/// same, only the TCP-specific series are zero or empty.
pub fn render_metrics(
    core: &ConsensusCore,
    gossip: &GossipCounters,
    net: &NetCountersSnapshot,
    links: &[PeerLinkStatus],
) -> String {
    let m = &core.telemetry().metrics;
    let mut snap = PromSnapshot::new();
    snap.counter(
        "icc_replica_blocks_committed_total",
        "Blocks committed by this replica.",
        m.blocks_committed.get(),
    );
    snap.counter(
        "icc_replica_commands_committed_total",
        "Client commands committed by this replica.",
        m.commands_committed.get(),
    );
    snap.counter(
        "icc_replica_rounds_entered_total",
        "Rounds this replica entered.",
        m.rounds_entered.get(),
    );
    snap.counter(
        "icc_replica_catch_ups_applied_total",
        "Certified catch-up packages this replica applied.",
        m.catch_ups_applied.get(),
    );
    snap.gauge(
        "icc_replica_current_round",
        "Round the replica is currently working on.",
        core.current_round().get() as i64,
    );
    snap.gauge(
        "icc_replica_committed_round",
        "Highest committed (finalized-prefix) round.",
        core.committed_round().get() as i64,
    );
    snap.gauge(
        "icc_replica_finalized_frontier",
        "Highest explicitly finalized round in the pool.",
        core.finalized_frontier().get() as i64,
    );
    snap.gauge(
        "icc_replica_epoch",
        "Active epoch index.",
        core.current_epoch() as i64,
    );
    snap.histogram(
        "icc_replica_round_duration_us",
        "Round entry to notarized finish, microseconds.",
        &m.round_duration_us,
    );
    snap.histogram(
        "icc_replica_finalization_latency_us",
        "Round entry to commit of that round's block, microseconds.",
        &m.finalization_latency_us,
    );
    snap.counter_series(
        "icc_replica_net",
        "TCP mesh transport counters (icc-net NetCounters).",
        "field",
        &net.fields(),
    );
    snap.counter_series(
        "icc_replica_pool",
        "Two-tier artifact pool counters (verification economy).",
        "field",
        &core.pool().stats().fields(),
    );
    snap.counter_series(
        "icc_replica_gossip",
        "Dissemination counters (relay fan-out, dedup, hop depths).",
        "field",
        &gossip.fields(),
    );
    snap.counter_series(
        "icc_replica_storage",
        "WAL + checkpoint storage counters.",
        "field",
        &core.storage_counters().fields(),
    );
    snap.counter_series(
        "icc_replica_anomalies",
        "Anomaly detector emissions by class.",
        "class",
        &core.telemetry().anomalies.counts().fields(),
    );
    snap.counter_series(
        "icc_replica_recovery",
        "Crash-recovery counters (restarts, catch-up traffic).",
        "field",
        &core.recovery_stats().fields(),
    );
    // Per-peer link gauges.
    let peer_labels: Vec<String> = links.iter().map(|l| l.peer.to_string()).collect();
    type Gauge = fn(&PeerLinkStatus) -> i64;
    let link_families: [(&str, &str, Gauge); 5] = [
        (
            "connected",
            "Outbound link established (1) or down (0), per peer.",
            |l| i64::from(l.connected),
        ),
        (
            "queue_depth",
            "Frames waiting in the bounded send queue, per peer.",
            |l| l.queue_depth as i64,
        ),
        (
            "backoff_ms",
            "Current reconnect backoff in ms (0 while connected), per peer.",
            |l| l.backoff_ms as i64,
        ),
        ("reconnects", "Completed reconnections, per peer.", |l| {
            l.reconnects as i64
        }),
        (
            "last_frame_age_us",
            "Age of the last valid inbound frame in us (-1 = never), per peer.",
            |l| i64::try_from(l.last_frame_age_us).map_or(-1, |age| age),
        ),
    ];
    for (name, help, value) in link_families {
        let series: Vec<(&str, i64)> = peer_labels
            .iter()
            .zip(links)
            .map(|(peer, l)| (peer.as_str(), value(l)))
            .collect();
        snap.gauge_series(&format!("icc_replica_link_{name}"), help, "peer", &series);
    }
    snap.render()
}

/// A [`GossipNode`] with the observability plane attached. See the
/// crate docs for what each publish tick does.
pub struct ObservedNode {
    inner: GossipNode,
    /// TCP transport counters and link gauges; `None` in the simulator.
    transport: Option<(Arc<NetCounters>, Arc<LinkGauges>)>,
    /// Where ticks publish rendered endpoint bodies; `None` when no
    /// admin plane is attached (then ticks render nothing).
    publish: Option<Arc<Mutex<Published>>>,
    /// UNIX µs at driver start — the cross-process clock anchor.
    clock_anchor_us: u64,
    /// Generation of the live publish-timer chain. Bumped on restart so
    /// a pre-crash timer that outlives a short outage dies instead of
    /// running a second chain.
    chain: u64,
    /// Publish ticks run so far.
    ticks: u64,
    /// Round-progress tracking for `/health`.
    last_progress_us: u64,
    prev_committed: u64,
    /// Previous storage snapshot, for fsync latency deltas.
    prev_storage: StorageCounters,
    health: HealthReport,
}

impl ObservedNode {
    /// Wraps `inner` with no transport gauges and no admin plane — the
    /// simulator form. Ticks still feed the detector and judge health.
    pub fn new(inner: GossipNode) -> Self {
        ObservedNode {
            inner,
            transport: None,
            publish: None,
            clock_anchor_us: 0,
            chain: 0,
            ticks: 0,
            last_progress_us: 0,
            prev_committed: 0,
            prev_storage: StorageCounters::default(),
            health: evaluate_health(&HealthInputs::default()),
        }
    }

    /// Attaches a TCP transport's counters and per-peer link gauges, so
    /// renders carry the `icc_replica_net` and `icc_replica_link_*`
    /// series.
    pub fn with_transport(mut self, net: Arc<NetCounters>, links: Arc<LinkGauges>) -> Self {
        self.transport = Some((net, links));
        self
    }

    /// Starts the admin HTTP plane on `addr` (`/metrics`, `/status`,
    /// `/health`, `/trace`) and makes every tick publish to it.
    /// `clock_anchor_us` is the UNIX time at which the driver clock read
    /// zero; `/status` and `/trace` carry it for cross-node stitching.
    /// With the `telemetry` feature off the server binds nothing (port
    /// 0) and the node stays unpublished.
    ///
    /// # Errors
    ///
    /// Propagates the listener bind failure.
    pub fn serve_admin(
        &mut self,
        addr: &str,
        clock_anchor_us: u64,
    ) -> std::io::Result<AdminServer> {
        let publish = Arc::new(Mutex::new(Published::default()));
        let route = |f: fn(&Published) -> AdminResponse| {
            let publish = Arc::clone(&publish);
            move || f(&publish.lock().expect("publish lock"))
        };
        let server = AdminBuilder::new()
            .route(
                "/metrics",
                route(|p| AdminResponse::text(p.metrics.clone())),
            )
            .route("/status", route(|p| AdminResponse::json(p.status.clone())))
            .route(
                "/health",
                route(|p| AdminResponse::json_status(p.health_status, p.health.clone())),
            )
            .route("/trace", route(|p| AdminResponse::json(p.trace.clone())))
            .serve(addr)?;
        if server.port() != 0 {
            self.publish = Some(publish);
            self.clock_anchor_us = clock_anchor_us;
        }
        Ok(server)
    }

    /// The consensus core.
    pub fn core(&self) -> &ConsensusCore {
        self.inner.core()
    }

    /// Mutable consensus core (store flush at shutdown).
    pub fn core_mut(&mut self) -> &mut ConsensusCore {
        self.inner.core_mut()
    }

    /// The `/health` verdict of the latest publish tick.
    pub fn health(&self) -> &HealthReport {
        &self.health
    }

    /// Publish ticks run so far (one timer chain: one per 250 ms of up
    /// time).
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// This node's [`render_metrics`], with the transport's series when
    /// one is attached.
    pub fn metrics(&self) -> String {
        let (net, links) = match &self.transport {
            Some((net, links)) => (net.snapshot(), links.snapshot()),
            None => (NetCountersSnapshot::default(), Vec::new()),
        };
        render_metrics(self.core(), &self.inner.gossip_counters(), &net, &links)
    }

    /// (Re)starts the publish chain: progress counts from now, one
    /// immediate tick, then one tick per period.
    fn arm(&mut self, ctx: &mut Context<'_, GossipMessage, NodeEvent>) {
        self.last_progress_us = ctx.now().as_micros();
        self.tick(ctx);
        ctx.set_timer(PUBLISH_PERIOD, PUBLISH_TAG | self.chain);
    }

    /// One publish tick: feed the detector, judge health and, with an
    /// admin plane attached, render and swap the published snapshot.
    fn tick(&mut self, ctx: &mut Context<'_, GossipMessage, NodeEvent>) {
        self.ticks += 1;
        let now_us = ctx.now().as_micros();
        let me = ctx.me().get();
        let n = ctx.n();

        let storage = self.inner.core().storage_counters();
        let fsyncs = storage.fsyncs.saturating_sub(self.prev_storage.fsyncs);
        let fsync_us = storage
            .fsync_total_us
            .saturating_sub(self.prev_storage.fsync_total_us);
        self.prev_storage = storage;
        let telemetry = self.inner.core_mut().telemetry_mut();
        // Peer liveness transitions → flap detector (via the funnel,
        // so flaps also land in the span ring).
        let mut peers_up = 0;
        for p in (0..n as u32).filter(|&p| p != me) {
            let up = ctx.peer_up(NodeIndex::new(p));
            peers_up += u64::from(up);
            telemetry.observe_peer(p, up, now_us);
        }
        // Fsync latency delta → spike detector (mean over the tick's
        // fsyncs; individual latencies are not retained by the WAL).
        if let Some(mean_us) = fsync_us.checked_div(fsyncs) {
            telemetry.observe_fsync(now_us, mean_us);
        }
        // Clock tick → silent-stall detector.
        telemetry.tick(now_us);

        let core = self.inner.core();
        let committed = core.committed_round().get();
        if committed > self.prev_committed {
            self.prev_committed = committed;
            self.last_progress_us = now_us;
        }
        // Healthy needs a notarization quorum (n − f) reachable,
        // counting self.
        self.health = evaluate_health(&HealthInputs {
            now_us,
            last_progress_us: self.last_progress_us,
            committed_round: committed,
            peers_up,
            peers_total: n as u64 - 1,
            wal_io_errors: storage.io_errors,
            stall_after_us: stall_after_us(core),
            min_peers_up: SubnetConfig::new(n).notarization_threshold() as u64 - 1,
        });

        let Some(publish) = &self.publish else {
            return;
        };
        let status = StatusReport {
            node: me,
            now_us,
            clock_anchor_us: self.clock_anchor_us,
            current_round: core.current_round().get(),
            committed_round: committed,
            finalized_frontier: core.finalized_frontier().get(),
            epoch: core.current_epoch(),
            peers: self
                .transport
                .as_ref()
                .map_or_else(Vec::new, |(_, l)| l.snapshot()),
            anomalies: core.telemetry().recent_anomalies(),
        }
        .to_json();
        let published = Published {
            metrics: self.metrics(),
            status,
            health_status: self.health.status(),
            health: self.health.to_json(),
            trace: chrome_trace_tagged(
                &core.telemetry().recorder.events(),
                me,
                self.clock_anchor_us,
            ),
        };
        *publish.lock().expect("publish lock") = published;
    }
}

impl Node for ObservedNode {
    type Msg = GossipMessage;
    type External = Command;
    type Output = NodeEvent;

    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg, Self::Output>) {
        self.inner.on_start(ctx);
        self.arm(ctx);
    }

    fn on_message(
        &mut self,
        ctx: &mut Context<'_, Self::Msg, Self::Output>,
        from: NodeIndex,
        msg: Self::Msg,
    ) {
        self.inner.on_message(ctx, from, msg);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Self::Msg, Self::Output>, tag: u64) {
        if tag & PUBLISH_TAG == 0 {
            self.inner.on_timer(ctx, tag);
        } else if tag == PUBLISH_TAG | self.chain {
            self.tick(ctx);
            ctx.set_timer(PUBLISH_PERIOD, tag);
        }
        // Otherwise: a chain armed before a crash — let it die.
    }

    fn on_external(&mut self, ctx: &mut Context<'_, Self::Msg, Self::Output>, input: Command) {
        self.inner.on_external(ctx, input);
    }

    fn on_crash(&mut self) {
        self.inner.on_crash();
    }

    fn on_restart(&mut self, ctx: &mut Context<'_, Self::Msg, Self::Output>) {
        self.inner.on_restart(ctx);
        // The engine drops timers that fire while a node is down, so the
        // old chain may be gone; start a fresh one and retire the old.
        self.chain += 1;
        self.arm(ctx);
    }

    fn on_peer_departed(
        &mut self,
        ctx: &mut Context<'_, Self::Msg, Self::Output>,
        peer: NodeIndex,
    ) {
        self.inner.on_peer_departed(ctx, peer);
    }
}

impl CoreAccess for ObservedNode {
    fn core(&self) -> &ConsensusCore {
        self.inner.core()
    }

    fn gossip_counters(&self) -> Option<GossipCounters> {
        Some(self.inner.gossip_counters())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icc_core::cluster::ClusterBuilder;
    use icc_gossip::{GossipConfig, Overlay};
    use icc_sim::delay::FixedDelay;
    use icc_sim::FaultPlan;
    use icc_types::SimTime;

    #[test]
    fn a_short_outage_leaves_one_publish_chain() {
        // Node 3 is down for 100 ms, shorter than a publish period, so
        // the timer it armed before the crash still fires after the
        // restart. Only the chain the restart armed may keep ticking.
        let at = |ms| SimTime::ZERO + SimDuration::from_millis(ms);
        let overlay = Arc::new(Overlay::full_mesh(4));
        let mut cluster = ClusterBuilder::new(4)
            .seed(1)
            .network(FixedDelay::new(SimDuration::from_millis(10)))
            .fault_plan(FaultPlan::new().crash_between(NodeIndex::new(3), at(1010), at(1110)))
            .build_with(|core| {
                ObservedNode::new(GossipNode::new(
                    core,
                    Arc::clone(&overlay),
                    GossipConfig::default(),
                ))
            });
        cluster.run_until(at(3000));
        // Node 0 ticks at 0, 250, …, 3000 ms. Node 3 ticks five times
        // before the crash, once at the restart, then on the new chain:
        // 13 as well. A surviving pre-crash chain would add eight more.
        assert_eq!(cluster.sim.node(0).ticks(), 13);
        let restarted = cluster.sim.node(3).ticks();
        assert!(
            (11..=13).contains(&restarted),
            "node 3 ran {restarted} ticks: a second chain survived the restart"
        );
        assert!(cluster.sim.node(3).health().inputs.now_us >= 2_850_000);
    }
}
