//! The simulator workload: n = 250 on the routed overlay, one node
//! crashed for 2 sim-seconds mid-run. Built as `routed_gossip_cluster`
//! builds it (except for the inline threshold, see [`build`]), with each
//! `GossipNode` in the timing wrapper. Passes are repeated within a run;
//! every sim count and sim-time result must repeat exactly.

use crate::cmd::{command, seq_of, splitmix};
use crate::codec;
use crate::probe::{Counters, LayerTimes, Probe, Timed};
use crate::report::{self, LayerRun, Metrics};
use crate::stats::{self, Ledger};
use crate::Outcome;
use icc_core::cluster::{Cluster, ClusterBuilder};
use icc_core::events::NodeEvent;
use icc_gossip::{subnet_overlay_seed, GossipConfig, GossipNode, Overlay};
use icc_sim::delay::FixedDelay;
use icc_sim::FaultPlan;
use icc_types::{Command, NodeIndex, SimDuration, SimTime};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

const N: usize = 250;
/// f + 1 with f = ⌊(n − 1) / 3⌋.
const QUORUM: usize = (N - 1) / 3 + 1;
/// Every message takes exactly δ.
const DELTA: SimDuration = SimDuration::from_millis(10);
const DELTA_BND: SimDuration = SimDuration::from_millis(100);
const CMD_BYTES: usize = 64;
/// Commands per sim-second, due from `LOAD_FROM` until `LOAD_UNTIL`.
const RATE: u64 = 400;
const LOAD_FROM: SimTime = SimTime::from_micros(250_000);
const LOAD_UNTIL: SimTime = SimTime::from_micros(4_500_000);
/// One node is down over `[DOWN, UP)`.
const DOWN: SimTime = SimTime::from_micros(1_000_000);
const UP: SimTime = SimTime::from_micros(3_000_000);
/// The simulated interval of one pass.
const END: SimTime = SimTime::from_micros(5_000_000);
/// Passes a run makes at least: the determinism check needs two.
const MIN_PASSES: usize = 2;
/// Set-ups timed before the passes; `setup_s` is the median over these
/// and the passes' own.
const EXTRA_SETUPS: usize = 7;
/// Sim interval between live-heap samples.
const HEAP_SAMPLE: SimDuration = SimDuration::from_millis(50);
/// Commands whose submit and commit instants go to the span file.
const TRACED_COMMANDS: u64 = 100;

/// The settings, for the provenance line.
pub fn settings() -> String {
    format!(
        "{{\"n\":{N},\"overlay\":\"routed\",\"delta_ms\":{},\"delta_bnd_ms\":{},\"epsilon_ms\":0,\
         \"rate_per_sim_s\":{RATE},\"cmd_bytes\":{CMD_BYTES},\"load_sim_s\":[{},{}],\
         \"crash_sim_s\":[{},{}],\"pass_sim_s\":{}}}",
        DELTA.as_micros() / 1000,
        DELTA_BND.as_micros() / 1000,
        LOAD_FROM.as_secs_f64(),
        LOAD_UNTIL.as_secs_f64(),
        DOWN.as_secs_f64(),
        UP.as_secs_f64(),
        END.as_secs_f64(),
    )
}

/// One pass's results. Everything but the wall times and the probe's
/// recordings is a pure function of the seed.
struct Pass {
    setup_s: f64,
    wall_s: f64,
    ledger: Ledger,
    /// Sim counts that must repeat exactly across passes.
    fingerprint: Vec<u64>,
    counters: Counters,
    events: u64,
    messages: u64,
    bytes: u64,
    recover_ms: f64,
    mean_heap_mib: f64,
    round_p50_us: f64,
    finalization_p50_us: f64,
    safety: Result<(), String>,
}

/// The node that goes down.
fn victim(seed: u64) -> NodeIndex {
    NodeIndex::new((splitmix(seed) % N as u64) as u32)
}

/// Key dealing plus cluster build: what `setup_s` measures.
fn build(seed: u64, probe: &Probe) -> Cluster<Timed> {
    let overlay = Arc::new(Overlay::for_subnet(N, subnet_overlay_seed(N)));
    // Proposals go advert/request, as in the `replica` binary: round-
    // tagged adverts are the gossip layer's only behind-detection
    // signal. With the routed default (4 KiB inline threshold) these
    // small blocks are pushed inline, and a restarted node never learns
    // it is behind and never commits again.
    let config = GossipConfig {
        inline_threshold: 0,
        ..GossipConfig::routed()
    };
    ClusterBuilder::new(N)
        .seed(seed)
        .network(FixedDelay::new(DELTA))
        .protocol_delays(DELTA_BND, SimDuration::ZERO)
        .fault_plan(FaultPlan::new().crash_between(victim(seed), DOWN, UP))
        .with_beacon_value_broadcast()
        .build_with(|core| {
            Timed::<Command>::new(
                GossipNode::new(core, Arc::clone(&overlay), config),
                probe.clone(),
            )
        })
}

fn pass(seed: u64, probe: &Probe) -> Result<Pass, String> {
    let victim = victim(seed);
    let t0 = Instant::now();
    let mut cluster = build(seed, probe);
    let setup_s = t0.elapsed().as_secs_f64();

    // Arrivals at a fixed rate from a seed-chosen phase.
    let period_us = 1_000_000 / RATE;
    let mut ledger = Ledger::new(N, QUORUM);
    let mut at = LOAD_FROM.as_micros() + splitmix(seed ^ 1) % period_us;
    while at < LOAD_UNTIL.as_micros() {
        let seq = ledger.submit(at as f64 / 1e3, true);
        let cmd = command(seed, seq, CMD_BYTES);
        for i in 0..N {
            cluster.sim.schedule_external(
                SimTime::from_micros(at),
                NodeIndex::new(i as u32),
                cmd.clone(),
            );
        }
        at += period_us;
    }

    let t1 = Instant::now();
    let mut heap = Vec::new();
    let mut t = SimTime::ZERO;
    while t < END {
        t = (t + HEAP_SAMPLE).min(END);
        cluster.run_until(t);
        heap.push(crate::heap::live_mib());
    }
    let wall_s = t1.elapsed().as_secs_f64();

    let safety = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| cluster.assert_safety()))
        .map_err(|p| {
            p.downcast_ref::<String>()
                .cloned()
                .unwrap_or_else(|| "assert_safety failed".into())
        });
    let mut recover_ms = None;
    for o in cluster.sim.outputs() {
        if let NodeEvent::Committed { block } = &o.output {
            if o.node == victim && o.at >= UP && recover_ms.is_none() {
                recover_ms = Some(o.at.saturating_since(UP).as_micros() as f64 / 1e3);
            }
            for c in block.block().payload().commands() {
                ledger.commit(o.node.as_usize(), seq_of(c), o.at.as_micros() as f64 / 1e3);
            }
        }
    }
    let recover_ms = recover_ms.ok_or("the restarted node never committed again")?;
    let mut counters = Counters::new();
    for node in cluster.sim.nodes() {
        report::add(&mut counters, &node.counters());
    }
    let summary = cluster.metrics_summary();
    let core = cluster.core_metrics();
    let events = cluster.sim.events_processed();
    let lat = ledger.latencies(|_| true);
    let mut fingerprint = vec![
        events,
        summary.total_messages,
        summary.total_bytes,
        recover_ms.to_bits(),
    ];
    fingerprint.extend(counters.values());
    fingerprint.extend(lat.iter().map(|l| l.to_bits()));
    Ok(Pass {
        setup_s,
        wall_s,
        ledger,
        fingerprint,
        counters,
        events,
        messages: summary.total_messages,
        bytes: summary.total_bytes,
        recover_ms,
        mean_heap_mib: heap.iter().sum::<f64>() / heap.len() as f64,
        round_p50_us: core.round_duration_us.p50() as f64,
        finalization_p50_us: core.finalization_latency_us.p50() as f64,
        safety,
    })
}

/// Runs passes for `secs` wall seconds (at least [`MIN_PASSES`]). A
/// traced run alternates untraced and traced passes.
pub fn run(seed: u64, secs: u64, trace: bool) -> Result<(Outcome, usize), String> {
    let origin = Instant::now();
    let on = Arc::new(AtomicBool::new(false));
    let probe = Probe::new(0, origin, Arc::clone(&on));
    let mut setups: Vec<f64> = (0..EXTRA_SETUPS)
        .map(|_| {
            let t0 = Instant::now();
            let cluster = std::hint::black_box(build(seed, &probe));
            let s = t0.elapsed().as_secs_f64();
            drop(cluster);
            s
        })
        .collect();
    let mut passes: Vec<(bool, Pass)> = Vec::new();
    loop {
        let traced = trace && passes.len() % 2 == 1;
        on.store(traced, Ordering::Relaxed);
        let p = pass(seed, &probe)?;
        on.store(false, Ordering::Relaxed);
        let last = p.setup_s + p.wall_s;
        passes.push((traced, p));
        let elapsed = origin.elapsed().as_secs_f64();
        if passes.len() >= MIN_PASSES && elapsed + last > secs as f64 {
            break;
        }
    }
    let first = &passes[0].1;
    let mut errors = Vec::new();
    for (_, p) in &passes {
        if let Err(e) = &p.safety {
            errors.push(format!("safety: {e}"));
        }
    }
    if passes
        .iter()
        .any(|(_, p)| p.fingerprint != first.fingerprint)
    {
        errors.push("sim counts or sim-time results differ between passes of one seed".into());
    }
    if !first.ledger.duplicates.is_empty() {
        errors.push(format!(
            "{} commands committed twice in one chain",
            first.ledger.duplicates.len()
        ));
    }
    if !first.ledger.unknown.is_empty() {
        errors.push(format!(
            "{} committed commands never submitted",
            first.ledger.unknown.len()
        ));
    }
    let lat = first.ledger.latencies(|_| true);
    stats::require_p99(lat.len())?;
    let failed = first.ledger.failed();
    let walls = |traced: bool| -> Vec<f64> {
        passes
            .iter()
            .filter(|(t, _)| *t == traced)
            .map(|(_, p)| p.wall_s)
            .collect()
    };
    let untraced_wall = report::median(&walls(false));
    let committed = lat.len() - failed;
    println!(
        "passes {} (wall s: {}), samples {} (tail percentile supported: p{:.1}), failed {failed}, events {}",
        passes.len(),
        passes.iter().map(|(_, p)| format!("{:.3}", p.wall_s)).collect::<Vec<_>>().join(" "),
        lat.len(),
        f64::from(stats::highest_supported(lat.len()).unwrap_or(0)) / 10.0,
        first.events
    );

    let mut m = Metrics::default();
    if !trace {
        setups.extend(passes.iter().map(|(_, p)| p.setup_s));
        m.set("setup_s", report::median(&setups));
        m.set("commit_p50_ms", stats::percentile(&lat, 500));
        m.set("commit_p90_ms", stats::percentile(&lat, 900));
        m.set("cmds_per_s", committed as f64 / untraced_wall);
        let heap: Vec<f64> = passes.iter().map(|(_, p)| p.mean_heap_mib).collect();
        m.set("mean_heap_mib", report::median(&heap));
        let outcome = Outcome {
            errors,
            attempted: lat.len(),
            failed,
            metrics: m,
        };
        return Ok((outcome, passes.len()));
    }

    let rec = probe.take();
    let traced_walls = walls(true);
    let traced_passes = traced_walls.len() as f64;
    let traced_s: f64 = traced_walls.iter().sum();
    let times: &LayerTimes = &rec.times;
    report::layer_metrics(
        &LayerRun {
            delta: &first.counters,
            times,
            traced_thread_s: traced_s,
            interval_s: END.as_secs_f64(),
            nodes: N as f64,
            round_p50_us: first.round_p50_us,
            finalization_p50_us: first.finalization_p50_us,
            codec: codec::replay(&rec.sample)?,
        },
        &mut m,
    );
    let handler_us = times.handler_ns() as f64 / 1e3 / traced_passes;
    let wall_us = traced_s * 1e6 / traced_passes;
    m.set("sim.events", first.events as f64);
    m.set("sim.handler_us", handler_us);
    m.set("sim.engine_self_us", wall_us - handler_us);
    m.set("sim.msgs_per_node", first.messages as f64 / N as f64);
    m.set("sim.bytes_per_node", first.bytes as f64 / N as f64);
    m.set("sim.wall_s", untraced_wall);
    m.set("recovery.recover_ms", first.recover_ms);
    m.set("mem.peak_heap_mib", crate::heap::peak_mib());
    m.set("mem.peak_rss_mib", report::peak_rss_mib());
    report::load_metrics(&lat, failed, &mut m);
    m.set(
        "trace.overhead_rate_pct",
        100.0 * (report::median(&traced_walls) / untraced_wall - 1.0),
    );
    m.set("trace.layer_coverage", handler_us / wall_us);
    m.set("trace.spans", rec.spans.len() as f64);
    m.set("trace.spans_dropped", rec.spans_dropped as f64);
    println!(
        "attribution: sim engine thread per traced pass: handlers {:.0} us ({:.1}%), engine self {:.0} us ({:.1}%)",
        handler_us,
        100.0 * handler_us / wall_us,
        wall_us - handler_us,
        100.0 * (1.0 - handler_us / wall_us)
    );

    report::write_trace(
        &crate::trace_path("sim250_routed_churn"),
        seed,
        &rec.spans,
        &first.ledger,
        0..TRACED_COMMANDS.min(first.ledger.len() as u64),
        N,
    );
    let outcome = Outcome {
        errors,
        attempted: lat.len(),
        failed,
        metrics: m,
    };
    Ok((outcome, passes.len()))
}
