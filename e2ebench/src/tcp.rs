//! The two localhost-TCP workloads: n = 4 replicas in this process,
//! each the node stack the `replica` binary builds (`ConsensusCore` +
//! `StaticDelays`, `GossipNode` with `inline_threshold: 0` over
//! `Overlay::for_subnet`, optionally a `DurableStore::file` WAL), each
//! driven by its own `drive` thread over a `TcpTransport` on
//! `127.0.0.1:0`. One load-generator thread (the caller's) submits every
//! command to every replica and collects their commits.

use crate::cmd::{command, seq_of};
use crate::codec;
use crate::probe::{Counters, Input, LayerTimes, Probe, Recorded, Timed, TimedTransport};
use crate::report::{self, LayerRun, Metrics};
use crate::stats::{self, Ledger};
use crate::Outcome;
use icc_core::byzantine::Behavior;
use icc_core::consensus::ConsensusCore;
use icc_core::delays::StaticDelays;
use icc_core::events::NodeEvent;
use icc_core::keys::generate_keys;
use icc_core::storage::DurableStore;
use icc_crypto::Hash256;
use icc_gossip::{subnet_overlay_seed, GossipConfig, GossipMessage, GossipNode, Overlay};
use icc_net::{ClusterSpec, NetCounters, NetHandle, NetOptions, TcpTransport};
use icc_sim::runtime::drive;
use icc_telemetry::Histogram;
use icc_types::{Command, NodeIndex, SimDuration, SubnetConfig};
use icc_wal::{FsyncPolicy, WalOptions};
use std::collections::BTreeMap;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Replicas per cluster; f = 1, so a command is committed for a client
/// once f + 1 = 2 replicas committed it.
const N: usize = 4;
const QUORUM: usize = 2;
/// Δbnd: only matters when a leader is faulty, which never happens here.
const DELTA_BND: SimDuration = SimDuration::from_millis(100);
/// Clusters set up per run, loaded ones included; `setup_s` is their
/// median.
const SETUPS: usize = 15;
/// Measured window of each loaded cluster. A run of `secs` seconds
/// loads `secs / WINDOW` fresh clusters one after another and reports
/// the median over them: a node keeps every artifact it has seen, so
/// latency and memory drift with a cluster's age, and clusters of one
/// age keep runs comparable however fast the host happens to be.
const WINDOW: Duration = Duration::from_secs(2);
/// Load before the measured window opens, so queues and caches fill.
const WARMUP: Duration = Duration::from_millis(500);
/// How long after the window closes outstanding commands may still
/// commit before they count as failed.
const DRAIN: Duration = Duration::from_secs(10);
/// Longest a cluster may take to commit its first block.
const SETUP_LIMIT: Duration = Duration::from_secs(30);
/// Traced runs alternate untraced and traced segments of this length,
/// so the tracing overhead is measured on the same cluster.
const SEGMENT: Duration = Duration::from_millis(500);
/// Interval between live-heap samples in the window.
const HEAP_SAMPLE: Duration = Duration::from_millis(5);
/// Commands whose submit and commit instants go to the span file.
const TRACED_COMMANDS: usize = 2_000;

/// How the generator offers load.
#[derive(Debug, Clone, Copy)]
pub enum Load {
    /// A command due every `1/per_s` seconds, whatever the cluster does.
    Open {
        /// Commands per second.
        per_s: u32,
    },
    /// `window` commands outstanding; the next is sent when one commits.
    Closed {
        /// Outstanding commands.
        window: usize,
    },
}

/// One TCP workload's settings.
#[derive(Debug, Clone, Copy)]
pub struct TcpWorkload {
    /// Workload name.
    pub name: &'static str,
    /// Per-commit-fsync WAL per replica, or the in-memory store.
    pub wal: bool,
    /// Load shape.
    pub load: Load,
    /// Command size in bytes (at least 8: the sequence id).
    pub cmd_bytes: usize,
}

impl TcpWorkload {
    /// The settings, for the provenance line.
    pub fn settings(&self) -> String {
        let load = match self.load {
            Load::Open { per_s } => format!("\"loop\":\"open\",\"rate_per_s\":{per_s}"),
            Load::Closed { window } => format!("\"loop\":\"closed\",\"window\":{window}"),
        };
        format!(
            "{{\"n\":{N},\"transport\":\"tcp-localhost\",\"store\":\"{}\",{load},\"cmd_bytes\":{},\
             \"delta_bnd_ms\":{},\"epsilon_ms\":0,\"injected_delay_ms\":0,\"setups\":{SETUPS},\
             \"window_s\":{},\"warmup_s\":{},\"drain_limit_s\":{}}}",
            if self.wal {
                "wal-per-commit-fsync"
            } else {
                "memory"
            },
            self.cmd_bytes,
            DELTA_BND.as_micros() / 1000,
            WINDOW.as_secs_f64(),
            WARMUP.as_secs_f64(),
            DRAIN.as_secs_f64(),
        )
    }
}

/// One replica's commit, as seen from its driver thread.
struct CommitEvent {
    replica: usize,
    round: u64,
    hash: Hash256,
    seqs: Vec<u64>,
    at: Instant,
}

/// Each replica's committed chain, checked for agreement.
pub struct Chains(Vec<BTreeMap<u64, Hash256>>);

impl Chains {
    /// Empty chains for `n` replicas.
    pub fn new(n: usize) -> Chains {
        Chains(vec![BTreeMap::new(); n])
    }

    /// Records that `replica` committed `hash` at `round`.
    pub fn record(&mut self, replica: usize, round: u64, hash: Hash256) -> Result<(), String> {
        match self.0[replica].insert(round, hash) {
            Some(prev) if prev != hash => Err(format!(
                "replica {replica} committed two blocks at round {round}"
            )),
            Some(_) => Err(format!("replica {replica} committed round {round} twice")),
            None => Ok(()),
        }
    }

    /// Replicas that committed at least one block.
    pub fn started(&self) -> usize {
        self.0.iter().filter(|c| !c.is_empty()).count()
    }

    /// Every pair of replicas agrees on every round both committed.
    pub fn check(&self) -> Result<(), String> {
        for (a, ca) in self.0.iter().enumerate() {
            for (b, cb) in self.0.iter().enumerate().skip(a + 1) {
                if let Some((r, _)) = ca.iter().find(|(r, h)| cb.get(r).is_some_and(|x| x != *h)) {
                    return Err(format!("replicas {a} and {b} disagree at round {r}"));
                }
            }
        }
        Ok(())
    }
}

/// The run's WAL directory under the benchmark's own `out/`, holding
/// one subdirectory per replica of every cluster. Removed when dropped,
/// whether the run succeeded or not, and only then: deleting files
/// between clusters would put the file system's cleanup on the next
/// cluster's fsyncs.
struct WalDir(PathBuf);

impl WalDir {
    fn new() -> std::io::Result<WalDir> {
        let path = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
            .join(format!("wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(WalDir(path))
    }
}

impl Drop for WalDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct Replica {
    handle: NetHandle<GossipMessage, Input>,
    net: Arc<NetCounters>,
    probe: Probe,
    thread: Option<JoinHandle<Timed<Input>>>,
}

fn io(what: &'static str) -> impl Fn(std::io::Error) -> String {
    move |e| format!("{what}: {e}")
}

/// A running cluster. Dropping it stops and joins every replica.
struct Cluster {
    replicas: Vec<Replica>,
    commits: Receiver<CommitEvent>,
    /// Base of every millisecond timestamp of the run.
    origin: Instant,
    /// Turns the probes on and off.
    on: Arc<AtomicBool>,
}

impl Cluster {
    /// Starts a cluster; with `wal`, each replica logs to a
    /// subdirectory of it.
    fn start(
        seed: u64,
        wal: Option<&Path>,
        origin: Instant,
        on: &Arc<AtomicBool>,
    ) -> Result<Cluster, String> {
        let keys = generate_keys(SubnetConfig::new(N), seed);
        let listeners = (0..N)
            .map(|_| TcpListener::bind("127.0.0.1:0"))
            .collect::<Result<Vec<_>, _>>()
            .map_err(io("bind"))?;
        let addrs = listeners
            .iter()
            .map(TcpListener::local_addr)
            .collect::<Result<Vec<_>, _>>()
            .map_err(io("listener address"))?;
        let spec = ClusterSpec::from_addrs(addrs).map_err(|e| format!("cluster spec: {e}"))?;
        let overlay = Arc::new(Overlay::for_subnet(N, subnet_overlay_seed(N)));
        let (tx, commits) = mpsc::channel();
        let mut cluster = Cluster {
            replicas: Vec::with_capacity(N),
            commits,
            origin,
            on: Arc::clone(on),
        };
        let start = Instant::now();
        for (i, (key, listener)) in keys.into_iter().zip(listeners).enumerate() {
            let mut core = ConsensusCore::new(
                key,
                StaticDelays::new(DELTA_BND, SimDuration::ZERO),
                Behavior::Honest,
            );
            if let Some(dir) = wal {
                let opts = WalOptions {
                    fsync: FsyncPolicy::PerCommit,
                    ..WalOptions::default()
                };
                let store = DurableStore::file(&dir.join(format!("replica-{i}")), opts)
                    .map_err(io("WAL open"))?;
                core = core.with_store(store);
            }
            let config = GossipConfig {
                inline_threshold: 0,
                ..GossipConfig::default()
            };
            let probe = Probe::new(i as u32, origin, Arc::clone(on));
            let node = Timed::new(
                GossipNode::new(core, Arc::clone(&overlay), config),
                probe.clone(),
            );
            let transport: TcpTransport<GossipMessage, Input> = TcpTransport::with_listener(
                listener,
                &spec,
                NodeIndex::new(i as u32),
                NetOptions::default(),
            );
            let handle = transport.handle();
            let net = transport.counters_handle();
            let transport = TimedTransport::new(transport, probe.clone());
            let tx = tx.clone();
            let thread = std::thread::Builder::new()
                .name(format!("replica-{i}"))
                .spawn(move || {
                    drive(node, transport, start, |rec| {
                        if let NodeEvent::Committed { block } = &rec.output {
                            let at = Instant::now();
                            let seqs = block
                                .block()
                                .payload()
                                .commands()
                                .iter()
                                .map(seq_of)
                                .collect();
                            let _ = tx.send(CommitEvent {
                                replica: i,
                                round: block.round().get(),
                                hash: block.hash(),
                                seqs,
                                at,
                            });
                        }
                    })
                })
                .map_err(io("spawn replica"))?;
            cluster.replicas.push(Replica {
                handle,
                net,
                probe,
                thread: Some(thread),
            });
        }
        Ok(cluster)
    }

    /// Stops every replica and returns the nodes.
    fn stop(mut self) -> Result<Vec<Timed<Input>>, String> {
        for r in &self.replicas {
            r.handle.stop();
        }
        let mut nodes = Vec::with_capacity(N);
        for (i, r) in self.replicas.iter_mut().enumerate() {
            let t = r.thread.take().expect("joined once");
            nodes.push(t.join().map_err(|_| format!("replica {i} panicked"))?);
        }
        Ok(nodes)
    }

    /// Submits `cmd` to every replica; false if any refused it.
    fn inject(&self, cmd: &Command) -> bool {
        self.replicas
            .iter()
            .map(|r| r.handle.inject(Input::Cmd(cmd.clone())))
            .fold(true, |a, b| a & b)
    }

    /// Asks every replica to snapshot its counters; returns the
    /// transport counters read at the same moment, by replica.
    fn mark(&self) -> Vec<Counters> {
        self.replicas
            .iter()
            .map(|r| {
                r.handle.inject(Input::Mark);
                r.net
                    .snapshot()
                    .fields()
                    .into_iter()
                    .map(|(k, v)| (format!("net.{k}"), v))
                    .collect()
            })
            .collect()
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for r in &self.replicas {
            r.handle.stop();
        }
        for r in &mut self.replicas {
            if let Some(t) = r.thread.take() {
                let _ = t.join();
            }
        }
    }
}

/// Starts a cluster and waits until every replica has committed a
/// block. Returns the cluster, its chains so far and the set-up time.
fn set_up(
    seed: u64,
    wal: Option<&Path>,
    origin: Instant,
    on: &Arc<AtomicBool>,
) -> Result<(Cluster, Chains, f64), String> {
    let t0 = Instant::now();
    let cluster = Cluster::start(seed, wal, origin, on)?;
    let mut chains = Chains::new(N);
    while chains.started() < N {
        let left = SETUP_LIMIT.saturating_sub(t0.elapsed());
        match cluster.commits.recv_timeout(left) {
            Ok(ev) => chains.record(ev.replica, ev.round, ev.hash)?,
            Err(_) => return Err("cluster did not commit its first blocks in time".into()),
        }
    }
    Ok((cluster, chains, t0.elapsed().as_secs_f64()))
}

/// What the load phase left behind.
struct LoadRun {
    ledger: Ledger,
    late_max_ms: f64,
    refused: usize,
    window_ms: (f64, f64),
    /// Traced segments `[from, to)` in ms since the origin.
    traced: Vec<(f64, f64)>,
    net_marks: [Vec<Counters>; 2],
    /// Live heap samples over the window: sum (MiB) and count.
    heap: (f64, u32),
}

/// Offers the workload's load for the warm-up, the [`WINDOW`] and the
/// drain, and records every commit.
fn run_load(
    c: &Cluster,
    chains: &mut Chains,
    w: &TcpWorkload,
    seed: u64,
    trace: bool,
) -> Result<LoadRun, String> {
    let (origin, on) = (c.origin, &c.on);
    let ms = |t: Instant| t.duration_since(origin).as_secs_f64() * 1e3;
    let t_start = Instant::now();
    let w0 = t_start + WARMUP;
    let w1 = w0 + WINDOW;
    let deadline = w1 + DRAIN;
    let mut run = LoadRun {
        ledger: Ledger::new(N, QUORUM),
        late_max_ms: 0.0,
        refused: 0,
        window_ms: (ms(w0), ms(w1)),
        traced: Vec::new(),
        net_marks: [Vec::new(), Vec::new()],
        heap: (0.0, 0),
    };
    let mut next_heap_sample = w0;
    let submit = |run: &mut LoadRun, due: Instant| {
        let seq = run.ledger.submit(ms(due), due >= w0 && due < w1);
        if !c.inject(&command(seed, seq, w.cmd_bytes)) {
            run.ledger.refuse(seq);
            run.refused += 1;
        }
    };
    let mut next_due = t_start;
    let period = match w.load {
        Load::Open { per_s } => Duration::from_secs(1) / per_s,
        Load::Closed { window } => {
            for _ in 0..window {
                submit(&mut run, Instant::now());
            }
            Duration::ZERO
        }
    };
    let open = matches!(w.load, Load::Open { .. });
    let (mut begun, mut ended) = (false, false);
    let mut done = 0usize;
    let mut seg_start = w0;
    loop {
        let now = Instant::now();
        if !begun && now >= w0 {
            run.net_marks[0] = c.mark();
            begun = true;
        }
        if trace && begun && !ended {
            let want = ((now - w0).as_nanos() / SEGMENT.as_nanos()) % 2 == 1;
            if want != on.load(Ordering::Relaxed) {
                if !want {
                    run.traced.push((ms(seg_start), ms(now)));
                }
                seg_start = now;
                on.store(want, Ordering::Relaxed);
            }
        }
        if begun && !ended && now >= next_heap_sample {
            run.heap.0 += crate::heap::live_mib();
            run.heap.1 += 1;
            next_heap_sample = now + HEAP_SAMPLE;
        }
        if !ended && now >= w1 {
            if on.swap(false, Ordering::Relaxed) {
                run.traced.push((ms(seg_start), ms(now)));
            }
            run.net_marks[1] = c.mark();
            ended = true;
        }
        while open && next_due < w1 && next_due <= now {
            run.late_max_ms = run.late_max_ms.max(ms(now) - ms(next_due));
            submit(&mut run, next_due);
            next_due += period;
        }
        if ended && (done == run.ledger.len() || now >= deadline) {
            break;
        }
        let mut wake = if ended { deadline } else { w1 };
        if !begun {
            wake = wake.min(w0);
        }
        if open && next_due < w1 {
            wake = wake.min(next_due);
        }
        if trace && begun && !ended {
            let k = (now - w0).as_nanos() / SEGMENT.as_nanos() + 1;
            wake = wake.min(w0 + SEGMENT * k as u32);
        }
        let first = match c.commits.recv_timeout(wake.saturating_duration_since(now)) {
            Ok(ev) => ev,
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => return Err("every replica stopped".into()),
        };
        let mut next = Some(first);
        while let Some(ev) = next {
            chains.record(ev.replica, ev.round, ev.hash)?;
            for &seq in &ev.seqs {
                if run.ledger.commit(ev.replica, seq, ms(ev.at)) {
                    done += 1;
                    if !open && !ended {
                        submit(&mut run, Instant::now());
                    }
                }
            }
            next = c.commits.try_recv().ok();
        }
    }
    Ok(run)
}

/// One loaded cluster: its load phase and what its nodes and probes
/// recorded.
struct Measured {
    load: LoadRun,
    recorded: Vec<Recorded>,
    round: Histogram,
    finalization: Histogram,
}

/// Sets up a cluster, loads it for one window and stops it. Returns the
/// measurement, the set-up time and the committed chains.
fn measure(
    w: &TcpWorkload,
    seed: u64,
    wal: Option<&Path>,
    origin: Instant,
    on: &Arc<AtomicBool>,
    trace: bool,
) -> Result<(Measured, f64, Chains), String> {
    let (cluster, mut chains, setup) = set_up(seed, wal, origin, on)?;
    let load = run_load(&cluster, &mut chains, w, seed, trace)?;
    let probes: Vec<Probe> = cluster.replicas.iter().map(|r| r.probe.clone()).collect();
    let nodes = cluster.stop()?;
    let mut round = Histogram::new();
    let mut finalization = Histogram::new();
    for n in &nodes {
        let metrics = &n.inner().core().telemetry().metrics;
        round.merge(&metrics.round_duration_us);
        finalization.merge(&metrics.finalization_latency_us);
    }
    let recorded = probes.iter().map(Probe::take).collect();
    let measured = Measured {
        load,
        recorded,
        round,
        finalization,
    };
    Ok((measured, setup, chains))
}

/// Runs one TCP workload: `secs / WINDOW` loaded clusters, then the
/// remaining [`SETUPS`] set-ups, the checks and the metrics.
/// Returns the outcome and the number of loaded clusters.
pub fn run(w: &TcpWorkload, seed: u64, secs: u64, trace: bool) -> Result<(Outcome, usize), String> {
    let origin = Instant::now();
    let on = Arc::new(AtomicBool::new(false));
    let clusters = (secs / WINDOW.as_secs()).max(1) as usize;
    let wal_root = w.wal.then(WalDir::new).transpose().map_err(io("WAL dir"))?;
    let wal = |k: usize| wal_root.as_ref().map(|d| d.0.join(format!("cluster-{k}")));
    let mut errors = Vec::new();
    let mut setups = Vec::with_capacity(SETUPS.max(clusters));
    let mut runs = Vec::with_capacity(clusters);
    for k in 0..clusters {
        let (run, setup, chains) = measure(w, seed, wal(k).as_deref(), origin, &on, trace)?;
        setups.push(setup);
        errors.extend(chains.check().err());
        let ledger = &run.load.ledger;
        if !ledger.duplicates.is_empty() {
            errors.push(format!(
                "commands committed twice in one chain: {:?}",
                &ledger.duplicates[..ledger.duplicates.len().min(5)]
            ));
        }
        if !ledger.unknown.is_empty() {
            errors.push(format!(
                "{} committed commands never submitted",
                ledger.unknown.len()
            ));
        }
        runs.push(run);
    }
    let peak_heap = crate::heap::peak_mib();
    let peak_rss = report::peak_rss_mib();
    // The remaining set-ups come after the loaded clusters, so their
    // leftovers do not count toward the peaks.
    for k in clusters..SETUPS {
        let (cluster, chains, setup) = set_up(seed, wal(k).as_deref(), origin, &on)?;
        setups.push(setup);
        cluster.stop()?;
        errors.extend(chains.check().err());
    }

    let mut lat: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.load.ledger.latencies(|_| true))
        .collect();
    lat.sort_by(f64::total_cmp);
    stats::require_p99(lat.len())?;
    let failed: usize = runs.iter().map(|r| r.load.ledger.failed()).sum();
    let late_max_ms = runs.iter().map(|r| r.load.late_max_ms).fold(0.0, f64::max);
    println!(
        "clusters {clusters}, samples {} (tail percentile supported: p{:.1}), failed {failed}, \
         generator late by at most {late_max_ms:.3} ms, set-ups (ms) {}",
        lat.len(),
        f64::from(stats::highest_supported(lat.len()).unwrap_or(0)) / 10.0,
        setups
            .iter()
            .map(|s| format!("{:.3}", s * 1e3))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let mut m = Metrics::default();

    if !trace {
        let per_cluster = |f: &dyn Fn(&LoadRun) -> f64| {
            report::median(&runs.iter().map(|r| f(&r.load)).collect::<Vec<_>>())
        };
        let pct = |pm: u32| {
            per_cluster(&|l: &LoadRun| stats::percentile(&l.ledger.latencies(|_| true), pm))
        };
        m.set("setup_s", report::median(&setups));
        m.set("commit_p50_ms", pct(500));
        m.set("commit_p90_ms", pct(900));
        m.set(
            "cmds_per_s",
            per_cluster(&|l: &LoadRun| l.ledger.rate_between(l.window_ms.0, l.window_ms.1)),
        );
        m.set(
            "mean_heap_mib",
            per_cluster(&|l: &LoadRun| l.heap.0 / f64::from(l.heap.1.max(1))),
        );
        let outcome = Outcome {
            errors,
            attempted: lat.len(),
            failed,
            metrics: m,
        };
        return Ok((outcome, clusters));
    }

    // Per-layer metrics: counters over each window, busy time over
    // each traced segment, summed over clusters.
    let mut delta = Counters::new();
    let mut per_replica = vec![LayerTimes::default(); N];
    let mut sample = Vec::new();
    let mut round = Histogram::new();
    let mut finalization = Histogram::new();
    for run in &runs {
        for (i, rec) in run.recorded.iter().enumerate() {
            let [begin, end] = &rec.marks[..] else {
                return Err(format!(
                    "replica {i} took {} counter marks, not 2",
                    rec.marks.len()
                ));
            };
            let mut begin = begin.clone();
            let mut end = end.clone();
            begin.extend(run.load.net_marks[0][i].clone());
            end.extend(run.load.net_marks[1][i].clone());
            report::add(&mut delta, &report::delta(&begin, &end));
            per_replica[i].merge(&rec.times);
            sample.extend(rec.sample.iter().cloned());
        }
        round.merge(&run.round);
        finalization.merge(&run.finalization);
    }
    let mut times = LayerTimes::default();
    for t in &per_replica {
        times.merge(t);
    }
    let traced_s: f64 = runs
        .iter()
        .flat_map(|r| r.load.traced.iter().map(|(a, b)| (b - a) / 1e3))
        .sum();
    let window_s = WINDOW.as_secs_f64() * clusters as f64;
    report::layer_metrics(
        &LayerRun {
            delta: &delta,
            times: &times,
            traced_thread_s: traced_s * N as f64,
            interval_s: window_s,
            nodes: N as f64,
            round_p50_us: round.p50() as f64,
            finalization_p50_us: finalization.p50() as f64,
            codec: codec::replay(&sample)?,
        },
        &mut m,
    );
    let per_s = |ns: u64| ns as f64 / 1e3 / (traced_s * N as f64);
    let handler = per_s(times.handler_ns());
    let send = per_s(times.send_ns);
    let wait = per_s(times.recv_wait_ns);
    m.set("driver.recv_wait_us", wait);
    m.set("driver.busy_frac", (handler + send) / 1e6);
    m.set("driver.unattributed_us", 1e6 - handler - send - wait);
    m.set("trace.layer_coverage", (handler + send + wait) / 1e6);
    println!(
        "attribution: share of each replica thread's wall time while traced ({traced_s:.2} s)"
    );
    for (i, t) in per_replica.iter().enumerate() {
        let share = |ns: u64| 100.0 * ns as f64 / (traced_s * 1e9);
        let kinds: Vec<String> = crate::probe::KINDS
            .iter()
            .zip(t.handle_ns)
            .map(|(k, ns)| format!("{k} {:.1}%", share(ns)))
            .collect();
        let un = 100.0 - share(t.handler_ns()) - share(t.send_ns) - share(t.recv_wait_ns);
        println!(
            "  replica {i}: on_message [{}], on_timer {:.1}%, on_external {:.1}%, send {:.1}%, \
             recv_wait {:.1}%, unattributed {:.1}% ({:.0} us/s)",
            kinds.join(", "),
            share(t.timer_ns),
            share(t.external_ns),
            share(t.send_ns),
            share(t.recv_wait_ns),
            un,
            un * 1e4
        );
    }

    // Tracing overhead: traced against untraced segments of the same
    // clusters.
    let (mut lat_on, mut lat_off) = (Vec::new(), Vec::new());
    let (mut done_on, mut done_all) = (0, 0);
    for run in &runs {
        let l = &run.load;
        let (w0, w1) = l.window_ms;
        let in_traced = |t: f64| l.traced.iter().any(|&(a, b)| t >= a && t < b);
        lat_on.extend(l.ledger.latencies(in_traced));
        lat_off.extend(
            l.ledger
                .latencies(|due| due >= w0 && due < w1 && !in_traced(due)),
        );
        done_on += l
            .traced
            .iter()
            .map(|&(a, b)| l.ledger.completed_between(a, b))
            .sum::<usize>();
        done_all += l.ledger.completed_between(w0, w1);
    }
    lat_on.sort_by(f64::total_cmp);
    lat_off.sort_by(f64::total_cmp);
    if !lat_on.is_empty() && !lat_off.is_empty() {
        m.set(
            "trace.overhead_p50_pct",
            100.0 * (stats::percentile(&lat_on, 500) / stats::percentile(&lat_off, 500) - 1.0),
        );
    }
    let untraced_s = window_s - traced_s;
    if done_on > 0 && untraced_s > 0.0 {
        let rate_on = done_on as f64 / traced_s;
        let rate_off = (done_all - done_on) as f64 / untraced_s;
        m.set(
            "trace.overhead_rate_pct",
            100.0 * (rate_off / rate_on - 1.0),
        );
    }
    m.set("mem.peak_heap_mib", peak_heap);
    m.set("mem.peak_rss_mib", peak_rss);
    m.set("load.late_max_ms", late_max_ms);
    m.set(
        "load.refused",
        runs.iter().map(|r| r.load.refused).sum::<usize>() as f64,
    );
    report::load_metrics(&lat, failed, &mut m);

    let recorded = || runs.iter().flat_map(|r| r.recorded.iter());
    m.set(
        "trace.spans",
        recorded().map(|rec| rec.spans.len()).sum::<usize>() as f64,
    );
    m.set(
        "trace.spans_dropped",
        recorded().map(|rec| rec.spans_dropped).sum::<u64>() as f64,
    );
    // The span file holds the first cluster's spans and commands.
    let spans: Vec<_> = runs[0]
        .recorded
        .iter()
        .flat_map(|rec| rec.spans.iter().cloned())
        .collect();
    let first = &runs[0].load;
    let traced_cmds = (0..first.ledger.len() as u64)
        .filter(|&s| {
            let due = first.ledger.commit_instants(s).0;
            first.traced.iter().any(|&(a, b)| due >= a && due < b)
        })
        .take(TRACED_COMMANDS);
    report::write_trace(
        &crate::trace_path(w.name),
        seed,
        &spans,
        &first.ledger,
        traced_cmds,
        N,
    );
    let outcome = Outcome {
        errors,
        attempted: lat.len(),
        failed,
        metrics: m,
    };
    Ok((outcome, clusters))
}
