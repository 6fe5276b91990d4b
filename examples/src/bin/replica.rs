//! A consensus **replica as an OS process**: one ICC1 node (gossip +
//! consensus core) driven by the shared wall-clock loop over a real TCP
//! mesh. Start `n` of these against the same peer-config file and they
//! form a cluster on your machine — kernel sockets, frame CRCs,
//! reconnects and all — running byte-for-byte the same `GossipNode`
//! the discrete-event simulator tests.
//!
//! ```text
//! cargo run --release -p icc-examples --bin replica -- \
//!     --config cluster.txt --me 0 --secs 10
//! ```
//!
//! where `cluster.txt` lists every peer, one `<index> <host:port>` per
//! line (see `icc_net::ClusterSpec`). All replicas must be given the
//! same `--seed`: the threshold keys are dealt deterministically from
//! it, so the config file plus the seed *are* the cluster identity.
//!
//! Stdout is machine-readable, one record per line:
//!
//! * `READY <addr>` — listener bound, mesh dialing.
//! * `COMMIT <round> <hash>` — a block joined this replica's chain
//!   (the launcher cross-checks these across processes for safety).
//! * `REPORT {json}` — final counters on shutdown, encoded by
//!   `icc_node::ReplicaReport` (the launcher decodes it with the same
//!   type).
//!
//! `--trace-out` writes this replica's flight-recorder spans as a
//! Chrome trace; `--metrics-out` writes a Prometheus snapshot. Both are
//! flushed and fsync'd before exit — including on SIGTERM, which this
//! binary catches for a graceful shutdown (SIGKILL stays the
//! hard-crash path the durability machinery exists for).
//!
//! The node runs inside `icc_node::ObservedNode`, the same wrapper the
//! simulator tests drive: a publish timer feeds the anomaly detector
//! and judges `/health` whether or not anyone is watching.
//! `--admin-port` additionally starts the **live observability plane**:
//! a one-thread HTTP/1.0 admin server (`ADMIN <addr>` on stdout)
//! serving
//!
//! * `/metrics` — the same `icc_replica_*` render `--metrics-out`
//!   writes at exit (and `scenario --metrics-out` writes for a sim
//!   node), refreshed every publish tick while the replica runs;
//! * `/health` — 200/503 readiness from commit progress, reachable
//!   peers (a notarization quorum counting self), and WAL I/O errors;
//! * `/status` — JSON: rounds, epoch, finalized frontier, the per-peer
//!   link table (queue depth, backoff, last-frame age), recent
//!   anomalies;
//! * `/trace` — the flight-recorder ring as clock-anchored Chrome
//!   trace JSON (what `net_cluster --stitched-trace` merges).
//!
//! Endpoint handlers never touch consensus state — they serve the
//! latest published snapshot from a mutex, and a scrape can never block
//! a round. With the `telemetry` feature off the whole plane compiles
//! to no-ops.
//!
//! `--data-dir` makes the replica durable: everything it certifies is
//! persisted to a segmented write-ahead log + checkpoint file in that
//! directory (fsync policy per `--fsync`), and a restarted process
//! pointed at the same directory recovers its own state from disk —
//! with zero signature re-verifications — before catching up over the
//! network on whatever it missed while down.

use icc_core::byzantine::Behavior;
use icc_core::consensus::ConsensusCore;
use icc_core::delays::StaticDelays;
use icc_core::epoch::EpochSchedule;
use icc_core::events::NodeEvent;
use icc_core::keys::{generate_keys, generate_keys_with_schedule};
use icc_core::storage::DurableStore;
use icc_gossip::{GossipConfig, GossipNode, Overlay};
use icc_net::{ClusterSpec, NetOptions, TcpTransport};
use icc_node::{ObservedNode, ReplicaReport};
use icc_sim::runtime::drive;
use icc_types::{Command, NodeIndex, SimDuration, SubnetConfig};
use icc_wal::{FsyncPolicy, WalOptions};
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

struct Opts {
    config: String,
    me: u32,
    secs: u64,
    seed: u64,
    delta_bnd_ms: u64,
    epsilon_ms: u64,
    cmd_rate: u64,
    cmd_size: usize,
    data_dir: Option<String>,
    fsync: FsyncPolicy,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    epochs: Option<String>,
    admin_port: Option<u16>,
}

fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!(
        "usage: replica --config PATH --me N [--secs S] [--seed U64]\n\
         \t[--delta-bnd-ms MS] [--epsilon-ms MS] [--cmd-rate PER_S] [--cmd-size BYTES]\n\
         \t[--data-dir PATH] [--fsync per-commit|group:MAX:WINDOW_MS|periodic:MS]\n\
         \t[--trace-out PATH] [--metrics-out PATH] [--epochs SPEC] [--admin-port PORT]\n\
         \twhere SPEC is 'round:members;round:members', e.g. '0:0,1,2,3;30:0,1,2,4'"
    );
    std::process::exit(2);
}

/// Set by the SIGTERM handler; watched by the shutdown machinery so a
/// graceful termination stops the driver, flushes the store, and writes
/// every export instead of dying mid-line.
static TERMINATED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_sigterm_handler() {
    // Raw libc `signal` (std links libc already; no crate needed): the
    // handler only sets an atomic flag, which is async-signal-safe.
    const SIGTERM: i32 = 15;
    extern "C" fn on_sigterm(_sig: i32) {
        TERMINATED.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    unsafe {
        signal(SIGTERM, on_sigterm as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_sigterm_handler() {}

/// Writes `bytes` to `path` with an explicit fsync — telemetry exports
/// survive even if the host loses power right after shutdown.
fn write_durable(path: &str, bytes: &[u8]) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(bytes)?;
    f.sync_all()
}

/// Parses the value of `flag`, or exits with usage.
fn num<T: std::str::FromStr>(flag: &str, value: String) -> T {
    value
        .parse()
        .unwrap_or_else(|_| usage(&format!("bad {flag}")))
}

fn parse() -> Opts {
    let mut opts = Opts {
        config: String::new(),
        me: u32::MAX,
        secs: 10,
        seed: 0,
        // Pace rounds at roughly 10/s: localhost latency is ~µs, so an
        // unpaced cluster would spin rounds faster than the launcher
        // can meaningfully observe (and a restarted replica could never
        // fall a satisfying number of rounds behind).
        delta_bnd_ms: 300,
        epsilon_ms: 50,
        cmd_rate: 50,
        cmd_size: 64,
        data_dir: None,
        fsync: FsyncPolicy::PerCommit,
        trace_out: None,
        metrics_out: None,
        epochs: None,
        admin_port: None,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = |name: &str| -> String {
            it.next()
                .unwrap_or_else(|| usage(&format!("{name} requires a value")))
                .clone()
        };
        match flag.as_str() {
            "--config" => opts.config = val("--config"),
            "--me" => opts.me = num(flag, val(flag)),
            "--secs" => opts.secs = num(flag, val(flag)),
            "--seed" => opts.seed = num(flag, val(flag)),
            "--delta-bnd-ms" => opts.delta_bnd_ms = num(flag, val(flag)),
            "--epsilon-ms" => opts.epsilon_ms = num(flag, val(flag)),
            "--cmd-rate" => opts.cmd_rate = num(flag, val(flag)),
            "--cmd-size" => opts.cmd_size = num(flag, val(flag)),
            "--data-dir" => opts.data_dir = Some(val("--data-dir")),
            "--fsync" => {
                opts.fsync = FsyncPolicy::parse(&val("--fsync"))
                    .unwrap_or_else(|e| usage(&format!("--fsync: {e}")))
            }
            "--trace-out" => opts.trace_out = Some(val("--trace-out")),
            "--metrics-out" => opts.metrics_out = Some(val("--metrics-out")),
            "--epochs" => opts.epochs = Some(val("--epochs")),
            "--admin-port" => opts.admin_port = Some(num(flag, val(flag))),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    if opts.config.is_empty() {
        usage("--config is required");
    }
    if opts.me == u32::MAX {
        usage("--me is required");
    }
    opts
}

/// Wall-clock microseconds since the UNIX epoch — the clock anchor
/// that lets `net_cluster` align per-process trace timelines.
fn unix_micros() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0)
}

fn main() {
    let opts = parse();
    let spec = ClusterSpec::load(Path::new(&opts.config))
        .unwrap_or_else(|e| usage(&format!("--config {}: {e}", opts.config)));
    let n = spec.n();
    if opts.me as usize >= n {
        usage(&format!("--me {} out of range for n={n}", opts.me));
    }
    if n < 3 {
        usage("a gossip cluster needs at least 3 nodes");
    }
    let me = NodeIndex::new(opts.me);

    // Every replica deals the same deterministic key set from the
    // shared seed and keeps only its own share — no key files needed
    // for a local cluster. `--epochs` layers a membership schedule on
    // top: the config file then lists the *universe* (every party that
    // is ever a member), and all replicas must agree on the spec string
    // exactly — it determines the reshared per-epoch beacon keys.
    let all_keys = match &opts.epochs {
        Some(spec_str) => {
            let schedule =
                EpochSchedule::parse(spec_str).unwrap_or_else(|e| usage(&format!("--epochs: {e}")));
            if schedule.universe() > n {
                usage(&format!(
                    "--epochs mentions node {} but --config lists only {n} peers",
                    schedule.universe() - 1
                ));
            }
            generate_keys_with_schedule(SubnetConfig::new(n), opts.seed, &schedule)
        }
        None => generate_keys(SubnetConfig::new(n), opts.seed),
    };
    let keys = all_keys
        .into_iter()
        .nth(opts.me as usize)
        .expect("own key share");
    let mut core = ConsensusCore::new(
        keys,
        StaticDelays::new(
            SimDuration::from_millis(opts.delta_bnd_ms),
            SimDuration::from_millis(opts.epsilon_ms),
        ),
        Behavior::Honest,
    );
    // `--data-dir`: persist everything certified to a WAL + checkpoint
    // store in that directory. If the directory already holds state (a
    // previous incarnation's disk), `start` restores from it — zero
    // signature re-verifications — before the network catch-up covers
    // the outage gap.
    if let Some(dir) = &opts.data_dir {
        let wal_opts = WalOptions {
            fsync: opts.fsync,
            ..WalOptions::default()
        };
        let store = DurableStore::file(Path::new(dir), wal_opts)
            .unwrap_or_else(|e| usage(&format!("--data-dir {dir}: {e}")));
        if !store.is_empty() {
            eprintln!(
                "replica {}: recovered {} durable entries (frontier round {})",
                opts.me,
                store.recovered_entries(),
                store.frontier().get()
            );
        }
        core = core.with_store(store);
    }
    // `inline_threshold: 0` forces every proposal through the
    // advert/request path. Adverts are round-tagged, and those tags are
    // the *only* behind-detection signal the gossip layer has — a
    // restarted replica discovers it must fetch a certified catch-up
    // package precisely because adverts for far-future rounds arrive.
    let config = GossipConfig {
        inline_threshold: 0,
        ..GossipConfig::default()
    };
    // Same topology at every replica: `for_subnet` is deterministic in
    // (n, seed), and the shared seed is already the cluster identity.
    let node = GossipNode::new(
        core,
        Arc::new(Overlay::for_subnet(n, icc_gossip::subnet_overlay_seed(n))),
        config,
    );

    let transport: TcpTransport<_, _> = TcpTransport::bind(&spec, me, NetOptions::default())
        .unwrap_or_else(|e| usage(&format!("bind {}: {e}", spec.addr(me))));
    let handle = transport.handle();
    let counters = transport.counters_handle();
    let mut node =
        ObservedNode::new(node).with_transport(Arc::clone(&counters), transport.links_handle());
    install_sigterm_handler();
    println!("READY {}", transport.local_addr());
    let _ = std::io::stdout().flush();

    // The wall clock and the driver's monotonic start are sampled
    // back-to-back: the anchor maps this process's trace timestamps
    // onto the cluster-shared UNIX timeline for stitching.
    let clock_anchor_us = unix_micros();
    let start = Instant::now();
    // The admin plane serves the snapshot each publish tick renders;
    // with the `telemetry` feature off it binds nothing (port 0).
    let mut admin = opts.admin_port.map(|port| {
        let server = node
            .serve_admin(&format!("127.0.0.1:{port}"), clock_anchor_us)
            .unwrap_or_else(|e| usage(&format!("--admin-port {port}: {e}")));
        if server.port() != 0 {
            println!("ADMIN {}", server.local_addr());
            let _ = std::io::stdout().flush();
        }
        server
    });

    // Client-load injector: a background thread feeding commands into
    // the driver's inbox at --cmd-rate, tagged so payloads are unique
    // per replica and per tick. A real deployment would accept these
    // over a client port; a thread keeps the example self-contained.
    let injector = {
        let handle = handle.clone();
        let deadline = Instant::now() + Duration::from_secs(opts.secs);
        let (rate, size, me) = (opts.cmd_rate, opts.cmd_size.max(16), opts.me);
        std::thread::spawn(move || {
            let mut tick: u64 = 0;
            let period = Duration::from_nanos(1_000_000_000 / rate.max(1));
            while Instant::now() < deadline && !TERMINATED.load(Ordering::SeqCst) {
                let mut payload = format!("r{me}t{tick}").into_bytes();
                payload.resize(size, b'.');
                if !handle.inject(Command::new(payload)) {
                    break;
                }
                tick += 1;
                std::thread::sleep(period);
            }
        })
    };
    // Shutdown watcher: ask the driver to stop once the run is over —
    // or as soon as SIGTERM lands, whichever comes first. Sleeping in
    // short slices keeps SIGTERM-to-shutdown latency ~50ms.
    let stopper = {
        let handle = handle.clone();
        let deadline = Instant::now() + Duration::from_secs(opts.secs);
        std::thread::spawn(move || {
            while Instant::now() < deadline && !TERMINATED.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(50));
            }
            handle.stop();
        })
    };

    // The same driver loop the channel backend uses — only the
    // transport differs.
    let mut blocks: u64 = 0;
    let mut commands: u64 = 0;
    let mut node = drive(node, transport, start, |rec| {
        if let NodeEvent::Committed { block } = &rec.output {
            blocks += 1;
            commands += block.block().payload().len() as u64;
            println!("COMMIT {} {}", block.round().get(), block.hash());
            let _ = std::io::stdout().flush();
        }
    });
    injector.join().expect("injector thread");
    stopper.join().expect("stopper thread");

    // Drain any buffered WAL tail (group/periodic fsync policies) so a
    // clean shutdown leaves the data dir byte-complete on disk.
    if let Err(e) = node.core_mut().flush_store() {
        eprintln!("replica {}: store flush failed: {e}", opts.me);
    }

    let core = node.core();
    let report = ReplicaReport {
        me: u64::from(opts.me),
        n: n as u64,
        committed_round: core.committed_round().get(),
        blocks,
        commands,
        recovered_round: core.last_recovered_round(),
        recovery: core.recovery_stats(),
        storage: core.storage_counters(),
        net: counters.snapshot(),
    };
    println!("REPORT {}", report.encode());
    let _ = std::io::stdout().flush();

    if let Some(path) = &opts.trace_out {
        let events = core.telemetry().recorder.events();
        let trace = icc_telemetry::chrome_trace(&events);
        // Same invariant the simulator scenario asserts: one "ph":"i"
        // instant per recorded flight-recorder event.
        let instants = trace.matches("\"ph\":\"i\"").count();
        assert_eq!(
            instants,
            events.len(),
            "trace instants must match flight-recorder events"
        );
        write_durable(path, trace.as_bytes())
            .unwrap_or_else(|e| usage(&format!("--trace-out {path}: {e}")));
        eprintln!(
            "replica {}: trace written to {path} ({instants} events)",
            opts.me
        );
    }
    if let Some(path) = &opts.metrics_out {
        // The exact render `/metrics` serves live — same names, same
        // coverage, one code path.
        let text = node.metrics();
        write_durable(path, text.as_bytes())
            .unwrap_or_else(|e| usage(&format!("--metrics-out {path}: {e}")));
        eprintln!("replica {}: metrics written to {path}", opts.me);
    }
    if let Some(server) = admin.as_mut() {
        server.stop();
    }
}
