//! Outside-only measurement of the node stack: a [`Node`] wrapper
//! around [`GossipNode`] and a [`Transport`] wrapper around any
//! transport, both recording into one [`Probe`] per driver thread.
//!
//! While the probe is off the wrappers only delegate (plus a message
//! count per kind kept in the node wrapper). While it is on they time
//! every handler call, every send and every blocking receive, keep each
//! as a span, and sample incoming messages for the codec replay.

use icc_core::cluster::CoreAccess;
use icc_core::consensus::ConsensusCore;
use icc_core::events::NodeEvent;
use icc_gossip::{GossipMessage, GossipNode};
use icc_sim::{Context, Node, RecvError, Transport, TransportEvent};
use icc_types::{Command, NodeIndex};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Message kinds the per-kind handler metrics are split by.
pub const KINDS: [&str; 5] = ["push", "advert", "request", "deliver", "catchup"];

fn kind_index(m: &GossipMessage) -> usize {
    match m {
        GossipMessage::Push { .. } => 0,
        GossipMessage::Advert { .. } => 1,
        GossipMessage::Request { .. } => 2,
        GossipMessage::Deliver { .. } => 3,
        GossipMessage::CatchUpRequest { .. } | GossipMessage::CatchUpResponse { .. } => 4,
    }
}

/// Spans kept per probe; later ones are counted as dropped.
const SPAN_CAP: usize = 25_000;
/// One incoming message in this many is kept for the codec replay.
const SAMPLE_EVERY: u64 = 16;
/// Sampled messages kept per probe, and their total encoded bytes.
const SAMPLE_CAP: usize = 1_000;
const SAMPLE_BYTES_CAP: usize = 4 << 20;

/// Busy time by layer boundary, in nanoseconds, while the probe was on.
#[derive(Debug, Default, Clone)]
pub struct LayerTimes {
    /// `on_message` time per message kind.
    pub handle_ns: [u64; 5],
    /// `on_timer` time (gossip sweep, consensus round timers).
    pub timer_ns: u64,
    /// `on_external` time (command admission).
    pub external_ns: u64,
    /// `send`/`broadcast` time (codec encode, CRC frame, enqueue).
    pub send_ns: u64,
    /// Time blocked in `recv`.
    pub recv_wait_ns: u64,
}

impl LayerTimes {
    /// All handler time: messages, timers and externals.
    pub fn handler_ns(&self) -> u64 {
        self.handle_ns.iter().sum::<u64>() + self.timer_ns + self.external_ns
    }

    /// Field-wise sum.
    pub fn merge(&mut self, o: &LayerTimes) {
        for (a, b) in self.handle_ns.iter_mut().zip(o.handle_ns) {
            *a += b;
        }
        self.timer_ns += o.timer_ns;
        self.external_ns += o.external_ns;
        self.send_ns += o.send_ns;
        self.recv_wait_ns += o.recv_wait_ns;
    }
}

/// One recorded span. `parent` is the span that caused this one (the
/// handler whose queued actions a send drains), 0 for none.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary, e.g. `on_message.push`, `send`, `recv_wait`.
    pub name: &'static str,
    /// Thread (replica) the span ran on.
    pub tid: u32,
    /// Start, nanoseconds since the probe origin.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Probe-unique id (nonzero).
    pub id: u64,
    /// Causing span id, 0 for none.
    pub parent: u64,
}

/// A named counter snapshot (`pool.verify_calls`, `in.push`, ...).
pub type Counters = BTreeMap<String, u64>;

#[derive(Default)]
struct State {
    times: LayerTimes,
    spans: Vec<Span>,
    spans_dropped: u64,
    next_id: u64,
    last_handler: u64,
    sample: Vec<GossipMessage>,
    sample_bytes: usize,
    marks: Vec<Counters>,
}

/// The recording side shared by one thread's node and transport
/// wrappers. Cloning shares the state.
#[derive(Clone)]
pub struct Probe {
    tid: u32,
    origin: Instant,
    on: Arc<AtomicBool>,
    state: Arc<Mutex<State>>,
}

/// What a probe recorded.
pub struct Recorded {
    /// Busy time by layer.
    pub times: LayerTimes,
    /// Spans, in recording order.
    pub spans: Vec<Span>,
    /// Spans not kept because of the cap.
    pub spans_dropped: u64,
    /// Sampled incoming messages.
    pub sample: Vec<GossipMessage>,
    /// Counter snapshots taken at window marks.
    pub marks: Vec<Counters>,
}

impl Probe {
    /// A probe for thread `tid`, recording while `on` is set.
    pub fn new(tid: u32, origin: Instant, on: Arc<AtomicBool>) -> Probe {
        Probe {
            tid,
            origin,
            on,
            state: Arc::default(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("probe state lock poisoned")
    }

    fn start(&self) -> Option<Instant> {
        self.on.load(Ordering::Relaxed).then(Instant::now)
    }

    /// Closes a span opened by [`start`](Self::start): adds its time to
    /// the field `slot` picks and records it.
    fn finish(
        &self,
        t0: Option<Instant>,
        name: &'static str,
        slot: impl FnOnce(&mut LayerTimes) -> &mut u64,
    ) {
        let Some(t0) = t0 else { return };
        let dur_ns = t0.elapsed().as_nanos() as u64;
        let mut st = self.lock();
        *slot(&mut st.times) += dur_ns;
        st.next_id += 1;
        let id = st.next_id;
        let parent = match name {
            "send" | "broadcast" => st.last_handler,
            _ => 0,
        };
        if name.starts_with("on_") {
            st.last_handler = id;
        }
        if st.spans.len() < SPAN_CAP {
            let start_ns = t0.duration_since(self.origin).as_nanos() as u64;
            let tid = self.tid;
            st.spans.push(Span {
                name,
                tid,
                start_ns,
                dur_ns,
                id,
                parent,
            });
        } else {
            st.spans_dropped += 1;
        }
    }

    fn maybe_sample(&self, seen: u64, msg: &GossipMessage) {
        if !seen.is_multiple_of(SAMPLE_EVERY) || !self.on.load(Ordering::Relaxed) {
            return;
        }
        let mut st = self.lock();
        let bytes = icc_types::codec::Encode::encoded_len(msg);
        if st.sample.len() < SAMPLE_CAP && st.sample_bytes + bytes <= SAMPLE_BYTES_CAP {
            st.sample_bytes += bytes;
            st.sample.push(msg.clone());
        }
    }

    /// Everything recorded so far.
    pub fn take(&self) -> Recorded {
        let mut st = self.lock();
        Recorded {
            times: std::mem::take(&mut st.times),
            spans: std::mem::take(&mut st.spans),
            spans_dropped: st.spans_dropped,
            sample: std::mem::take(&mut st.sample),
            marks: std::mem::take(&mut st.marks),
        }
    }
}

/// External input of a TCP replica: a client command, or a window mark
/// asking the node to snapshot its counters into the probe.
pub enum Input {
    /// A client command.
    Cmd(Command),
    /// Snapshot the counters now.
    Mark,
}

/// What the node wrapper accepts as external input.
pub trait External {
    /// The command, or `None` for a window mark.
    fn command(self) -> Option<Command>;
}

impl External for Command {
    fn command(self) -> Option<Command> {
        Some(self)
    }
}

impl External for Input {
    fn command(self) -> Option<Command> {
        match self {
            Input::Cmd(c) => Some(c),
            Input::Mark => None,
        }
    }
}

/// [`GossipNode`] with every handler call timed by a [`Probe`].
pub struct Timed<X = Command> {
    inner: GossipNode,
    probe: Probe,
    /// Incoming messages per kind, counted whether or not the probe is
    /// on (a plain add, no lock).
    msgs_in: [u64; 5],
    _input: std::marker::PhantomData<fn(X)>,
}

impl<X> Timed<X> {
    /// Wraps `inner`, recording into `probe`.
    pub fn new(inner: GossipNode, probe: Probe) -> Self {
        Timed {
            inner,
            probe,
            msgs_in: [0; 5],
            _input: std::marker::PhantomData,
        }
    }

    /// The wrapped node.
    pub fn inner(&self) -> &GossipNode {
        &self.inner
    }

    /// Every public counter of the node's layers, by name.
    pub fn counters(&self) -> Counters {
        let core = self.inner.core();
        let m = &core.telemetry().metrics;
        let mut c = Counters::new();
        let mut put = |prefix: &str, fields: Vec<(&'static str, u64)>| {
            for (k, v) in fields {
                c.insert(format!("{prefix}.{k}"), v);
            }
        };
        put("pool", core.pool().stats().fields());
        put("storage", core.storage_counters().fields());
        put("recovery", core.recovery_stats().fields());
        put("gossip", self.inner.gossip_counters().fields());
        put(
            "core",
            vec![
                ("rounds_entered", m.rounds_entered.get()),
                ("blocks_committed", m.blocks_committed.get()),
                ("commands_committed", m.commands_committed.get()),
            ],
        );
        put("in", KINDS.iter().copied().zip(self.msgs_in).collect());
        c
    }
}

impl<X: External> Node for Timed<X> {
    type Msg = GossipMessage;
    type External = X;
    type Output = NodeEvent;

    fn on_start(&mut self, ctx: &mut Context<'_, GossipMessage, NodeEvent>) {
        self.inner.on_start(ctx);
    }

    fn on_message(
        &mut self,
        ctx: &mut Context<'_, GossipMessage, NodeEvent>,
        from: NodeIndex,
        msg: GossipMessage,
    ) {
        const NAMES: [&str; 5] = [
            "on_message.push",
            "on_message.advert",
            "on_message.request",
            "on_message.deliver",
            "on_message.catchup",
        ];
        let k = kind_index(&msg);
        self.msgs_in[k] += 1;
        self.probe.maybe_sample(self.msgs_in[k], &msg);
        let t0 = self.probe.start();
        self.inner.on_message(ctx, from, msg);
        self.probe.finish(t0, NAMES[k], |t| &mut t.handle_ns[k]);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, GossipMessage, NodeEvent>, tag: u64) {
        let t0 = self.probe.start();
        self.inner.on_timer(ctx, tag);
        self.probe.finish(t0, "on_timer", |t| &mut t.timer_ns);
    }

    fn on_external(&mut self, ctx: &mut Context<'_, GossipMessage, NodeEvent>, input: X) {
        let Some(cmd) = input.command() else {
            let snapshot = self.counters();
            self.probe.lock().marks.push(snapshot);
            return;
        };
        let t0 = self.probe.start();
        self.inner.on_external(ctx, cmd);
        self.probe.finish(t0, "on_external", |t| &mut t.external_ns);
    }

    fn on_crash(&mut self) {
        self.inner.on_crash();
    }

    fn on_restart(&mut self, ctx: &mut Context<'_, GossipMessage, NodeEvent>) {
        self.inner.on_restart(ctx);
    }

    fn on_peer_departed(
        &mut self,
        ctx: &mut Context<'_, GossipMessage, NodeEvent>,
        peer: NodeIndex,
    ) {
        self.inner.on_peer_departed(ctx, peer);
    }
}

impl<X> CoreAccess for Timed<X> {
    fn core(&self) -> &ConsensusCore {
        self.inner.core()
    }

    fn gossip_counters(&self) -> Option<icc_sim::GossipCounters> {
        Some(self.inner.gossip_counters())
    }
}

/// A transport with its sends and blocking receives timed by a
/// [`Probe`].
pub struct TimedTransport<T> {
    inner: T,
    probe: Probe,
}

impl<T> TimedTransport<T> {
    /// Wraps `inner`, recording into `probe`.
    pub fn new(inner: T, probe: Probe) -> Self {
        TimedTransport { inner, probe }
    }
}

impl<T: Transport> Transport for TimedTransport<T> {
    type Msg = T::Msg;
    type External = T::External;

    fn me(&self) -> NodeIndex {
        self.inner.me()
    }

    fn n(&self) -> usize {
        self.inner.n()
    }

    fn send(&mut self, to: NodeIndex, msg: T::Msg) {
        let t0 = self.probe.start();
        self.inner.send(to, msg);
        self.probe.finish(t0, "send", |t| &mut t.send_ns);
    }

    fn broadcast(&mut self, msg: T::Msg) {
        let t0 = self.probe.start();
        self.inner.broadcast(msg);
        self.probe.finish(t0, "broadcast", |t| &mut t.send_ns);
    }

    fn recv(
        &mut self,
        timeout: Duration,
    ) -> Result<TransportEvent<T::Msg, T::External>, RecvError> {
        let t0 = self.probe.start();
        let ev = self.inner.recv(timeout);
        self.probe.finish(t0, "recv_wait", |t| &mut t.recv_wait_ns);
        ev
    }

    fn snapshot_alive(&self, alive: &mut [bool]) -> bool {
        self.inner.snapshot_alive(alive)
    }
}
