//! Metric names, the per-layer derivations shared by every workload,
//! the result line and the span file.

use crate::codec::CodecCost;
use crate::probe::{Counters, LayerTimes, Span, KINDS};
use crate::stats::{highest_supported, percentile, Ledger};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics every workload reports untraced, with units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("commit_p50_ms", "ms"),
    ("commit_p90_ms", "ms"),
    ("cmds_per_s", "cmd/s"),
    ("mean_heap_mib", "MiB"),
];

/// Per-layer metrics every workload reports traced, with units. A layer
/// that does not run in a workload reports 0.
pub const PER_LAYER: [(&str, &str); 63] = [
    ("gossip.handle_us.push", "us/s"),
    ("gossip.handle_us.advert", "us/s"),
    ("gossip.handle_us.request", "us/s"),
    ("gossip.handle_us.deliver", "us/s"),
    ("gossip.handle_us.catchup", "us/s"),
    ("gossip.msgs_in.push", "1/round"),
    ("gossip.msgs_in.advert", "1/round"),
    ("gossip.msgs_in.request", "1/round"),
    ("gossip.msgs_in.deliver", "1/round"),
    ("gossip.msgs_in.catchup", "1/round"),
    ("gossip.timer_us", "us/s"),
    ("gossip.external_us", "us/s"),
    ("gossip.requests_per_block", "1/block"),
    ("gossip.push_dedup_ratio", "ratio"),
    ("gossip.shares_routed", "1/round"),
    ("core.round_us_p50", "us"),
    ("core.finalization_us_p50", "us"),
    ("core.rounds_per_s", "1/s"),
    ("core.cmds_per_block", "1/block"),
    ("pool.verify_calls_per_round", "1/round"),
    ("pool.verify_cache_hit_ratio", "ratio"),
    ("pool.dup_drop_per_round", "1/round"),
    ("pool.skipped_after_quorum_per_round", "1/round"),
    ("pool.rejected", "count"),
    ("wal.records_per_round", "1/round"),
    ("wal.bytes_per_round", "B/round"),
    ("wal.fsyncs_per_round", "1/round"),
    ("wal.fsync_mean_us", "us"),
    ("wal.fsync_us", "us/s"),
    ("net.send_us", "us/s"),
    ("net.frames_per_round", "1/round"),
    ("net.bytes_per_round", "B/round"),
    ("net.send_queue_drops", "count"),
    ("net.reconnects", "count"),
    ("codec.encode_ns_per_kib", "ns/KiB"),
    ("codec.decode_ns_per_kib", "ns/KiB"),
    ("frame.crc_ns_per_kib", "ns/KiB"),
    ("driver.recv_wait_us", "us/s"),
    ("driver.busy_frac", "ratio"),
    ("driver.unattributed_us", "us/s"),
    ("sim.events", "count"),
    ("sim.handler_us", "us"),
    ("sim.engine_self_us", "us"),
    ("sim.msgs_per_node", "count"),
    ("sim.bytes_per_node", "B"),
    ("sim.wall_s", "s"),
    ("recovery.catch_up_applied", "count"),
    ("recovery.catch_up_bytes", "B"),
    ("recovery.rounds_behind", "count"),
    ("recovery.recover_ms", "ms"),
    ("mem.peak_heap_mib", "MiB"),
    ("mem.peak_rss_mib", "MiB"),
    ("load.late_max_ms", "ms"),
    ("load.refused", "count"),
    ("load.fail_frac", "ratio"),
    ("load.samples", "count"),
    ("load.commit_p99_ms", "ms"),
    ("load.tail_pct", "pct"),
    ("trace.overhead_p50_pct", "%"),
    ("trace.overhead_rate_pct", "%"),
    ("trace.layer_coverage", "ratio"),
    ("trace.spans", "count"),
    ("trace.spans_dropped", "count"),
];

/// Metric values by name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Sets `name`, which must be one of the declared metrics.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "undeclared metric {name}"
        );
        self.0.insert(name, value);
    }

    /// The value of `name`, 0 if unset.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// The metrics object of the result line: every metric of `set`,
    /// 0 where no value was set.
    fn to_json(&self, set: &[(&str, &str)]) -> String {
        let mut s = String::from("{");
        for (i, (name, unit)) in set.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(self.get(name))
            );
        }
        s.push('}');
        s
    }
}

/// JSON has no infinity. A latency percentile that reaches into failed
/// commands is infinite; it is written as 1e300.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "1e300".to_string()
    }
}

/// The result line: correctness, attempted and failed commands, and
/// the end-to-end (untraced) or per-layer (traced) metrics.
pub fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    traced: bool,
    m: &Metrics,
) -> String {
    let set: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        m.to_json(set)
    )
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Inputs of the per-layer derivations shared by all workloads.
pub struct LayerRun<'a> {
    /// Counter deltas over the measured interval, summed over nodes.
    pub delta: &'a Counters,
    /// Busy time while traced, summed over driver threads.
    pub times: &'a LayerTimes,
    /// Traced wall seconds, summed over the driver threads `times`
    /// covers: the denominator of every `us/s` metric.
    pub traced_thread_s: f64,
    /// Length of the measured interval in seconds (wall for TCP,
    /// simulated for the simulator): the denominator of rates.
    pub interval_s: f64,
    /// Nodes the counters are summed over.
    pub nodes: f64,
    /// `CoreMetrics` round-duration and finalization-latency medians.
    pub round_p50_us: f64,
    /// See `round_p50_us`.
    pub finalization_p50_us: f64,
    /// Codec replay of the sampled messages.
    pub codec: CodecCost,
}

/// Fills the metrics of the gossip, core, pool, WAL, net and codec
/// layers.
pub fn layer_metrics(r: &LayerRun<'_>, m: &mut Metrics) {
    let d = |k: &str| r.delta.get(k).copied().unwrap_or(0) as f64;
    let rounds = d("core.rounds_entered");
    let blocks = d("core.blocks_committed");
    let per_round = |k: &str| ratio(d(k), rounds);
    let us_per_s = |ns: u64| ratio(ns as f64 / 1e3, r.traced_thread_s);

    const HANDLE: [&str; 5] = [
        "gossip.handle_us.push",
        "gossip.handle_us.advert",
        "gossip.handle_us.request",
        "gossip.handle_us.deliver",
        "gossip.handle_us.catchup",
    ];
    const MSGS: [&str; 5] = [
        "gossip.msgs_in.push",
        "gossip.msgs_in.advert",
        "gossip.msgs_in.request",
        "gossip.msgs_in.deliver",
        "gossip.msgs_in.catchup",
    ];
    for (k, kind) in KINDS.iter().enumerate() {
        m.set(HANDLE[k], us_per_s(r.times.handle_ns[k]));
        m.set(MSGS[k], per_round(&format!("in.{kind}")));
    }
    m.set("gossip.timer_us", us_per_s(r.times.timer_ns));
    m.set("gossip.external_us", us_per_s(r.times.external_ns));
    m.set("gossip.requests_per_block", ratio(d("in.request"), blocks));
    m.set(
        "gossip.push_dedup_ratio",
        ratio(d("gossip.pushes_deduped"), d("in.push")),
    );
    m.set("gossip.shares_routed", per_round("gossip.shares_routed"));

    m.set("core.round_us_p50", r.round_p50_us);
    m.set("core.finalization_us_p50", r.finalization_p50_us);
    m.set("core.rounds_per_s", ratio(rounds / r.nodes, r.interval_s));
    m.set(
        "core.cmds_per_block",
        ratio(d("core.commands_committed"), blocks),
    );

    m.set(
        "pool.verify_calls_per_round",
        per_round("pool.verify_calls"),
    );
    m.set(
        "pool.verify_cache_hit_ratio",
        ratio(
            d("pool.verify_cache_hits"),
            d("pool.verify_cache_hits") + d("pool.verify_calls"),
        ),
    );
    m.set(
        "pool.dup_drop_per_round",
        per_round("pool.duplicates_dropped"),
    );
    m.set(
        "pool.skipped_after_quorum_per_round",
        per_round("pool.shares_skipped_after_quorum"),
    );
    m.set("pool.rejected", d("pool.rejected"));

    m.set(
        "wal.records_per_round",
        per_round("storage.records_appended"),
    );
    m.set("wal.bytes_per_round", per_round("storage.bytes_appended"));
    m.set("wal.fsyncs_per_round", per_round("storage.fsyncs"));
    m.set(
        "wal.fsync_mean_us",
        ratio(d("storage.fsync_total_us"), d("storage.fsyncs")),
    );
    m.set(
        "wal.fsync_us",
        ratio(d("storage.fsync_total_us"), r.nodes * r.interval_s),
    );

    m.set("net.send_us", us_per_s(r.times.send_ns));
    m.set("net.frames_per_round", per_round("net.frames_sent"));
    m.set("net.bytes_per_round", per_round("net.bytes_sent"));
    m.set("net.send_queue_drops", d("net.send_queue_drops"));
    m.set("net.reconnects", d("net.reconnects"));

    m.set("codec.encode_ns_per_kib", r.codec.encode_ns_per_kib);
    m.set("codec.decode_ns_per_kib", r.codec.decode_ns_per_kib);
    m.set("frame.crc_ns_per_kib", r.codec.frame_ns_per_kib);

    m.set("recovery.catch_up_applied", d("recovery.catch_up_applied"));
    m.set("recovery.catch_up_bytes", d("recovery.catch_up_bytes"));
    m.set("recovery.rounds_behind", d("recovery.rounds_behind_total"));
}

/// `end - begin` for every counter of `end`.
pub fn delta(begin: &Counters, end: &Counters) -> Counters {
    end.iter()
        .map(|(k, v)| {
            (
                k.clone(),
                v.saturating_sub(begin.get(k).copied().unwrap_or(0)),
            )
        })
        .collect()
}

/// Adds `other` into `acc`, counter by counter.
pub fn add(acc: &mut Counters, other: &Counters) {
    for (k, v) in other {
        *acc.entry(k.clone()).or_insert(0) += v;
    }
}

/// Writes spans and command instants as a Chrome trace-event file
/// (loadable in Perfetto). Spans go to process 0 on one track per
/// driver thread; the submit instant of each command in `seqs` (on track
/// `generator_tid`) and its per-replica commit instants go to process 1,
/// tagged with the command's sequence id as trace id. Failures to write
/// are reported, not fatal: the file is a by-product of the traced run.
pub fn write_trace(
    path: &std::path::Path,
    seed: u64,
    spans: &[Span],
    ledger: &Ledger,
    seqs: impl Iterator<Item = u64>,
    generator_tid: usize,
) {
    let mut events: Vec<String> = spans
        .iter()
        .map(|sp| {
            format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{}}}}}",
                sp.name,
                sp.tid,
                sp.start_ns as f64 / 1e3,
                sp.dur_ns as f64 / 1e3,
                sp.id,
                sp.parent
            )
        })
        .collect();
    let instant = |name: &str, tid: usize, at_ms: f64, seq: u64| {
        format!(
            "{{\"name\":\"{name}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3},\"args\":{{\"trace_id\":{seq}}}}}",
            at_ms * 1e3
        )
    };
    let n_spans = events.len();
    for seq in seqs {
        let (due, commits) = ledger.commit_instants(seq);
        events.push(instant("submit", generator_tid, due, seq));
        events.extend(commits.iter().map(|&(r, at)| instant("commit", r, at, seq)));
    }
    let text = format!(
        "{{\"otherData\":{{\"seed\":{seed}}},\"traceEvents\":[\n{}\n]}}\n",
        events.join(",\n")
    );
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, text));
    match written {
        Ok(()) => println!(
            "trace: {n_spans} spans, {} command instants -> {}",
            events.len() - n_spans,
            path.display()
        ),
        Err(e) => eprintln!("trace: could not write {}: {e}", path.display()),
    }
}

/// The load generator's metrics, reported by every traced run.
pub fn load_metrics(lat: &[f64], failed: usize, m: &mut Metrics) {
    m.set("load.fail_frac", failed as f64 / lat.len() as f64);
    m.set("load.samples", lat.len() as f64);
    m.set("load.commit_p99_ms", percentile(lat, 990));
    m.set(
        "load.tail_pct",
        f64::from(highest_supported(lat.len()).unwrap_or(0)) / 10.0,
    );
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median of `v` (which must not be empty).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    percentile(&s, 500)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names this program prints are the names `BENCHMARK.json`
    /// declares, in both sets.
    #[test]
    fn declared_names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let section = |key: &str| -> Vec<String> {
            let start = text.find(&format!("\"{key}\"")).expect("section present");
            let body = &text[start..];
            let end = body.find(']').expect("section closes");
            body[..end]
                .split("\"name\":")
                .skip(1)
                .map(|s| {
                    s.trim()
                        .trim_start_matches('"')
                        .split('"')
                        .next()
                        .unwrap()
                        .to_string()
                })
                .collect()
        };
        let names =
            |set: &[(&str, &str)]| set.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
        assert_eq!(section("end_to_end"), names(&END_TO_END));
        assert_eq!(section("per_layer"), names(&PER_LAYER));
    }

    #[test]
    fn result_line_lists_every_metric_of_its_set() {
        let mut m = Metrics::default();
        m.set("commit_p50_ms", 1.25);
        m.set("commit_p90_ms", f64::INFINITY);
        let line = result_line(true, 3, 1, false, &m);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 1,"));
        assert!(line.contains("\"commit_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}"));
        assert!(line.contains("\"commit_p90_ms\": {\"value\": 1e300,"));
        assert_eq!(line.matches("\"unit\"").count(), END_TO_END.len());
        let traced = result_line(true, 3, 1, true, &m);
        assert_eq!(traced.matches("\"unit\"").count(), PER_LAYER.len());
    }
}
