//! Command bookkeeping shared by every workload: the f+1-th-commit
//! rule, due-time latency, failures as misses, and the percentile a
//! sample can support.
//!
//! Times are milliseconds since a run origin: wall time for the TCP
//! workloads, simulated time for the simulator.

use std::collections::HashSet;

/// Percentiles in per-mille, highest first: the candidates for the
/// tail percentile a sample supports.
const TAIL_CANDIDATES: [u32; 4] = [999, 990, 900, 500];

/// Samples a percentile needs beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// How many of `n` samples lie beyond the `per_mille` percentile.
pub fn samples_beyond(n: usize, per_mille: u32) -> usize {
    n * (1000 - per_mille as usize) / 1000
}

/// The highest candidate percentile (per-mille) with at least
/// [`MIN_BEYOND`] samples beyond it, if any.
pub fn highest_supported(n: usize) -> Option<u32> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&pm| samples_beyond(n, pm) >= MIN_BEYOND)
}

/// Fails unless `n` samples support a p99 with [`MIN_BEYOND`] beyond it
/// (the tail every run reports).
pub fn require_p99(n: usize) -> Result<(), String> {
    if highest_supported(n) >= Some(990) {
        Ok(())
    } else {
        Err(format!(
            "{n} samples cannot support a p99 with {MIN_BEYOND} beyond it"
        ))
    }
}

/// The `per_mille` percentile of `sorted` (ascending), interpolated
/// linearly between the two nearest ranks. Failed commands sort as
/// `+inf`, so a percentile that reaches into them is infinite.
pub fn percentile(sorted: &[f64], per_mille: u32) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let pos = (sorted.len() - 1) as f64 * f64::from(per_mille) / 1000.0;
    let lo = pos.floor() as usize;
    let frac = pos - lo as f64;
    if frac == 0.0 || lo + 1 == sorted.len() {
        return sorted[lo];
    }
    let (a, b) = (sorted[lo], sorted[lo + 1]);
    if b.is_infinite() {
        return f64::INFINITY;
    }
    a + (b - a) * frac
}

/// One submitted command.
#[derive(Debug, Clone)]
struct Cmd {
    /// When it was due to be sent (open loop) or was sent (closed
    /// loop); latency is measured from here.
    due_ms: f64,
    /// Whether it counts toward the run's statistics (warm-up commands
    /// are committed and checked but not measured).
    measured: bool,
    /// Set when a replica refused the command at submission.
    refused: bool,
    /// `(replica, instant)` of every replica that committed it.
    commits: Vec<(usize, f64)>,
}

/// Every command of a run, indexed by its sequence id, with the
/// per-replica commit records the correctness gate checks.
#[derive(Debug)]
pub struct Ledger {
    quorum: usize,
    cmds: Vec<Cmd>,
    /// Per replica: sequence ids already seen in its chain.
    seen: Vec<HashSet<u64>>,
    /// `(replica, seq)` commits of a command already in that chain.
    pub duplicates: Vec<(usize, u64)>,
    /// Committed sequence ids that were never submitted.
    pub unknown: Vec<u64>,
}

impl Ledger {
    /// A ledger for `n` replicas where a command is committed once
    /// `quorum` of them (f+1) have committed it.
    pub fn new(n: usize, quorum: usize) -> Ledger {
        Ledger {
            quorum,
            cmds: Vec::new(),
            seen: vec![HashSet::new(); n],
            duplicates: Vec::new(),
            unknown: Vec::new(),
        }
    }

    /// Registers the next command; returns its sequence id.
    pub fn submit(&mut self, due_ms: f64, measured: bool) -> u64 {
        self.cmds.push(Cmd {
            due_ms,
            measured,
            refused: false,
            commits: Vec::new(),
        });
        (self.cmds.len() - 1) as u64
    }

    /// Marks `seq` as refused by a replica at submission: it counts as
    /// failed whatever happens to it later.
    pub fn refuse(&mut self, seq: u64) {
        self.cmds[seq as usize].refused = true;
    }

    /// Number of commands submitted so far.
    pub fn len(&self) -> usize {
        self.cmds.len()
    }

    /// Records that `replica` committed `seq` at `at_ms`. Returns true
    /// when this is the command's f+1-th commit. Events may arrive out
    /// of time order; [`done_ms`](Self::done_ms) sorts them.
    pub fn commit(&mut self, replica: usize, seq: u64, at_ms: f64) -> bool {
        let Some(cmd) = self.cmds.get_mut(seq as usize) else {
            self.unknown.push(seq);
            return false;
        };
        if !self.seen[replica].insert(seq) {
            self.duplicates.push((replica, seq));
            return false;
        }
        cmd.commits.push((replica, at_ms));
        cmd.commits.len() == self.quorum
    }

    /// When `seq` reached f+1 commits: the f+1-th earliest commit
    /// instant, or `None` if fewer replicas committed it or one refused
    /// it.
    pub fn done_ms(&self, seq: u64) -> Option<f64> {
        let cmd = &self.cmds[seq as usize];
        if cmd.refused || cmd.commits.len() < self.quorum {
            return None;
        }
        let mut t: Vec<f64> = cmd.commits.iter().map(|&(_, at)| at).collect();
        t.sort_by(f64::total_cmp);
        Some(t[self.quorum - 1])
    }

    /// Whether `seq` has reached f+1 commits and was not refused.
    pub fn is_done(&self, seq: u64) -> bool {
        let cmd = &self.cmds[seq as usize];
        !cmd.refused && cmd.commits.len() >= self.quorum
    }

    /// Sequence ids of the measured commands.
    pub fn measured(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.cmds.len() as u64).filter(|&s| self.cmds[s as usize].measured)
    }

    /// Measured commands that never reached f+1 commits.
    pub fn failed(&self) -> usize {
        self.measured().filter(|&s| !self.is_done(s)).count()
    }

    /// Latency of every measured command whose due time satisfies
    /// `keep`, sorted ascending: f+1-th commit minus due time, with
    /// `+inf` for a command that never got there.
    pub fn latencies(&self, keep: impl Fn(f64) -> bool) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .measured()
            .filter(|&s| keep(self.cmds[s as usize].due_ms))
            .map(|s| {
                self.done_ms(s)
                    .map_or(f64::INFINITY, |d| d - self.cmds[s as usize].due_ms)
            })
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Commands, measured or not, whose f+1-th commit falls in
    /// `[from, to)`.
    pub fn completed_between(&self, from_ms: f64, to_ms: f64) -> usize {
        (0..self.cmds.len() as u64)
            .filter_map(|s| self.done_ms(s))
            .filter(|&d| d >= from_ms && d < to_ms)
            .count()
    }

    /// Completions per second inside `[from, to)`: for the `k` commands
    /// whose f+1-th commit falls there, `(k - 1)` over the time from the
    /// first of those commits to the last. Unlike a count over the
    /// window it does not round to multiples of one window's reciprocal.
    pub fn rate_between(&self, from_ms: f64, to_ms: f64) -> f64 {
        let mut done: Vec<f64> = (0..self.cmds.len() as u64)
            .filter_map(|s| self.done_ms(s))
            .filter(|&d| d >= from_ms && d < to_ms)
            .collect();
        done.sort_by(f64::total_cmp);
        match (done.first(), done.last()) {
            (Some(a), Some(b)) if b > a => (done.len() - 1) as f64 * 1e3 / (b - a),
            _ => 0.0,
        }
    }

    /// Per-replica commit instants of `seq`, for the trace.
    pub fn commit_instants(&self, seq: u64) -> (f64, &[(usize, f64)]) {
        let c = &self.cmds[seq as usize];
        (c.due_ms, &c.commits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_time_is_the_f_plus_one_th_commit() {
        // n = 4, f = 1: committed when the second replica commits.
        let mut l = Ledger::new(4, 2);
        let s = l.submit(0.0, true);
        assert!(!l.commit(3, s, 9.0));
        assert_eq!(l.done_ms(s), None);
        // Out of time order: replica 1's event arrives after replica
        // 3's but happened earlier.
        assert!(l.commit(1, s, 4.0));
        assert_eq!(l.done_ms(s), Some(9.0));
        assert!(!l.commit(0, s, 2.0));
        // A third, earlier commit moves the f+1-th instant back.
        assert_eq!(l.done_ms(s), Some(4.0));
    }

    #[test]
    fn a_replica_committing_twice_is_a_duplicate_not_a_quorum() {
        let mut l = Ledger::new(4, 2);
        let s = l.submit(0.0, true);
        l.commit(2, s, 1.0);
        assert!(!l.commit(2, s, 2.0));
        assert!(!l.is_done(s));
        assert_eq!(l.duplicates, vec![(2, s)]);
        l.commit(0, 99, 1.0);
        assert_eq!(l.unknown, vec![99]);
    }

    #[test]
    fn latency_runs_from_the_due_time_not_the_send_time() {
        // Due at 10 ms but sent late at 15 ms (the generator stalled);
        // committed at 17 ms. The stall is part of the latency.
        let mut l = Ledger::new(4, 2);
        let s = l.submit(10.0, true);
        l.commit(0, s, 17.0);
        l.commit(1, s, 17.0);
        assert_eq!(l.latencies(|_| true), vec![7.0]);
    }

    #[test]
    fn failures_count_as_misses_in_the_percentiles() {
        let mut l = Ledger::new(4, 2);
        for i in 0..10 {
            let s = l.submit(0.0, true);
            if i < 8 {
                l.commit(0, s, 1.0 + i as f64);
                l.commit(1, s, 1.0 + i as f64);
            } else {
                l.commit(0, s, 1.0);
            }
        }
        assert_eq!(l.failed(), 2);
        let lat = l.latencies(|_| true);
        assert_eq!(lat.len(), 10);
        assert!(lat[8].is_infinite() && lat[9].is_infinite());
        assert_eq!(percentile(&lat, 500), 5.5);
        assert!(percentile(&lat, 900).is_infinite());
    }

    #[test]
    fn warm_up_commands_are_not_measured() {
        let mut l = Ledger::new(4, 2);
        l.submit(0.0, false);
        let s = l.submit(1.0, true);
        assert_eq!(l.measured().collect::<Vec<_>>(), vec![s]);
        assert_eq!(l.failed(), 1);
    }

    #[test]
    fn a_refused_command_fails_even_if_committed() {
        let mut l = Ledger::new(4, 2);
        let s = l.submit(0.0, true);
        l.refuse(s);
        l.commit(0, s, 1.0);
        l.commit(1, s, 1.0);
        assert_eq!(l.failed(), 1);
        assert!(l.latencies(|_| true)[0].is_infinite());
    }

    #[test]
    fn rate_spans_first_to_last_completion_in_the_window() {
        let mut l = Ledger::new(4, 2);
        for at in [5.0, 10.0, 20.0, 30.0, 45.0] {
            let s = l.submit(0.0, true);
            l.commit(0, s, at);
            l.commit(1, s, at);
        }
        // Completions at 10, 20, 30 ms fall in [10, 40): 2 gaps in 20 ms.
        assert_eq!(l.rate_between(10.0, 40.0), 100.0);
        assert_eq!(l.completed_between(10.0, 40.0), 3);
        assert_eq!(l.rate_between(40.0, 50.0), 0.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported(9), None);
        assert_eq!(highest_supported(20), Some(500));
        assert_eq!(highest_supported(99), Some(500));
        assert_eq!(highest_supported(100), Some(900));
        assert_eq!(highest_supported(999), Some(900));
        assert_eq!(highest_supported(1000), Some(990));
        assert_eq!(highest_supported(10_000), Some(999));
        assert_eq!(samples_beyond(1000, 990), 10);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 500), 2.5);
        assert_eq!(percentile(&v, 1000), 4.0);
        assert_eq!(percentile(&[7.0], 990), 7.0);
    }
}
