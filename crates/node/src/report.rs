//! The replica's end-of-run `REPORT` line as a typed encode/decode
//! pair: the `replica` binary prints [`ReplicaReport::encode`], the
//! `net_cluster` launcher parses it back with [`ReplicaReport::decode`]
//! and asserts on fields, so a renamed or missing counter is an error
//! instead of a silent zero.
//!
//! The line is one JSON object: the scalar fields, every
//! [`RecoveryCounters`] field at top level, and the storage and net
//! counters as nested `"storage"` / `"net"` objects (the exact
//! `to_json` renders the CI checks read).

use icc_core::storage::StorageCounters;
use icc_net::NetCountersSnapshot;
use icc_sim::metrics::RecoveryCounters;
use std::fmt::{self, Write as _};

/// Everything a replica reports at shutdown.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaReport {
    /// The replica's index.
    pub me: u64,
    /// Cluster size.
    pub n: u64,
    /// Highest committed round.
    pub committed_round: u64,
    /// Blocks this incarnation committed.
    pub blocks: u64,
    /// Client commands in those blocks.
    pub commands: u64,
    /// Round restored from the data dir at startup (0 = nothing).
    pub recovered_round: u64,
    /// Crash-recovery counters, every field.
    pub recovery: RecoveryCounters,
    /// WAL + checkpoint counters.
    pub storage: StorageCounters,
    /// TCP transport counters.
    pub net: NetCountersSnapshot,
}

/// Why a `REPORT` line did not decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReportError {
    /// Not the `{…,"storage":{…},"net":{…}}` shape `encode` writes.
    Malformed,
    /// A required key is absent.
    Missing(&'static str),
    /// A key's value is not an unsigned integer.
    NotInteger(&'static str),
}

impl fmt::Display for ReportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReportError::Malformed => write!(f, "malformed REPORT"),
            ReportError::Missing(key) => write!(f, "REPORT lacks \"{key}\""),
            ReportError::NotInteger(key) => write!(f, "REPORT \"{key}\" is not an integer"),
        }
    }
}

impl std::error::Error for ReportError {}

impl ReplicaReport {
    fn scalars_mut(&mut self) -> [(&'static str, &mut u64); 6] {
        [
            ("me", &mut self.me),
            ("n", &mut self.n),
            ("committed_round", &mut self.committed_round),
            ("blocks", &mut self.blocks),
            ("commands", &mut self.commands),
            ("recovered_round", &mut self.recovered_round),
        ]
    }

    /// The one-line JSON object the replica prints after `REPORT `.
    pub fn encode(&self) -> String {
        let mut copy = *self;
        let scalars = copy.scalars_mut().map(|(name, v)| (name, *v));
        let mut s = String::from("{");
        for (name, v) in scalars.into_iter().chain(self.recovery.fields()) {
            let _ = write!(s, "\"{name}\":{v},");
        }
        let _ = write!(
            s,
            "\"storage\":{},\"net\":{}}}",
            self.storage.to_json(),
            self.net.to_json()
        );
        s
    }

    /// Parses an [`encode`](Self::encode)d line back. Every field is
    /// required.
    ///
    /// # Errors
    ///
    /// [`ReportError`] on a malformed line, a missing key, or a value
    /// that is not an unsigned integer.
    pub fn decode(line: &str) -> Result<Self, ReportError> {
        let (top, rest) = line
            .split_once("\"storage\":")
            .ok_or(ReportError::Missing("storage"))?;
        let (storage, net) = rest
            .split_once(",\"net\":")
            .ok_or(ReportError::Missing("net"))?;
        let net = net
            .trim_end()
            .strip_suffix('}')
            .ok_or(ReportError::Malformed)?;
        let mut r = ReplicaReport::default();
        let top = format!("{}}}", top.trim_end().trim_end_matches(','));
        let top = pairs(&top)?;
        fill(&top, r.scalars_mut())?;
        fill(&top, r.recovery.fields_mut())?;
        fill(&pairs(storage)?, r.storage.fields_mut())?;
        fill(&pairs(net)?, r.net.fields_mut())?;
        Ok(r)
    }
}

/// The `"key":value` pairs of a flat `{…}` object, values unparsed.
fn pairs(obj: &str) -> Result<Vec<(&str, &str)>, ReportError> {
    let inner = obj
        .trim()
        .strip_prefix('{')
        .and_then(|o| o.strip_suffix('}'))
        .ok_or(ReportError::Malformed)?;
    inner
        .split(',')
        .map(|kv| {
            let (k, v) = kv.split_once(':').ok_or(ReportError::Malformed)?;
            let k = k.trim().strip_prefix('"').and_then(|k| k.strip_suffix('"'));
            Ok((k.ok_or(ReportError::Malformed)?, v.trim()))
        })
        .collect()
}

fn fill<'f>(
    pairs: &[(&str, &str)],
    fields: impl IntoIterator<Item = (&'static str, &'f mut u64)>,
) -> Result<(), ReportError> {
    for (name, slot) in fields {
        let (_, raw) = pairs
            .iter()
            .find(|(k, _)| *k == name)
            .ok_or(ReportError::Missing(name))?;
        *slot = raw.parse().map_err(|_| ReportError::NotInteger(name))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A report where every field holds a distinct value, so a
    /// swapped or dropped field cannot round-trip by accident.
    fn sample() -> ReplicaReport {
        let mut r = ReplicaReport::default();
        let mut next = 1u64;
        let mut number = |fields: Vec<(&'static str, &mut u64)>| {
            for (_, v) in fields {
                *v = next;
                next += 1;
            }
        };
        number(r.scalars_mut().into_iter().collect());
        number(r.recovery.fields_mut());
        number(r.storage.fields_mut());
        number(r.net.fields_mut());
        r
    }

    #[test]
    fn encode_then_decode_round_trips() {
        let r = sample();
        assert_eq!(ReplicaReport::decode(&r.encode()), Ok(r));
    }

    #[test]
    fn nested_objects_are_the_counter_renders() {
        let r = sample();
        let line = r.encode();
        assert!(line.contains(&format!("\"storage\":{}", r.storage.to_json())));
        assert!(line.ends_with(&format!("\"net\":{}}}", r.net.to_json())));
    }

    #[test]
    fn missing_restore_verifications_is_an_error() {
        let line = sample()
            .encode()
            .replace("\"restore_verifications\"", "\"restore_reverifications\"");
        assert_eq!(
            ReplicaReport::decode(&line),
            Err(ReportError::Missing("restore_verifications"))
        );
    }

    #[test]
    fn non_integer_and_malformed_lines_are_errors() {
        let line = sample()
            .encode()
            .replacen("\"blocks\":4", "\"blocks\":4.5", 1);
        assert_eq!(
            ReplicaReport::decode(&line),
            Err(ReportError::NotInteger("blocks"))
        );
        let line = sample()
            .encode()
            .replace("\"io_errors\":", "\"io_errors\":-");
        assert_eq!(
            ReplicaReport::decode(&line),
            Err(ReportError::NotInteger("io_errors"))
        );
        assert!(ReplicaReport::decode("{\"me\":1").is_err());
        assert!(ReplicaReport::decode(&format!("{} trailing", sample().encode())).is_err());
    }
}
