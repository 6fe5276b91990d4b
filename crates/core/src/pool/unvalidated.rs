//! The unvalidated section: cheap admission, dedup, per-peer bounds.
//!
//! Artifacts received from the network land here first. Admission does
//! **no** cryptography — only structural checks (plausible round,
//! signer index in range), duplicate suppression by [`ArtifactId`], and
//! a per-peer quota so a flooding peer can only displace its own
//! artifacts. Everything else (signature verification, classification)
//! happens in the ChangeSet step ([`super::changeset`]).

use icc_crypto::threshold::ThresholdSigShare;
use icc_crypto::{hash_parts, Hash256};
use icc_sim::PoolCounters;
use icc_types::block::HashedBlock;
use icc_types::codec::encode_to_vec;
use icc_types::messages::{
    Beacon, BeaconShare, BlockRef, Finalization, FinalizationShare, Notarization, NotarizationShare,
};
use icc_types::Round;
use std::collections::{HashMap, HashSet, VecDeque};

/// The canonical hash identifying one artifact across sections and the
/// verification cache.
pub type ArtifactId = Hash256;

/// The id of a beacon share (also computed at combine time, where the
/// validated section holds bare [`ThresholdSigShare`]s keyed by signer).
pub(crate) fn beacon_share_id(round: Round, share: &ThresholdSigShare) -> ArtifactId {
    hash_parts(
        "pool.artifact.beacon-share",
        &[&round.get().to_le_bytes(), &encode_to_vec(share)],
    )
}

/// One artifact awaiting verification, decomposed from the wire
/// message ([`BlockProposal`](icc_types::messages::BlockProposal)
/// splits into its parent notarization and the block itself).
#[derive(Debug, Clone)]
pub enum UnvalidatedArtifact {
    /// A block body with its proposer's `S_auth` authenticator.
    Block {
        /// The proposed block.
        block: HashedBlock,
        /// The proposer's signature over the block's [`BlockRef`].
        authenticator: icc_crypto::sig::Signature,
    },
    /// An aggregated notarization.
    Notarization(Notarization),
    /// An aggregated finalization.
    Finalization(Finalization),
    /// One party's notarization share.
    NotarizationShare(NotarizationShare),
    /// One party's finalization share.
    FinalizationShare(FinalizationShare),
    /// One party's beacon share (verifiable only at combine time).
    BeaconShare(BeaconShare),
    /// A combined beacon value (self-certifying against the group key,
    /// but only once the *previous* round's value is known).
    Beacon(Beacon),
}

impl UnvalidatedArtifact {
    /// The canonical artifact hash. Blocks are keyed by body hash (the
    /// classifier dedups on it); signed artifacts hash their full
    /// encoding.
    pub fn id(&self) -> ArtifactId {
        match self {
            UnvalidatedArtifact::Block { block, .. } => {
                hash_parts("pool.artifact.block", &[block.hash().as_bytes()])
            }
            UnvalidatedArtifact::Notarization(n) => hash_parts(
                "pool.artifact.notarization",
                &[&n.block_ref.sign_bytes(), &encode_to_vec(&n.sig)],
            ),
            UnvalidatedArtifact::Finalization(f) => hash_parts(
                "pool.artifact.finalization",
                &[&f.block_ref.sign_bytes(), &encode_to_vec(&f.sig)],
            ),
            UnvalidatedArtifact::NotarizationShare(s) => hash_parts(
                "pool.artifact.notarization-share",
                &[&s.block_ref.sign_bytes(), &encode_to_vec(&s.share)],
            ),
            UnvalidatedArtifact::FinalizationShare(s) => hash_parts(
                "pool.artifact.finalization-share",
                &[&s.block_ref.sign_bytes(), &encode_to_vec(&s.share)],
            ),
            UnvalidatedArtifact::BeaconShare(b) => beacon_share_id(b.round, &b.share),
            UnvalidatedArtifact::Beacon(b) => hash_parts(
                "pool.artifact.beacon",
                &[&b.round.get().to_le_bytes(), &encode_to_vec(&b.value)],
            ),
        }
    }

    /// The round the artifact pertains to (drives GC and the epoch
    /// membership gate).
    pub fn round(&self) -> Round {
        match self {
            UnvalidatedArtifact::Block { block, .. } => block.round(),
            UnvalidatedArtifact::Notarization(n) => n.block_ref.round,
            UnvalidatedArtifact::Finalization(f) => f.block_ref.round,
            UnvalidatedArtifact::NotarizationShare(s) => s.block_ref.round,
            UnvalidatedArtifact::FinalizationShare(s) => s.block_ref.round,
            UnvalidatedArtifact::BeaconShare(b) => b.round,
            UnvalidatedArtifact::Beacon(b) => b.round,
        }
    }

    /// The party the artifact is attributed to, for per-peer quotas
    /// (aggregates are attributed to the block's proposer).
    pub fn origin(&self) -> u32 {
        match self {
            UnvalidatedArtifact::Block { block, .. } => block.proposer().get(),
            UnvalidatedArtifact::Notarization(n) => n.block_ref.proposer.get(),
            UnvalidatedArtifact::Finalization(f) => f.block_ref.proposer.get(),
            UnvalidatedArtifact::NotarizationShare(s) => s.share.signer,
            UnvalidatedArtifact::FinalizationShare(s) => s.share.signer,
            UnvalidatedArtifact::BeaconShare(b) => b.share.signer,
            // A combined value carries no signer set; charge the shared
            // synthetic bucket rather than any real party's quota.
            UnvalidatedArtifact::Beacon(_) => u32::MAX,
        }
    }

    /// The block reference signed artifacts are over, if any — the
    /// ChangeSet step keys its digest memo and quorum count by.
    pub fn block_ref(&self) -> Option<BlockRef> {
        match self {
            UnvalidatedArtifact::Block { block, .. } => Some(BlockRef::of_hashed(block)),
            UnvalidatedArtifact::Notarization(n) => Some(n.block_ref),
            UnvalidatedArtifact::Finalization(f) => Some(f.block_ref),
            UnvalidatedArtifact::NotarizationShare(s) => Some(s.block_ref),
            UnvalidatedArtifact::FinalizationShare(s) => Some(s.block_ref),
            UnvalidatedArtifact::BeaconShare(_) | UnvalidatedArtifact::Beacon(_) => None,
        }
    }
}

/// A queued artifact plus its id and trust marker (this party's own
/// artifacts skip verification — they were just signed locally).
#[derive(Debug, Clone)]
pub(crate) struct UnvalidatedEntry {
    pub artifact: UnvalidatedArtifact,
    pub id: ArtifactId,
    pub trusted: bool,
}

/// The bounded, deduplicating admission queue.
#[derive(Debug)]
pub(crate) struct UnvalidatedSection {
    queue: VecDeque<UnvalidatedEntry>,
    ids: HashSet<ArtifactId>,
    per_peer: HashMap<u32, usize>,
    per_peer_cap: usize,
}

impl UnvalidatedSection {
    pub fn new(per_peer_cap: usize) -> UnvalidatedSection {
        UnvalidatedSection {
            queue: VecDeque::new(),
            ids: HashSet::new(),
            per_peer: HashMap::new(),
            per_peer_cap: per_peer_cap.max(1),
        }
    }

    /// Whether an identical artifact is already queued.
    pub fn contains(&self, id: &ArtifactId) -> bool {
        self.ids.contains(id)
    }

    /// Admits `artifact` after structural checks, dedup and the
    /// per-peer bound. Returns `false` (and counts into `stats`) when
    /// it is dropped.
    pub fn admit(
        &mut self,
        artifact: UnvalidatedArtifact,
        trusted: bool,
        n_parties: usize,
        stats: &mut PoolCounters,
    ) -> bool {
        // Structural checks: no crypto, just plausibility.
        let structurally_ok = match &artifact {
            UnvalidatedArtifact::Block { block, .. } => {
                !block.round().is_genesis() && (block.proposer().as_usize() < n_parties)
            }
            UnvalidatedArtifact::NotarizationShare(s) => (s.share.signer as usize) < n_parties,
            UnvalidatedArtifact::FinalizationShare(s) => (s.share.signer as usize) < n_parties,
            UnvalidatedArtifact::BeaconShare(b) => (b.share.signer as usize) < n_parties,
            // Non-genesis rounds only ever carry Signature values; the
            // genesis seed is baked into every party's setup.
            UnvalidatedArtifact::Beacon(b) => {
                !b.round.is_genesis()
                    && matches!(b.value, icc_crypto::beacon::BeaconValue::Signature(_))
            }
            UnvalidatedArtifact::Notarization(_) | UnvalidatedArtifact::Finalization(_) => true,
        };
        if !structurally_ok {
            stats.rejected += 1;
            return false;
        }
        let id = artifact.id();
        if !self.ids.insert(id) {
            stats.duplicates_dropped += 1;
            return false;
        }
        // Per-peer quota: a flooding peer evicts its own oldest artifact.
        let origin = artifact.origin();
        let count = self.per_peer.entry(origin).or_insert(0);
        if *count >= self.per_peer_cap {
            if let Some(pos) = self
                .queue
                .iter()
                .position(|e| e.artifact.origin() == origin)
            {
                let evicted = self.queue.remove(pos).expect("position just found");
                self.ids.remove(&evicted.id);
                stats.unvalidated_evictions += 1;
            }
        } else {
            *count += 1;
        }
        self.queue.push_back(UnvalidatedEntry {
            artifact,
            id,
            trusted,
        });
        true
    }

    /// Iterates the queued entries in admission order.
    pub fn entries(&self) -> impl Iterator<Item = &UnvalidatedEntry> {
        self.queue.iter()
    }

    /// Removes the entry with `id`, returning its artifact.
    pub fn remove(&mut self, id: &ArtifactId) -> Option<UnvalidatedArtifact> {
        let pos = self.queue.iter().position(|e| e.id == *id)?;
        let entry = self.queue.remove(pos).expect("position just found");
        self.ids.remove(id);
        if let Some(c) = self.per_peer.get_mut(&entry.artifact.origin()) {
            *c = c.saturating_sub(1);
        }
        Some(entry.artifact)
    }

    /// Drops queued artifacts of rounds strictly below `round`.
    pub fn purge_below(&mut self, round: Round) {
        let ids = &mut self.ids;
        let per_peer = &mut self.per_peer;
        self.queue.retain(|e| {
            let keep = e.artifact.round() >= round;
            if !keep {
                ids.remove(&e.id);
                if let Some(c) = per_peer.get_mut(&e.artifact.origin()) {
                    *c = c.saturating_sub(1);
                }
            }
            keep
        });
    }

    /// Number of artifacts awaiting processing.
    pub fn len(&self) -> usize {
        self.queue.len()
    }
}
