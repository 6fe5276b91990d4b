//! Certified catch-up: the package a lagging replica fetches to
//! fast-forward, and the recovery observability counters.
//!
//! A replica that restarts (or heals from a long partition) can be many
//! rounds behind. Re-flooding every historical artifact would be both
//! expensive and — under the gossip layer's advert dedup — impossible:
//! peers only advertise *live* artifacts. Instead the replica fetches a
//! [`CatchUpPackage`]: the sender's latest finalized block plus the
//! *certificates* (notarization + finalization) proving it, and the
//! random-beacon chain segment the requester is missing.
//!
//! Safety does not rest on trusting the sender. Every certificate is
//! verified against the subnet's public keys before anything is
//! installed (see `Pool::verify_and_install_catch_up`): the
//! finalization proves `n − t` parties finalized the block (P2 then
//! pins the whole prefix), the notarization lets honest children
//! validate against it, the authenticator pins the proposer, and each
//! beacon value is the unique threshold signature over its predecessor
//! — a forged or truncated package from a Byzantine peer is rejected
//! wholesale and the requester retries elsewhere.

//!
//! With dynamic membership the package also certifies *across epoch
//! boundaries*: a requester that slept through one or more reshares
//! receives one [`EpochTransition`] per crossed boundary — a
//! finalization from the *outgoing* epoch, verified under that epoch's
//! signer set — forming a certificate chain from the requester's last
//! known epoch to the epoch of the packaged block. A forged link (bad
//! signature, wrong signer set, out-of-epoch round) or a missing link
//! rejects the whole package.

use icc_crypto::beacon::BeaconValue;
use icc_types::codec::{CodecError, Decode, Encode, Reader};
use icc_types::messages::{BlockProposal, Finalization, Notarization};
use icc_types::Round;
use std::fmt;

/// One link of the cross-epoch certificate chain: a certified block of
/// the epoch *before* `epoch`, vouching for the handoff into `epoch`.
///
/// Both certificates reference the same block — the highest finalized
/// round of the outgoing epoch — and are verified under the *outgoing*
/// epoch's member set and quorum (the keys the requester can already
/// trust), which is what lets a replica walk forward through reshares
/// it slept through.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochTransition {
    /// The epoch being entered (the certificates are from `epoch − 1`).
    pub epoch: u64,
    /// Notarization of the handoff block.
    pub notarization: Notarization,
    /// Finalization of the handoff block — the actual handoff
    /// certificate.
    pub finalization: Finalization,
}

impl EpochTransition {
    /// The round of the certified handoff block.
    pub fn round(&self) -> Round {
        self.finalization.block_ref.round
    }

    /// Simulator-metered wire size (8-byte epoch + both certificates).
    pub fn encoded_len(&self) -> usize {
        8 + self.notarization.encoded_len() + self.finalization.encoded_len()
    }
}

impl Encode for EpochTransition {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.epoch.encode(buf);
        self.notarization.encode(buf);
        self.finalization.encode(buf);
    }

    fn encoded_len(&self) -> usize {
        8 + Encode::encoded_len(&self.notarization) + Encode::encoded_len(&self.finalization)
    }
}

impl Decode for EpochTransition {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(EpochTransition {
            epoch: u64::decode(r)?,
            notarization: Notarization::decode(r)?,
            finalization: Finalization::decode(r)?,
        })
    }
}

/// A certified fast-forward package: the serving replica's latest
/// finalized block, the certificates proving it, and the beacon chain
/// segment `(have_round, latest]` the requester is missing.
#[derive(Debug, Clone, PartialEq)]
pub struct CatchUpPackage {
    /// The latest finalized block with its authenticator
    /// (`parent_notarization` is not needed — the finalization certifies
    /// the whole prefix — and is left `None`).
    pub proposal: BlockProposal,
    /// The `n − t` notarization of that block (children validate
    /// against it).
    pub notarization: Notarization,
    /// The `n − t` finalization of that block — the actual certificate
    /// of catch-up safety.
    pub finalization: Finalization,
    /// Consecutive beacon values starting at the requester's
    /// `have_round + 1`, extending at least one round past the
    /// finalized block (needed to enter the next round).
    pub beacons: Vec<(Round, BeaconValue)>,
    /// The cross-epoch certificate chain: one entry per epoch boundary
    /// between the requester's `have_round` and the packaged block, in
    /// ascending epoch order. Empty when no boundary is crossed.
    pub transitions: Vec<EpochTransition>,
}

impl CatchUpPackage {
    /// The round of the packaged finalized block.
    pub fn round(&self) -> Round {
        self.proposal.block.round()
    }

    /// Approximate wire size in bytes (metered as catch-up traffic).
    ///
    /// This is the *simulator metering* size: beacon entries are charged
    /// 17 bytes (8-byte round + tag + 8-byte signature value), matching
    /// what a compact deployment encoding would cost. The byte-exact
    /// transport encoding (the [`Encode`] impl below, used by `icc-net`)
    /// carries full 48-byte signature wire forms, so its length differs;
    /// metering stays on this method so historical traffic numbers are
    /// not perturbed.
    pub fn encoded_len(&self) -> usize {
        // Each beacon entry: 8-byte round + tag + 8-byte signature value.
        self.proposal.encoded_len()
            + self.notarization.encoded_len()
            + self.finalization.encoded_len()
            + self.beacons.len() * 17
            + self
                .transitions
                .iter()
                .map(EpochTransition::encoded_len)
                .sum::<usize>()
    }
}

impl Encode for CatchUpPackage {
    /// Canonical transport encoding: proposal, notarization,
    /// finalization, then the beacon segment as a counted sequence of
    /// `(round, value)` pairs.
    fn encode(&self, buf: &mut Vec<u8>) {
        self.proposal.encode(buf);
        self.notarization.encode(buf);
        self.finalization.encode(buf);
        (self.beacons.len() as u64).encode(buf);
        for (round, value) in &self.beacons {
            round.encode(buf);
            value.encode(buf);
        }
        (self.transitions.len() as u64).encode(buf);
        for t in &self.transitions {
            t.encode(buf);
        }
    }

    fn encoded_len(&self) -> usize {
        let beacons: usize = self
            .beacons
            .iter()
            .map(|(r, v)| Encode::encoded_len(r) + Encode::encoded_len(v))
            .sum();
        let transitions: usize = self.transitions.iter().map(Encode::encoded_len).sum();
        self.proposal.encoded_len()
            + Encode::encoded_len(&self.notarization)
            + Encode::encoded_len(&self.finalization)
            + 8
            + beacons
            + 8
            + transitions
    }
}

impl Decode for CatchUpPackage {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let proposal = BlockProposal::decode(r)?;
        let notarization = Notarization::decode(r)?;
        let finalization = Finalization::decode(r)?;
        let count = u64::decode(r)?;
        if count > icc_types::codec::MAX_LEN {
            return Err(CodecError::LengthOverflow { len: count });
        }
        let mut beacons = Vec::with_capacity((count as usize).min(1024));
        for _ in 0..count {
            beacons.push((Round::decode(r)?, BeaconValue::decode(r)?));
        }
        let tcount = u64::decode(r)?;
        if tcount > icc_types::codec::MAX_LEN {
            return Err(CodecError::LengthOverflow { len: tcount });
        }
        let mut transitions = Vec::with_capacity((tcount as usize).min(1024));
        for _ in 0..tcount {
            transitions.push(EpochTransition::decode(r)?);
        }
        Ok(CatchUpPackage {
            proposal,
            notarization,
            finalization,
            beacons,
            transitions,
        })
    }
}

/// Why a catch-up package was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CatchUpError {
    /// The package's round is not ahead of this replica's `kmax`.
    Stale,
    /// The certificates do not all reference the packaged block.
    Mismatched,
    /// The proposer's authenticator failed verification.
    BadAuthenticator,
    /// The notarization aggregate failed verification.
    BadNotarization,
    /// The finalization aggregate failed verification.
    BadFinalization,
    /// The beacon segment is non-consecutive, unanchored, or contains a
    /// value that fails threshold verification.
    BadBeacon,
    /// The beacon segment stops before the round after the finalized
    /// block, so the requester could not enter the next round.
    Truncated,
    /// An epoch-transition certificate failed verification: mismatched
    /// references, a round outside the outgoing epoch, out-of-order
    /// links, or a signature that does not verify under the outgoing
    /// epoch's signer set.
    BadTransition,
    /// The package crosses one or more epoch boundaries but is missing
    /// the transition certificate for at least one of them.
    MissingTransition,
}

impl fmt::Display for CatchUpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CatchUpError::Stale => "package not ahead of local kmax",
            CatchUpError::Mismatched => "certificates reference different blocks",
            CatchUpError::BadAuthenticator => "authenticator failed verification",
            CatchUpError::BadNotarization => "notarization failed verification",
            CatchUpError::BadFinalization => "finalization failed verification",
            CatchUpError::BadBeacon => "beacon segment invalid",
            CatchUpError::Truncated => "beacon segment truncated",
            CatchUpError::BadTransition => "epoch transition certificate invalid",
            CatchUpError::MissingTransition => "epoch transition certificate missing",
        };
        f.write_str(s)
    }
}

impl std::error::Error for CatchUpError {}
