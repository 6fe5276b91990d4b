//! The ChangeSet step: unvalidated → validated, with per-share
//! verification on memoised digests and the verification cache.
//!
//! [`process_changes`] inspects the unvalidated section and decides,
//! for every queued artifact, whether it moves to the validated
//! section or is removed. It is the **only** place network artifacts
//! are cryptographically verified:
//!
//! * the field digest of a block's signed byte string is computed once
//!   per `(scheme, block)` — all artifacts over the same
//!   [`BlockRef`](icc_types::messages::BlockRef) (authenticator,
//!   notarization/finalization shares and aggregates) reuse it
//!   (the digest-once API, [`MessageDigest`]);
//! * notarization/finalization shares are checked one at a time
//!   ([`verify_share_digest`](icc_crypto::multisig::MultiSigScheme::verify_share_digest))
//!   against that digest, and
//!   only until their block has a quorum: a share for a certified
//!   block, or one arriving after `need` shares are held or accepted,
//!   is dropped unverified ([`RejectReason::RedundantAfterQuorum`]);
//! * the [`VerificationCache`] is consulted first, so an artifact whose
//!   digest verified once never verifies again;
//! * artifacts this party signed itself are trusted outright.
//!
//! Beacon shares can only be verified once the previous beacon value is
//! known (paper §3.4), so they move to the validated section unverified
//! and are checked at combine time.

use icc_crypto::beacon::{beacon_sign_message, BeaconValue};
use icc_crypto::sig::MessageDigest;
use icc_crypto::Hash256;
use icc_types::messages::domains;
use icc_types::Round;
use std::collections::HashMap;

use super::cache::VerificationCache;
use super::unvalidated::{ArtifactId, UnvalidatedArtifact, UnvalidatedEntry, UnvalidatedSection};
use super::validated::ValidatedSection;
use crate::keys::PublicSetup;
use icc_crypto::multisig::MultiSigShare;
use icc_sim::PoolCounters;

/// Why an artifact was removed without entering the validated section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// A block authenticator failed `S_auth` verification (or the
    /// proposer index was unknown).
    BadAuthenticator,
    /// An aggregate or share signature failed verification.
    BadSignature,
    /// The share arrived after the validated section already held a
    /// quorum (or the aggregate itself) for its block: dropped
    /// *unverified* — it can no longer change any decision. Not a
    /// verification failure; counted in
    /// [`PoolCounters::shares_skipped_after_quorum`], not `rejected`.
    RedundantAfterQuorum,
}

/// One mutation of the two-tier pool, produced by [`process_changes`]
/// and executed by [`Pool::apply_changes`](super::Pool::apply_changes).
#[derive(Debug, Clone)]
pub enum ChangeAction {
    /// The artifact verified (or was cached/trusted): move it into the
    /// validated section.
    MoveToValidated(UnvalidatedArtifact),
    /// The artifact failed verification: drop it from the unvalidated
    /// section.
    RemoveFromUnvalidated {
        /// The artifact's id.
        id: ArtifactId,
        /// Why it was dropped.
        reason: RejectReason,
    },
    /// Garbage-collect all sections (and the cache) below `round`.
    PurgeBelow(Round),
}

/// A batch of pool mutations.
pub type ChangeSet = Vec<ChangeAction>;

/// Which signature scheme a memoised digest belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum SchemeKind {
    Auth,
    Notary,
    Finality,
}

/// Computes the ChangeSet for everything currently queued in the
/// unvalidated section, in one pass and in unvalidated-section
/// iteration order, so the pipeline stays deterministic. Pure with
/// respect to the pool sections; only the cache and counters are
/// updated.
pub(crate) fn process_changes(
    unvalidated: &UnvalidatedSection,
    validated: &ValidatedSection,
    setup: &PublicSetup,
    cache: &mut VerificationCache,
    stats: &mut PoolCounters,
) -> ChangeSet {
    let mut changes = ChangeSet::new();
    // The field digest of a block's signed byte string, per (scheme,
    // block). This is the digest-once API: however many artifacts
    // reference one block, each scheme hashes its byte string once.
    let mut digest_memo: HashMap<(SchemeKind, Hash256), MessageDigest> = HashMap::new();
    // Shares verified per (scheme, block) earlier in this ChangeSet:
    // they count towards the quorum like the validated section's.
    let mut accepted: HashMap<(SchemeKind, Hash256), usize> = HashMap::new();

    for entry in unvalidated.entries() {
        let artifact = &entry.artifact;
        let round = artifact.round();

        // Own artifacts were signed locally a moment ago: trusted.
        if entry.trusted {
            cache.record(entry.id, round);
            changes.push(ChangeAction::MoveToValidated(artifact.clone()));
            continue;
        }
        // Cache hit: this exact artifact verified before.
        if cache.contains(&entry.id) {
            stats.verify_cache_hits += 1;
            changes.push(ChangeAction::MoveToValidated(artifact.clone()));
            continue;
        }
        // Combined beacon values are self-certifying against the group
        // key — but only once the *previous* value is known (the signed
        // message chains from it). Until then the artifact stays queued:
        // it gets a decision on a later pass, after its predecessor
        // lands or a purge collects it.
        if let UnvalidatedArtifact::Beacon(b) = artifact {
            if validated.beacon(b.round).is_some() {
                // A verified value for this round already exists; the
                // scheme is unique, so this copy adds nothing.
                changes.push(ChangeAction::RemoveFromUnvalidated {
                    id: entry.id,
                    reason: RejectReason::RedundantAfterQuorum,
                });
                continue;
            }
            let Some(prev) = b.round.prev().and_then(|p| validated.beacon(p)) else {
                continue; // predecessor unknown: leave queued
            };
            let verified = match b.value {
                BeaconValue::Signature(sig) => {
                    stats.verify_calls += 1;
                    let msg = beacon_sign_message(b.round.get(), prev);
                    setup.beacon.verify(&msg, &sig)
                }
                _ => false,
            };
            changes.push(decide(
                entry,
                (verified, RejectReason::BadSignature),
                cache,
                stats,
            ));
            continue;
        }
        // Beacon shares are verified lazily at combine time (§3.4).
        let Some(block_ref) = artifact.block_ref() else {
            changes.push(ChangeAction::MoveToValidated(artifact.clone()));
            continue;
        };
        let block_hash = block_ref.hash;
        let mut digest = |kind: SchemeKind| {
            *digest_memo.entry((kind, block_hash)).or_insert_with(|| {
                let bytes = block_ref.sign_bytes();
                match kind {
                    SchemeKind::Auth => MessageDigest::compute(domains::AUTH, &bytes),
                    SchemeKind::Notary => setup.notary.digest(&bytes),
                    SchemeKind::Finality => setup.finality.digest(&bytes),
                }
            })
        };

        // Per-epoch signer sets: the proposer of a block, every signer
        // of an aggregate, and every share signer must be a *member* of
        // the epoch governing the artifact's round. Departed (or
        // not-yet-joined) parties hold valid universe keys, so the
        // membership gate — not signature verification — is what
        // refuses them.
        let epoch = setup.epoch_of(round);
        let mut share_verdict = |kind: SchemeKind, share: &MultiSigShare| {
            if !epoch.is_member(share.signer) {
                return (false, RejectReason::BadSignature);
            }
            // Early stop: once the block is certified, or its quorum of
            // shares is held or accepted, further shares cannot change
            // any decision. At n = 1000 that turns ~n share
            // verifications per block into ~h: the rest are dropped
            // unverified (never cached, never counted as rejected). This
            // keeps per-round signature work bounded by the threshold
            // instead of the subnet size.
            let (scheme, need, have, certified) = match kind {
                SchemeKind::Notary => (
                    &setup.notary,
                    epoch.notarization_threshold(),
                    validated.notarization_share_count(&block_hash),
                    validated.has_notarization(&block_hash),
                ),
                SchemeKind::Finality => (
                    &setup.finality,
                    epoch.finalization_threshold(),
                    validated.finalization_share_count(&block_hash),
                    validated.has_finalization(&block_hash),
                ),
                SchemeKind::Auth => unreachable!("authenticators are not shares"),
            };
            let key = (kind, block_hash);
            if certified || have + accepted.get(&key).copied().unwrap_or(0) >= need {
                return (false, RejectReason::RedundantAfterQuorum);
            }
            stats.verify_calls += 1;
            let verified = scheme.verify_share_digest(digest(kind), share);
            if verified {
                *accepted.entry(key).or_default() += 1;
            }
            (verified, RejectReason::BadSignature)
        };
        let verdict = match artifact {
            UnvalidatedArtifact::Block {
                block,
                authenticator,
            } => {
                let proposer = block.proposer().get();
                let verified = epoch.is_member(proposer)
                    && setup.auth_keys.get(proposer as usize).is_some_and(|pk| {
                        stats.verify_calls += 1;
                        pk.verify_digest(digest(SchemeKind::Auth), authenticator)
                    });
                (verified, RejectReason::BadAuthenticator)
            }
            UnvalidatedArtifact::Notarization(n) => {
                stats.verify_calls += 1;
                let verified = setup.notary.verify_subset_digest(
                    digest(SchemeKind::Notary),
                    &n.sig,
                    epoch.notarization_threshold(),
                    &epoch.members,
                );
                (verified, RejectReason::BadSignature)
            }
            UnvalidatedArtifact::Finalization(f) => {
                stats.verify_calls += 1;
                let verified = setup.finality.verify_subset_digest(
                    digest(SchemeKind::Finality),
                    &f.sig,
                    epoch.finalization_threshold(),
                    &epoch.members,
                );
                (verified, RejectReason::BadSignature)
            }
            UnvalidatedArtifact::NotarizationShare(s) => {
                share_verdict(SchemeKind::Notary, &s.share)
            }
            UnvalidatedArtifact::FinalizationShare(s) => {
                share_verdict(SchemeKind::Finality, &s.share)
            }
            UnvalidatedArtifact::BeaconShare(_) | UnvalidatedArtifact::Beacon(_) => {
                unreachable!("handled above: no block_ref")
            }
        };
        changes.push(decide(entry, verdict, cache, stats));
    }
    changes
}

/// The action for a verified (`ok`) or refused artifact. A verified
/// artifact is cached; a refused one counts as skipped at quorum or as
/// rejected, by `reason`.
fn decide(
    entry: &UnvalidatedEntry,
    (ok, reason): (bool, RejectReason),
    cache: &mut VerificationCache,
    stats: &mut PoolCounters,
) -> ChangeAction {
    if ok {
        cache.record(entry.id, entry.artifact.round());
        return ChangeAction::MoveToValidated(entry.artifact.clone());
    }
    if reason == RejectReason::RedundantAfterQuorum {
        stats.shares_skipped_after_quorum += 1;
    } else {
        stats.rejected += 1;
    }
    ChangeAction::RemoveFromUnvalidated {
        id: entry.id,
        reason,
    }
}
