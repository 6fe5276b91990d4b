//! `(t, h, n)`-threshold **multi-signatures** — the paper's "approach
//! (ii)" (§2.3), modeled on BLS multi-signatures \[5\].
//!
//! Used for `S_notary` and `S_final` with `h = n − t`: a party
//! authorizes a message by broadcasting an individual signature share; any
//! `h` distinct valid shares aggregate into a compact multi-signature that
//! *identifies its signatories*. A valid `(n−t)`-multi-signature implies
//! at least `n − 2t` honest parties authorized the message — the quorum
//! argument at the heart of notarization and finalization.
//!
//! Aggregation here is field addition (our scheme is linear, like BLS):
//! the aggregate verifies against the sum of the signatories' public keys.

use crate::sig::{MessageDigest, PublicKey, SecretKey, Signature};
use crate::CryptoError;
use crate::Fp;
use std::fmt;
use std::sync::Arc;

/// A fixed-capacity membership bitset over signer indices `0..n`.
///
/// Replaces the quadratic `signers[i + 1..].contains(&s)` duplicate
/// scans in aggregate verification and combine: at n = 1000 a single
/// notarization check walks ~h²/2 ≈ 220k index comparisons the old
/// way, versus h word-indexed bit probes here.
#[derive(Debug, Clone)]
pub(crate) struct SignerBitset {
    words: Vec<u64>,
    n: usize,
}

impl SignerBitset {
    /// An empty set with capacity for indices `0..n`.
    pub(crate) fn new(n: usize) -> Self {
        SignerBitset {
            words: vec![0u64; n.div_ceil(64)],
            n,
        }
    }

    /// Inserts `idx`. Returns `false` (without mutating) when the index
    /// is out of range or already present — the two conditions every
    /// signer-set walk must reject.
    pub(crate) fn insert(&mut self, idx: u32) -> bool {
        let i = idx as usize;
        if i >= self.n {
            return false;
        }
        let (word, bit) = (i / 64, 1u64 << (i % 64));
        if self.words[word] & bit != 0 {
            return false;
        }
        self.words[word] |= bit;
        true
    }

    /// Whether `idx` is in the set.
    pub(crate) fn contains(&self, idx: u32) -> bool {
        let i = idx as usize;
        i < self.n && self.words[i / 64] & (1u64 << (i % 64)) != 0
    }
}

/// An individual contribution to a multi-signature: an ordinary signature
/// tagged with its signer index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MultiSigShare {
    /// 0-based index of the contributing party.
    pub signer: u32,
    /// The party's signature on the message.
    pub signature: Signature,
}

/// An aggregated multi-signature: one group element plus the set of
/// signatories (serialized as a bitmap by the codec).
///
/// The signer set lives behind an [`Arc`] slice, so cloning an
/// aggregate — which the simulator and gossip layers do once per
/// broadcast recipient — is a reference-count bump, never a heap
/// allocation.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct MultiSig {
    /// Aggregate signature value.
    pub signature: Signature,
    /// Sorted, deduplicated signer indices (shared across clones).
    pub signers: Arc<[u32]>,
}

impl fmt::Debug for MultiSig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MultiSig{{signers: {:?}}}", self.signers)
    }
}

/// Public parameters of a `(t, h, n)` multi-signature instance: every
/// party's public key plus the aggregation threshold `h`.
///
/// # Example
///
/// ```
/// use icc_crypto::multisig::MultiSigScheme;
/// use rand::SeedableRng;
/// # fn main() -> Result<(), icc_crypto::CryptoError> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let (scheme, keys) = MultiSigScheme::generate("notary", 3, 4, &mut rng);
/// let shares: Vec<_> = (0..3)
///     .map(|i| scheme.sign_share(&keys[i], i as u32, b"block hash"))
///     .collect();
/// let agg = scheme.combine(b"block hash", shares)?;
/// assert!(scheme.verify(b"block hash", &agg));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MultiSigScheme {
    domain: String,
    threshold: usize,
    public_keys: Vec<PublicKey>,
}

impl MultiSigScheme {
    /// Creates a scheme from existing public keys.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is zero or exceeds the number of keys.
    pub fn new(domain: impl Into<String>, threshold: usize, public_keys: Vec<PublicKey>) -> Self {
        assert!(threshold >= 1, "threshold must be at least 1");
        assert!(
            threshold <= public_keys.len(),
            "threshold {threshold} exceeds party count {}",
            public_keys.len()
        );
        MultiSigScheme {
            domain: domain.into(),
            threshold,
            public_keys,
        }
    }

    /// Generates `n` key pairs and the corresponding scheme. Returns the
    /// scheme and the per-party secret keys.
    pub fn generate(
        domain: impl Into<String>,
        threshold: usize,
        n: usize,
        rng: &mut impl rand::Rng,
    ) -> (Self, Vec<SecretKey>) {
        let secrets: Vec<SecretKey> = (0..n).map(|_| SecretKey::generate(rng)).collect();
        let publics = secrets.iter().map(|s| s.public_key()).collect();
        (Self::new(domain, threshold, publics), secrets)
    }

    /// The aggregation threshold `h`.
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// Number of parties `n`.
    pub fn parties(&self) -> usize {
        self.public_keys.len()
    }

    /// Produces party `signer`'s share on `msg`.
    pub fn sign_share(&self, key: &SecretKey, signer: u32, msg: &[u8]) -> MultiSigShare {
        MultiSigShare {
            signer,
            signature: key.sign(&self.domain, msg),
        }
    }

    /// Hashes `msg` into the field under this scheme's domain — computed
    /// **once** and reusable across every share verification on `msg`
    /// (see [`MessageDigest`]).
    #[inline]
    pub fn digest(&self, msg: &[u8]) -> MessageDigest {
        MessageDigest::compute(&self.domain, msg)
    }

    /// Verifies an individual share against its signer's public key.
    pub fn verify_share(&self, msg: &[u8], share: &MultiSigShare) -> bool {
        self.verify_share_digest(self.digest(msg), share)
    }

    /// Hash-free variant of [`verify_share`](Self::verify_share) against a
    /// pre-computed digest.
    #[inline]
    pub fn verify_share_digest(&self, digest: MessageDigest, share: &MultiSigShare) -> bool {
        match self.public_keys.get(share.signer as usize) {
            Some(pk) => pk.verify_digest(digest, &share.signature),
            None => false,
        }
    }

    /// Aggregates at least `h` valid shares into a multi-signature.
    ///
    /// # Errors
    ///
    /// * [`CryptoError::DuplicateShare`] if a signer appears twice;
    /// * [`CryptoError::UnknownSigner`] on an out-of-range index;
    /// * [`CryptoError::InvalidShare`] if any share fails verification;
    /// * [`CryptoError::InsufficientShares`] if fewer than `h` distinct
    ///   shares are supplied.
    pub fn combine(
        &self,
        msg: &[u8],
        shares: impl IntoIterator<Item = MultiSigShare>,
    ) -> Result<MultiSig, CryptoError> {
        self.combine_with_threshold(msg, shares, self.threshold)
    }

    /// [`combine`](Self::combine) with an explicit aggregation threshold
    /// — the epoch-aware entry point. Under dynamic membership each
    /// epoch has its own quorum `h_e = m_e − t_e` over its member
    /// subset, while the key registry (and hence this scheme) spans the
    /// whole node universe; callers pass the epoch's threshold here.
    pub fn combine_with_threshold(
        &self,
        msg: &[u8],
        shares: impl IntoIterator<Item = MultiSigShare>,
        threshold: usize,
    ) -> Result<MultiSig, CryptoError> {
        // Digest-once: one hash for the whole combine, however many shares.
        let digest = self.digest(msg);
        let mut seen: Vec<MultiSigShare> = Vec::new();
        let mut taken = SignerBitset::new(self.public_keys.len());
        for share in shares {
            if share.signer as usize >= self.public_keys.len() {
                return Err(CryptoError::UnknownSigner {
                    signer: share.signer,
                    n: self.public_keys.len(),
                });
            }
            if !taken.insert(share.signer) {
                return Err(CryptoError::DuplicateShare {
                    signer: share.signer,
                });
            }
            if !self.verify_share_digest(digest, &share) {
                return Err(CryptoError::InvalidShare {
                    signer: share.signer,
                });
            }
            seen.push(share);
        }
        if seen.len() < threshold {
            return Err(CryptoError::InsufficientShares {
                needed: threshold,
                got: seen.len(),
            });
        }
        seen.sort_by_key(|s| s.signer);
        let agg = seen
            .iter()
            .map(|s| s.signature.value())
            .map(Fp::new)
            .sum::<Fp>();
        Ok(MultiSig {
            signature: Signature::from_value(agg.value()),
            signers: seen.iter().map(|s| s.signer).collect(),
        })
    }

    /// Verifies an aggregated multi-signature: the signer set must contain
    /// at least `h` distinct known parties and the aggregate must verify
    /// against the sum of their public keys.
    pub fn verify(&self, msg: &[u8], sig: &MultiSig) -> bool {
        if sig.signers.len() < self.threshold {
            return false;
        }
        // Reject duplicates and unknown indices (bitset: O(k), not O(k²)).
        let mut seen = SignerBitset::new(self.public_keys.len());
        for &s in sig.signers.iter() {
            if !seen.insert(s) {
                return false;
            }
        }
        let agg_pk: Fp = sig
            .signers
            .iter()
            .map(|&s| Fp::new(self.public_keys[s as usize].value()))
            .sum();
        PublicKey::from_value(agg_pk.value()).verify(&self.domain, msg, &sig.signature)
    }

    /// Hash-free variant of [`verify`](Self::verify) against a
    /// pre-computed digest.
    pub fn verify_digest(&self, digest: MessageDigest, sig: &MultiSig) -> bool {
        if sig.signers.len() < self.threshold {
            return false;
        }
        let mut seen = SignerBitset::new(self.public_keys.len());
        for &s in sig.signers.iter() {
            if !seen.insert(s) {
                return false;
            }
        }
        let agg_pk: Fp = sig
            .signers
            .iter()
            .map(|&s| Fp::new(self.public_keys[s as usize].value()))
            .sum();
        PublicKey::from_value(agg_pk.value()).verify_digest(digest, &sig.signature)
    }

    /// Epoch-aware verification: the aggregate must carry at least
    /// `threshold` distinct signers, **every** signer must appear in
    /// `allowed` (a sorted list of member indices — an epoch's member
    /// subset of the key universe), and the aggregate must verify
    /// against the sum of those members' keys. A certificate signed by
    /// enough parties that include even one non-member is rejected: the
    /// quorum argument only holds within the epoch's committee.
    pub fn verify_subset_digest(
        &self,
        digest: MessageDigest,
        sig: &MultiSig,
        threshold: usize,
        allowed: &[u32],
    ) -> bool {
        debug_assert!(
            allowed.windows(2).all(|w| w[0] < w[1]),
            "allowed must be sorted"
        );
        if sig.signers.len() < threshold {
            return false;
        }
        // Membership of `allowed` folds into a second bitset, so the
        // whole walk is O(k) probes instead of a binary search plus a
        // tail scan per signer.
        let mut members = SignerBitset::new(self.public_keys.len());
        for &m in allowed {
            members.insert(m);
        }
        let mut seen = SignerBitset::new(self.public_keys.len());
        for &s in sig.signers.iter() {
            if !members.contains(s) || !seen.insert(s) {
                return false;
            }
        }
        let agg_pk: Fp = sig
            .signers
            .iter()
            .map(|&s| Fp::new(self.public_keys[s as usize].value()))
            .sum();
        PublicKey::from_value(agg_pk.value()).verify_digest(digest, &sig.signature)
    }

    /// Hashing variant of [`verify_subset_digest`](Self::verify_subset_digest).
    pub fn verify_subset(
        &self,
        msg: &[u8],
        sig: &MultiSig,
        threshold: usize,
        allowed: &[u32],
    ) -> bool {
        self.verify_subset_digest(self.digest(msg), sig, threshold, allowed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn scheme(h: usize, n: usize) -> (MultiSigScheme, Vec<SecretKey>) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        MultiSigScheme::generate("test", h, n, &mut rng)
    }

    fn shares(
        s: &MultiSigScheme,
        keys: &[SecretKey],
        idx: &[u32],
        msg: &[u8],
    ) -> Vec<MultiSigShare> {
        idx.iter()
            .map(|&i| s.sign_share(&keys[i as usize], i, msg))
            .collect()
    }

    #[test]
    fn bitset_rejects_out_of_range_and_duplicates() {
        let mut b = SignerBitset::new(130);
        assert!(b.insert(0));
        assert!(b.insert(63));
        assert!(b.insert(64));
        assert!(b.insert(129));
        assert!(!b.insert(129), "duplicate");
        assert!(!b.insert(130), "out of range");
        assert!(b.contains(64));
        assert!(!b.contains(1));
        assert!(!b.contains(1000));
    }

    #[test]
    fn combine_and_verify() {
        let (s, keys) = scheme(3, 4);
        let agg = s
            .combine(b"m", shares(&s, &keys, &[0, 2, 3], b"m"))
            .unwrap();
        assert!(s.verify(b"m", &agg));
        assert_eq!(&agg.signers[..], &[0, 2, 3]);
    }

    #[test]
    fn combine_with_more_than_threshold() {
        let (s, keys) = scheme(3, 5);
        let agg = s
            .combine(b"m", shares(&s, &keys, &[0, 1, 2, 3, 4], b"m"))
            .unwrap();
        assert!(s.verify(b"m", &agg));
        assert_eq!(agg.signers.len(), 5);
    }

    #[test]
    fn insufficient_shares_error() {
        let (s, keys) = scheme(3, 4);
        let err = s
            .combine(b"m", shares(&s, &keys, &[0, 1], b"m"))
            .unwrap_err();
        assert_eq!(err, CryptoError::InsufficientShares { needed: 3, got: 2 });
    }

    #[test]
    fn duplicate_share_error() {
        let (s, keys) = scheme(2, 4);
        let sh = s.sign_share(&keys[1], 1, b"m");
        let err = s.combine(b"m", vec![sh, sh]).unwrap_err();
        assert_eq!(err, CryptoError::DuplicateShare { signer: 1 });
    }

    #[test]
    fn unknown_signer_error() {
        let (s, keys) = scheme(2, 4);
        let bogus = MultiSigShare {
            signer: 99,
            signature: keys[0].sign("test", b"m"),
        };
        let err = s.combine(b"m", vec![bogus]).unwrap_err();
        assert_eq!(err, CryptoError::UnknownSigner { signer: 99, n: 4 });
    }

    #[test]
    fn invalid_share_error() {
        let (s, keys) = scheme(2, 4);
        // Party 0's signature presented as party 1's share.
        let forged = MultiSigShare {
            signer: 1,
            signature: keys[0].sign("test", b"m"),
        };
        let err = s.combine(b"m", vec![forged]).unwrap_err();
        assert_eq!(err, CryptoError::InvalidShare { signer: 1 });
    }

    #[test]
    fn verify_rejects_wrong_message() {
        let (s, keys) = scheme(2, 3);
        let agg = s.combine(b"m", shares(&s, &keys, &[0, 1], b"m")).unwrap();
        assert!(!s.verify(b"other", &agg));
    }

    #[test]
    fn verify_rejects_sub_threshold_signer_set() {
        let (s, keys) = scheme(3, 4);
        // Hand-build an aggregate with only 2 signers.
        let sh = shares(&s, &keys, &[0, 1], b"m");
        let agg_val = Fp::new(sh[0].signature.value()) + Fp::new(sh[1].signature.value());
        let agg = MultiSig {
            signature: Signature::from_value(agg_val.value()),
            signers: vec![0, 1].into(),
        };
        assert!(!s.verify(b"m", &agg));
    }

    #[test]
    fn verify_rejects_duplicate_signers_in_aggregate() {
        let (s, keys) = scheme(2, 3);
        let sh = s.sign_share(&keys[0], 0, b"m");
        let agg_val = Fp::new(sh.signature.value()) + Fp::new(sh.signature.value());
        let agg = MultiSig {
            signature: Signature::from_value(agg_val.value()),
            signers: vec![0, 0].into(),
        };
        assert!(!s.verify(b"m", &agg));
    }

    #[test]
    fn verify_rejects_tampered_aggregate() {
        let (s, keys) = scheme(2, 3);
        let mut agg = s.combine(b"m", shares(&s, &keys, &[0, 1], b"m")).unwrap();
        agg.signature = Signature::from_value(agg.signature.value() ^ 1);
        assert!(!s.verify(b"m", &agg));
    }

    #[test]
    fn notarization_quorum_semantics() {
        // n = 7, t = 2, h = n - t = 5: a valid aggregate implies at least
        // n - 2t = 3 honest signatories.
        let (s, keys) = scheme(5, 7);
        let agg = s
            .combine(b"b", shares(&s, &keys, &[0, 1, 2, 3, 4], b"b"))
            .unwrap();
        assert!(s.verify(b"b", &agg));
        assert!(agg.signers.len() >= 5);
    }

    #[test]
    fn subset_verification_enforces_membership_and_epoch_threshold() {
        // Universe of 7 keys, scheme threshold 5; an "epoch" of members
        // {0,2,3,5} with quorum 3.
        let (s, keys) = scheme(5, 7);
        let members: Vec<u32> = vec![0, 2, 3, 5];
        let agg = s
            .combine_with_threshold(b"m", shares(&s, &keys, &[0, 2, 5], b"m"), 3)
            .unwrap();
        assert!(s.verify_subset(b"m", &agg, 3, &members));
        // Same aggregate fails the universe-level verify (below scheme
        // threshold) — the epoch path is the only one that accepts it.
        assert!(!s.verify(b"m", &agg));
        // Too few signers for the epoch quorum.
        assert!(!s.verify_subset(b"m", &agg, 4, &members));
        // A non-member signer poisons the whole aggregate even though
        // its key is in the universe.
        let outsider = s
            .combine_with_threshold(b"m", shares(&s, &keys, &[0, 1, 2], b"m"), 3)
            .unwrap();
        assert!(!s.verify_subset(b"m", &outsider, 3, &members));
    }

    #[test]
    fn combine_with_threshold_still_verifies_shares() {
        let (s, keys) = scheme(5, 7);
        let forged = MultiSigShare {
            signer: 2,
            signature: keys[0].sign("test", b"m"),
        };
        let good = s.sign_share(&keys[0], 0, b"m");
        assert_eq!(
            s.combine_with_threshold(b"m", vec![good, forged], 2)
                .unwrap_err(),
            CryptoError::InvalidShare { signer: 2 }
        );
    }

    #[test]
    #[should_panic(expected = "exceeds party count")]
    fn bad_threshold_panics() {
        let _ = scheme(5, 4);
    }

    #[test]
    fn verify_digest_agrees_with_verify() {
        let (s, keys) = scheme(3, 4);
        let agg = s
            .combine(b"m", shares(&s, &keys, &[0, 2, 3], b"m"))
            .unwrap();
        let d = s.digest(b"m");
        assert!(s.verify_digest(d, &agg));
        assert!(!s.verify_digest(s.digest(b"other"), &agg));
    }
}
