//! Custody of the threshold secret key across committees.
//!
//! The threshold key `tsk` is Shamir-shared among the current
//! committee. A committee holding it can, each role speaking once:
//!
//! - **decrypt** ciphertexts publicly ([`TskChain::decrypt`], the
//!   paper's `Decrypt` / Protocol 2): each role posts cleartext
//!   partial decryptions with correctness NIZKs;
//! - **re-encrypt** ciphertexts to a target public key
//!   ([`TskChain::reencrypt`], the paper's `Re-encrypt` / Protocol 1):
//!   each role posts its partial decryptions *encrypted* under the
//!   target key, again with NIZKs — only the target learns the value;
//! - **hand over** the key to the next committee
//!   ([`TskChain::handover`], `TKRes`/`TKRec`): each role posts
//!   Feldman commitments plus subshares encrypted to the next
//!   committee's role keys, with a re-share NIZK; everyone derives the
//!   next verification keys publicly.
//!
//! Malicious roles post garbage (their proofs fail), silent/crashed
//! roles post nothing; all consumers filter to proof-verified
//! contributions, which under `t < n/2` always suffice — this is where
//! guaranteed output delivery comes from.

use std::collections::BTreeMap;
use std::sync::Arc;

use rand::{Rng, RngCore, SeedableRng};

use yoso_field::PrimeField;
use yoso_runtime::{ActiveAttack, Behavior, BulletinBoard, Committee, LeakLog};
use yoso_the::mock::{Ciphertext, KeyShare, LinearPke, MockTe, PkeKeyPair, PkePublicKey, PublicKey};
use yoso_the::nizk::{
    self, pdec_proof, reshare_proof, verify_pdec_proof, verify_reshare_proof, PdecProof,
    ReshareProof,
};

use crate::messages::{
    self, Post, CT_ELEMENTS, ENC_PDEC_PROOF_ELEMENTS, PDEC_ELEMENTS, PDEC_PROOF_ELEMENTS,
};
use crate::{ExecutionConfig, ProtocolError};

/// One provider's encrypted partial decryption for a re-encrypted
/// value.
#[derive(Debug, Clone)]
pub struct ProviderPost<F: PrimeField> {
    /// 0-based index of the providing committee member.
    pub provider: usize,
    /// The partial decryption, encrypted under the target's key.
    pub ct: Ciphertext<F>,
    /// Whether the provider's NIZK verified.
    pub valid: bool,
}

/// A value re-encrypted from `tpk` to a target public key: the
/// collection of encrypted partial decryptions posted on the board.
///
/// The target opens it with its secret key; *anyone* can compute the
/// public opening coefficients `(a, b)` with `value = a − sk·b`, which
/// is what the online μ-share NIZK binds against.
#[derive(Debug, Clone)]
pub struct ReencryptedValue<F: PrimeField> {
    /// The target public key the partials are encrypted under.
    pub target: PkePublicKey<F>,
    /// The `v` component of the source ciphertext (public on the
    /// board): the opened value is `source_v − s·u_source`.
    pub source_v: F,
    /// Provider posts (all of them; consumers filter by `valid`).
    posts: Vec<ProviderPost<F>>,
    /// Threshold: `t + 1` valid posts are needed to open.
    t: usize,
    /// Lagrange-at-0 weights of the canonical subset's providers,
    /// shared by every value re-encrypted over the same provider set
    /// (`None` when fewer than `t + 1` posts are valid).
    weights: Option<Arc<[F]>>,
}

impl<F: PrimeField> ReencryptedValue<F> {
    /// The canonical opening subset: the first `t + 1` valid posts.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::NotEnoughContributions`] if fewer than
    /// `t + 1` posts are valid.
    pub fn canonical_subset(&self) -> Result<Vec<&ProviderPost<F>>, ProtocolError> {
        let subset: Vec<&ProviderPost<F>> =
            self.posts.iter().filter(|p| p.valid).take(self.t + 1).collect();
        if subset.len() < self.t + 1 {
            return Err(ProtocolError::NotEnoughContributions {
                step: "re-encrypt opening",
                got: subset.len(),
                need: self.t + 1,
            });
        }
        Ok(subset)
    }

    /// The public opening coefficients `(a, b)` such that the
    /// underlying value equals `a − sk·b` for the target's secret
    /// key `sk`.
    ///
    /// The Lagrange recombination of the partial decryptions happens
    /// *inside* the ciphertexts: combining `(u_j, v_j)` with
    /// coefficients `w_j` yields an encryption of the combined partial
    /// `s·u_ct`, so `value = v_ct − (a_v − sk·a_u)` … folded into
    /// `(a, b)` below. The weights were computed once per provider set
    /// when the value was re-encrypted, so this is an O(t) dot product.
    ///
    /// # Errors
    ///
    /// Propagates [`Self::canonical_subset`] errors.
    pub fn opening_coefficients(&self) -> Result<(F, F), ProtocolError> {
        let subset = self.canonical_subset()?;
        let Some(w) = self.weights.as_deref() else {
            return Err(ProtocolError::Invariant("re-encrypted value lacks its opening weights"));
        };
        // Combined encrypted partial: Σ w_j (u_j, v_j) encrypts s·u_ct.
        let mut a_u = F::ZERO;
        let mut a_v = F::ZERO;
        for (p, &wj) in subset.iter().zip(w) {
            a_u += wj * p.ct.u;
            a_v += wj * p.ct.v;
        }
        // s·u_ct = a_v − sk·a_u; value = source_v − s·u_ct
        //        = (source_v − a_v) + sk·a_u  =  a − sk·b
        Ok((self.source_v - a_v, -a_u))
    }

    /// Opens the value with the target's secret key.
    ///
    /// # Errors
    ///
    /// Propagates [`Self::opening_coefficients`] errors.
    pub fn open(&self, sk_scalar: F) -> Result<F, ProtocolError> {
        let (a, b) = self.opening_coefficients()?;
        Ok(a - sk_scalar * b)
    }
}

/// Lagrange-at-0 weights keyed by the actual provider set, so every
/// item combined over the same providers shares one O(t²) weight
/// computation. Malicious, fail-stopped and share-less members change
/// the set; it is never assumed to be `0..=t`.
struct ZeroWeightCache<F: PrimeField> {
    sets: BTreeMap<Vec<usize>, Arc<[F]>>,
}

impl<F: PrimeField> ZeroWeightCache<F> {
    fn new() -> Self {
        ZeroWeightCache { sets: BTreeMap::new() }
    }

    /// The weights for `providers` (0-based member indices).
    fn weights(&mut self, providers: &[usize]) -> Result<Arc<[F]>, ProtocolError> {
        if let Some(w) = self.sets.get(providers) {
            return Ok(Arc::clone(w));
        }
        let w: Arc<[F]> = MockTe::<F>::zero_weights(providers)?.into();
        self.sets.insert(providers.to_vec(), Arc::clone(&w));
        Ok(w)
    }
}

/// One committee's posted `tsk` re-share (handover) message.
#[derive(Debug, Clone)]
pub struct PostedReshare<F: PrimeField> {
    /// The providing member of the outgoing committee.
    pub from: usize,
    /// Feldman commitments to the sub-sharing polynomial.
    pub commitments: Vec<F>,
    /// Subshares encrypted to the next committee's role keys.
    pub enc_subshares: Vec<Ciphertext<F>>,
    /// Whether the re-share NIZK verified.
    pub valid: bool,
}

/// The threshold key's custody state: the public key (with the current
/// committee's verification keys) plus each current member's share.
// lint:redact: the derived Debug delegates to KeyShare's redacted impl
// (party index only), so no share values are printed.
#[derive(Debug, Clone)]
pub struct TskChain<F: PrimeField> {
    /// The threshold public key (vks track the current committee).
    pub pk: PublicKey<F>,
    /// The current committee's shares (`None` = member never received
    /// or lost its share — e.g. crashed during handover).
    shares: Vec<Option<KeyShare<F>>>,
    /// Custody epoch (increments at each handover; used to label which
    /// sharing of `tsk` a corrupted member exposes).
    epoch: u64,
    /// Adversarial-view recorder (empty by default).
    leak: LeakLog,
}

impl<F: PrimeField> TskChain<F> {
    /// Initializes the chain by running `TKGen`, giving the shares to
    /// the first committee.
    ///
    /// # Errors
    ///
    /// Propagates key-generation errors.
    pub fn keygen<R: Rng + ?Sized>(rng: &mut R, n: usize, t: usize) -> Result<Self, ProtocolError> {
        let (pk, shares) = MockTe::keygen(rng, n, t)?;
        Ok(TskChain {
            pk,
            shares: shares.into_iter().map(Some).collect(),
            epoch: 0,
            leak: LeakLog::new(),
        })
    }

    /// Builds a chain from an externally generated key (e.g. the
    /// dealer-free DKG of [`crate::dkg`]).
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::BadParameters`] unless there is exactly
    /// one share slot per member (`shares.len() == pk.n`).
    pub fn from_parts(
        pk: PublicKey<F>,
        shares: Vec<Option<KeyShare<F>>>,
    ) -> Result<Self, ProtocolError> {
        if shares.len() != pk.n {
            return Err(ProtocolError::BadParameters(format!(
                "a {}-member key needs one share slot per member",
                pk.n
            )));
        }
        Ok(TskChain { pk, shares, epoch: 0, leak: LeakLog::new() })
    }

    /// Attaches an adversarial-view recorder: corrupted (malicious or
    /// leaky) committee members will log their exposure of `tsk`
    /// shares, labelled by custody epoch.
    pub fn set_leak_log(&mut self, log: LeakLog) {
        self.leak = log;
    }

    /// Records the `tsk`-share exposures of a committee's corrupted
    /// members (called once per operation the committee performs).
    fn record_leaks(&self, committee: &Committee) {
        for i in 0..committee.n() {
            if matches!(committee.behavior(i), Behavior::Malicious(_) | Behavior::Leaky)
                && self.shares[i].is_some()
            {
                self.leak.record(committee.role(i), format!("tsk/epoch{}", self.epoch), i);
            }
        }
    }

    /// The threshold `t`.
    pub fn t(&self) -> usize {
        self.pk.t
    }

    /// Test/diagnostic access to a member's share.
    pub fn share_of(&self, i: usize) -> Option<&KeyShare<F>> {
        self.shares.get(i).and_then(|s| s.as_ref())
    }

    /// Public `Decrypt` of a batch of ciphertexts by `committee`
    /// (paper Protocol 2, minus the handover — call
    /// [`Self::handover`] separately once per committee).
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::NotEnoughContributions`] if fewer than
    /// `t + 1` partials verify for some ciphertext.
    pub fn decrypt<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        board: &BulletinBoard<Post>,
        committee: &Committee,
        cfg: &ExecutionConfig,
        phase: &'static str,
        cts: &[Ciphertext<F>],
    ) -> Result<Vec<F>, ProtocolError> {
        let sb = crate::workitem::ShardedBoard::new(board, cfg.partition)?;
        self.decrypt_in(rng, &sb, committee, cfg, phase, cts)
    }

    /// [`Self::decrypt`] posting through an existing sharded board.
    ///
    /// Each member runs from its own child RNG so a role-sharded
    /// worker that skips proof work for non-owned members still draws
    /// identical values everywhere.
    pub(crate) fn decrypt_in<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        sb: &crate::workitem::ShardedBoard<'_>,
        committee: &Committee,
        cfg: &ExecutionConfig,
        phase: &'static str,
        cts: &[Ciphertext<F>],
    ) -> Result<Vec<F>, ProtocolError> {
        self.record_leaks(committee);
        let mut partials: Vec<Vec<(usize, F, bool)>> = vec![Vec::new(); cts.len()];
        for i in 0..committee.n() {
            let Some(share) = &self.shares[i] else { continue };
            let behavior = committee.behavior(i);
            if !behavior.participates_at(crate::engine::phase_index(phase)) {
                continue;
            }
            let mut mrng = rand::rngs::StdRng::seed_from_u64(rng.next_u64());
            let owned = cfg.partition.owns(i);
            let prove = cfg.produce_proofs && owned;
            for (c_idx, ct) in cts.iter().enumerate() {
                let (value, valid) = match behavior {
                    Behavior::Honest | Behavior::Leaky | Behavior::FailStop { .. } => {
                        let pd = MockTe::partial_decrypt(share, ct);
                        let ok = if prove {
                            let proof =
                                pdec_proof(&mut mrng, &self.pk, ct, i, share.value, pd.value);
                            verify_pdec_proof(&self.pk, ct, i, pd.value, &proof)
                        } else {
                            true
                        };
                        (pd.value, ok)
                    }
                    Behavior::Malicious(attack) => {
                        let wrong = match attack {
                            ActiveAttack::BadProof => MockTe::partial_decrypt(share, ct).value,
                            _ => F::random(&mut mrng),
                        };
                        let ok = if prove {
                            let proof = PdecProof::garbage(&mut mrng);
                            verify_pdec_proof(&self.pk, ct, i, wrong, &proof)
                        } else {
                            false
                        };
                        (wrong, ok)
                    }
                };
                sb.post(
                    owned,
                    committee.role(i),
                    Post::PartialDec,
                    phase,
                    PDEC_ELEMENTS + PDEC_PROOF_ELEMENTS,
                )?;
                partials[c_idx].push((i, value, valid));
            }
        }

        let mut cache = ZeroWeightCache::new();
        let mut providers = Vec::with_capacity(self.pk.t + 1);
        let mut values = Vec::with_capacity(self.pk.t + 1);
        cts.iter()
            .zip(partials)
            .map(|(ct, posts)| {
                providers.clear();
                values.clear();
                let valid = posts.iter().filter(|(_, _, ok)| *ok).take(self.pk.t + 1);
                for &(party, value, _) in valid {
                    providers.push(party);
                    values.push(value);
                }
                if providers.len() < self.pk.t + 1 {
                    return Err(ProtocolError::NotEnoughContributions {
                        step: "threshold decrypt",
                        got: providers.len(),
                        need: self.pk.t + 1,
                    });
                }
                let w = cache.weights(&providers)?;
                Ok(MockTe::combine_with(ct, &w, values.iter().copied()))
            })
            .collect()
    }

    /// `Re-encrypt` of a batch of `(target, ciphertext)` pairs by
    /// `committee` (paper Protocol 1, minus the handover).
    ///
    /// Items are independent, so each one runs from its own child RNG
    /// (seeds drawn sequentially from `rng`, one per item) on up to
    /// `cfg.num_threads` workers — the same buffer-and-replay shape as
    /// Beaver triple generation. Each worker owns a
    /// [`crate::parallel::PostBuffer`]; buffers are flushed in item
    /// order, so the board transcript is byte-identical at any thread
    /// count.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::Transport`] if replaying the buffered
    /// posts onto the board fails (remote backends only).
    pub fn reencrypt<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        board: &BulletinBoard<Post>,
        committee: &Committee,
        cfg: &ExecutionConfig,
        phase: &'static str,
        items: &[(PkePublicKey<F>, Ciphertext<F>)],
    ) -> Result<Vec<ReencryptedValue<F>>, ProtocolError> {
        let sb = crate::workitem::ShardedBoard::new(board, cfg.partition)?;
        self.reencrypt_in(rng, &sb, committee, cfg, phase, items)
    }

    /// [`Self::reencrypt`] posting through an existing sharded board.
    ///
    /// Inside each item, every member additionally runs from its own
    /// child RNG (seeded from the item RNG), so a role-sharded worker
    /// skipping non-owned members' proof work draws identical
    /// ciphertexts for all of them.
    pub(crate) fn reencrypt_in<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        sb: &crate::workitem::ShardedBoard<'_>,
        committee: &Committee,
        cfg: &ExecutionConfig,
        phase: &'static str,
        items: &[(PkePublicKey<F>, Ciphertext<F>)],
    ) -> Result<Vec<ReencryptedValue<F>>, ProtocolError> {
        self.record_leaks(committee);
        let seeds: Vec<u64> = items.iter().map(|_| rng.next_u64()).collect();
        let worker_out = crate::parallel::par_map(cfg.num_threads, &seeds, |item_idx, &seed| {
            let mut irng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut posts = crate::parallel::PostBuffer::new();
            let (target, ct) = &items[item_idx];
            let mut val = ReencryptedValue {
                target: *target,
                source_v: ct.v,
                posts: Vec::new(),
                t: self.pk.t,
                weights: None,
            };
            for i in 0..committee.n() {
                let Some(share) = &self.shares[i] else { continue };
                let behavior = committee.behavior(i);
                if !behavior.participates_at(crate::engine::phase_index(phase)) {
                    continue;
                }
                let mut mrng = rand::rngs::StdRng::seed_from_u64(irng.next_u64());
                let owned = cfg.partition.owns(i);
                let prove = cfg.produce_proofs && owned;
                let (enc, valid) = match behavior {
                    Behavior::Honest | Behavior::Leaky | Behavior::FailStop { .. } => {
                        let d = share.value * ct.u;
                        let (enc, r) = LinearPke::encrypt(&mut mrng, target, d);
                        let ok = if prove {
                            let proof = encrypted_partial_proof(
                                &mut mrng, &self.pk, i, ct, target, &enc, d, r,
                            );
                            verify_encrypted_partial(&self.pk, i, ct, target, &enc, &proof)
                        } else {
                            true
                        };
                        (enc, ok)
                    }
                    Behavior::Malicious(attack) => {
                        let d = match attack {
                            ActiveAttack::BadProof => share.value * ct.u,
                            _ => F::random(&mut mrng),
                        };
                        let (enc, _) = LinearPke::encrypt(&mut mrng, target, d);
                        let ok = if prove {
                            let proof = nizk::LinearProof::<F> {
                                commitment: vec![F::random(&mut mrng); 3],
                                response: vec![F::random(&mut mrng); 2],
                            };
                            verify_encrypted_partial(&self.pk, i, ct, target, &enc, &proof)
                        } else {
                            false
                        };
                        (enc, ok)
                    }
                };
                posts.record(
                    owned,
                    committee.role(i),
                    Post::EncryptedPartial,
                    phase,
                    CT_ELEMENTS + ENC_PDEC_PROOF_ELEMENTS,
                );
                val.posts.push(ProviderPost { provider: i, ct: enc, valid });
            }
            (val, posts)
        });
        let mut cache = ZeroWeightCache::new();
        let mut out = Vec::with_capacity(items.len());
        for (mut val, posts) in worker_out {
            sb.flush_buffer(posts)?;
            if let Ok(subset) = val.canonical_subset() {
                let providers: Vec<usize> = subset.iter().map(|p| p.provider).collect();
                val.weights = Some(cache.weights(&providers)?);
            }
            out.push(val);
        }
        Ok(out)
    }

    /// Hands the key over to `next` (whose members' role key pairs are
    /// `next_keys`): `TKRes` + `TKRec` + public derivation of the next
    /// verification keys.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::NotEnoughContributions`] if fewer than
    /// `t + 1` re-share messages verify, and
    /// [`ProtocolError::BadParameters`] if `next_keys` does not hold
    /// one key pair per member.
    pub fn handover<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        board: &BulletinBoard<Post>,
        outgoing: &Committee,
        cfg: &ExecutionConfig,
        phase: &'static str,
        next_keys: &[PkeKeyPair<F>],
    ) -> Result<(), ProtocolError> {
        let sb = crate::workitem::ShardedBoard::new(board, cfg.partition)?;
        self.handover_in(rng, &sb, outgoing, cfg, phase, next_keys)
    }

    /// [`Self::handover`] posting through an existing sharded board,
    /// with per-member child RNGs (same sharding contract as
    /// [`Self::decrypt_in`]).
    ///
    /// Each participating member's seed is drawn in member order; the
    /// members then deal their subshares on up to `cfg.num_threads`
    /// workers and post in member order, so the transcript is
    /// byte-identical at any thread count. The providers' Lagrange
    /// weights are computed once and shared by all `n` recombinations
    /// and by the verification-key derivation.
    pub(crate) fn handover_in<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        sb: &crate::workitem::ShardedBoard<'_>,
        outgoing: &Committee,
        cfg: &ExecutionConfig,
        phase: &'static str,
        next_keys: &[PkeKeyPair<F>],
    ) -> Result<(), ProtocolError> {
        self.record_leaks(outgoing);
        let n = self.pk.n;
        let t = self.pk.t;
        if next_keys.len() != n {
            return Err(ProtocolError::BadParameters(format!(
                "tsk handover needs one role key per next-committee member (n = {n})"
            )));
        }
        let recipient_pks: Vec<PkePublicKey<F>> = next_keys.iter().map(|kp| kp.public).collect();

        let phase_idx = crate::engine::phase_index(phase);
        let dealers: Vec<(usize, u64)> = (0..outgoing.n())
            .filter(|&i| {
                self.shares[i].is_some() && outgoing.behavior(i).participates_at(phase_idx)
            })
            .map(|i| (i, rng.next_u64()))
            .collect();
        // Every dealer holds a share, so no message is dropped here.
        let msgs: Vec<PostedReshare<F>> =
            crate::parallel::par_map(cfg.num_threads, &dealers, |_, &(i, seed)| {
                let share = self.shares[i].as_ref()?;
                Some(self.deal_reshare(i, share, seed, outgoing, cfg, &recipient_pks))
            })
            .into_iter()
            .flatten()
            .collect();
        let mut posts = crate::parallel::PostBuffer::new();
        let elements = messages::reshare_elements(n as u64, t as u64);
        for &(i, _) in &dealers {
            let owned = cfg.partition.owns(i);
            posts.record(owned, outgoing.role(i), Post::TskReshare, phase, elements);
        }
        sb.flush_buffer(posts)?;

        let providers: Vec<&PostedReshare<F>> =
            msgs.iter().filter(|m| m.valid).take(t + 1).collect();
        if providers.len() < t + 1 {
            return Err(ProtocolError::NotEnoughContributions {
                step: "tsk handover",
                got: providers.len(),
                need: t + 1,
            });
        }
        let provider_indices: Vec<usize> = providers.iter().map(|m| m.from).collect();
        let weights = MockTe::<F>::zero_weights(&provider_indices)?;

        // Each next-committee member decrypts its subshares and
        // recombines them with the shared weights.
        let mut new_shares = Vec::with_capacity(n);
        for (j, kp) in next_keys.iter().enumerate() {
            let value = providers
                .iter()
                .zip(&weights)
                .map(|(m, &w)| w * LinearPke::decrypt(&kp.secret, &m.enc_subshares[j]))
                .sum();
            new_shares.push(Some(KeyShare { party: j, value }));
        }

        // Public derivation of the next verification keys from the
        // Feldman commitments.
        self.pk.vks =
            MockTe::next_vks(&weights, providers.iter().map(|m| m.commitments.as_slice()), n);
        self.shares = new_shares;
        self.epoch += 1;
        Ok(())
    }

    /// Member `i`'s re-share message: a degree-`t` sub-sharing of its
    /// share, with Feldman commitments and subshares encrypted to
    /// `recipient_pks`, all drawn from the member's child seed. A
    /// malicious member posts random junk that fails verification.
    fn deal_reshare(
        &self,
        i: usize,
        share: &KeyShare<F>,
        seed: u64,
        outgoing: &Committee,
        cfg: &ExecutionConfig,
        recipient_pks: &[PkePublicKey<F>],
    ) -> PostedReshare<F> {
        let (n, t) = (self.pk.n, self.pk.t);
        let mut mrng = rand::rngs::StdRng::seed_from_u64(seed);
        let prove = cfg.produce_proofs && cfg.partition.owns(i);
        match outgoing.behavior(i) {
            Behavior::Honest | Behavior::Leaky | Behavior::FailStop { .. } => {
                // Sample the sub-sharing polynomial explicitly so we
                // can both encrypt subshares and prove.
                let mut coeffs = Vec::with_capacity(t + 1);
                coeffs.push(share.value);
                for _ in 0..t {
                    coeffs.push(F::random(&mut mrng));
                }
                let commitments: Vec<F> = coeffs.iter().map(|&a| a * self.pk.g).collect();
                let mut enc_subshares = Vec::with_capacity(n);
                let mut rands = Vec::with_capacity(n);
                for (m, pk) in recipient_pks.iter().enumerate() {
                    let x = F::from_u64(m as u64 + 1);
                    let sub = coeffs.iter().rev().fold(F::ZERO, |acc, &a| acc * x + a);
                    let (ct, r) = LinearPke::encrypt(&mut mrng, pk, sub);
                    enc_subshares.push(ct);
                    rands.push(r);
                }
                let valid = if prove {
                    let proof = reshare_proof(
                        &mut mrng,
                        &self.pk,
                        &commitments,
                        recipient_pks,
                        &enc_subshares,
                        &coeffs,
                        &rands,
                    );
                    verify_reshare_proof(
                        &self.pk,
                        i,
                        &commitments,
                        recipient_pks,
                        &enc_subshares,
                        &proof,
                    )
                } else {
                    true
                };
                PostedReshare { from: i, commitments, enc_subshares, valid }
            }
            Behavior::Malicious(_) => {
                let commitments: Vec<F> = (0..=t).map(|_| F::random(&mut mrng)).collect();
                let enc_subshares: Vec<Ciphertext<F>> = recipient_pks
                    .iter()
                    .map(|pk| {
                        let junk = F::random(&mut mrng);
                        LinearPke::encrypt(&mut mrng, pk, junk).0
                    })
                    .collect();
                let valid = if prove {
                    let proof = ReshareProof::<F>::garbage(&mut mrng, n, t);
                    verify_reshare_proof(
                        &self.pk,
                        i,
                        &commitments,
                        recipient_pks,
                        &enc_subshares,
                        &proof,
                    )
                } else {
                    false
                };
                PostedReshare { from: i, commitments, enc_subshares, valid }
            }
        }
    }
}

/// Builds and proves the `Re-encrypt` posting relation: the published
/// ciphertext encrypts the *correct* partial decryption of `ct`
/// (bound to the Feldman verification key `vk_i`).
///
/// Witness `(d, r)`; rows: `d·g = vk_i·u_ct`, `enc.u = r·g_T`,
/// `enc.v = d + r·h_T`.
#[allow(clippy::too_many_arguments)]
pub fn encrypted_partial_proof<F: PrimeField, R: Rng + ?Sized>(
    rng: &mut R,
    tpk: &PublicKey<F>,
    provider: usize,
    ct: &Ciphertext<F>,
    target: &PkePublicKey<F>,
    enc: &Ciphertext<F>,
    d: F,
    r: F,
) -> nizk::LinearProof<F> {
    let st = encrypted_partial_statement(tpk, provider, ct, target, enc);
    nizk::prove_linear(rng, b"yoso-pss/nizk/enc-pdec/v1", &st, &[d, r])
}

/// Verifies a `Re-encrypt` posting proof.
pub fn verify_encrypted_partial<F: PrimeField>(
    tpk: &PublicKey<F>,
    provider: usize,
    ct: &Ciphertext<F>,
    target: &PkePublicKey<F>,
    enc: &Ciphertext<F>,
    proof: &nizk::LinearProof<F>,
) -> bool {
    if provider >= tpk.vks.len() {
        return false;
    }
    let st = encrypted_partial_statement(tpk, provider, ct, target, enc);
    nizk::verify_linear(b"yoso-pss/nizk/enc-pdec/v1", &st, proof)
}

fn encrypted_partial_statement<F: PrimeField>(
    tpk: &PublicKey<F>,
    provider: usize,
    ct: &Ciphertext<F>,
    target: &PkePublicKey<F>,
    enc: &Ciphertext<F>,
) -> yoso_the::nizk::linear::Statement<F> {
    yoso_the::nizk::linear::Statement::new(
        vec![
            vec![tpk.g, F::ZERO],
            vec![F::ZERO, target.g],
            vec![F::ONE, target.h],
        ],
        vec![tpk.vks[provider] * ct.u, enc.u, enc.v],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use yoso_field::F61;
    use yoso_runtime::Adversary;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(4242)
    }

    fn cfg() -> ExecutionConfig {
        ExecutionConfig::default()
    }

    #[test]
    fn from_parts_rejects_share_count_mismatch() {
        let (pk, shares) = MockTe::<F61>::keygen(&mut rng(), 7, 2).unwrap();
        let slots: Vec<Option<KeyShare<F61>>> = shares.into_iter().take(6).map(Some).collect();
        let err = TskChain::from_parts(pk, slots).unwrap_err();
        assert!(matches!(err, ProtocolError::BadParameters(_)), "{err}");
    }

    #[test]
    fn decrypt_honest_committee() {
        let mut r = rng();
        let board = BulletinBoard::new();
        let chain = TskChain::<F61>::keygen(&mut r, 7, 2).unwrap();
        let committee = Committee::honest("d1", 7);
        let m = F61::from(777u64);
        let (ct, _) = MockTe::encrypt(&mut r, &chain.pk, m);
        let got = chain.decrypt(&mut r, &board, &committee, &cfg(), "offline/dep", &[ct]).unwrap();
        assert_eq!(got, vec![m]);
        // All 7 members posted one partial each.
        assert_eq!(board.len().unwrap(), 7);
    }

    #[test]
    fn decrypt_with_malicious_members() {
        let mut r = rng();
        let board = BulletinBoard::new();
        let chain = TskChain::<F61>::keygen(&mut r, 7, 2).unwrap();
        let adv = Adversary::active(2, ActiveAttack::WrongValue);
        let committee = adv.sample_committee(&mut r, "d1", 7);
        let m = F61::from(31337u64);
        let (ct, _) = MockTe::encrypt(&mut r, &chain.pk, m);
        let got = chain.decrypt(&mut r, &board, &committee, &cfg(), "offline/dep", &[ct]).unwrap();
        assert_eq!(got, vec![m], "bad partials must be filtered by proofs");
    }

    #[test]
    fn reencrypt_and_open() {
        let mut r = rng();
        let board = BulletinBoard::new();
        let chain = TskChain::<F61>::keygen(&mut r, 7, 2).unwrap();
        let committee = Committee::honest("r1", 7);
        let target = LinearPke::<F61>::keygen(&mut r);
        let m = F61::from(99u64);
        let (ct, _) = MockTe::encrypt(&mut r, &chain.pk, m);
        let vals = chain.reencrypt(
            &mut r,
            &board,
            &committee,
            &cfg(),
            "offline/reenc",
            &[(target.public, ct)],
        )
        .unwrap();
        let got = vals[0].open(target.secret.scalar).unwrap();
        assert_eq!(got, m);
        // Opening coefficients satisfy value = a − sk·b.
        let (a, b) = vals[0].opening_coefficients().unwrap();
        assert_eq!(a - target.secret.scalar * b, m);
    }

    #[test]
    fn reencrypt_survives_malicious_providers() {
        let mut r = rng();
        let board = BulletinBoard::new();
        let chain = TskChain::<F61>::keygen(&mut r, 7, 3).unwrap();
        let adv = Adversary::active(3, ActiveAttack::WrongValue);
        let committee = adv.sample_committee(&mut r, "r1", 7);
        let target = LinearPke::<F61>::keygen(&mut r);
        let m = F61::from(5u64);
        let (ct, _) = MockTe::encrypt(&mut r, &chain.pk, m);
        let vals = chain
            .reencrypt(&mut r, &board, &committee, &cfg(), "x", &[(target.public, ct)])
            .unwrap();
        assert_eq!(vals[0].open(target.secret.scalar).unwrap(), m);
    }

    #[test]
    fn handover_chain_preserves_key() {
        let mut r = rng();
        let board = BulletinBoard::new();
        let mut chain = TskChain::<F61>::keygen(&mut r, 6, 2).unwrap();
        let m = F61::from(123u64);
        let (ct, _) = MockTe::encrypt(&mut r, &chain.pk, m);

        for epoch in 0..3 {
            let outgoing = Committee::honest(format!("h{epoch}"), 6);
            let next_keys: Vec<PkeKeyPair<F61>> =
                (0..6).map(|_| LinearPke::keygen(&mut r)).collect();
            chain
                .handover(&mut r, &board, &outgoing, &cfg(), "offline/handover", &next_keys)
                .unwrap();
        }
        let committee = Committee::honest("final", 6);
        let got = chain.decrypt(&mut r, &board, &committee, &cfg(), "x", &[ct]).unwrap();
        assert_eq!(got, vec![m]);
    }

    #[test]
    fn handover_with_malicious_outgoing_members() {
        let mut r = rng();
        let board = BulletinBoard::new();
        let mut chain = TskChain::<F61>::keygen(&mut r, 7, 2).unwrap();
        let m = F61::from(4242u64);
        let (ct, _) = MockTe::encrypt(&mut r, &chain.pk, m);
        let adv = Adversary::active(2, ActiveAttack::WrongValue);
        let outgoing = adv.sample_committee(&mut r, "h0", 7);
        let next_keys: Vec<PkeKeyPair<F61>> = (0..7).map(|_| LinearPke::keygen(&mut r)).collect();
        chain.handover(&mut r, &board, &outgoing, &cfg(), "x", &next_keys).unwrap();
        let committee = Committee::honest("final", 7);
        assert_eq!(chain.decrypt(&mut r, &board, &committee, &cfg(), "x", &[ct]).unwrap(), vec![m]);
    }

    #[test]
    fn handover_rejects_short_next_keys() {
        let mut r = rng();
        let board = BulletinBoard::new();
        let mut chain = TskChain::<F61>::keygen(&mut r, 5, 1).unwrap();
        let outgoing = Committee::honest("h0", 5);
        let next_keys: Vec<PkeKeyPair<F61>> = (0..4).map(|_| LinearPke::keygen(&mut r)).collect();
        let err = chain.handover(&mut r, &board, &outgoing, &cfg(), "x", &next_keys).unwrap_err();
        assert!(matches!(err, ProtocolError::BadParameters(_)), "{err}");
        assert_eq!(board.len().unwrap(), 0, "nothing is posted before the check");
    }

    #[test]
    fn vks_stay_consistent_after_handover() {
        let mut r = rng();
        let board = BulletinBoard::new();
        let mut chain = TskChain::<F61>::keygen(&mut r, 5, 1).unwrap();
        let outgoing = Committee::honest("h0", 5);
        let next_keys: Vec<PkeKeyPair<F61>> = (0..5).map(|_| LinearPke::keygen(&mut r)).collect();
        chain.handover(&mut r, &board, &outgoing, &cfg(), "x", &next_keys).unwrap();
        for j in 0..5 {
            let share = chain.share_of(j).unwrap();
            assert_eq!(chain.pk.vks[j], share.value * chain.pk.g);
        }
    }
}
