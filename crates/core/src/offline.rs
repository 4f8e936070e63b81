//! The offline phase `Π_YOSO-Offline` (paper §5.2).
//!
//! Circuit-dependent preprocessing, executed before inputs are known:
//!
//! - **Step 1** — Beaver triples: two committees jointly produce, per
//!   multiplication gate, an encrypted triple `(cᵃ, cᵇ, cᶜ)` with
//!   `c = a·b`, each contribution carrying an encryption NIZK.
//! - **Step 2** — random wire values: a committee sums per-member
//!   encrypted randomness into a mask ciphertext `c^λ` for every
//!   input-gate and multiplication output wire.
//! - **Step 3** — dependent wire values: addition-type masks follow
//!   homomorphically; for each multiplication gate the current
//!   tsk-holding committee `Decrypt`s `ε = λ_α + a` and `δ = λ_β + b`
//!   and everyone computes `c^Γ = ε·c_β − δ·cᵃ + cᶜ − c_γ`
//!   (encrypting `Γ = λ_α·λ_β − λ_γ`). One committee per
//!   multiplication layer, handing `tsk` to the next.
//! - **Step 4** — packing: per batch of `k` multiplication gates, the
//!   helper committee's summed random encryptions extend the `k`
//!   masks to a degree-`(t+k−1)` polynomial; everyone *locally*
//!   evaluates the `n` packed-share ciphertexts via `TEval` with
//!   Lagrange coefficients. Done three times per batch (`λ_α`, `λ_β`
//!   in batch order, and `Γ_γ`) — this is what solves Turbopack's
//!   network-routing problem without online communication.
//! - **Step 5** — per input wire, `Re-encrypt` the mask to the
//!   contributing client's KFF.
//! - **Step 6** — per batch and member, `Re-encrypt` the three packed
//!   shares to the KFF of the online role that will consume them.
//!
//! Total communication: `O(n)` ring elements per gate (measured, not
//! estimated — see experiment E3).

use std::collections::BTreeMap;

use rand::{Rng, SeedableRng};

use yoso_circuit::{BatchedCircuit, Gate, MulBatch};
use yoso_field::{allocstats, PrimeField};
use yoso_pss_sharing::{PackedSharing, ScratchPool};
use yoso_runtime::{Adversary, Behavior, BulletinBoard, Committee};
use yoso_the::mock::{Ciphertext, MockTe, PkePublicKey};
use yoso_the::nizk::{self, enc_proof, verify_enc_proof, EncProof};

use crate::messages::{self, ContributionStep, Post, CT_ELEMENTS, ENC_PROOF_ELEMENTS};
use crate::parallel::PostBuffer;
use crate::setup::SetupArtifacts;
use crate::tsk::{ReencryptedValue, TskChain};
use crate::workitem::ShardedBoard;
use crate::{ExecutionConfig, ProtocolError};

/// The re-encrypted packed shares of one multiplication batch: entry
/// `i` of each vector targets the KFF of online role `(layer, i)`.
#[derive(Debug, Clone)]
pub struct BatchShares<F: PrimeField> {
    /// Packed shares of `λ_α` (left inputs, batch order).
    pub alpha: Vec<ReencryptedValue<F>>,
    /// Packed shares of `λ_β` (right inputs, batch order).
    pub beta: Vec<ReencryptedValue<F>>,
    /// Packed shares of `Γ = λ_α·λ_β − λ_γ`.
    pub gamma: Vec<ReencryptedValue<F>>,
}

/// Everything the offline phase hands to the online phase.
#[derive(Debug, Clone)]
pub struct OfflineArtifacts<F: PrimeField> {
    /// Per-wire mask ciphertexts `c^λ` (indexed by wire id).
    pub lambda_cts: Vec<Ciphertext<F>>,
    /// Per-batch re-encrypted packed shares (parallel to
    /// `BatchedCircuit::mul_batches`).
    pub batch_shares: Vec<BatchShares<F>>,
    /// Per input wire: `(wire, client, re-encrypted λ targeting the
    /// client's KFF)`.
    pub input_reenc: Vec<(usize, usize, ReencryptedValue<F>)>,
    /// The tsk custody chain (now with the post-offline committee).
    pub tsk: TskChain<F>,
}

/// Reusable buffers for [`summed_contribution_into`]. The offline
/// phase calls it once per maskable wire (Step 2) and `3t` times per
/// batch (Step 4 helpers), each call collecting up to `n` ciphertexts
/// — fresh per-call vectors are an allocation cliff at Table-1
/// committee sizes. In arena mode (`reuse`) the buffers persist
/// across calls; otherwise every call re-grows them from empty (the
/// legacy profile the allocation bench compares against).
struct ContribBufs<F: PrimeField> {
    valid: Vec<Ciphertext<F>>,
    ones: Vec<F>,
    reuse: bool,
}

impl<F: PrimeField> ContribBufs<F> {
    fn new(reuse: bool) -> Self {
        ContribBufs { valid: Vec::new(), ones: Vec::new(), reuse }
    }

    /// Prepares the buffers for one call, dropping capacity first in
    /// the fresh-buffer (non-arena) mode.
    fn reset(&mut self, capacity: usize) {
        if !self.reuse {
            self.valid = Vec::new();
            self.ones = Vec::new();
        }
        self.valid.clear();
        if self.valid.capacity() < capacity {
            allocstats::bump();
            self.valid.reserve(capacity);
        }
    }
}

/// Collects one encrypted-randomness contribution per participating
/// member and returns the homomorphic sum of the *valid* ones.
/// Posts are appended to `posts` rather than sent, so the caller can
/// run many of these concurrently and replay the posts in order.
///
/// Malicious members with `WrongValue`/`AdditiveOffset` submit garbage
/// proofs (filtered); `BadProof` submits a correct ciphertext with a
/// garbage proof (also filtered — which is safe: sums of any subset of
/// valid contributions that includes at least one honest one are
/// uniform).
///
/// Every member's work runs from its own child RNG (seed drawn
/// sequentially from `rng`), so a role-sharded worker that skips the
/// proof work of members it does not own (`cfg.partition`) still draws
/// identical values for every member — the per-member value draws
/// precede the proof draws inside the child stream. Non-owned members'
/// validity is behavior-predicted (honest ⇒ valid, malicious ⇒
/// invalid), exactly the [`ExecutionConfig::sweep`] semantics.
#[allow(clippy::too_many_arguments)]
fn summed_contribution_into<F: PrimeField, R: Rng + ?Sized>(
    rng: &mut R,
    posts: &mut PostBuffer,
    committee: &Committee,
    cfg: &ExecutionConfig,
    tpk: &yoso_the::mock::PublicKey<F>,
    phase: &'static str,
    step: ContributionStep,
    bufs: &mut ContribBufs<F>,
) -> Result<Ciphertext<F>, ProtocolError> {
    bufs.reset(committee.n());
    for i in 0..committee.n() {
        let behavior = committee.behavior(i);
        if !behavior.participates_at(crate::engine::phase_index(phase)) {
            continue;
        }
        let mut mrng = rand::rngs::StdRng::seed_from_u64(rng.next_u64());
        let owned = cfg.partition.owns(i);
        let prove = cfg.produce_proofs && owned;
        let (ct, valid) = match behavior {
            Behavior::Honest | Behavior::Leaky | Behavior::FailStop { .. } => {
                let m = F::random(&mut mrng);
                let (ct, r) = MockTe::encrypt(&mut mrng, tpk, m);
                let ok = if prove {
                    let proof = enc_proof(&mut mrng, tpk, &ct, m, r);
                    verify_enc_proof(tpk, &ct, &proof)
                } else {
                    true
                };
                (ct, ok)
            }
            Behavior::Malicious(_) => {
                let junk = F::random(&mut mrng);
                let (ct, _) = MockTe::encrypt(&mut mrng, tpk, junk);
                let ok = if prove {
                    let proof = EncProof::<F>::garbage(&mut mrng);
                    verify_enc_proof(tpk, &ct, &proof)
                } else {
                    false
                };
                (ct, ok)
            }
        };
        posts.record(
            owned,
            committee.role(i),
            Post::Contribution { step, ciphertexts: 1 },
            phase,
            CT_ELEMENTS + ENC_PROOF_ELEMENTS,
        );
        if valid {
            bufs.valid.push(ct);
        }
    }
    if bufs.valid.is_empty() {
        return Err(ProtocolError::NotEnoughContributions {
            step: "summed contribution",
            got: 0,
            need: 1,
        });
    }
    allocstats::ensure_filled(&mut bufs.ones, bufs.valid.len(), F::ONE);
    Ok(MockTe::eval(&bufs.valid, &bufs.ones)?)
}

/// [`summed_contribution_into`] posting through the sharded board.
#[allow(clippy::too_many_arguments)]
fn summed_contribution<F: PrimeField, R: Rng + ?Sized>(
    rng: &mut R,
    sb: &ShardedBoard<'_>,
    committee: &Committee,
    cfg: &ExecutionConfig,
    tpk: &yoso_the::mock::PublicKey<F>,
    phase: &'static str,
    step: ContributionStep,
    bufs: &mut ContribBufs<F>,
) -> Result<Ciphertext<F>, ProtocolError> {
    let mut posts = PostBuffer::new();
    let result =
        summed_contribution_into(rng, &mut posts, committee, cfg, tpk, phase, step, bufs);
    sb.flush_buffer(posts)?;
    result
}

/// An encrypted Beaver triple.
#[derive(Debug, Clone, Copy)]
pub struct EncryptedTriple<F: PrimeField> {
    /// Encryption of `a`.
    pub a: Ciphertext<F>,
    /// Encryption of `b`.
    pub b: Ciphertext<F>,
    /// Encryption of `c = a·b`.
    pub c: Ciphertext<F>,
}

/// Produces one encrypted Beaver triple, buffering its board posts.
fn one_triple<F: PrimeField, R: Rng + ?Sized>(
    rng: &mut R,
    posts: &mut PostBuffer,
    c1: &Committee,
    c2: &Committee,
    cfg: &ExecutionConfig,
    tpk: &yoso_the::mock::PublicKey<F>,
    phase: &'static str,
) -> Result<EncryptedTriple<F>, ProtocolError> {
    // a-side contributions from C1. Triples are produced in parallel
    // (one child RNG each), so the buffers stay per-call here.
    let mut bufs = ContribBufs::new(false);
    let c_a = summed_contribution_into(
        rng,
        posts,
        c1,
        cfg,
        tpk,
        phase,
        ContributionStep::Beaver,
        &mut bufs,
    )?;

    // b-side: each C2 member posts (c_b_i, c_c_i = b_i·c^a) with a
    // proof of the joint relation. Per-member child RNGs keep the
    // value draws identical when a sharded worker skips proof work
    // for members it does not own.
    let mut b_parts: Vec<Ciphertext<F>> = Vec::new();
    let mut c_parts: Vec<Ciphertext<F>> = Vec::new();
    for i in 0..c2.n() {
        let behavior = c2.behavior(i);
        if !behavior.participates_at(crate::engine::phase_index(phase)) {
            continue;
        }
        let mut mrng = rand::rngs::StdRng::seed_from_u64(rng.next_u64());
        let owned = cfg.partition.owns(i);
        let prove = cfg.produce_proofs && owned;
        let (cb, cc, valid) = match behavior {
            Behavior::Honest | Behavior::Leaky | Behavior::FailStop { .. } => {
                let b_i = F::random(&mut mrng);
                let (cb, r) = MockTe::encrypt(&mut mrng, tpk, b_i);
                let cc = Ciphertext { u: b_i * c_a.u, v: b_i * c_a.v };
                let ok = if prove {
                    let proof = beaver_b_proof(&mut mrng, tpk, &c_a, &cb, &cc, b_i, r);
                    verify_beaver_b_proof(tpk, &c_a, &cb, &cc, &proof)
                } else {
                    true
                };
                (cb, cc, ok)
            }
            Behavior::Malicious(_) => {
                let junk = F::random(&mut mrng);
                let (cb, _) = MockTe::encrypt(&mut mrng, tpk, junk);
                let fake = F::random(&mut mrng);
                let cc = Ciphertext { u: fake * c_a.u, v: fake * c_a.v + F::ONE };
                let ok = if prove {
                    let proof = nizk::LinearProof::<F> {
                        commitment: vec![F::random(&mut mrng); 4],
                        response: vec![F::random(&mut mrng); 2],
                    };
                    verify_beaver_b_proof(tpk, &c_a, &cb, &cc, &proof)
                } else {
                    false
                };
                (cb, cc, ok)
            }
        };
        let elements = 2 * CT_ELEMENTS + messages::proof_elements(4, 2);
        posts.record(
            owned,
            c2.role(i),
            Post::Contribution { step: ContributionStep::Beaver, ciphertexts: 2 },
            phase,
            elements,
        );
        if valid {
            b_parts.push(cb);
            c_parts.push(cc);
        }
    }
    if b_parts.is_empty() {
        return Err(ProtocolError::NotEnoughContributions {
            step: "beaver b-side",
            got: 0,
            need: 1,
        });
    }
    let ones = vec![F::ONE; b_parts.len()];
    let c_b = MockTe::eval(&b_parts, &ones)?;
    let c_c = MockTe::eval(&c_parts, &ones)?;
    Ok(EncryptedTriple { a: c_a, b: c_b, c: c_c })
}

/// Step 1: two committees produce one encrypted Beaver triple per
/// multiplication gate (`Beaver-Triple` in the paper).
///
/// Triples are independent, so each one runs from its own child RNG
/// (seeds drawn sequentially from `rng`) on up to `cfg.num_threads`
/// workers; posts are replayed in triple order, making the transcript
/// independent of the thread count.
pub fn beaver_triples<F: PrimeField, R: Rng + ?Sized>(
    rng: &mut R,
    board: &BulletinBoard<Post>,
    c1: &Committee,
    c2: &Committee,
    cfg: &ExecutionConfig,
    tpk: &yoso_the::mock::PublicKey<F>,
    count: usize,
) -> Result<Vec<EncryptedTriple<F>>, ProtocolError> {
    let sb = ShardedBoard::new(board, cfg.partition)?;
    beaver_triples_in(rng, &sb, c1, c2, cfg, tpk, count)
}

/// [`beaver_triples`] posting through an existing sharded board, so an
/// engine-level caller can keep one position accounting across phases.
pub(crate) fn beaver_triples_in<F: PrimeField, R: Rng + ?Sized>(
    rng: &mut R,
    sb: &ShardedBoard<'_>,
    c1: &Committee,
    c2: &Committee,
    cfg: &ExecutionConfig,
    tpk: &yoso_the::mock::PublicKey<F>,
    count: usize,
) -> Result<Vec<EncryptedTriple<F>>, ProtocolError> {
    let phase = "offline/1-beaver";
    let seeds: Vec<u64> = (0..count).map(|_| rng.next_u64()).collect();
    let results = crate::parallel::par_map(cfg.num_threads, &seeds, |_, &seed| {
        let mut trng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut posts = PostBuffer::new();
        let triple = one_triple(&mut trng, &mut posts, c1, c2, cfg, tpk, phase);
        (triple, posts)
    });
    let mut triples = Vec::with_capacity(count);
    for (triple, posts) in results {
        sb.flush_buffer(posts)?;
        triples.push(triple?);
    }
    Ok(triples)
}

/// The b-side Beaver relation: witness `(b, r)` with
/// `c_b = TEnc(b; r)` and `c_c = b · c_a`.
fn beaver_b_statement<F: PrimeField>(
    tpk: &yoso_the::mock::PublicKey<F>,
    c_a: &Ciphertext<F>,
    c_b: &Ciphertext<F>,
    c_c: &Ciphertext<F>,
) -> nizk::linear::Statement<F> {
    nizk::linear::Statement::new(
        vec![
            vec![F::ZERO, tpk.g],
            vec![F::ONE, tpk.h],
            vec![c_a.u, F::ZERO],
            vec![c_a.v, F::ZERO],
        ],
        vec![c_b.u, c_b.v, c_c.u, c_c.v],
    )
}

fn beaver_b_proof<F: PrimeField, R: Rng + ?Sized>(
    rng: &mut R,
    tpk: &yoso_the::mock::PublicKey<F>,
    c_a: &Ciphertext<F>,
    c_b: &Ciphertext<F>,
    c_c: &Ciphertext<F>,
    b: F,
    r: F,
) -> nizk::LinearProof<F> {
    let st = beaver_b_statement(tpk, c_a, c_b, c_c);
    nizk::prove_linear(rng, b"yoso-pss/nizk/beaver-b/v1", &st, &[b, r])
}

fn verify_beaver_b_proof<F: PrimeField>(
    tpk: &yoso_the::mock::PublicKey<F>,
    c_a: &Ciphertext<F>,
    c_b: &Ciphertext<F>,
    c_c: &Ciphertext<F>,
    proof: &nizk::LinearProof<F>,
) -> bool {
    nizk::verify_linear(b"yoso-pss/nizk/beaver-b/v1", &beaver_b_statement(tpk, c_a, c_b, c_c), proof)
}

/// Step 4 packing: given the `k_b` per-wire mask ciphertexts of a
/// batch and `t` summed helper-randomness ciphertexts, computes the
/// `n` packed-share ciphertexts by homomorphic Lagrange evaluation.
///
/// The implied polynomial has the batch secrets at the scheme's `k_b`
/// secret points and the helpers at its first `t` party points —
/// degree `t + k_b − 1`, exactly the paper's construction. Using the
/// scheme's own dealing rows ([`PackedSharing::dealing_basis_rows`])
/// keeps the homomorphic packing on whatever [`PointLayout`] the
/// protocol runs, so the online roles can open these ciphertexts with
/// the same scheme (and its transform fast paths) they use everywhere
/// else.
///
/// [`PointLayout`]: yoso_pss_sharing::PointLayout
pub fn pack_ciphertexts<F: PrimeField>(
    scheme: &PackedSharing<F>,
    t: usize,
    wire_cts: &[Ciphertext<F>],
    helper_cts: &[Ciphertext<F>],
) -> Result<Vec<Ciphertext<F>>, ProtocolError> {
    if helper_cts.len() != t {
        return Err(ProtocolError::Invariant("need exactly t helper ciphertexts for packing"));
    }
    let k_b = wire_cts.len();
    if scheme.k() != k_b {
        return Err(ProtocolError::Invariant("packing scheme width does not match the wire count"));
    }
    let rows = scheme.dealing_basis_rows(t + k_b - 1)?;
    let mut all_cts: Vec<Ciphertext<F>> = wire_cts.to_vec();
    all_cts.extend_from_slice(helper_cts);
    rows.into_iter()
        .map(|row| Ok(MockTe::eval(&all_cts, &row)?))
        .collect()
}

/// Runs the full offline phase.
///
/// `setup.tsk` must currently be held by the committee this function
/// samples as the first dependent-values committee.
///
/// # Errors
///
/// Propagates sub-step errors; under the declared corruption model
/// none should occur (GOD).
pub fn run_offline<F: PrimeField, R: Rng + ?Sized>(
    rng: &mut R,
    params: &crate::ProtocolParams,
    board: &BulletinBoard<Post>,
    adversary: &Adversary,
    cfg: &ExecutionConfig,
    bc: &BatchedCircuit<F>,
    setup: &SetupArtifacts<F>,
) -> Result<OfflineArtifacts<F>, ProtocolError> {
    let sb = ShardedBoard::new(board, cfg.partition)?;
    let pool = ScratchPool::new(cfg.streaming);
    run_offline_in(rng, params, &sb, adversary, cfg, bc, setup, &pool)
}

/// [`run_offline`] posting through an existing sharded board (the
/// engine keeps one accounting across setup/offline/online so worker
/// processes agree on every canonical board position).
#[allow(clippy::too_many_lines, clippy::too_many_arguments, clippy::needless_range_loop)]
pub(crate) fn run_offline_in<F: PrimeField, R: Rng + ?Sized>(
    rng: &mut R,
    params: &crate::ProtocolParams,
    sb: &ShardedBoard<'_>,
    adversary: &Adversary,
    cfg: &ExecutionConfig,
    bc: &BatchedCircuit<F>,
    setup: &SetupArtifacts<F>,
    pool: &ScratchPool<F>,
) -> Result<OfflineArtifacts<F>, ProtocolError> {
    let n = params.n;
    let t = params.t;
    // One contribution arena for the whole phase: Step 2 runs once per
    // maskable wire, Step 4 `3t` times per batch — all sequential.
    let mut contrib = ContribBufs::new(pool.reuse());
    let mut tsk = setup.tsk.clone();
    let tpk = tsk.pk.clone();
    let circuit = &bc.circuit;

    // ---- Step 1: Beaver triples, one per multiplication gate.
    let c1 = adversary.sample_committee(rng, "off-beaver-a", n);
    let c2 = adversary.sample_committee(rng, "off-beaver-b", n);
    let mul_wires: Vec<usize> = circuit
        .mul_layers()
        .iter()
        .flat_map(|layer| layer.iter().map(|w| w.0))
        .collect();
    let triples = beaver_triples_in(rng, sb, &c1, &c2, cfg, &tpk, mul_wires.len())?;
    sb.advance_round()?;
    // triple_of[wire] = index into `triples`.
    let mut triple_of = vec![usize::MAX; circuit.wire_count()];
    for (idx, &w) in mul_wires.iter().enumerate() {
        triple_of[w] = idx;
    }

    // ---- Step 2: random wire values for input and mul output wires.
    let c3 = adversary.sample_committee(rng, "off-randomness", n);
    let phase2 = "offline/2-wire-rand";
    let zero_ct = Ciphertext { u: F::ZERO, v: F::ZERO };
    let mut lambda_cts: Vec<Ciphertext<F>> = vec![zero_ct; circuit.wire_count()];
    for (w, gate) in circuit.gates().iter().enumerate() {
        if matches!(gate, Gate::Input { .. } | Gate::Mul(_, _)) {
            lambda_cts[w] = summed_contribution(
                rng,
                sb,
                &c3,
                cfg,
                &tpk,
                phase2,
                ContributionStep::WireRandom,
                &mut contrib,
            )?;
        }
    }

    sb.advance_round()?;

    // ---- Step 3: dependent wire values (and Γ per mul gate),
    // processed in gate order; one decrypt committee per mul layer.
    let mut gamma_cts: Vec<Option<Ciphertext<F>>> = vec![None; circuit.wire_count()];
    // Propagate masks through linear gates first (mask of a linear gate
    // is the same linear function of its input masks).
    for (w, gate) in circuit.gates().iter().enumerate() {
        match *gate {
            Gate::Add(a, b) => {
                lambda_cts[w] = MockTe::eval(&[lambda_cts[a.0], lambda_cts[b.0]], &[F::ONE, F::ONE])?;
            }
            Gate::Sub(a, b) => {
                lambda_cts[w] =
                    MockTe::eval(&[lambda_cts[a.0], lambda_cts[b.0]], &[F::ONE, -F::ONE])?;
            }
            Gate::MulConst(a, c) => {
                lambda_cts[w] = MockTe::eval(&[lambda_cts[a.0]], &[c])?;
            }
            Gate::Const(_) => {
                lambda_cts[w] = zero_ct; // public constants carry a zero mask
            }
            Gate::Output(a, _) => {
                lambda_cts[w] = lambda_cts[a.0];
            }
            Gate::Input { .. } | Gate::Mul(_, _) => {}
        }
    }
    // Linear propagation is complete before any decryption because the
    // mul-output masks were fixed independently in Step 2; only the Γ
    // values need the ε/δ openings below.
    for (layer_idx, layer) in circuit.mul_layers().iter().enumerate() {
        let committee = adversary.sample_committee(rng, format!("off-dep-{layer_idx}"), n);
        let phase = "offline/3-dependent";
        // Build ε/δ ciphertexts for the layer.
        let mut eps_delta = Vec::with_capacity(layer.len() * 2);
        for &gw in layer {
            let (a, b) = match circuit.gates()[gw.0] {
                Gate::Mul(a, b) => (a, b),
                _ => {
                    return Err(ProtocolError::Invariant(
                        "mul layer contains a non-mul gate",
                    ))
                }
            };
            let tr = &triples[triple_of[gw.0]];
            eps_delta.push(MockTe::eval(&[lambda_cts[a.0], tr.a], &[F::ONE, F::ONE])?);
            eps_delta.push(MockTe::eval(&[lambda_cts[b.0], tr.b], &[F::ONE, F::ONE])?);
        }
        let opened = tsk.decrypt_in(rng, sb, &committee, cfg, phase, &eps_delta)?;
        for (j, &gw) in layer.iter().enumerate() {
            let (_, b) = match circuit.gates()[gw.0] {
                Gate::Mul(a, b) => (a, b),
                _ => {
                    return Err(ProtocolError::Invariant(
                        "mul layer contains a non-mul gate",
                    ))
                }
            };
            let tr = &triples[triple_of[gw.0]];
            let eps = opened[2 * j];
            let delta = opened[2 * j + 1];
            // c^Γ = ε·c_β − δ·cᵃ + cᶜ − c_γ.
            let gamma = MockTe::eval(
                &[lambda_cts[b.0], tr.a, tr.c, lambda_cts[gw.0]],
                &[eps, -delta, F::ONE, -F::ONE],
            )?;
            gamma_cts[gw.0] = Some(gamma);
        }
        // Hand tsk to the next committee in the chain.
        let next_keys: Vec<yoso_the::mock::PkeKeyPair<F>> =
            (0..n).map(|_| yoso_the::mock::LinearPke::keygen(rng)).collect();
        tsk.handover_in(rng, sb, &committee, cfg, "offline/handover", &next_keys)?;
        sb.advance_round()?;
    }

    // ---- Step 4: packing per batch (helpers contributed by c3 as part
    // of its single message; metered under the packing phase).
    let phase4 = "offline/4-pack";
    type PackedTriple<F> = (Vec<Ciphertext<F>>, Vec<Ciphertext<F>>, Vec<Ciphertext<F>>);
    let mut packed: Vec<PackedTriple<F>> = Vec::with_capacity(bc.mul_batches.len());
    // One packing scheme per batch width, on the protocol's point
    // layout; the dealing-row cache inside makes repeated batches of
    // the same width reuse one basis matrix.
    let mut pack_schemes: BTreeMap<usize, PackedSharing<F>> = BTreeMap::new();
    for batch in &bc.mul_batches {
        let k_b = batch.gates.len();
        let scheme = match pack_schemes.entry(k_b) {
            std::collections::btree_map::Entry::Occupied(e) => &*e.into_mut(),
            std::collections::btree_map::Entry::Vacant(v) => {
                &*v.insert(PackedSharing::with_layout(n, k_b, params.layout)?)
            }
        };
        let alpha_wires = batch.left_wires(circuit);
        let beta_wires = batch.right_wires(circuit);
        let alpha_cts: Vec<Ciphertext<F>> =
            alpha_wires.iter().map(|w| lambda_cts[w.0]).collect();
        let beta_cts: Vec<Ciphertext<F>> =
            beta_wires.iter().map(|w| lambda_cts[w.0]).collect();
        let gamma_in: Vec<Ciphertext<F>> = batch
            .gates
            .iter()
            .map(|w| {
                gamma_cts[w.0].ok_or(ProtocolError::Invariant(
                    "Γ ciphertext missing for a mul gate after step 3",
                ))
            })
            .collect::<Result<_, _>>()?;
        let mut pack_one =
            |rng: &mut R, wires_cts: &[Ciphertext<F>]| -> Result<Vec<Ciphertext<F>>, ProtocolError> {
                let mut helpers = Vec::with_capacity(t);
                for _ in 0..t {
                    helpers.push(summed_contribution(
                        rng,
                        sb,
                        &c3,
                        cfg,
                        &tpk,
                        phase4,
                        ContributionStep::PackHelper,
                        &mut contrib,
                    )?);
                }
                pack_ciphertexts(scheme, t, wires_cts, &helpers)
            };
        let alpha = pack_one(rng, &alpha_cts)?;
        let beta = pack_one(rng, &beta_cts)?;
        let gamma = pack_one(rng, &gamma_in)?;
        packed.push((alpha, beta, gamma));
    }

    // ---- Step 5: re-encrypt input-wire masks to client KFFs.
    let c5 = adversary.sample_committee(rng, "off-reenc-in", n);
    let phase5 = "offline/5-reenc-inputs";
    let mut input_items: Vec<(PkePublicKey<F>, Ciphertext<F>)> = Vec::new();
    let mut input_meta: Vec<(usize, usize)> = Vec::new();
    for (client, wires) in circuit.inputs_per_client().iter().enumerate() {
        for w in wires {
            input_items.push((setup.client_kff_pairs[client].public, lambda_cts[w.0]));
            input_meta.push((w.0, client));
        }
    }
    let input_vals = tsk.reencrypt_in(rng, sb, &c5, cfg, phase5, &input_items)?;
    let input_reenc = input_meta
        .into_iter()
        .zip(input_vals)
        .map(|((w, client), v)| (w, client, v))
        .collect();
    sb.advance_round()?;
    let next_keys: Vec<yoso_the::mock::PkeKeyPair<F>> =
        (0..n).map(|_| yoso_the::mock::LinearPke::keygen(rng)).collect();
    tsk.handover_in(rng, sb, &c5, cfg, "offline/handover", &next_keys)?;

    // ---- Step 6: re-encrypt packed shares to the online roles' KFFs.
    let c6 = adversary.sample_committee(rng, "off-reenc-shares", n);
    let phase6 = "offline/6-reenc-shares";
    let mut batch_shares = Vec::with_capacity(bc.mul_batches.len());
    for (batch, (alpha, beta, gamma)) in bc.mul_batches.iter().zip(&packed) {
        let layer = batch.layer;
        let mut items: Vec<(PkePublicKey<F>, Ciphertext<F>)> = Vec::with_capacity(3 * n);
        for i in 0..n {
            items.push((setup.kff_pairs[layer][i].public, alpha[i]));
        }
        for i in 0..n {
            items.push((setup.kff_pairs[layer][i].public, beta[i]));
        }
        for i in 0..n {
            items.push((setup.kff_pairs[layer][i].public, gamma[i]));
        }
        let mut vals = tsk.reencrypt_in(rng, sb, &c6, cfg, phase6, &items)?;
        let gamma_v: Vec<ReencryptedValue<F>> = vals.split_off(2 * n);
        let beta_v: Vec<ReencryptedValue<F>> = vals.split_off(n);
        batch_shares.push(BatchShares { alpha: vals, beta: beta_v, gamma: gamma_v });
    }
    let next_keys: Vec<yoso_the::mock::PkeKeyPair<F>> =
        (0..n).map(|_| yoso_the::mock::LinearPke::keygen(rng)).collect();
    tsk.handover_in(rng, sb, &c6, cfg, "offline/handover", &next_keys)?;
    sb.advance_round()?;

    Ok(OfflineArtifacts { lambda_cts, batch_shares, input_reenc, tsk })
}

/// Returns the λ mask implied for a mul batch (test oracle): opens the
/// packed-share re-encryptions with the KFF secrets and reconstructs.
#[doc(hidden)]
pub fn debug_open_batch_lambda<F: PrimeField>(
    params: &crate::ProtocolParams,
    setup: &SetupArtifacts<F>,
    batch: &MulBatch,
    shares: &[ReencryptedValue<F>],
    k_b: usize,
) -> Result<Vec<F>, ProtocolError> {
    let scheme = PackedSharing::<F>::with_layout(params.n, k_b, params.layout)?;
    let mut opened = Vec::with_capacity(params.n);
    for (i, rv) in shares.iter().enumerate() {
        let sk = setup.kff_pairs[batch.layer][i].secret.scalar;
        opened.push(yoso_pss_sharing::Share { party: i, value: rv.open(sk)? });
    }
    Ok(scheme.reconstruct(&opened[..params.packing_degree() + 1], params.packing_degree())?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use yoso_field::F61;
    use yoso_runtime::{ActiveAttack, Committee as RtCommittee};

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(31415)
    }

    fn cfg() -> ExecutionConfig {
        ExecutionConfig::default()
    }

    #[test]
    fn beaver_triples_multiply_correctly() {
        let mut r = rng();
        let board = BulletinBoard::new();
        let chain = TskChain::<F61>::keygen(&mut r, 6, 2).unwrap();
        let c1 = RtCommittee::honest("c1", 6);
        let c2 = RtCommittee::honest("c2", 6);
        let triples =
            beaver_triples(&mut r, &board, &c1, &c2, &cfg(), &chain.pk, 3).unwrap();
        let dec = RtCommittee::honest("d", 6);
        for tr in &triples {
            let opened = chain
                .decrypt(&mut r, &board, &dec, &cfg(), "t", &[tr.a, tr.b, tr.c])
                .unwrap();
            assert_eq!(opened[0] * opened[1], opened[2]);
        }
    }

    #[test]
    fn beaver_triples_with_malicious_contributors() {
        let mut r = rng();
        let board = BulletinBoard::new();
        let chain = TskChain::<F61>::keygen(&mut r, 7, 2).unwrap();
        let adv = Adversary::active(2, ActiveAttack::WrongValue);
        let c1 = adv.sample_committee(&mut r, "c1", 7);
        let c2 = adv.sample_committee(&mut r, "c2", 7);
        let triples =
            beaver_triples(&mut r, &board, &c1, &c2, &cfg(), &chain.pk, 2).unwrap();
        let dec = RtCommittee::honest("d", 7);
        for tr in &triples {
            let opened = chain
                .decrypt(&mut r, &board, &dec, &cfg(), "t", &[tr.a, tr.b, tr.c])
                .unwrap();
            assert_eq!(opened[0] * opened[1], opened[2], "a·b must equal c despite attackers");
        }
    }

    #[test]
    fn packing_reconstructs_secrets_at_secret_points() {
        // Encrypt known values, pack, decrypt all shares, interpolate.
        let mut r = rng();
        let board = BulletinBoard::new();
        let n = 9;
        let t = 2;
        let k_b = 3;
        let chain = TskChain::<F61>::keygen(&mut r, n, t).unwrap();
        let committee = RtCommittee::honest("c", n);
        let values = [F61::from(11u64), F61::from(22u64), F61::from(33u64)];
        let wire_cts: Vec<Ciphertext<F61>> =
            values.iter().map(|&v| MockTe::encrypt(&mut r, &chain.pk, v).0).collect();
        let helper_cts: Vec<Ciphertext<F61>> = (0..t)
            .map(|_| {
                let h: F61 = yoso_field::PrimeField::random(&mut r);
                MockTe::encrypt(&mut r, &chain.pk, h).0
            })
            .collect();
        let scheme = PackedSharing::<F61>::new(n, k_b).unwrap();
        let packed = pack_ciphertexts(&scheme, t, &wire_cts, &helper_cts).unwrap();
        assert_eq!(packed.len(), n);
        // Decrypt the share ciphertexts and reconstruct via packed Shamir.
        let share_vals =
            chain.decrypt(&mut r, &board, &committee, &cfg(), "t", &packed).unwrap();
        let shares: Vec<yoso_pss_sharing::Share<F61>> = share_vals
            .iter()
            .enumerate()
            .map(|(i, &v)| yoso_pss_sharing::Share { party: i, value: v })
            .collect();
        let degree = t + k_b - 1;
        let got = scheme.reconstruct(&shares[..degree + 1], degree).unwrap();
        assert_eq!(got, values.to_vec());
        // Surplus shares are consistent with the packing degree.
        let got_all = scheme.reconstruct(&shares, degree).unwrap();
        assert_eq!(got_all, values.to_vec());
    }

    #[test]
    fn pack_rejects_wrong_helper_count() {
        let mut r = rng();
        let chain = TskChain::<F61>::keygen(&mut r, 5, 2).unwrap();
        let ct = MockTe::encrypt(&mut r, &chain.pk, F61::from(1u64)).0;
        let scheme = PackedSharing::<F61>::new(5, 1).unwrap();
        assert!(matches!(
            pack_ciphertexts::<F61>(&scheme, 2, &[ct], &[ct]),
            Err(ProtocolError::Invariant(_))
        ));
    }

    #[test]
    fn packing_on_subgroup_layout_reconstructs() {
        // Same flow as above but with every point on the subgroup
        // layout — the ciphertext rows and the reconstructing scheme
        // must agree on the geometry.
        use yoso_pss_sharing::PointLayout;
        let mut r = rng();
        let board = BulletinBoard::new();
        let (n, t, k_b) = (9, 2, 3);
        let chain = TskChain::<F61>::keygen(&mut r, n, t).unwrap();
        let committee = RtCommittee::honest("c", n);
        let values = [F61::from(7u64), F61::from(8u64), F61::from(9u64)];
        let wire_cts: Vec<Ciphertext<F61>> =
            values.iter().map(|&v| MockTe::encrypt(&mut r, &chain.pk, v).0).collect();
        let helper_cts: Vec<Ciphertext<F61>> = (0..t)
            .map(|_| {
                let h: F61 = yoso_field::PrimeField::random(&mut r);
                MockTe::encrypt(&mut r, &chain.pk, h).0
            })
            .collect();
        let scheme = PackedSharing::<F61>::with_layout(n, k_b, PointLayout::Subgroup).unwrap();
        let packed = pack_ciphertexts(&scheme, t, &wire_cts, &helper_cts).unwrap();
        let share_vals =
            chain.decrypt(&mut r, &board, &committee, &cfg(), "t", &packed).unwrap();
        let shares: Vec<yoso_pss_sharing::Share<F61>> = share_vals
            .iter()
            .enumerate()
            .map(|(i, &v)| yoso_pss_sharing::Share { party: i, value: v })
            .collect();
        let degree = t + k_b - 1;
        assert_eq!(scheme.reconstruct(&shares, degree).unwrap(), values.to_vec());
    }
}
