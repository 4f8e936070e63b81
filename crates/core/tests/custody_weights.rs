//! The threshold-custody paths combine with Lagrange weights computed
//! once per provider set. These properties pin them to the per-item
//! reference computations — `MockTe::combine`, an uncached opening of
//! each re-encrypted value, and naive per-provider Horner evaluation
//! of the next verification keys — with malicious, fail-stopped and
//! share-less members at random positions, so the provider sets are
//! not prefixes of the committee.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use yoso_core::tsk::{ReencryptedValue, TskChain};
use yoso_core::ExecutionConfig;
use yoso_field::{lagrange, PrimeField, F61};
use yoso_runtime::{ActiveAttack, Behavior, BulletinBoard, Committee};
use yoso_the::mock::{
    Ciphertext, KeyShare, LinearPke, MockTe, PartialDec, PkeKeyPair, ReshareMsg,
};

const PHASE: &str = "offline/custody";

/// How a faulty member misbehaves.
#[derive(Debug, Clone, Copy)]
enum Fault {
    Malicious(ActiveAttack),
    FailStop,
    /// The member holds no share (it lost it in an earlier handover).
    Crashed,
}

/// Draws up to `t` faulty members at random positions of an `n`-member
/// committee.
fn faults(rng: &mut rand::rngs::StdRng, n: usize, t: usize) -> Vec<Option<Fault>> {
    let mut out = vec![None; n];
    for _ in 0..rng.gen_range(0..t as u64 + 1) {
        let at = rng.gen_range(0..n as u64) as usize;
        out[at] = Some(match rng.gen_range(0..4) {
            0 => Fault::Malicious(ActiveAttack::WrongValue),
            1 => Fault::Malicious(ActiveAttack::BadProof),
            2 => Fault::FailStop,
            _ => Fault::Crashed,
        });
    }
    out
}

fn committee(name: &str, faults: &[Option<Fault>]) -> Committee {
    let behaviors = faults
        .iter()
        .map(|f| match f {
            Some(Fault::Malicious(a)) => Behavior::Malicious(*a),
            Some(Fault::FailStop) => Behavior::FailStop { crash_phase: 1 },
            Some(Fault::Crashed) | None => Behavior::Honest,
        })
        .collect();
    Committee::with_behaviors(name, behaviors)
}

/// Per-item reference opening: Lagrange weights recomputed from the
/// value's own canonical subset.
fn reference_opening(rv: &ReencryptedValue<F61>) -> (F61, F61) {
    let subset = rv.canonical_subset().unwrap();
    let xs: Vec<F61> = subset.iter().map(|p| F61::from_u64(p.provider as u64 + 1)).collect();
    let w = lagrange::basis_at(&xs, F61::ZERO).unwrap();
    let a_u: F61 = subset.iter().zip(&w).map(|(p, &wj)| wj * p.ct.u).sum();
    let a_v: F61 = subset.iter().zip(&w).map(|(p, &wj)| wj * p.ct.v).sum();
    (rv.source_v - a_v, -a_u)
}

/// Per-provider reference for the next verification keys:
/// `vk_j = Σ_i w_i · C_i(j + 1)`, one Horner evaluation per provider.
fn reference_vks(msgs: &[&ReshareMsg<F61>], n: usize) -> Vec<F61> {
    let xs: Vec<F61> = msgs.iter().map(|m| F61::from_u64(m.from as u64 + 1)).collect();
    let w = lagrange::basis_at(&xs, F61::ZERO).unwrap();
    (0..n)
        .map(|j| {
            let x = F61::from_u64(j as u64 + 1);
            msgs.iter()
                .zip(&w)
                .map(|(m, &wi)| {
                    wi * m.commitments.iter().rev().fold(F61::ZERO, |acc, &c| acc * x + c)
                })
                .sum()
        })
        .collect()
}

/// Hands `chain` over under `members` at 1, 2 and 8 threads from the
/// same RNG state, asserts the resulting keys and shares are identical
/// and consistent (`vk_j = share_j · g`), and returns the new chain.
fn handover_at_thread_counts(
    chain: &TskChain<F61>,
    r: &rand::rngs::StdRng,
    members: &Committee,
) -> TskChain<F61> {
    let n = members.n();
    let mut kr = r.clone();
    let next_keys: Vec<PkeKeyPair<F61>> = (0..n).map(|_| LinearPke::keygen(&mut kr)).collect();
    let handed: Vec<TskChain<F61>> = [1, 2, 8]
        .iter()
        .map(|&threads| {
            let mut c = chain.clone();
            let cfg = ExecutionConfig::default().with_threads(threads);
            c.handover(&mut kr.clone(), &BulletinBoard::new(), members, &cfg, PHASE, &next_keys)
                .unwrap();
            c
        })
        .collect();
    for c in &handed[1..] {
        assert_eq!(c.pk, handed[0].pk);
        for j in 0..n {
            assert_eq!(c.share_of(j).map(|s| s.value), handed[0].share_of(j).map(|s| s.value));
        }
    }
    let next = handed[0].clone();
    for j in 0..n {
        assert_eq!(next.pk.vks[j], next.share_of(j).unwrap().value * next.pk.g);
    }
    next
}

/// 64-bit FNV-1a over the little-endian bytes of every value.
fn fnv64(values: &[F61]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.as_u64().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn handover_dealing_fans_out_identically() {
    // Enough dealers (≥ 64) that the dealing really runs on two
    // threads on a multi-core host. The handed-over keys and shares
    // are pinned: they depend on every dealer's child seed, which the
    // protocol outputs and the transcript hash do not see.
    let (n, t) = (72, 23);
    let mut r = rand::rngs::StdRng::seed_from_u64(72);
    let mut layout = vec![None; n];
    layout[0] = Some(Fault::Malicious(ActiveAttack::WrongValue));
    layout[5] = Some(Fault::Crashed);
    layout[9] = Some(Fault::FailStop);
    let (pk, shares) = MockTe::<F61>::keygen(&mut r, n, t).unwrap();
    let mut slots: Vec<Option<KeyShare<F61>>> = shares.into_iter().map(Some).collect();
    slots[5] = None;
    let chain = TskChain::from_parts(pk, slots).unwrap();
    let m = F61::from(72u64);
    let (ct, _) = MockTe::encrypt(&mut r, &chain.pk, m);
    let next = handover_at_thread_counts(&chain, &r, &committee("h0", &layout));
    let shares: Vec<F61> = (0..n).map(|j| next.share_of(j).unwrap().value).collect();
    assert_eq!(fnv64(&next.pk.vks), 0xf123_34b4_594a_a8f7);
    assert_eq!(fnv64(&shares), 0x3e01_0f27_f5df_b035);
    let (board, cfg) = (BulletinBoard::new(), ExecutionConfig::default());
    let got = next.decrypt(&mut r, &board, &Committee::honest("d", n), &cfg, PHASE, &[ct]).unwrap();
    assert_eq!(got, vec![m]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn cached_custody_matches_per_item_reference(
        seed in any::<u64>(),
        t in 1usize..24,
        extra in 1usize..4,
    ) {
        let n = 2 * t + extra;
        let mut r = rand::rngs::StdRng::seed_from_u64(seed);
        let layout = faults(&mut r, n, t);
        let (pk, shares) = MockTe::<F61>::keygen(&mut r, n, t).unwrap();
        let slots: Vec<Option<KeyShare<F61>>> = shares
            .iter()
            .zip(&layout)
            .map(|(s, f)| if matches!(f, Some(Fault::Crashed)) { None } else { Some(*s) })
            .collect();
        let mut chain = TskChain::from_parts(pk.clone(), slots).unwrap();
        let members = committee("c0", &layout);
        let cfg = ExecutionConfig::default();
        let board = BulletinBoard::new();

        // Threshold decryption equals MockTe::combine over the actual
        // providers: the first t + 1 honest members holding a share.
        let providers: Vec<&KeyShare<F61>> = shares
            .iter()
            .zip(&layout)
            .filter(|(_, f)| f.is_none())
            .map(|(s, _)| s)
            .take(t + 1)
            .collect();
        let ms: Vec<F61> = (0..3).map(|_| F61::random(&mut r)).collect();
        let cts: Vec<Ciphertext<F61>> =
            ms.iter().map(|&m| MockTe::encrypt(&mut r, &pk, m).0).collect();
        let got = chain.decrypt(&mut r, &board, &members, &cfg, PHASE, &cts).unwrap();
        for ((ct, &m), &v) in cts.iter().zip(&ms).zip(&got) {
            let partials: Vec<PartialDec<F61>> =
                providers.iter().map(|s| MockTe::partial_decrypt(s, ct)).collect();
            prop_assert_eq!(v, MockTe::combine(&pk, ct, &partials).unwrap());
            prop_assert_eq!(v, m);
        }

        // Re-encryption openings equal the uncached per-value opening.
        let target = LinearPke::<F61>::keygen(&mut r);
        let items: Vec<_> = cts.iter().map(|&ct| (target.public, ct)).collect();
        let vals = chain.reencrypt(&mut r, &board, &members, &cfg, PHASE, &items).unwrap();
        for (rv, &m) in vals.iter().zip(&ms) {
            prop_assert_eq!(rv.opening_coefficients().unwrap(), reference_opening(rv));
            prop_assert_eq!(rv.open(target.secret.scalar).unwrap(), m);
        }

        // The handover gives the same keys at every thread count, and
        // every new verification key matches its share.
        chain = handover_at_thread_counts(&chain, &r, &members);
        let got = chain
            .decrypt(&mut r, &board, &Committee::honest("c1", n), &cfg, PHASE, &cts)
            .unwrap();
        prop_assert_eq!(got, ms);
    }

    #[test]
    fn folded_verification_keys_match_per_provider_horner(
        seed in any::<u64>(),
        t in 1usize..40,
        extra in 1usize..4,
    ) {
        let n = 2 * t + extra;
        let mut r = rand::rngs::StdRng::seed_from_u64(seed);
        let (pk, shares) = MockTe::<F61>::keygen(&mut r, n, t).unwrap();
        let msgs: Vec<ReshareMsg<F61>> =
            shares.iter().map(|s| MockTe::reshare(&mut r, &pk, s)).collect();
        // A random (non-prefix, unsorted) provider set of size t + 1.
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, r.gen_range(0..i as u64 + 1) as usize);
        }
        let chosen: Vec<&ReshareMsg<F61>> = order[..=t].iter().map(|&i| &msgs[i]).collect();
        let next = MockTe::next_public_key(&pk, &chosen).unwrap();
        prop_assert_eq!(&next.vks, &reference_vks(&chosen, n));
        for j in 0..n {
            let key = MockTe::recombine_key(&pk, j, &chosen).unwrap();
            prop_assert_eq!(next.vks[j], key.value * pk.g);
        }
    }
}
