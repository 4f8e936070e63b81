//! Kernel probes: public calls into `yoso-the`, `yoso-pss-sharing` and
//! `yoso-field`, timed per call at a workload's `(n, t, k)`.
//!
//! Every call's result is checked outside the timed region, so a probe
//! cannot get faster by skipping work: `combine` must return the
//! encrypted message, `reconstruct` the shared secrets, and each NIZK
//! verifier must accept the honest proof and reject its `garbage()`
//! counterpart.

use std::hint::black_box;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use yoso_core::ProtocolParams;
use yoso_field::{lagrange, Poly, PrimeField, F61};
use yoso_pss_sharing::PackedSharing;
use yoso_the::mock::{Ciphertext, LinearPke, MockTe, PartialDec, ReshareMsg};
use yoso_the::nizk::{
    pdec_proof, reshare_proof, share_proof, verify_pdec_proof, verify_reshare_proof,
    verify_share_proof, PdecProof, ReshareProof, ShareProof,
};

type F = F61;

/// Calls per probe at most, however fast.
const MAX_CALLS: usize = 20_000;

/// Times `call` repeatedly for about `budget` (at least once: the NIZK
/// re-share kernels take about a second per call at n = 512) and
/// returns the median microseconds per call. Each result goes through
/// `check`, untimed.
fn probe<T>(
    budget: Duration,
    mut call: impl FnMut(usize) -> T,
    mut check: impl FnMut(usize, T) -> Result<(), String>,
) -> Result<f64, String> {
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.is_empty() || (start.elapsed() < budget && samples.len() < MAX_CALLS) {
        let i = samples.len();
        let t0 = Instant::now();
        let out = black_box(call(black_box(i)));
        samples.push(t0.elapsed().as_secs_f64() * 1e6);
        check(i, out)?;
    }
    Ok(crate::report::median(&samples))
}

fn fail(what: &str) -> Result<(), String> {
    Err(format!("kernel probe check failed: {what}"))
}

/// A Horner evaluation of `coeffs` at `x`.
fn horner(coeffs: &[F], x: F) -> F {
    coeffs.iter().rev().fold(F::ZERO, |acc, &a| acc * x + a)
}

/// Runs every probe at `params`, each for about `budget`. Returns
/// `(metric name, median µs per call)` in a fixed order.
///
/// # Errors
///
/// A kernel returned a wrong result.
#[allow(clippy::too_many_lines)]
pub fn run_probes(
    params: &ProtocolParams,
    seed: u64,
    budget: Duration,
) -> Result<Vec<(&'static str, f64)>, String> {
    let (n, t, k) = (params.n, params.t, params.k);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x70_7265_6265);
    let err = |e: yoso_the::TeError| e.to_string();
    let (pk, shares) = MockTe::<F>::keygen(&mut rng, n, t).map_err(err)?;
    let mut out = Vec::new();

    // ---- Threshold encryption.
    let msgs: Vec<F> = (0..64).map(|_| F::random(&mut rng)).collect();
    let mut enc_rng = rng.clone();
    out.push((
        "the.encrypt_us",
        probe(
            budget,
            |i| MockTe::encrypt(&mut enc_rng, &pk, msgs[i % 64]).0,
            |i, ct| match MockTe::decrypt_with_shares(&pk, &ct, &shares) {
                Ok(m) if m == msgs[i % 64] => Ok(()),
                _ => fail("encrypt does not decrypt to its message"),
            },
        )?,
    ));
    let m = F::random(&mut rng);
    let (ct, _) = MockTe::encrypt(&mut rng, &pk, m);
    out.push((
        "the.partial_decrypt_us",
        probe(
            budget,
            |i| MockTe::partial_decrypt(&shares[i % n], &ct),
            |_, pd| {
                if MockTe::partial_is_valid(&pk, &ct, &pd) {
                    Ok(())
                } else {
                    fail("partial decryption")
                }
            },
        )?,
    ));
    let partials: Vec<PartialDec<F>> = shares[..=t]
        .iter()
        .map(|s| MockTe::partial_decrypt(s, &ct))
        .collect();
    out.push((
        "the.combine_us",
        probe(
            budget,
            |_| MockTe::combine(&pk, &ct, &partials),
            |_, r| match r {
                Ok(v) if v == m => Ok(()),
                _ => fail("combine does not return the encrypted message"),
            },
        )?,
    ));
    let mut rs_rng = rng.clone();
    out.push((
        "the.reshare_us",
        probe(
            budget,
            |i| MockTe::reshare(&mut rs_rng, &pk, &shares[i % n]),
            |_, msg| {
                if MockTe::reshare_is_valid(&pk, &msg) {
                    Ok(())
                } else {
                    fail("reshare message")
                }
            },
        )?,
    ));
    let reshares: Vec<ReshareMsg<F>> = shares[..=t]
        .iter()
        .map(|s| MockTe::reshare(&mut rng, &pk, s))
        .collect();
    let refs: Vec<&ReshareMsg<F>> = reshares.iter().collect();
    out.push((
        "the.next_public_key_us",
        probe(
            budget,
            |_| MockTe::next_public_key(&pk, &refs),
            |i, r| {
                let j = (i * 7919) % n;
                let ok = match (r, MockTe::recombine_key(&pk, j, &refs)) {
                    (Ok(next), Ok(key)) => next.vks[j] == key.value * pk.g && next.h == pk.h,
                    _ => false,
                };
                if ok {
                    Ok(())
                } else {
                    fail("next public key does not match the recombined share")
                }
            },
        )?,
    ));

    // ---- Field kernels.
    let xs_t: Vec<F> = (1..=t as u64 + 1).map(F::from_u64).collect();
    let poly = Poly::<F>::random(&mut rng, t);
    let ys_t: Vec<F> = xs_t.iter().map(|&x| poly.eval(x)).collect();
    out.push((
        "field.basis_at_us",
        probe(
            budget,
            |_| lagrange::basis_at(&xs_t, F::ZERO),
            |_, r| match r {
                Ok(b)
                    if b.iter().zip(&ys_t).map(|(&l, &y)| l * y).sum::<F>()
                        == poly.eval(F::ZERO) =>
                {
                    Ok(())
                }
                _ => fail("basis_at does not interpolate at 0"),
            },
        )?,
    ));
    let xs_n: Vec<F> = (1..=n as u64).map(F::from_u64).collect();
    out.push((
        "field.eval_many_us",
        probe(
            budget,
            |_| poly.eval_many(&xs_n),
            |i, ev| {
                let j = (i * 7919) % n;
                if ev.len() == n && ev[j] == poly.eval(xs_n[j]) {
                    Ok(())
                } else {
                    fail("eval_many")
                }
            },
        )?,
    ));

    // ---- Packed secret sharing.
    let scheme = PackedSharing::<F>::new(n, k).map_err(|e| e.to_string())?;
    let secrets: Vec<F> = (0..k).map(|_| F::random(&mut rng)).collect();
    let deg = params.packing_degree();
    let rec_deg = params.reconstruction_threshold() - 1;
    let mut sh_rng = rng.clone();
    let first: Vec<usize> = (0..=deg).collect();
    out.push((
        "pss.share_us",
        probe(
            budget,
            |_| scheme.share(&mut sh_rng, &secrets, deg),
            |_, r| {
                let ok = r.is_ok_and(|s| {
                    scheme
                        .reconstruct(&s.select(&first), deg)
                        .is_ok_and(|v| v == secrets)
                });
                if ok {
                    Ok(())
                } else {
                    fail("share does not reconstruct to its secrets")
                }
            },
        )?,
    ));
    let sharing = scheme
        .share(&mut rng, &secrets, rec_deg)
        .map_err(|e| e.to_string())?;
    let rec_shares = sharing.select(&(0..=rec_deg).collect::<Vec<_>>());
    out.push((
        "pss.reconstruct_us",
        probe(
            budget,
            |_| scheme.reconstruct(&rec_shares, rec_deg),
            |_, r| match r {
                Ok(v) if v == secrets => Ok(()),
                _ => fail("reconstruct does not return the shared secrets"),
            },
        )?,
    ));

    // ---- NIZKs: partial decryption.
    let mut g_rng = rng.clone();
    let party = n / 2;
    let d = shares[party].value * ct.u;
    let mut pr_rng = rng.clone();
    out.push((
        "nizk.pdec_prove_us",
        probe(
            budget,
            |_| pdec_proof(&mut pr_rng, &pk, &ct, party, shares[party].value, d),
            |_, p| {
                if verify_pdec_proof(&pk, &ct, party, d, &p) {
                    Ok(())
                } else {
                    fail("pdec proof")
                }
            },
        )?,
    ));
    let proof = pdec_proof(&mut rng, &pk, &ct, party, shares[party].value, d);
    out.push((
        "nizk.pdec_verify_us",
        probe(
            budget,
            |_| verify_pdec_proof(&pk, &ct, party, d, &proof),
            |_, ok| {
                let bad = verify_pdec_proof(&pk, &ct, party, d, &PdecProof::garbage(&mut g_rng));
                if ok && !bad {
                    Ok(())
                } else {
                    fail("pdec verifier")
                }
            },
        )?,
    ));

    // ---- NIZKs: key re-sharing with encrypted subshares.
    let mut coeffs = vec![shares[party].value];
    coeffs.extend((0..t).map(|_| F::random(&mut rng)));
    let commitments: Vec<F> = coeffs.iter().map(|&a| a * pk.g).collect();
    let recipients: Vec<_> = (0..n)
        .map(|_| LinearPke::<F>::keygen(&mut rng).public)
        .collect();
    let (encs, rands): (Vec<Ciphertext<F>>, Vec<F>) = recipients
        .iter()
        .enumerate()
        .map(|(m, rpk)| {
            LinearPke::encrypt(&mut rng, rpk, horner(&coeffs, F::from_u64(m as u64 + 1)))
        })
        .unzip();
    let verify_rs =
        |p: &ReshareProof<F>| verify_reshare_proof(&pk, party, &commitments, &recipients, &encs, p);
    let mut pr_rng = rng.clone();
    out.push((
        "nizk.reshare_prove_us",
        probe(
            budget,
            |_| {
                reshare_proof(
                    &mut pr_rng,
                    &pk,
                    &commitments,
                    &recipients,
                    &encs,
                    &coeffs,
                    &rands,
                )
            },
            |_, p| {
                if verify_rs(&p) {
                    Ok(())
                } else {
                    fail("reshare proof")
                }
            },
        )?,
    ));
    let proof = reshare_proof(
        &mut rng,
        &pk,
        &commitments,
        &recipients,
        &encs,
        &coeffs,
        &rands,
    );
    out.push((
        "nizk.reshare_verify_us",
        probe(
            budget,
            |_| verify_rs(&proof),
            |_, ok| {
                let bad = verify_rs(&ReshareProof::garbage(&mut g_rng, n, t));
                if ok && !bad {
                    Ok(())
                } else {
                    fail("reshare verifier")
                }
            },
        )?,
    ));

    // ---- NIZKs: online μ-share publication.
    let kff = LinearPke::<F>::keygen(&mut rng);
    let (slope, offset) = (F::random(&mut rng), F::random(&mut rng));
    let published = offset - kff.secret.scalar * slope;
    let mut pr_rng = rng.clone();
    out.push((
        "nizk.share_prove_us",
        probe(
            budget,
            |_| {
                share_proof(
                    &mut pr_rng,
                    &kff.public,
                    slope,
                    offset,
                    published,
                    kff.secret.scalar,
                )
            },
            |_, p| {
                if verify_share_proof(&kff.public, slope, offset, published, &p) {
                    Ok(())
                } else {
                    fail("share proof")
                }
            },
        )?,
    ));
    let proof = share_proof(
        &mut rng,
        &kff.public,
        slope,
        offset,
        published,
        kff.secret.scalar,
    );
    out.push((
        "nizk.share_verify_us",
        probe(
            budget,
            |_| verify_share_proof(&kff.public, slope, offset, published, &proof),
            |_, ok| {
                let bad = verify_share_proof(
                    &kff.public,
                    slope,
                    offset,
                    published,
                    &ShareProof::garbage(&mut g_rng),
                );
                if ok && !bad {
                    Ok(())
                } else {
                    fail("share verifier")
                }
            },
        )?,
    ));
    Ok(out)
}
