//! Value-level regression pin for the threshold-key custody
//! arithmetic (decryption, re-encryption openings, handovers).
//!
//! One fixed-seed run at n = 64 (t = 15, k = 17) with proofs on, a
//! dealer-free setup and `t` actively malicious members per committee,
//! so provider sets are never the prefix `0..=t`. The transcript hash
//! covers posting metadata only; the digest of `μ` (the public
//! `v − λ` of every wire) covers the values, so a change to any
//! Lagrange weight, opening or handed-over share moves it.

use rand::SeedableRng;
use yoso_circuit::generators;
use yoso_core::{Engine, ExecutionConfig, ProtocolParams};
use yoso_field::{PrimeField, F61};
use yoso_runtime::{ActiveAttack, Adversary};

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
fn n64_active_adversary_values_are_pinned() {
    let (n, t, k) = (64, 15, 17);
    let params = ProtocolParams::new(n, t, k).unwrap();
    let circuit = generators::wide_layered::<F61>(2 * k, 2, 2).unwrap();
    let inputs: Vec<Vec<F61>> = circuit
        .inputs_per_client()
        .iter()
        .enumerate()
        .map(|(c, wires)| {
            (0..wires.len() as u64).map(|i| F61::from(1000 * c as u64 + 3 * i + 1)).collect()
        })
        .collect();
    let cfg = ExecutionConfig::default().dealerless().with_streaming();
    let adversary = Adversary::active(t, ActiveAttack::WrongValue);
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5eed_0064);
    let run = Engine::new(params, cfg).run(&mut rng, &circuit, &inputs, &adversary).unwrap();

    assert_eq!(run.outputs, circuit.evaluate(&inputs).unwrap());
    assert_eq!(fnv64(&run.outputs.concat()), 0x489b_37bc_d652_0e4a);
    assert_eq!(fnv64(&run.mu), 0x68ff_f36d_dc3c_e1a8);
    assert_eq!(run.transcript_hash, Some(0xb4cd_8ffb_418d_514e));
}
