//! Shared helpers for the experiment harness.
//!
//! The binaries in `src/bin/` regenerate every quantitative artifact of
//! the paper (see DESIGN.md §4 for the experiment index and
//! EXPERIMENTS.md for paper-vs-measured records):
//!
//! | Binary | Experiment | Artifact |
//! |---|---|---|
//! | `table1` | E1 | Table 1 (§6 committee-size analysis) |
//! | `online_comm` | E2 | online elements/gate vs `n` — ours flat, baseline linear |
//! | `offline_comm` | E3 | offline elements/gate vs `n` — both linear |
//! | `improvement` | E4 | §1.1.2 improvement factors (28×, >1000×) |
//! | `failstop` | E5 | §5.4 crash-tolerance sweep |
//! | `sortition_mc` | E6 | Monte-Carlo validation of the §6 tail bounds |
//! | `god_attack` | E7 | GOD under every active-attack strategy |
//! | `it_comparison` | E9 | the gap in the information-theoretic setting (§7) |
//! | `ablation_packing` | A1 | packing factor `k` as the design dial |
//! | `ablation_nizk` | A2 | NIZK share of posted traffic |

#![forbid(unsafe_code)]

pub mod scale;

use rand::SeedableRng;

use yoso_circuit::{generators, Circuit};
use yoso_core::{Engine, ExecutionConfig, ProtocolParams};
use yoso_field::{F61, PrimeField};
use yoso_runtime::Adversary;

/// Deterministic RNG for experiments.
pub fn rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

/// Derives the paper-recommended parameters for committee size `n` and
/// gap `epsilon`, panicking on infeasible combinations (experiment
/// configs are fixed).
pub fn gap_params(n: usize, epsilon: f64) -> ProtocolParams {
    ProtocolParams::from_gap(n, epsilon).expect("experiment parameters must be feasible")
}

/// The standard experiment workload: a wide layered circuit whose
/// width scales with the packing factor so each layer forms
/// `width / k` full batches (the paper's "circuit width `O(n)`"
/// assumption).
pub fn workload(k: usize, batches_per_layer: usize, depth: usize) -> Circuit<F61> {
    generators::wide_layered::<F61>(k * batches_per_layer, depth, 2)
        .expect("workload circuit builds")
}

/// Random inputs matching a circuit's input layout.
pub fn random_inputs<R: rand::Rng + ?Sized>(rng: &mut R, circuit: &Circuit<F61>) -> Vec<Vec<F61>> {
    circuit
        .inputs_per_client()
        .iter()
        .map(|wires| wires.iter().map(|_| F61::random(rng)).collect())
        .collect()
}

/// Runs the packed protocol on the standard workload and returns
/// `(online elements/gate, offline elements/gate)`.
pub fn measure_packed(
    seed: u64,
    params: ProtocolParams,
    batches_per_layer: usize,
    depth: usize,
) -> (f64, f64) {
    let mut r = rng(seed);
    let circuit = workload(params.k, batches_per_layer, depth);
    let inputs = random_inputs(&mut r, &circuit);
    let engine = Engine::new(params, ExecutionConfig::sweep());
    let run = engine
        .run(&mut r, &circuit, &inputs, &Adversary::none())
        .expect("experiment run succeeds");
    (run.online_elements_per_gate(), run.offline_elements_per_gate())
}

/// Runs the CDN baseline on the same workload and returns its online
/// elements/gate (multiplication traffic only, matching
/// [`measure_packed`]'s numerator).
pub fn measure_baseline(
    seed: u64,
    params: ProtocolParams,
    k_for_workload: usize,
    batches_per_layer: usize,
    depth: usize,
) -> f64 {
    let mut r = rng(seed);
    let circuit = workload(k_for_workload, batches_per_layer, depth);
    let inputs = random_inputs(&mut r, &circuit);
    let engine = yoso_core::baseline::BaselineEngine::new(params, ExecutionConfig::sweep());
    let run = engine
        .run(&mut r, &circuit, &inputs, &Adversary::none())
        .expect("baseline run succeeds");
    run.elements("online/mult") as f64 / run.mul_gates as f64
}

/// Serializes this crate's tests that run protocol executions: the
/// hot-path allocation counter ([`yoso_field::allocstats`]) is
/// process-global, so a concurrent run would leak into another test's
/// counter deltas.
#[cfg(test)]
pub(crate) static PROTOCOL_TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_shapes() {
        let c = workload(3, 2, 2);
        assert_eq!(c.mul_count(), 12);
        assert_eq!(c.mul_depth(), 2);
    }

    #[test]
    fn measured_costs_are_positive_and_ordered() {
        let _guard = PROTOCOL_TEST_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let params = gap_params(12, 0.25);
        let (online, offline) = measure_packed(1, params, 2, 1);
        assert!(online > 0.0);
        assert!(offline > online, "offline {offline} should dominate online {online}");
    }
}
