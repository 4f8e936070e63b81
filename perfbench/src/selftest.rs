//! Runner-equals-engine self-test: at a reduced committee size, the
//! stage-by-stage runner must reproduce `Engine::run` on the same
//! workload configuration — the same outputs, per-phase statistics and
//! transcript hash.

use yoso_core::messages::Post;
use yoso_core::{Engine, RunResult};
use yoso_field::F61;
use yoso_runtime::{BulletinBoard, PhaseAccumulator};

use crate::stages::{drive, Backend, Instance, RunBoard, Workload};

/// Committee size of the self-test.
pub const SELF_TEST_N: usize = 32;

/// `Engine::run_with_board` on the instance, with its transcript hash.
fn engine_reference(inst: &Instance) -> Result<(RunResult<F61>, u64), String> {
    let engine = Engine::new(inst.params, inst.w.config());
    let rb = RunBoard::new(inst.w.backend, None)?;
    let board: &BulletinBoard<Post> = &rb.board;
    let mut rng = inst.protocol_rng();
    let run = engine
        .run_with_board(
            &mut rng,
            &inst.circuit,
            &inst.inputs,
            &inst.adversary,
            board,
        )
        .map_err(|e| e.to_string())?;
    let hash = match run.transcript_hash {
        Some(h) => h,
        None => {
            let mut acc = PhaseAccumulator::new();
            acc.finish(board).map_err(|e| e.to_string())?;
            acc.transcript_hash()
        }
    };
    rb.shutdown();
    Ok((run, hash))
}

/// Runs the self-test for `w` at [`SELF_TEST_N`]; returns the engine's
/// transcript hash.
///
/// # Errors
///
/// Describes the first disagreement between the stage runner and the engine.
pub fn self_test(w: Workload, seed: u64) -> Result<u64, String> {
    let inst = Instance::new(w.at_size(SELF_TEST_N), seed)?;
    let (run, hash) = engine_reference(&inst)?;
    let rb = RunBoard::new(w.backend, None)?;
    let ours = drive(&inst, &rb, None)?;
    rb.shutdown();
    let name = w.name;
    if ours.outputs != run.outputs {
        return Err(format!(
            "{name}: stage runner outputs differ from Engine::run"
        ));
    }
    if ours.outputs != inst.expected {
        return Err(format!("{name}: outputs differ from Circuit::evaluate"));
    }
    if ours.phases != run.phases {
        return Err(format!(
            "{name}: stage runner phase stats differ from Engine::run"
        ));
    }
    if ours.hash != hash {
        return Err(format!(
            "{name}: stage runner transcript hash {:#018x} differs from Engine::run's {hash:#018x}",
            ours.hash
        ));
    }
    if w.backend == Backend::Tcp && !ours.failed_rounds.is_empty() {
        return Err(format!("{name}: read-back failed at the self-test size"));
    }
    Ok(hash)
}

#[cfg(test)]
mod tests {
    use super::self_test;
    use crate::stages::WORKLOADS;

    #[test]
    fn stage_runner_reproduces_engine_on_every_workload() {
        for w in WORKLOADS {
            self_test(w, 7).unwrap();
        }
    }
}
