//! The workloads and the stage-by-stage protocol runner.
//!
//! [`drive`] calls the public stage functions in the order
//! `Engine::run_with_board` does — `run_setup`, then `run_dkg` +
//! `rekey_setup` for a dealerless setup, `run_offline`, `run_online` —
//! with the same RNG stream and the same stage-boundary
//! `PhaseAccumulator::drain_sealed` / `retain_rounds_from` calls in
//! streaming mode, and times every call from outside. The self-test in
//! [`crate::selftest`] pins it to `Engine::run`. One difference is not
//! visible in the transcript: the public offline and online entry points
//! each build their own share-buffer pool, where the engine shares one.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use yoso_circuit::{generators, Circuit};
use yoso_core::messages::Post;
use yoso_core::setup::{self, SetupArtifacts};
use yoso_core::{dkg, offline, online, ExecutionConfig, ProtocolParams};
use yoso_field::{PrimeField, F61};
use yoso_runtime::{
    ActiveAttack, Adversary, BoardServer, BoardTransport, BulletinBoard, InProcessTransport,
    LeakLog, PhaseAccumulator, PhaseStats, Posting, ServerHandle, TcpOptions, TcpTransport,
};
use yoso_the::mock::LinearPke;

use crate::trace::{TimedTransport, Tracer};

/// Audit passes over a materialized in-process transcript per run.
pub const AUDIT_REPS: usize = 5;

/// The corruption gap every workload runs at.
pub const EPSILON: f64 = 0.25;

/// Where a workload's board lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The in-process board.
    InProcess,
    /// A loopback `BoardServer` thread reached through one
    /// `TcpTransport` connection (default pipelined window), followed
    /// by an auditor read-back of every round over the wire.
    Tcp,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name as passed to `--workload`.
    pub name: &'static str,
    /// Committee size.
    pub n: usize,
    /// Circuit width in multiples of `k`: the circuit is
    /// `wide_layered(width_k · k, 2, 2)`.
    pub width_k: usize,
    /// Produce and verify NIZK proofs.
    pub proofs: bool,
    /// Replace the dealer with the DKG plus a rekey of the setup.
    pub dealerless: bool,
    /// `Some(attack)`: `t` malicious members per committee.
    pub attack: Option<ActiveAttack>,
    /// Board backend.
    pub backend: Backend,
    /// Streaming transcript consumption (bounded retention).
    pub streaming: bool,
    /// Engine worker threads.
    pub threads: usize,
}

/// The benchmark's workloads.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "table1_n512",
        n: 512,
        width_k: 1,
        proofs: false,
        dealerless: false,
        attack: None,
        backend: Backend::InProcess,
        streaming: true,
        threads: 2,
    },
    Workload {
        name: "god_n64",
        n: 64,
        width_k: 1,
        proofs: true,
        dealerless: true,
        attack: Some(ActiveAttack::WrongValue),
        backend: Backend::InProcess,
        streaming: false,
        threads: 1,
    },
    Workload {
        name: "tcp_n128",
        n: 128,
        width_k: 12,
        proofs: false,
        dealerless: true,
        attack: None,
        backend: Backend::Tcp,
        streaming: false,
        threads: 1,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Workload {
    /// The same workload at committee size `n` (the self-test size).
    pub fn at_size(mut self, n: usize) -> Self {
        self.n = n;
        self
    }

    /// The engine configuration this workload corresponds to.
    pub fn config(&self) -> ExecutionConfig {
        let mut cfg = ExecutionConfig::default().with_threads(self.threads);
        cfg.produce_proofs = self.proofs;
        cfg.dealerless_setup = self.dealerless;
        if self.streaming {
            cfg = cfg.with_streaming();
        }
        cfg
    }
}

/// A workload made concrete for one seed: circuit, inputs, expected
/// outputs.
#[derive(Debug, Clone)]
pub struct Instance {
    /// The workload.
    pub w: Workload,
    /// The seed everything below derives from.
    pub seed: u64,
    /// Protocol parameters `(n, t, k)` at ε = [`EPSILON`].
    pub params: ProtocolParams,
    /// The circuit.
    pub circuit: Circuit<F61>,
    /// Client inputs drawn from the seed.
    pub inputs: Vec<Vec<F61>>,
    /// `Circuit::evaluate` on the inputs.
    pub expected: Vec<Vec<F61>>,
    /// The adversary.
    pub adversary: Adversary,
}

/// Separates the input stream from the protocol stream of one seed.
const INPUT_STREAM: u64 = 0x9e37_79b9_7f4a_7c15;

impl Instance {
    /// Builds the instance of `w` for `seed`.
    ///
    /// # Errors
    ///
    /// Infeasible parameters or a circuit that does not build.
    pub fn new(w: Workload, seed: u64) -> Result<Self, String> {
        let params = ProtocolParams::from_gap(w.n, EPSILON).map_err(|e| e.to_string())?;
        let circuit = generators::wide_layered::<F61>(w.width_k * params.k, 2, 2)
            .map_err(|e| e.to_string())?;
        let mut rng = StdRng::seed_from_u64(seed ^ INPUT_STREAM);
        let inputs: Vec<Vec<F61>> = circuit
            .inputs_per_client()
            .iter()
            .map(|wires| wires.iter().map(|_| F61::random(&mut rng)).collect())
            .collect();
        let expected = circuit.evaluate(&inputs).map_err(|e| e.to_string())?;
        let adversary = match w.attack {
            Some(attack) => Adversary::active(params.t, attack),
            None => Adversary::none(),
        };
        Ok(Instance {
            w,
            seed,
            params,
            circuit,
            inputs,
            expected,
            adversary,
        })
    }

    /// The RNG the protocol run draws from (shared with the engine in
    /// the self-test, so both see the same stream).
    pub fn protocol_rng(&self) -> StdRng {
        StdRng::seed_from_u64(self.seed)
    }
}

/// A board for one run, plus the server and client behind it on the
/// TCP backend.
pub struct RunBoard {
    /// The board the stages post to.
    pub board: BulletinBoard<Post>,
    /// The TCP client (for its wire counters).
    pub tcp: Option<Arc<TcpTransport<Post>>>,
    server: Option<ServerHandle>,
}

impl RunBoard {
    /// A fresh board on `backend`; with a tracer, the transport is
    /// wrapped in the timing layer.
    ///
    /// # Errors
    ///
    /// The loopback server cannot bind or the client cannot connect.
    pub fn new(backend: Backend, tracer: Option<&Arc<Tracer>>) -> Result<Self, String> {
        let (inner, tcp, server): (Arc<dyn BoardTransport<Post>>, _, _) = match backend {
            Backend::InProcess => (Arc::new(InProcessTransport::new()), None, None),
            Backend::Tcp => {
                let server = BoardServer::bind(SocketAddr::from(([127, 0, 0, 1], 0)))
                    .and_then(BoardServer::spawn)
                    .map_err(|e| e.to_string())?;
                let tcp = Arc::new(
                    TcpTransport::connect(server.addr(), TcpOptions::default())
                        .map_err(|e| e.to_string())?,
                );
                (tcp.clone(), Some(tcp), Some(server))
            }
        };
        let transport: Arc<dyn BoardTransport<Post>> = match tracer {
            Some(t) => Arc::new(TimedTransport::new(inner, Arc::clone(t))),
            None => inner,
        };
        Ok(RunBoard {
            board: BulletinBoard::with_transport(transport),
            tcp,
            server,
        })
    }

    /// Stops the loopback server (if any) and waits for its thread.
    pub fn shutdown(mut self) {
        if let Some(mut s) = self.server.take() {
            s.shutdown();
        }
    }
}

/// What one protocol run produced, timed from outside.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Per-client outputs.
    pub outputs: Vec<Vec<F61>>,
    /// Per-phase communication statistics.
    pub phases: Vec<(String, PhaseStats)>,
    /// FNV-1a 64 hash of the audited transcript lines.
    pub hash: u64,
    /// `run_setup` (+ DKG and rekey) seconds.
    pub setup_s: f64,
    /// `run_offline` seconds.
    pub offline_s: f64,
    /// `run_online` seconds.
    pub online_s: f64,
    /// Board read-back and hashing seconds.
    pub audit_s: f64,
    /// Rounds read back.
    pub rounds_audited: u64,
    /// Rounds whose read-back failed.
    pub failed_rounds: Vec<u64>,
    /// Multiplication gates.
    pub mul_gates: usize,
}

impl RunOutcome {
    /// Stage times summed.
    pub fn total_s(&self) -> f64 {
        self.setup_s + self.offline_s + self.online_s + self.audit_s
    }

    /// Elements posted under phases starting with `prefix`, per gate
    /// (the definition `RunResult` uses).
    pub fn elements_per_gate(&self, prefix: &str) -> f64 {
        let e: u64 = self
            .phases
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, s)| s.elements)
            .sum();
        e as f64 / self.mul_gates.max(1) as f64
    }
}

/// The auditor's per-round transcript hash over the TCP board: the
/// line format and FNV-1a 64 of `PhaseAccumulator`, but a round whose
/// read-back fails is counted and skipped instead of ending the audit.
#[derive(Debug)]
pub struct RoundAuditor {
    hash: u64,
    line: String,
}

impl Default for RoundAuditor {
    fn default() -> Self {
        RoundAuditor {
            hash: 0xcbf2_9ce4_8422_2325,
            line: String::new(),
        }
    }
}

impl RoundAuditor {
    fn absorb(&mut self, p: &Posting<Post>) {
        use std::fmt::Write as _;
        self.line.clear();
        let _ = writeln!(
            self.line,
            "{}|{}|{}|{:?}",
            p.round, p.from, p.phase, p.message
        );
        for &b in self.line.as_bytes() {
            self.hash = (self.hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Reads every round of `board` back; returns the number of rounds
    /// and the rounds whose read-back failed.
    ///
    /// # Errors
    ///
    /// The board's round clock cannot be read.
    pub fn read_back(&mut self, board: &BulletinBoard<Post>) -> Result<(u64, Vec<u64>), String> {
        let open = board.round().map_err(|e| e.to_string())?;
        let mut failed = Vec::new();
        for round in 0..=open {
            if let Err(e) = board.for_each_in_round(round, |p| self.absorb(p)) {
                eprintln!("read-back of round {round} failed: {e}");
                failed.push(round);
            }
        }
        Ok((open + 1, failed))
    }

    /// The hash of every line absorbed.
    pub fn hash(&self) -> u64 {
        self.hash
    }
}

fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

fn begin(tracer: Option<&Arc<Tracer>>) -> Instant {
    if let Some(t) = tracer {
        t.begin_stage();
    }
    Instant::now()
}

fn end(tracer: Option<&Arc<Tracer>>, stage: &'static str, start: Instant) -> f64 {
    let s = secs(start);
    if let Some(t) = tracer {
        t.end_stage(stage, s);
    }
    s
}

/// The setup stage: `run_setup`, then for a dealerless setup the DKG
/// among a freshly sampled committee and the rekey of the setup onto
/// its key. `between` runs after `run_setup` (the engine's stage
/// boundary drain) and is not timed. Returns the artifacts and the
/// stage seconds.
fn setup_stage(
    inst: &Instance,
    board: &BulletinBoard<Post>,
    rng: &mut StdRng,
    tracer: Option<&Arc<Tracer>>,
    between: &mut dyn FnMut() -> Result<(), String>,
) -> Result<(SetupArtifacts<F61>, f64), String> {
    let err = |e: yoso_core::ProtocolError| e.to_string();
    let (params, circuit) = (&inst.params, &inst.circuit);
    let start = begin(tracer);
    let mut setup =
        setup::run_setup::<F61, _>(rng, params, board, circuit.mul_depth(), circuit.clients())
            .map_err(err)?;
    let mut setup_s = end(tracer, "setup", start);
    if inst.w.dealerless {
        between()?;
        let start = begin(tracer);
        let committee = inst.adversary.sample_committee(rng, "dkg", params.n);
        let role_keys: Vec<_> = (0..params.n).map(|_| LinearPke::keygen(rng)).collect();
        let chain = dkg::run_dkg(
            rng,
            board,
            &committee,
            &role_keys,
            params.t,
            &inst.w.config(),
        )
        .map_err(err)?;
        if let Some(t) = tracer {
            t.relabel(Some("setup-rekey"));
        }
        let rekeyed = setup::rekey_setup(rng, params, board, setup, chain);
        if let Some(t) = tracer {
            t.relabel(None);
        }
        setup = rekeyed.map_err(err)?;
        setup_s += end(tracer, "setup", start);
    }
    Ok((setup, setup_s))
}

/// Times the setup stage alone on a fresh board of the workload's
/// backend — the extra set-up samples of a run.
///
/// # Errors
///
/// Any protocol or transport error, as text.
pub fn time_setup(inst: &Instance) -> Result<f64, String> {
    let rb = RunBoard::new(inst.w.backend, None)?;
    let mut rng = inst.protocol_rng();
    let out = setup_stage(inst, &rb.board, &mut rng, None, &mut || Ok(()));
    rb.shutdown();
    Ok(out?.1)
}

/// Runs `inst` once, stage by stage, on `rb`.
///
/// # Errors
///
/// Any protocol or transport error, as text.
pub fn drive(
    inst: &Instance,
    rb: &RunBoard,
    tracer: Option<&Arc<Tracer>>,
) -> Result<RunOutcome, String> {
    let err = |e: yoso_core::ProtocolError| e.to_string();
    let board = &rb.board;
    let w = &inst.w;
    let params = &inst.params;
    let cfg = w.config();
    let circuit = &inst.circuit;
    let adversary = &inst.adversary;
    let mut rng = inst.protocol_rng();
    let bc = circuit.batched(params.k);
    let leak = LeakLog::new();
    let mut acc = w.streaming.then(PhaseAccumulator::new);
    let mut audit_s = 0.0;
    let mut drain = |acc: &mut Option<PhaseAccumulator>| -> Result<(), String> {
        if let Some(a) = acc.as_mut() {
            let start = Instant::now();
            a.drain_sealed(board).map_err(|e| e.to_string())?;
            board
                .retain_rounds_from(a.next_round())
                .map_err(|e| e.to_string())?;
            audit_s += secs(start);
        }
        Ok(())
    };

    let (mut setup, setup_s) = setup_stage(inst, board, &mut rng, tracer, &mut || drain(&mut acc))?;
    drain(&mut acc)?;
    setup.tsk.set_leak_log(leak.clone());

    let start = begin(tracer);
    let off =
        offline::run_offline(&mut rng, params, board, adversary, &cfg, &bc, &setup).map_err(err)?;
    let offline_s = end(tracer, "offline", start);
    drain(&mut acc)?;

    let start = begin(tracer);
    let on = online::run_online(
        &mut rng,
        params,
        board,
        adversary,
        &cfg,
        &bc,
        &setup,
        off,
        &inst.inputs,
        &leak,
    )
    .map_err(err)?;
    let online_s = end(tracer, "online", start);

    // The final audit: the rest of the streamed transcript, or the
    // whole materialized one. A materialized in-process transcript is
    // audited [`AUDIT_REPS`] times (every pass must hash alike) and
    // the median pass counts, since one pass takes only milliseconds.
    let (hash, phases, rounds_audited, failed_rounds) = match (w.backend, acc) {
        (Backend::InProcess, Some(mut a)) => {
            let start = Instant::now();
            a.finish(board).map_err(|e| e.to_string())?;
            audit_s += secs(start);
            (a.transcript_hash(), a.phases(), a.next_round(), Vec::new())
        }
        (Backend::InProcess, None) => {
            let mut passes = Vec::with_capacity(AUDIT_REPS);
            let mut last: Option<PhaseAccumulator> = None;
            for _ in 0..AUDIT_REPS {
                let start = Instant::now();
                let mut a = PhaseAccumulator::new();
                a.finish(board).map_err(|e| e.to_string())?;
                passes.push(secs(start));
                if last
                    .as_ref()
                    .is_some_and(|l| l.transcript_hash() != a.transcript_hash())
                {
                    return Err("audit passes over one transcript hash differently".into());
                }
                last = Some(a);
            }
            audit_s += crate::report::median(&passes);
            let a = last.ok_or("no audit pass")?;
            let phases = board.meter().phases();
            if a.phases() != phases {
                return Err("audited phase stats differ from the board meter".into());
            }
            (a.transcript_hash(), phases, a.next_round(), Vec::new())
        }
        (Backend::Tcp, _) => {
            let start = Instant::now();
            let mut auditor = RoundAuditor::default();
            let (audited, failed) = auditor.read_back(board)?;
            audit_s += secs(start);
            (auditor.hash(), board.meter().phases(), audited, failed)
        }
    };

    Ok(RunOutcome {
        outputs: on.outputs,
        phases,
        hash,
        setup_s,
        offline_s,
        online_s,
        audit_s,
        rounds_audited,
        failed_rounds,
        mul_gates: circuit.mul_count(),
    })
}
