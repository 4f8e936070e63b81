//! `yoso-perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload for about `S` seconds and prints, as the last line
//! of standard output, `{"correct", "attempted", "failed", "metrics"}`:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. A human-readable table goes to standard error.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use yoso_perfbench::probes::run_probes;
use yoso_perfbench::report::{median, result_json, Metrics};
use yoso_perfbench::selftest::self_test;
use yoso_perfbench::stages::{
    drive, time_setup, workload, Instance, RunBoard, RunOutcome, WORKLOADS,
};
use yoso_perfbench::trace::{TraceTotals, Tracer, COUNTED_STEPS};

/// Set-up samples per invocation: one per protocol run, topped up
/// with set-up-only runs while [`SETUP_TOP_UP`] lasts.
const SETUP_SAMPLES: usize = 15;
/// Time for set-up-only runs after the protocol runs.
const SETUP_TOP_UP: Duration = Duration::from_secs(3);
/// Untraced protocol runs per invocation at least (the transcript
/// hash is compared across runs of one seed). A traced invocation
/// makes one untraced and at least one traced run.
const MIN_RUNS: usize = 2;
/// Time per kernel probe.
const PROBE_BUDGET: Duration = Duration::from_millis(80);

/// The steps a traced run charges time to, in protocol order: the
/// protocol's phase labels, plus `setup-rekey` for the rekey posts.
const STEP_LABELS: [&str; 15] = [
    "setup",
    "setup/dkg",
    "setup-rekey",
    "offline/1-beaver",
    "offline/2-wire-rand",
    "offline/3-dependent",
    "offline/4-pack",
    "offline/5-reenc-inputs",
    "offline/6-reenc-shares",
    "offline/handover",
    "online/1-keydist",
    "online/2-input",
    "online/3-mult",
    "online/4-output",
    "online/handover",
];
const STAGES: [&str; 3] = ["setup", "offline", "online"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut wl, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => wl = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = wl.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Counts attempted and failed operations (protocol runs and audited
/// rounds) and checks every run against `Circuit::evaluate` and
/// against the first run of the seed.
struct Tally {
    attempted: u64,
    failed: u64,
    correct: bool,
    /// Transcript hash and elements per gate of the first run.
    first: Option<(u64, f64, f64)>,
}

impl Tally {
    fn new() -> Self {
        Tally {
            attempted: 0,
            failed: 0,
            correct: true,
            first: None,
        }
    }

    fn record(&mut self, inst: &Instance, res: Result<RunOutcome, String>) -> Option<RunOutcome> {
        self.attempted += 1;
        let out = match res {
            Ok(out) => out,
            Err(e) => {
                eprintln!("run failed: {e}");
                self.failed += 1;
                return None;
            }
        };
        eprintln!(
            "run: setup {:.4} s, offline {:.4} s, online {:.4} s, audit {:.4} s",
            out.setup_s, out.offline_s, out.online_s, out.audit_s
        );
        self.attempted += out.rounds_audited;
        self.failed += out.failed_rounds.len() as u64;
        let key = (
            out.hash,
            out.elements_per_gate("online/3-mult"),
            out.elements_per_gate("offline"),
        );
        let mut ok = out.outputs == inst.expected;
        if !ok {
            eprintln!("run outputs differ from Circuit::evaluate");
        }
        if *self.first.get_or_insert(key) != key {
            eprintln!("transcript hash or element counts differ across runs of one seed");
            ok = false;
        }
        if !ok {
            self.failed += 1;
            self.correct = false;
        }
        Some(out)
    }
}

/// Runs `one` at least `min_runs` times and then as long as another
/// run is expected to end within `seconds` of the start.
fn repeat<T>(min_runs: usize, seconds: f64, mut one: impl FnMut() -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    let mut longest: f64 = 0.0;
    loop {
        let t0 = Instant::now();
        out.push(one());
        longest = longest.max(t0.elapsed().as_secs_f64());
        if out.len() >= min_runs && start.elapsed().as_secs_f64() + longest > seconds {
            return out;
        }
    }
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One protocol run on a fresh board. Also returns the TCP client's
/// `(post_frames, sync_round_trips)`, zero in-process.
fn run_once(
    inst: &Instance,
    tracer: Option<&Arc<Tracer>>,
) -> (Result<RunOutcome, String>, (u64, u64)) {
    let mut wire = (0, 0);
    let res = RunBoard::new(inst.w.backend, tracer).and_then(|rb| {
        let out = drive(inst, &rb, tracer);
        if let Some(t) = &rb.tcp {
            let s = t.wire_stats();
            wire = (s.post_frames, s.sync_round_trips);
        }
        rb.shutdown();
        out
    });
    (res, wire)
}

fn untraced(inst: &Instance, seconds: f64, tally: &mut Tally) -> Result<Metrics, String> {
    // `VmHWM` only grows: read it after the first run, so allocator
    // state left behind by later runs does not add to it.
    let mut peak_rss = None;
    let runs: Vec<RunOutcome> = repeat(MIN_RUNS, seconds, || {
        let (res, _) = run_once(inst, None);
        peak_rss.get_or_insert_with(peak_rss_mb);
        tally.record(inst, res)
    })
    .into_iter()
    .flatten()
    .collect();
    let first = runs.first().ok_or("every protocol run failed")?;
    let mut setups: Vec<f64> = runs.iter().map(|r| r.setup_s).collect();
    let top_up = Instant::now();
    while setups.len() < SETUP_SAMPLES && top_up.elapsed() < SETUP_TOP_UP {
        setups.push(time_setup(inst)?);
    }
    let med = |f: fn(&RunOutcome) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    let mut m = Metrics::default();
    m.push("setup_s", median(&setups), "s");
    m.push("offline_s", med(|r| r.offline_s), "s");
    m.push("online_s", med(|r| r.online_s), "s");
    m.push("audit_s", med(|r| r.audit_s), "s");
    m.push("total_s", med(RunOutcome::total_s), "s");
    m.push(
        "online_elements_per_gate",
        first.elements_per_gate("online/3-mult"),
        "elements",
    );
    m.push(
        "offline_elements_per_gate",
        first.elements_per_gate("offline"),
        "elements",
    );
    m.push("peak_rss_mb", peak_rss.unwrap_or_default(), "MB");
    m.push(
        "ok_ops_share",
        (tally.attempted - tally.failed) as f64 / tally.attempted as f64,
        "ratio",
    );
    Ok(m)
}

/// The per-layer counters of one traced run.
struct Traced {
    out: RunOutcome,
    totals: TraceTotals,
    /// `(post_frames, sync_round_trips)` of the TCP client.
    wire: (u64, u64),
}

fn step_metric(label: &str) -> String {
    format!("step.{}_s", label.replace('/', "."))
}

fn traced(inst: &Instance, seconds: f64, tally: &mut Tally) -> Result<Metrics, String> {
    // One untraced run first, within the same time budget: the
    // reference for the tracing overhead.
    let start = Instant::now();
    let (reference, _) = run_once(inst, None);
    let untraced_total = tally.record(inst, reference).map(|r| r.total_s());
    let remaining = seconds - start.elapsed().as_secs_f64();
    let runs: Vec<Traced> = repeat(1, remaining, || {
        let tracer = Arc::new(Tracer::default());
        let (res, wire) = run_once(inst, Some(&tracer));
        let totals = tracer.totals();
        let out = tally.record(inst, res)?;
        for round in &out.failed_rounds {
            let labels = totals.round_labels.get(round).cloned().unwrap_or_default();
            eprintln!("failed read-back round {round} was posted under {labels:?}");
        }
        Some(Traced { out, totals, wire })
    })
    .into_iter()
    .flatten()
    .collect();
    if runs.is_empty() {
        return Err("every traced run failed".into());
    }
    let med = |f: &dyn Fn(&Traced) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    let mut m = Metrics::default();
    for label in STEP_LABELS {
        m.push(
            step_metric(label),
            med(&|r| r.totals.steps.get(label).copied().unwrap_or(0.0)),
            "s",
        );
    }
    for stage in STAGES {
        m.push(
            format!("step.{stage}.tail_s"),
            med(&|r| r.totals.tails.get(stage).copied().unwrap_or(0.0)),
            "s",
        );
        // Labels outside the known list still count towards their stage.
        m.push(
            format!("step.{stage}.other_s"),
            med(&|r| {
                r.totals
                    .steps
                    .iter()
                    .filter(|(l, _)| !STEP_LABELS.contains(&l.as_str()))
                    .filter(|(l, _)| yoso_perfbench::trace::stage_of(l) == stage)
                    .map(|(_, s)| s)
                    .sum()
            }),
            "s",
        );
    }
    m.push("trace.setup_s", med(&|r| r.out.setup_s), "s");
    m.push("trace.offline_s", med(&|r| r.out.offline_s), "s");
    m.push("trace.online_s", med(&|r| r.out.online_s), "s");
    m.push("trace.audit_s", med(&|r| r.out.audit_s), "s");
    m.push(
        "trace.offline_residual_s",
        med(&|r| r.totals.residual("offline")),
        "s",
    );
    m.push(
        "trace.online_residual_s",
        med(&|r| r.totals.residual("online")),
        "s",
    );
    let total = med(&|r| r.out.total_s());
    m.push("trace.total_s", total, "s");
    m.push("trace.untraced_total_s", untraced_total.unwrap_or(0.0), "s");
    m.push(
        "trace.overhead_share",
        untraced_total.map_or(0.0, |u| total / u - 1.0),
        "ratio",
    );

    m.push(
        "board.post_calls",
        med(&|r| r.totals.post_calls as f64),
        "count",
    );
    m.push("board.posts", med(&|r| r.totals.posts as f64), "count");
    m.push(
        "board.posted_mb",
        med(&|r| r.totals.posted_bytes as f64 / 1e6),
        "MB",
    );
    m.push(
        "board.posts_per_call",
        med(&|r| r.totals.posts as f64 / r.totals.post_calls.max(1) as f64),
        "count",
    );
    m.push("board.post_busy_s", med(&|r| r.totals.post_busy_s), "s");
    m.push("board.rounds", med(&|r| r.totals.rounds as f64), "count");
    for label in COUNTED_STEPS {
        m.push(
            format!("board.{}.post_calls", label.replace('/', ".")),
            med(&|r| r.totals.post_calls_by_step.get(label).copied().unwrap_or(0) as f64),
            "count",
        );
    }
    m.push(
        "board.read_calls",
        med(&|r| r.totals.read_calls as f64),
        "count",
    );
    m.push("board.read_busy_s", med(&|r| r.totals.read_busy_s), "s");
    m.push("tcp.post_frames", med(&|r| r.wire.0 as f64), "count");
    m.push("tcp.sync_round_trips", med(&|r| r.wire.1 as f64), "count");
    m.push(
        "tcp.read_failures",
        med(&|r| r.totals.read_failures as f64),
        "count",
    );

    for (name, us) in run_probes(&inst.params, inst.seed, PROBE_BUDGET)? {
        m.push(name, us, "us");
    }
    Ok(m)
}

fn run(args: &Args) -> Result<(bool, u64, u64, Metrics), String> {
    let w = workload(&args.workload).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload {:?} (known: {})",
            args.workload,
            names.join(", ")
        )
    })?;
    let mut tally = Tally::new();
    let inst = Instance::new(w, args.seed)?;
    let metrics = if args.trace {
        // The traced invocation also pins the stage runner to the engine.
        if let Err(e) = self_test(w, args.seed) {
            eprintln!("self-test failed: {e}");
            tally.correct = false;
        }
        traced(&inst, args.seconds, &mut tally)?
    } else {
        untraced(&inst, args.seconds, &mut tally)?
    };
    Ok((tally.correct, tally.attempted, tally.failed, metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "{e}\nusage: yoso-perfbench --workload NAME --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((correct, attempted, failed, metrics)) => {
            for (name, value, unit) in metrics.rows() {
                eprintln!("{name:<40} {value:>16.6} {unit}");
            }
            println!("{}", result_json(correct, attempted, failed, &metrics));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::FAILURE
        }
    }
}
