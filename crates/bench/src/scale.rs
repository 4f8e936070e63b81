//! Paper-scale allocation profile: the `yoso bench-scale` harness.
//!
//! Runs the mock-scheme end-to-end protocol at Table-1 committee sizes
//! (`n ∈ {512, 1024, 2048}`, `ε = 0.25`) twice per size — once in
//! streaming mode (bounded board retention + pooled share-buffer
//! arenas, [`ExecutionConfig::with_streaming`]) and once materialized
//! (the legacy full-history, fresh-buffers-per-call profile) — and
//! records for each run:
//!
//! - wall-clock per protocol stage,
//! - hot-path buffer allocations ([`yoso_field::allocstats`]) total and
//!   per multiplication gate,
//! - process-wide allocation counts when the host binary registered the
//!   counting allocator (`--features bench-alloc`, see `yoso-cli`),
//! - peak RSS (`VmHWM`) and current RSS (`VmRSS`) from
//!   `/proc/self/status`,
//! - the FNV-1a 64 transcript hash.
//!
//! The report lands in `BENCH_scale.json` at the repo root. Acceptance
//! gates (skipped under `--smoke`, which shrinks the sizes for CI):
//! the streaming and materialized transcripts must hash identically at
//! every size, and at the largest size the materialized run must
//! perform at least 2× the streaming run's hot-path allocations.
//!
//! Within each size the **streaming run goes first**: `VmHWM` is a
//! monotone per-process high-water mark, so the lower-footprint mode
//! must be sampled before the full-history mode at the same size or
//! its reading would just echo the materialized peak.

use std::time::Instant;

use yoso_core::messages::Post;
use yoso_core::{Engine, ExecutionConfig, ProtocolParams};
use yoso_field::{allocstats, F61};
use yoso_runtime::{Adversary, BulletinBoard, PhaseAccumulator};

use crate::{random_inputs, rng, workload};

/// Committee sizes for the full profile (Table 1's range).
pub const FULL_SIZES: [usize; 3] = [512, 1024, 2048];
/// Committee sizes for `--smoke` (CI-fast, asserts transcript identity
/// but not the allocation ratio).
pub const SMOKE_SIZES: [usize; 2] = [32, 64];
/// Corruption gap used throughout the experiments.
pub const EPSILON: f64 = 0.25;

/// One protocol execution's measurements.
#[derive(Debug, Clone)]
pub struct ModeRun {
    /// `"streaming"` or `"materialized"`.
    pub mode: &'static str,
    /// Total wall-clock seconds.
    pub wall_secs: f64,
    /// Per-stage wall-clock seconds, in execution order.
    pub stage_wall_secs: Vec<(&'static str, f64)>,
    /// Hot-path buffer allocations recorded by
    /// [`yoso_field::allocstats`] during the run.
    pub hot_allocs: u64,
    /// Process-wide allocation count delta (`None` without the
    /// `bench-alloc` feature in the host binary).
    pub global_allocs: Option<u64>,
    /// Process-wide allocated-bytes delta (same gating).
    pub global_alloc_bytes: Option<u64>,
    /// FNV-1a 64 hash of the full transcript.
    pub transcript_hash: u64,
    /// `VmHWM` sampled right after the run (monotone per process).
    pub peak_rss_kb: Option<u64>,
    /// `VmRSS` sampled right after the run.
    pub rss_kb: Option<u64>,
    /// Synchronous rounds the run consumed.
    pub rounds: u64,
}

/// Both executions at one committee size.
#[derive(Debug, Clone)]
pub struct SizeReport {
    /// Committee size.
    pub n: usize,
    /// Packing factor.
    pub k: usize,
    /// Corruption threshold.
    pub t: usize,
    /// Multiplication gates in the workload circuit.
    pub mul_gates: usize,
    /// Run seed (deterministic per size).
    pub seed: u64,
    /// The streaming-mode run (always executed first).
    pub streaming: ModeRun,
    /// The materialized (legacy) run.
    pub materialized: ModeRun,
}

impl SizeReport {
    /// Materialized-over-streaming hot-path allocation ratio.
    pub fn hot_alloc_ratio(&self) -> f64 {
        self.materialized.hot_allocs as f64 / self.streaming.hot_allocs.max(1) as f64
    }
}

fn read_status_kb(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix(key) {
            let v = rest
                .trim_start_matches(':')
                .trim()
                .trim_end_matches("kB")
                .trim();
            return v.parse().ok();
        }
    }
    None
}

/// Peak resident set size in kB (`VmHWM`; Linux only, monotone per
/// process — sample the low-footprint mode first).
pub fn peak_rss_kb() -> Option<u64> {
    read_status_kb("VmHWM")
}

/// Current resident set size in kB (`VmRSS`; Linux only).
pub fn current_rss_kb() -> Option<u64> {
    read_status_kb("VmRSS")
}

#[cfg(feature = "bench-alloc")]
fn global_alloc_sample() -> Option<(u64, u64)> {
    let s = stats_alloc::INSTRUMENTED_SYSTEM.stats();
    Some((s.allocations, s.bytes_allocated))
}

#[cfg(not(feature = "bench-alloc"))]
fn global_alloc_sample() -> Option<(u64, u64)> {
    None
}

fn run_mode(
    params: ProtocolParams,
    circuit: &yoso_circuit::Circuit<F61>,
    inputs: &[Vec<F61>],
    seed: u64,
    streaming: bool,
) -> (ModeRun, Vec<Vec<F61>>) {
    let cfg = if streaming {
        ExecutionConfig {
            produce_proofs: false,
            ..ExecutionConfig::default()
        }
        .with_streaming()
    } else {
        // The legacy profile the streaming path is compared against:
        // full posting history, fresh buffers per call. Proofs are off
        // in both modes so the comparison isolates the share hot path.
        ExecutionConfig {
            produce_proofs: false,
            audit_board: true,
            ..ExecutionConfig::default()
        }
    };
    let engine = Engine::new(params, cfg);
    let board: BulletinBoard<Post> = BulletinBoard::new();
    let mut r = rng(seed);

    allocstats::reset();
    let global_before = global_alloc_sample();
    let start = Instant::now();
    let run = engine
        .run_with_board(&mut r, circuit, inputs, &Adversary::none(), &board)
        .expect("scale bench run succeeds");
    let wall_secs = start.elapsed().as_secs_f64();
    let hot_allocs = allocstats::hot_allocs();
    let global_after = global_alloc_sample();

    let transcript_hash = match run.transcript_hash {
        Some(h) => h,
        None => {
            // Materialized runs keep the whole posting history; fold it
            // through the same accumulator the streaming path uses so
            // the two hashes are comparable line for line.
            let mut acc = PhaseAccumulator::new();
            acc.finish(&board).expect("materialized board is readable");
            acc.transcript_hash()
        }
    };

    let (global_allocs, global_alloc_bytes) = match (global_before, global_after) {
        (Some((a0, b0)), Some((a1, b1))) => (Some(a1 - a0), Some(b1 - b0)),
        _ => (None, None),
    };

    (
        ModeRun {
            mode: if streaming { "streaming" } else { "materialized" },
            wall_secs,
            stage_wall_secs: run.stage_wall_secs.clone(),
            hot_allocs,
            global_allocs,
            global_alloc_bytes,
            transcript_hash,
            peak_rss_kb: peak_rss_kb(),
            rss_kb: current_rss_kb(),
            rounds: run.rounds,
        },
        run.outputs,
    )
}

/// Profiles one committee size: streaming first (see module docs),
/// then materialized, pinning output equality across the two.
pub fn profile_size(n: usize) -> SizeReport {
    let params = ProtocolParams::from_gap(n, EPSILON).expect("Table-1 sizes are feasible");
    let seed = 97 + n as u64;
    let mut r = rng(seed);
    let circuit = workload(params.k, 1, 2);
    let inputs = random_inputs(&mut r, &circuit);
    let mul_gates = circuit.mul_count();

    let (streaming, out_s) = run_mode(params, &circuit, &inputs, seed, true);
    let (materialized, out_m) = run_mode(params, &circuit, &inputs, seed, false);
    assert_eq!(out_s, out_m, "streaming must not change outputs (n = {n})");

    SizeReport {
        n,
        k: params.k,
        t: params.t,
        mul_gates,
        seed,
        streaming,
        materialized,
    }
}

fn push_mode_json(json: &mut String, run: &ModeRun, mul_gates: usize, last: bool) {
    use std::fmt::Write as _;
    let opt = |v: Option<u64>| v.map_or_else(|| "null".into(), |x| x.to_string());
    writeln!(json, "        {{").unwrap();
    writeln!(json, "          \"mode\": \"{}\",", run.mode).unwrap();
    writeln!(json, "          \"wall_secs\": {:.6},", run.wall_secs).unwrap();
    writeln!(json, "          \"stage_wall_secs\": {{").unwrap();
    for (i, (name, secs)) in run.stage_wall_secs.iter().enumerate() {
        let comma = if i + 1 == run.stage_wall_secs.len() { "" } else { "," };
        writeln!(json, "            \"{name}\": {secs:.6}{comma}").unwrap();
    }
    writeln!(json, "          }},").unwrap();
    writeln!(json, "          \"hot_allocs\": {},", run.hot_allocs).unwrap();
    writeln!(
        json,
        "          \"hot_allocs_per_gate\": {:.4},",
        run.hot_allocs as f64 / mul_gates.max(1) as f64
    )
    .unwrap();
    writeln!(json, "          \"global_allocs\": {},", opt(run.global_allocs)).unwrap();
    writeln!(
        json,
        "          \"global_alloc_bytes\": {},",
        opt(run.global_alloc_bytes)
    )
    .unwrap();
    writeln!(
        json,
        "          \"transcript_hash\": \"{:#018x}\",",
        run.transcript_hash
    )
    .unwrap();
    writeln!(json, "          \"peak_rss_kb\": {},", opt(run.peak_rss_kb)).unwrap();
    writeln!(json, "          \"rss_kb\": {},", opt(run.rss_kb)).unwrap();
    writeln!(json, "          \"rounds\": {}", run.rounds).unwrap();
    writeln!(json, "        }}{}", if last { "" } else { "," }).unwrap();
}

/// Runs the full profile, writes `BENCH_scale.json`, prints a summary
/// and (full mode only) enforces the acceptance gates. Returns the
/// per-size reports for callers that want to post-process.
pub fn run_scale(smoke: bool) -> Vec<SizeReport> {
    use std::fmt::Write as _;

    let sizes: &[usize] = if smoke { &SMOKE_SIZES } else { &FULL_SIZES };
    println!(
        "bench-scale: n in {:?}, epsilon = {EPSILON}{}",
        sizes,
        if smoke { " (smoke)" } else { "" }
    );
    if global_alloc_sample().is_none() {
        println!(
            "bench-scale: counting allocator not linked (build with --features bench-alloc); \
             global_allocs will be null"
        );
    }

    let reports: Vec<SizeReport> = sizes
        .iter()
        .map(|&n| {
            let rep = profile_size(n);
            println!(
                "  n={:5}  k={:4}  t={:4}  gates={:5}  hot allocs {:>9} (materialized) vs {:>7} \
                 (streaming), ratio {:.1}x, hash {:#018x}",
                rep.n,
                rep.k,
                rep.t,
                rep.mul_gates,
                rep.materialized.hot_allocs,
                rep.streaming.hot_allocs,
                rep.hot_alloc_ratio(),
                rep.streaming.transcript_hash,
            );
            rep
        })
        .collect();

    let mut json = String::from("{\n");
    writeln!(json, "  \"bench\": \"scale\",").unwrap();
    writeln!(json, "  \"smoke\": {smoke},").unwrap();
    writeln!(json, "  \"epsilon\": {EPSILON},").unwrap();
    writeln!(json, "  \"sizes\": [").unwrap();
    for (i, rep) in reports.iter().enumerate() {
        writeln!(json, "    {{").unwrap();
        writeln!(json, "      \"n\": {},", rep.n).unwrap();
        writeln!(json, "      \"k\": {},", rep.k).unwrap();
        writeln!(json, "      \"t\": {},", rep.t).unwrap();
        writeln!(json, "      \"mul_gates\": {},", rep.mul_gates).unwrap();
        writeln!(json, "      \"seed\": {},", rep.seed).unwrap();
        writeln!(json, "      \"hot_alloc_ratio\": {:.4},", rep.hot_alloc_ratio()).unwrap();
        writeln!(
            json,
            "      \"transcript_identical\": {},",
            rep.streaming.transcript_hash == rep.materialized.transcript_hash
        )
        .unwrap();
        writeln!(json, "      \"modes\": [").unwrap();
        push_mode_json(&mut json, &rep.streaming, rep.mul_gates, false);
        push_mode_json(&mut json, &rep.materialized, rep.mul_gates, true);
        writeln!(json, "      ]").unwrap();
        writeln!(json, "    }}{}", if i + 1 == reports.len() { "" } else { "," }).unwrap();
    }
    writeln!(json, "  ],").unwrap();
    let rss_reported = reports
        .iter()
        .all(|r| r.streaming.peak_rss_kb.is_some() && r.materialized.peak_rss_kb.is_some());
    writeln!(json, "  \"acceptance\": {{").unwrap();
    writeln!(
        json,
        "    \"transcript_identical_all_sizes\": {},",
        reports
            .iter()
            .all(|r| r.streaming.transcript_hash == r.materialized.transcript_hash)
    )
    .unwrap();
    writeln!(
        json,
        "    \"hot_alloc_ratio_at_max_n\": {:.4},",
        reports.last().map_or(0.0, SizeReport::hot_alloc_ratio)
    )
    .unwrap();
    writeln!(json, "    \"peak_rss_reported\": {rss_reported}").unwrap();
    writeln!(json, "  }}").unwrap();
    json.push('}');
    json.push('\n');

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scale.json");
    std::fs::write(path, &json).expect("write BENCH_scale.json");
    println!("wrote {path}");

    // Transcript identity is the correctness pin for the whole
    // streaming path — enforced even in smoke mode.
    for rep in &reports {
        assert_eq!(
            rep.streaming.transcript_hash, rep.materialized.transcript_hash,
            "streaming transcript diverged from materialized at n = {}",
            rep.n
        );
    }
    println!("transcripts byte-identical at every size — ok");

    if smoke {
        println!("smoke mode: allocation-ratio and RSS acceptance assertions skipped");
        return reports;
    }

    let last = reports.last().expect("at least one size");
    assert!(
        last.hot_alloc_ratio() >= 2.0,
        "streaming path must allocate >= 2x fewer hot-path buffers at n = {} (ratio {:.2})",
        last.n,
        last.hot_alloc_ratio()
    );
    println!(
        "hot-path allocation ratio at n = {}: {:.1}x >= 2x — ok",
        last.n,
        last.hot_alloc_ratio()
    );
    if cfg!(target_os = "linux") {
        assert!(rss_reported, "peak RSS must be reported on Linux");
        println!("peak RSS reported for every run — ok");
    } else {
        println!("peak RSS recorded but not asserted (non-Linux host)");
    }
    reports
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rss_readout_works_on_linux() {
        if cfg!(target_os = "linux") {
            // Two separate /proc reads race against allocation between
            // them, so only read-once sanity is asserted here.
            let rss = current_rss_kb().expect("VmRSS present");
            assert!(rss > 0);
            let hwm = peak_rss_kb().expect("VmHWM present");
            assert!(hwm > 0);
        }
    }

    #[test]
    fn tiny_profile_is_internally_consistent() {
        let _guard = crate::PROTOCOL_TEST_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let rep = profile_size(16);
        assert_eq!(
            rep.streaming.transcript_hash,
            rep.materialized.transcript_hash
        );
        assert_eq!(rep.streaming.rounds, rep.materialized.rounds);
        assert!(rep.streaming.hot_allocs > 0);
        assert!(
            rep.materialized.hot_allocs > rep.streaming.hot_allocs,
            "fresh-buffer mode must allocate more ({} vs {})",
            rep.materialized.hot_allocs,
            rep.streaming.hot_allocs
        );
    }
}
