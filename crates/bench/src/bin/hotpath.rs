//! Hot-path smoke benchmark (single short run per column).
//!
//! Times the inner loops this repo's performance work targets — packed
//! dealing, packed reconstruction, Paillier encryption, committee
//! re-encryption and verified threshold decryption — at committee
//! sizes n ∈ {32, 128, 512}, comparing the optimized paths (warm
//! [`EvalDomain`] caches, fixed-base [`EncryptionContext`] tables, the
//! parallel buffer-and-replay re-encryption pipeline, Straus/Pippenger
//! multi-exponentiation) against the naive per-call costs they
//! replace. Prints tables of ns/op and writes the machine-readable
//! record to `BENCH_hotpath.json` at the repo root.
//!
//! With `--smoke`, runs a single tiny config (n = 16) and skips the
//! acceptance assertions — the CI mode that keeps the bench path from
//! rotting without paying for a full run.
//!
//! Also times *cold* interpolation — naive Lagrange ([`EvalDomain`])
//! vs the mixed-radix transform ([`NttDomain`]) — over subgroup point
//! sets of smooth sizes up to 1287, asserting bit-identical outputs in
//! every mode.
//!
//! Also measures the role-sharded execution mode end to end: the full
//! three-phase pipeline wall-clock with the committee work split
//! across 1/2/4/8 in-process workers sharing one board
//! (`worker_configs` in the JSON record) — the same partitioning
//! `yoso worker` runs across OS processes, minus spawn overhead.
//!
//! Acceptance targets (see DESIGN.md §perf): ≥5× on repeated packed
//! reconstruction at n = 512, ≥2× on batched Paillier encryption, ≥2×
//! on the multi-exp verified-decryption pipeline, ≥5× on cold NTT
//! interpolation at size ≥1024, parallel re-encryption never >5%
//! slower than sequential at any size, and — gated on the host's
//! hardware thread count, with a logged skip otherwise — ≥3× on
//! 8-thread re-encryption and ≥1.5× end-to-end at 4 workers.

#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use rand::SeedableRng;
use yoso_bignum::Nat;
use yoso_core::messages::Post;
use yoso_core::tsk::TskChain;
use yoso_core::ExecutionConfig;
use yoso_field::{EvalDomain, NttDomain, PrimeField, F61};
use yoso_pss_sharing::PackedSharing;
use yoso_runtime::{BulletinBoard, Committee};
use yoso_the::mock::{LinearPke, MockTe, PkePublicKey};
use yoso_the::paillier::nizk::{prove_pdec, verify_pdec, verify_pdec_batch, PdecProof};
use yoso_the::paillier::{Ciphertext, EncryptionContext, PartialDec, ThresholdPaillier};

/// Committee sizes exercised; k follows the paper's k ≈ n/4 regime.
const SIZES: [usize; 3] = [32, 128, 512];
/// Cold-interpolation point counts: smooth divisors of `p − 1`
/// (33 = 3·11, 143 = 11·13, 525 = 3·5²·7, 1287 = 3²·11·13), so the
/// naive and transform paths run over the identical subgroup points.
const INTERP_SIZES: [usize; 4] = [33, 143, 525, 1287];
/// Paillier prime size — small enough for a smoke run, large enough
/// that exponentiation dominates.
const PRIME_BITS: usize = 256;
/// Worker threads for the parallel re-encryption column.
const PAR_THREADS: usize = 8;

fn rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

/// Median-of-3 wall time of `iters` runs of `f`, in ns per iteration.
fn time_ns<T>(iters: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut samples = Vec::with_capacity(3);
    for _ in 0..3 {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        samples.push(start.elapsed().as_nanos() as f64 / iters as f64);
    }
    samples.sort_by(f64::total_cmp);
    samples[1]
}

struct Row {
    n: usize,
    k: usize,
    share_ns: f64,
    recon_cached_ns: f64,
    recon_naive_ns: f64,
    recon_speedup: f64,
    enc_naive_ns: f64,
    enc_batched_ns: f64,
    enc_speedup: f64,
    reenc_seq_ns: f64,
    reenc_par_ns: f64,
    reenc_speedup: f64,
    pdec_naive_ns: f64,
    pdec_multiexp_ns: f64,
    pdec_speedup: f64,
}

fn bench_pss(n: usize) -> (f64, f64, f64) {
    let k = n / 4;
    let degree = n / 2 + k - 1;
    let mut r = rng(7);
    let scheme = PackedSharing::<F61>::new(n, k).unwrap();
    let secrets: Vec<F61> = (0..k).map(|_| F61::random(&mut r)).collect();
    let shares = scheme.share(&mut r, &secrets, degree).unwrap();
    let subset: Vec<usize> = (0..=degree).collect();
    let selected = shares.select(&subset);
    let iters = (20_000 / n).max(8);

    let share_ns = time_ns(iters, || scheme.share(&mut r, &secrets, degree).unwrap());
    // Warm path: the scheme's EvalDomain caches are hit on every call
    // after the first — the steady state inside the protocol's layer
    // loop, where one subset reconstructs a whole layer of gates.
    scheme.reconstruct(&selected, degree).unwrap();
    let cached_ns = time_ns(iters, || scheme.reconstruct(&selected, degree).unwrap());
    // Naive path: a fresh scheme per call pays the full domain build
    // (weights, master polynomial, basis rows) every time — the
    // per-call cost before domains were cached.
    let naive_ns = time_ns(iters, || {
        PackedSharing::<F61>::new(n, k)
            .unwrap()
            .reconstruct(&selected, degree)
            .unwrap()
    });
    (share_ns, cached_ns, naive_ns)
}

fn bench_paillier(batch: usize) -> (f64, f64) {
    let mut r = rng(11);
    let (pk, _) = ThresholdPaillier::keygen(&mut r, PRIME_BITS, 3, 1).unwrap();
    let ms: Vec<Nat> =
        (0..batch).map(|_| Nat::random_below(&mut r, &pk.n_mod)).collect();

    let naive_total = time_ns(1, || {
        ms.iter()
            .map(|m| ThresholdPaillier::encrypt(&mut r, &pk, m))
            .collect::<Vec<_>>()
    });
    // The batched path includes the table build: that is the real cost
    // a committee member pays once per epoch before encrypting its
    // batch of contributions.
    let batched_total = time_ns(1, || {
        let ctx = EncryptionContext::new(&mut r, &pk);
        ctx.encrypt_batch(&mut r, &pk, &ms)
    });
    (naive_total / batch as f64, batched_total / batch as f64)
}

/// Committee re-encryption of k = n/4 items at 1 vs `PAR_THREADS`
/// worker threads (the buffer-and-replay pipeline in
/// [`TskChain::reencrypt`]). Returns ns per item.
fn bench_reenc(n: usize) -> (f64, f64) {
    let k = (n / 4).max(1);
    let t = (n / 4).max(1);
    let mut r = rng(13);
    let chain = TskChain::<F61>::keygen(&mut r, n, t).unwrap();
    let committee = Committee::honest("bench", n);
    let items: Vec<(PkePublicKey<F61>, yoso_the::mock::Ciphertext<F61>)> = (0..k)
        .map(|_| {
            let target = LinearPke::<F61>::keygen(&mut r);
            let m = F61::random(&mut r);
            let (ct, _) = MockTe::encrypt(&mut r, &chain.pk, m);
            (target.public, ct)
        })
        .collect();
    let iters = (1024 / n).max(1);
    let phase = "offline/6-reenc-shares";
    let seq_cfg = ExecutionConfig::default().with_threads(1);
    let par_cfg = ExecutionConfig::default().with_threads(PAR_THREADS);
    let seq_total = time_ns(iters, || {
        let board: BulletinBoard<Post> = BulletinBoard::new();
        chain.reencrypt(&mut r, &board, &committee, &seq_cfg, phase, &items).unwrap()
    });
    let par_total = time_ns(iters, || {
        let board: BulletinBoard<Post> = BulletinBoard::new();
        chain.reencrypt(&mut r, &board, &committee, &par_cfg, phase, &items).unwrap()
    });
    (seq_total / k as f64, par_total / k as f64)
}

/// The verified threshold-decryption pipeline over a batch of
/// ciphertexts: t+1 partial decryptions per ciphertext, NIZK
/// verification of every partial, and the Lagrange combine. Naive =
/// per-ciphertext loop ([`ThresholdPaillier::partial_decrypt`] +
/// [`verify_pdec`] + [`ThresholdPaillier::combine`]); multiexp =
/// the batched pipeline ([`ThresholdPaillier::partial_decrypt_batch`]
/// + [`verify_pdec_batch`] + [`ThresholdPaillier::combine_batch`]).
///
/// Proofs are generated outside the timed region — both columns
/// measure the decrypting side only. Returns ns per ciphertext.
fn bench_pdec(batch: usize) -> (f64, f64) {
    let mut r = rng(17);
    let (pk, shares) = ThresholdPaillier::keygen(&mut r, PRIME_BITS, 3, 1).unwrap();
    let subset = &shares[..pk.threshold + 1];
    let cts: Vec<Ciphertext> = (0..batch)
        .map(|_| {
            let m = Nat::random_below(&mut r, &pk.n_mod);
            ThresholdPaillier::encrypt(&mut r, &pk, &m).0
        })
        .collect();
    // proofs[si][ci] proves subset[si]'s partial decryption of cts[ci].
    let proofs: Vec<Vec<PdecProof>> = subset
        .iter()
        .map(|share| {
            cts.iter()
                .map(|ct| {
                    let pd = ThresholdPaillier::partial_decrypt(&pk, share, ct);
                    prove_pdec(&mut r, &pk, ct, share, &pd)
                })
                .collect()
        })
        .collect();

    let naive_total = time_ns(1, || {
        let mut out = Vec::with_capacity(batch);
        for (ci, ct) in cts.iter().enumerate() {
            let mut partials = Vec::with_capacity(subset.len());
            for (si, share) in subset.iter().enumerate() {
                let pd = ThresholdPaillier::partial_decrypt(&pk, share, ct);
                assert!(verify_pdec(&pk, ct, &pd, &proofs[si][ci]));
                partials.push(pd);
            }
            out.push(ThresholdPaillier::combine(&pk, &partials, &Nat::one()).unwrap());
        }
        out
    });
    let multiexp_total = time_ns(1, || {
        let per_share: Vec<Vec<PartialDec>> = subset
            .iter()
            .map(|share| ThresholdPaillier::partial_decrypt_batch(&pk, share, &cts))
            .collect();
        let mut items: Vec<(&Ciphertext, &PartialDec, &PdecProof)> =
            Vec::with_capacity(subset.len() * batch);
        for (si, pds) in per_share.iter().enumerate() {
            for (ci, ct) in cts.iter().enumerate() {
                items.push((ct, &pds[ci], &proofs[si][ci]));
            }
        }
        assert!(verify_pdec_batch(&mut r, &pk, &items));
        let sets: Vec<Vec<PartialDec>> = (0..batch)
            .map(|ci| per_share.iter().map(|pds| pds[ci].clone()).collect())
            .collect();
        ThresholdPaillier::combine_batch(&pk, &sets, &Nat::one()).unwrap()
    });
    (naive_total / batch as f64, multiexp_total / batch as f64)
}

struct InterpRow {
    size: usize,
    naive_ns: f64,
    ntt_ns: f64,
    speedup: f64,
}

struct BoardRow {
    batch: usize,
    per_post_ns: f64,
    batch_post_ns: f64,
    batch_speedup: f64,
    tcp_batch_ns: f64,
    inproc_posts_per_sec: f64,
    inproc_bytes_per_sec: f64,
    tcp_posts_per_sec: f64,
    tcp_bytes_per_sec: f64,
    tcp_pipelined_ns: f64,
    tcp_pipelined_posts_per_sec: f64,
    tcp_pipeline_speedup: f64,
}

/// Elements metered per posting in the board-throughput bench (a
/// μ-share with its NIZK: ciphertext + proof, as in the online phase).
const BOARD_POST_ELEMENTS: u64 = 5;

/// Frame cap for the TCP posting columns: small enough that a batch
/// spans many wire frames, which is the regime the pipelined protocol
/// targets (an engine flush of a full parallel buffer splits into many
/// frames under the 64MiB server cap; at the default cap a small bench
/// batch would fit one frame and both modes would degenerate to one
/// round trip). Both TCP columns use the same cap, so the comparison
/// isolates the ack discipline: one round trip per frame (lockstep) vs
/// one per window (pipelined). 512 B ≈ 8 posts per frame, so a batch
/// of 256 spans ~32 frames — lockstep pays ~32 ack waits where
/// pipelined pays one, which is the gap the headline assert pins.
const TCP_BENCH_FRAME_CAP: usize = 512;

/// Pipelining window for the pipelined TCP column (the client
/// default).
const TCP_BENCH_WINDOW: usize = 32;

/// Board posting throughput: `batch` μ-share posts issued one
/// [`BulletinBoard::post`] call at a time vs one
/// [`BulletinBoard::post_batch`] call, on the in-process backend (both
/// pay board construction per iteration, so the comparison isolates
/// the per-post lock/meter/alloc overhead the batched path removes),
/// plus the same `post_batch` over a loopback-TCP `board-server` in
/// both wire modes: lockstep (one round trip per frame) and pipelined
/// (windowed frames, coalesced acks), at the same capped frame size so
/// each batch spans many frames. Returns ns per post for each mode.
fn bench_board(batch: usize) -> BoardRow {
    use yoso_runtime::RoleId;

    let bytes = yoso_core::messages::to_bytes(BOARD_POST_ELEMENTS);
    let msgs: Vec<Post> = vec![Post::MulShare; batch];
    let role = RoleId::new("bench", 0);
    let iters = (65_536 / batch).max(4);

    // Boards live outside the timed closures so what is measured is
    // posting cost, not board construction/teardown; the log grows
    // across iterations but appends stay O(1) amortized.
    let board: BulletinBoard<Post> = BulletinBoard::new();
    let per_post_total = time_ns(iters, || {
        for m in &msgs {
            board.post(role.clone(), m.clone(), "bench/board", BOARD_POST_ELEMENTS, bytes).unwrap();
        }
    });
    drop(board);
    let board: BulletinBoard<Post> = BulletinBoard::new();
    let batch_total = time_ns(iters, || {
        board
            .post_batch(role.clone(), "bench/board", &msgs, BOARD_POST_ELEMENTS, bytes)
            .unwrap();
    });
    drop(board);
    // One server per mode for all its iterations (spawning a listener
    // per iteration would swamp the frame cost being measured). Both
    // TCP modes post through the same capped chunking (see
    // [`TCP_BENCH_FRAME_CAP`]); only the pipelining window differs.
    let lockstep_opts = yoso_runtime::TcpOptions {
        pipeline_window: 1,
        max_post_frame_bytes: TCP_BENCH_FRAME_CAP,
        ..yoso_runtime::TcpOptions::default()
    };
    let (mut handle, board) =
        yoso_runtime::tcp::loopback_with::<Post>(lockstep_opts).expect("loopback server");
    let tcp_total = time_ns(iters, || {
        board
            .post_batch(role.clone(), "bench/board", &msgs, BOARD_POST_ELEMENTS, bytes)
            .unwrap();
    });
    handle.shutdown();
    let pipelined_opts = yoso_runtime::TcpOptions {
        pipeline_window: TCP_BENCH_WINDOW,
        max_post_frame_bytes: TCP_BENCH_FRAME_CAP,
        ..yoso_runtime::TcpOptions::default()
    };
    let (mut handle, board) =
        yoso_runtime::tcp::loopback_with::<Post>(pipelined_opts).expect("loopback server");
    let tcp_pipelined_total = time_ns(iters, || {
        board
            .post_batch(role.clone(), "bench/board", &msgs, BOARD_POST_ELEMENTS, bytes)
            .unwrap();
    });
    handle.shutdown();

    let per_post_ns = per_post_total / batch as f64;
    let batch_post_ns = batch_total / batch as f64;
    let tcp_batch_ns = tcp_total / batch as f64;
    let tcp_pipelined_ns = tcp_pipelined_total / batch as f64;
    BoardRow {
        batch,
        per_post_ns,
        batch_post_ns,
        batch_speedup: per_post_ns / batch_post_ns,
        tcp_batch_ns,
        inproc_posts_per_sec: 1e9 / batch_post_ns,
        inproc_bytes_per_sec: 1e9 / batch_post_ns * bytes as f64,
        tcp_posts_per_sec: 1e9 / tcp_batch_ns,
        tcp_bytes_per_sec: 1e9 / tcp_batch_ns * bytes as f64,
        tcp_pipelined_ns,
        tcp_pipelined_posts_per_sec: 1e9 / tcp_pipelined_ns,
        tcp_pipeline_speedup: tcp_batch_ns / tcp_pipelined_ns,
    }
}

struct WorkerRow {
    workers: usize,
    wall_ns: f64,
    speedup: f64,
    /// Worker 0's per-stage wall-clock seconds (setup/offline/online),
    /// showing where the pipeline's time goes as the fleet scales.
    stage_secs: Vec<(&'static str, f64)>,
}

/// End-to-end pipeline wall-clock with the committee work role-sharded
/// across `workers` in-process worker threads sharing one board — the
/// same partitioning `yoso worker` runs across OS processes, minus
/// spawn and TCP overhead. `workers == 1` is the solo engine. Proofs
/// stay on (the per-member NIZK work is exactly what the partition
/// distributes).
fn bench_worker_pipeline(n: usize, workers: usize) -> (f64, Vec<(&'static str, f64)>) {
    use yoso_core::{Engine, ProtocolParams};
    use yoso_runtime::Adversary;

    let params = ProtocolParams::from_gap(n, 0.25).unwrap();
    let circuit =
        yoso_circuit::generators::inner_product::<F61>(2 * params.k).unwrap();
    let mut r = rng(23);
    let inputs: Vec<Vec<F61>> = circuit
        .inputs_per_client()
        .iter()
        .map(|ws| ws.iter().map(|_| F61::random(&mut r)).collect())
        .collect();
    let adversary = Adversary::none();
    // Worker 0's per-stage wall-clock: where a sharded run's time goes
    // (compute is split across workers, board waits are not).
    let stages = std::sync::Mutex::new(Vec::new());
    let wall = time_ns(1, || {
        let board: BulletinBoard<Post> = BulletinBoard::new();
        if workers == 1 {
            let mut wr = rng(29);
            let run = Engine::new(params, ExecutionConfig::default())
                .run_with_board(&mut wr, &circuit, &inputs, &adversary, &board)
                .unwrap();
            *stages.lock().unwrap() = run.stage_wall_secs;
            return;
        }
        std::thread::scope(|s| {
            for w in 0..workers {
                let board = board.clone();
                let (circuit, inputs, adversary) = (&circuit, &inputs, &adversary);
                let stages = &stages;
                s.spawn(move || {
                    let cfg = ExecutionConfig::default()
                        .with_partition(params.worker_role_range(w, workers));
                    let mut wr = rng(29);
                    let run = Engine::new(params, cfg)
                        .run_with_board(&mut wr, circuit, inputs, adversary, &board)
                        .unwrap();
                    if w == 0 {
                        *stages.lock().unwrap() = run.stage_wall_secs;
                    }
                });
            }
        });
    });
    (wall, stages.into_inner().unwrap())
}

/// Cold interpolation over an order-`size` subgroup: naive Lagrange
/// (fresh [`EvalDomain`] per call, `O(n²)` construction) vs the
/// mixed-radix transform (fresh [`NttDomain`] per call, `O(n log n)`
/// including the deterministic generator search). Both paths pay full
/// domain construction — the dealing/reconstruction cost for a subset
/// seen for the first time. Asserts the interpolated polynomials are
/// bit-identical before timing. Returns (naive ns, ntt ns) per call.
fn bench_interp(size: usize) -> (f64, f64) {
    let mut r = rng(19);
    let domain = NttDomain::<F61>::new(size).unwrap();
    let points = domain.points().to_vec();
    let ys: Vec<F61> = (0..size).map(|_| F61::random(&mut r)).collect();
    let via_lagrange = EvalDomain::new(points.clone()).unwrap().interpolate(&ys).unwrap();
    let via_ntt = domain.interpolate(&ys).unwrap();
    assert_eq!(
        via_lagrange, via_ntt,
        "NTT and Lagrange interpolation must be bit-identical at size {size}"
    );
    let iters = (4096 / size).max(1);
    let naive_ns =
        time_ns(iters, || EvalDomain::new(points.clone()).unwrap().interpolate(&ys).unwrap());
    let ntt_ns =
        time_ns(iters, || NttDomain::<F61>::new(size).unwrap().interpolate(&ys).unwrap());
    (naive_ns, ntt_ns)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let sizes: Vec<usize> = if smoke { vec![16] } else { SIZES.to_vec() };
    let interp_sizes: Vec<usize> = if smoke { vec![18] } else { INTERP_SIZES.to_vec() };
    let host_threads =
        std::thread::available_parallelism().map(|v| v.get()).unwrap_or(1);
    let mut rows = Vec::new();
    println!(
        "{:>5} {:>5} {:>12} {:>14} {:>13} {:>8} {:>12} {:>12} {:>8}",
        "n", "k", "share ns", "recon warm ns", "recon cold ns", "speedup", "enc ns", "enc batch ns", "speedup"
    );
    for &n in &sizes {
        let (share_ns, recon_cached_ns, recon_naive_ns) = bench_pss(n);
        let (enc_naive_ns, enc_batched_ns) = bench_paillier(n);
        let (reenc_seq_ns, reenc_par_ns) = bench_reenc(n);
        let (pdec_naive_ns, pdec_multiexp_ns) = bench_pdec(n);
        let row = Row {
            n,
            k: n / 4,
            share_ns,
            recon_cached_ns,
            recon_naive_ns,
            recon_speedup: recon_naive_ns / recon_cached_ns,
            enc_naive_ns,
            enc_batched_ns,
            enc_speedup: enc_naive_ns / enc_batched_ns,
            reenc_seq_ns,
            reenc_par_ns,
            reenc_speedup: reenc_seq_ns / reenc_par_ns,
            pdec_naive_ns,
            pdec_multiexp_ns,
            pdec_speedup: pdec_naive_ns / pdec_multiexp_ns,
        };
        println!(
            "{:>5} {:>5} {:>12.0} {:>14.0} {:>13.0} {:>7.1}x {:>12.0} {:>12.0} {:>7.1}x",
            row.n,
            row.k,
            row.share_ns,
            row.recon_cached_ns,
            row.recon_naive_ns,
            row.recon_speedup,
            row.enc_naive_ns,
            row.enc_batched_ns,
            row.enc_speedup
        );
        rows.push(row);
    }
    println!(
        "\n{:>5} {:>5} {:>13} {:>13} {:>8} {:>14} {:>16} {:>8}",
        "n", "k", "reenc seq ns", "reenc par ns", "speedup", "pdec naive ns", "pdec multiexp ns", "speedup"
    );
    for row in &rows {
        println!(
            "{:>5} {:>5} {:>13.0} {:>13.0} {:>7.1}x {:>14.0} {:>16.0} {:>7.1}x",
            row.n,
            row.k,
            row.reenc_seq_ns,
            row.reenc_par_ns,
            row.reenc_speedup,
            row.pdec_naive_ns,
            row.pdec_multiexp_ns,
            row.pdec_speedup
        );
    }

    let mut interp_rows = Vec::new();
    println!(
        "\n{:>6} {:>16} {:>14} {:>8}",
        "size", "interp naive ns", "interp ntt ns", "speedup"
    );
    for &size in &interp_sizes {
        let (naive_ns, ntt_ns) = bench_interp(size);
        let row = InterpRow { size, naive_ns, ntt_ns, speedup: naive_ns / ntt_ns };
        println!(
            "{:>6} {:>16.0} {:>14.0} {:>7.1}x",
            row.size, row.naive_ns, row.ntt_ns, row.speedup
        );
        interp_rows.push(row);
    }

    let board_batches: Vec<usize> = if smoke { vec![32] } else { vec![64, 256, 1024] };
    let mut board_rows = Vec::new();
    println!(
        "\n{:>6} {:>12} {:>13} {:>8} {:>12} {:>14} {:>14} {:>15} {:>8}   (tcp frame cap {TCP_BENCH_FRAME_CAP} B, window {TCP_BENCH_WINDOW})",
        "batch", "per-post ns", "post_batch ns", "speedup", "tcp batch ns", "inproc post/s", "tcp post/s", "tcp piped post/s", "speedup"
    );
    for &batch in &board_batches {
        let row = bench_board(batch);
        println!(
            "{:>6} {:>12.0} {:>13.0} {:>7.1}x {:>12.0} {:>14.0} {:>14.0} {:>15.0} {:>7.1}x",
            row.batch,
            row.per_post_ns,
            row.batch_post_ns,
            row.batch_speedup,
            row.tcp_batch_ns,
            row.inproc_posts_per_sec,
            row.tcp_posts_per_sec,
            row.tcp_pipelined_posts_per_sec,
            row.tcp_pipeline_speedup
        );
        board_rows.push(row);
    }

    // Role-sharded end-to-end pipeline: same committee, 1/2/4/8
    // workers. The wall-clock at w workers is gated by the slowest
    // worker's proof slice, so the speedup ceiling is w (minus the
    // replicated value computation every worker pays).
    let worker_n = if smoke { 16 } else { 32 };
    let worker_counts: Vec<usize> = if smoke { vec![1, 2] } else { vec![1, 2, 4, 8] };
    let mut worker_rows: Vec<WorkerRow> = Vec::new();
    println!(
        "\n{:>8} {:>16} {:>8}   (end-to-end pipeline, n = {worker_n})",
        "workers", "wall ms", "speedup"
    );
    for &workers in &worker_counts {
        let (wall_ns, stage_secs) = bench_worker_pipeline(worker_n, workers);
        let speedup = worker_rows.first().map_or(1.0, |base| base.wall_ns / wall_ns);
        let breakdown: Vec<String> = stage_secs
            .iter()
            .map(|(name, secs)| format!("{name} {:.0}ms", secs * 1e3))
            .collect();
        println!(
            "{:>8} {:>16.1} {:>7.2}x   [{}]",
            workers,
            wall_ns / 1e6,
            speedup,
            breakdown.join("  ")
        );
        worker_rows.push(WorkerRow { workers, wall_ns, speedup, stage_secs });
    }

    let mut json = String::from("{\n  \"bench\": \"hotpath\",\n  \"field\": \"F61\",\n");
    let _ = writeln!(json, "  \"paillier_prime_bits\": {PRIME_BITS},");
    let _ = writeln!(json, "  \"host_parallelism\": {host_threads},");
    let _ = writeln!(json, "  \"reenc_par_threads\": {PAR_THREADS},");
    json.push_str("  \"configs\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"n\": {}, \"k\": {}, \"share_ns\": {:.0}, \
             \"reconstruct_cached_ns\": {:.0}, \"reconstruct_naive_ns\": {:.0}, \
             \"reconstruct_speedup\": {:.2}, \"paillier_encrypt_naive_ns\": {:.0}, \
             \"paillier_encrypt_batched_ns\": {:.0}, \"paillier_speedup\": {:.2}, \
             \"reenc_seq_ns\": {:.0}, \"reenc_par_ns\": {:.0}, \
             \"reenc_speedup\": {:.2}, \"partial_decrypt_naive_ns\": {:.0}, \
             \"partial_decrypt_multiexp_ns\": {:.0}, \"partial_decrypt_speedup\": {:.2}}}",
            r.n,
            r.k,
            r.share_ns,
            r.recon_cached_ns,
            r.recon_naive_ns,
            r.recon_speedup,
            r.enc_naive_ns,
            r.enc_batched_ns,
            r.enc_speedup,
            r.reenc_seq_ns,
            r.reenc_par_ns,
            r.reenc_speedup,
            r.pdec_naive_ns,
            r.pdec_multiexp_ns,
            r.pdec_speedup
        );
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n  \"interp_configs\": [\n");
    for (i, r) in interp_rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"size\": {}, \"interp_naive_ns\": {:.0}, \"interp_ntt_ns\": {:.0}, \
             \"interp_speedup\": {:.2}}}",
            r.size, r.naive_ns, r.ntt_ns, r.speedup
        );
        json.push_str(if i + 1 < interp_rows.len() { ",\n" } else { "\n" });
    }
    let _ = writeln!(json, "  ],\n  \"tcp_frame_cap_bytes\": {TCP_BENCH_FRAME_CAP},");
    let _ = writeln!(json, "  \"tcp_pipeline_window\": {TCP_BENCH_WINDOW},");
    json.push_str("  \"board_configs\": [\n");
    for (i, r) in board_rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"batch\": {}, \"per_post_ns\": {:.0}, \"post_batch_ns\": {:.0}, \
             \"post_batch_speedup\": {:.2}, \"tcp_post_batch_ns\": {:.0}, \
             \"inproc_posts_per_sec\": {:.0}, \"inproc_bytes_per_sec\": {:.0}, \
             \"tcp_posts_per_sec\": {:.0}, \"tcp_bytes_per_sec\": {:.0}, \
             \"tcp_pipelined_post_ns\": {:.0}, \"tcp_pipelined_posts_per_sec\": {:.0}, \
             \"tcp_pipeline_speedup\": {:.2}}}",
            r.batch,
            r.per_post_ns,
            r.batch_post_ns,
            r.batch_speedup,
            r.tcp_batch_ns,
            r.inproc_posts_per_sec,
            r.inproc_bytes_per_sec,
            r.tcp_posts_per_sec,
            r.tcp_bytes_per_sec,
            r.tcp_pipelined_ns,
            r.tcp_pipelined_posts_per_sec,
            r.tcp_pipeline_speedup
        );
        json.push_str(if i + 1 < board_rows.len() { ",\n" } else { "\n" });
    }
    let _ = writeln!(json, "  ],\n  \"worker_pipeline_n\": {worker_n},");
    json.push_str("  \"worker_configs\": [\n");
    for (i, r) in worker_rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"workers\": {}, \"wall_ns\": {:.0}, \"speedup\": {:.2}, \"stages_ms\": {{",
            r.workers, r.wall_ns, r.speedup
        );
        for (j, (name, secs)) in r.stage_secs.iter().enumerate() {
            let _ = write!(json, "\"{name}\": {:.1}", secs * 1e3);
            if j + 1 < r.stage_secs.len() {
                json.push_str(", ");
            }
        }
        json.push_str("}}");
        json.push_str(if i + 1 < worker_rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hotpath.json");
    std::fs::write(path, &json).expect("write BENCH_hotpath.json");
    println!("\nwrote {path}");

    if smoke {
        println!("smoke mode: acceptance assertions skipped");
        return;
    }
    let last = rows.last().unwrap();
    assert!(
        last.recon_speedup >= 5.0,
        "cached reconstruct at n=512 must be ≥5× naive (got {:.1}×)",
        last.recon_speedup
    );
    // Table construction amortizes with batch size; the target applies
    // at the protocol's operating scale, not at tiny batches.
    assert!(
        last.enc_speedup >= 2.0,
        "batched Paillier encryption at n=512 must be ≥2× naive (got {:.1}×)",
        last.enc_speedup
    );
    assert!(
        last.pdec_speedup >= 2.0,
        "multi-exp verified decryption at n=512 must be ≥2× the per-ciphertext loop (got {:.1}×)",
        last.pdec_speedup
    );
    let big_interp = interp_rows
        .iter()
        .find(|r| r.size >= 1024)
        .expect("non-smoke interp sizes include one >= 1024");
    assert!(
        big_interp.speedup >= 5.0,
        "cold NTT interpolation at size {} must be ≥5× naive Lagrange (got {:.1}×)",
        big_interp.size,
        big_interp.speedup
    );
    // Batched posting must amortize the per-post lock/meter/alloc cost:
    // at batch ≥ 256, one post_batch call must deliver ≥5× the posts/sec
    // of the post-at-a-time loop on the in-process backend.
    for r in board_rows.iter().filter(|r| r.batch >= 256) {
        assert!(
            r.batch_speedup >= 5.0,
            "post_batch at batch {} must be ≥5× per-post posting (got {:.1}×)",
            r.batch,
            r.batch_speedup
        );
    }
    // The pipelined wire protocol must close the TCP-vs-in-process gap
    // it targets: at batch ≥ 256, where a flush spans many frames,
    // coalescing acks (one round trip per window instead of one per
    // frame) must deliver ≥3× the lockstep posting rate.
    for r in board_rows.iter().filter(|r| r.batch >= 256) {
        assert!(
            r.tcp_pipeline_speedup >= 3.0,
            "pipelined TCP posting at batch {} must be ≥3× lockstep (got {:.1}×)",
            r.batch,
            r.tcp_pipeline_speedup
        );
    }
    // Parallel re-encryption must never lose to sequential: below the
    // per-thread minimum batch, par_map falls back inline, so even at
    // the smallest size the parallel column may only trail within
    // measurement noise (≤5%).
    for r in &rows {
        assert!(
            r.reenc_speedup >= 0.95,
            "parallel re-encryption at n={} must not be >5% slower than sequential (got {:.2}×)",
            r.n,
            r.reenc_speedup
        );
    }
    // Role-sharded end-to-end speedup needs real cores: 4 workers
    // cannot beat 1 on fewer than 4 hardware threads.
    if host_threads >= 4 {
        let at4 = worker_rows
            .iter()
            .find(|r| r.workers == 4)
            .expect("non-smoke worker counts include 4");
        assert!(
            at4.speedup >= 1.5,
            "4-worker end-to-end pipeline must be ≥1.5× single-process (got {:.2}×)",
            at4.speedup
        );
        println!("acceptance: 4-worker end-to-end {:.2}x (>=1.5x) — ok", at4.speedup);
    } else {
        println!(
            "acceptance: 4-worker end-to-end speedup recorded but not asserted \
             (host has {host_threads} hardware threads, needs 4)"
        );
    }
    // The re-encryption target needs real hardware parallelism: the
    // pipeline is correct at any thread count (the determinism tests
    // pin that), but an 8-thread wall-clock win cannot materialize on
    // fewer than 8 hardware threads.
    if host_threads >= PAR_THREADS {
        assert!(
            last.reenc_speedup >= 3.0,
            "8-thread re-encryption at n=512 must be ≥3× sequential (got {:.1}×)",
            last.reenc_speedup
        );
        println!(
            "acceptance: reconstruct {:.1}x (>=5x), paillier {:.1}x (>=2x), pdec {:.1}x (>=2x), interp {:.1}x (>=5x at size {}), reenc {:.1}x (>=3x) at n=512 — ok",
            last.recon_speedup, last.enc_speedup, last.pdec_speedup, big_interp.speedup, big_interp.size, last.reenc_speedup
        );
    } else {
        println!(
            "acceptance: reconstruct {:.1}x (>=5x), paillier {:.1}x (>=2x), pdec {:.1}x (>=2x), interp {:.1}x (>=5x at size {}) at n=512 — ok; \
             reenc {:.1}x recorded but not asserted (host has {host_threads} hardware threads, needs {PAR_THREADS})",
            last.recon_speedup, last.enc_speedup, last.pdec_speedup, big_interp.speedup, big_interp.size, last.reenc_speedup
        );
    }
}
