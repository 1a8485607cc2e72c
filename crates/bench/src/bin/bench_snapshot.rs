//! Perf-trajectory snapshot: a fixed PBS + FFT workload whose numbers
//! are written to `BENCH_pbs.json` at the repo root, so successive PRs
//! have a committed baseline to compare against.
//!
//! Run from the workspace root (paths are relative to the cwd):
//!
//! ```text
//! cargo run --release -p strix-bench --bin bench_snapshot
//! cargo run --release -p strix-bench --bin bench_snapshot -- --fast --out /tmp/s.json
//! cargo run --release -p strix-bench --bin bench_snapshot -- --baseline BENCH_pbs.json
//! ```
//!
//! `--fast` switches to the tiny insecure test parameters (CI smoke);
//! the default is the paper's 128-bit set II, measured with the
//! timing-equivalent benchmark bootstrapping key (same arithmetic
//! shape as a real key, instant keygen). `--threads T` sets the
//! intra-epoch shard count fed to `bootstrap_batch`.
//!
//! `--kernel both|classical|multi_bit` (default `both`) selects which
//! PBS kernels to measure: the classical blind rotation, the grouped
//! multi-bit blind rotation (`--grouping G`, default 3 — the faster
//! configuration on the reference container), or both side by side. The emitted JSON carries a `pbs` block per measured
//! kernel, so the committed snapshot records the per-kernel ms/PBS the
//! kernel-selection enum chooses between.
//!
//! Each snapshot also records the git commit it was measured at and a
//! **per-stage breakdown** of one PBS (decompose / forward FFT / VMA /
//! inverse FFT / rotate / modswitch / sample-extract µs), taken with
//! the timing probe over the *production* blocked CMUX kernel, so the
//! committed JSON explains *where* a regression or win lives, not just
//! that one happened.
//!
//! `--backend auto|portable|avx2|avx512` (default `auto`) forces the
//! SIMD kernel backend the measured transforms run on; the snapshot
//! records the *resolved* backend (`kernel_backend`) plus the host's
//! detected CPU features, and a `fft_backends` table timing every
//! backend available on the host side by side. Every FFT row runs the
//! batched SoA entry points and reports per-transform µs: the
//! per-backend rows at a batch of 8, the `fft` rows at a batch of one
//! (a single transform).
//!
//! `--baseline <file>` compares the fresh numbers against a previous
//! snapshot and prints a warn-only report (exit status stays 0 — CI
//! uses it as a visibility check, not a gate, since container timing
//! is noisy). Comparisons are skipped when the baseline was measured
//! at different parameters, thread/batch shape, or kernel backend.

use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use strix_fft::{detected_cpu_features, NegacyclicFft, SoaSpectrum, StrixFftBackend};
use strix_tfhe::bootstrap::{BootstrapKey, Lut, PbsJob};
use strix_tfhe::lwe::LweCiphertext;
use strix_tfhe::profiler::{PbsStage, StageTimings};
use strix_tfhe::torus::encode_fraction;
use strix_tfhe::{PbsKernel, TfheParameters};

/// Wall-clock budget per measured quantity.
const BUDGET: Duration = Duration::from_millis(300);

/// Times `f` adaptively: one calibration call, then enough iterations
/// to fill the budget. Returns mean seconds per call.
fn time_per_call<F: FnMut()>(mut f: F) -> f64 {
    let t0 = Instant::now();
    f();
    let once = t0.elapsed().max(Duration::from_nanos(50));
    let iters = (BUDGET.as_nanos() / once.as_nanos()).clamp(1, 1_000_000) as u64;
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    t0.elapsed().as_secs_f64() / iters as f64
}

struct FftRow {
    n: usize,
    forward_us: f64,
    inverse_us: f64,
    pair_us: f64,
}

/// Batch width of the per-backend rows: the criterion bench and the
/// CMUX hot path both run batches of this order ((k+1)·l digit
/// polynomials per external product).
const BACKEND_FFT_BATCH: usize = 8;

/// Times the batched SoA entry points (`forward_i64_many` /
/// `backward_f64_many`) on one backend at `batch` transforms per call,
/// reporting per-transform µs.
fn measure_fft(n: usize, backend: StrixFftBackend, batch: usize) -> FftRow {
    let fft = NegacyclicFft::with_backend(n, backend).unwrap();
    let polys: Vec<i64> = (0..(n * batch) as i64).map(|i| (i * 31 % 1024) - 512).collect();
    let mut spec = SoaSpectrum::new(batch, n / 2);
    let mut time = vec![0.0f64; n * batch];

    let forward = time_per_call(|| fft.forward_i64_many(&polys, &mut spec).unwrap());
    fft.forward_i64_many(&polys, &mut spec).unwrap();
    let inverse = time_per_call(|| {
        // The inverse consumes the batch as scratch; refresh it so
        // every iteration transforms honest data.
        let mut s = spec.clone();
        fft.backward_f64_many(&mut s, &mut time).unwrap();
    });
    let clone_cost = time_per_call(|| {
        let s = spec.clone();
        std::hint::black_box(&s);
    });
    let pair = time_per_call(|| {
        fft.forward_i64_many(&polys, &mut spec).unwrap();
        fft.backward_f64_many(&mut spec, &mut time).unwrap();
    });
    let per_transform_us = 1e6 / batch as f64;
    FftRow {
        n,
        forward_us: forward * per_transform_us,
        inverse_us: (inverse - clone_cost).max(0.0) * per_transform_us,
        pair_us: pair * per_transform_us,
    }
}

/// Best-effort short git commit hash of the working tree (snapshots
/// are committed alongside the code they measured, so the hash pins
/// the *parent* of the committing revision — close enough to navigate
/// back to the kernel that produced the numbers).
fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Pulls `"key": value` out of a flat JSON snapshot without a parser
/// dependency — the snapshot schema is ours and machine-written, so a
/// scan for the quoted key is reliable enough for a warn-only check.
fn json_number(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)? + needle.len();
    let rest = json[at..].trim_start();
    let end = rest.find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))?;
    rest[..end].parse().ok()
}

fn json_string(json: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\": \"");
    let at = json.find(&needle)? + needle.len();
    let end = json[at..].find('"')?;
    Some(json[at..at + end].to_string())
}

/// Warn-only comparison against a previous snapshot's contents (read
/// *before* the new snapshot is written, so `--baseline` may point at
/// the very file `--out` overwrites). Never fails the process: CI
/// surfaces the report, humans judge it.
fn compare_against_baseline(
    old: &str,
    baseline_path: &str,
    params_name: &str,
    threads: usize,
    batch: usize,
    backend: &str,
    per_pbs_ms: f64,
) {
    let old_name = json_string(old, "name").unwrap_or_default();
    if old_name != params_name {
        eprintln!(
            "bench_snapshot: baseline params ({old_name}) differ from measured \
             ({params_name}); comparison skipped"
        );
        return;
    }
    // A v2 baseline carries no `kernel_backend`: those numbers predate
    // the SIMD tiers and remain comparable (a backend win *should*
    // show against them). A v3 baseline from a different backend is a
    // different machine configuration, not a code change.
    if let Some(old_backend) = json_string(old, "kernel_backend") {
        if old_backend != backend {
            eprintln!(
                "bench_snapshot: baseline backend ({old_backend}) differs from measured \
                 ({backend}); comparison skipped"
            );
            return;
        }
    }
    // per_pbs_ms is only comparable at the same shard count and epoch
    // size — a 4-thread run against a 1-thread baseline would print a
    // meaningless "speedup" (or a spurious regression warning).
    let old_threads = json_number(old, "threads");
    let old_batch = json_number(old, "batch");
    if old_threads != Some(threads as f64) || old_batch != Some(batch as f64) {
        eprintln!(
            "bench_snapshot: baseline threads/batch ({:?}/{:?}) differ from measured \
             ({threads}/{batch}); comparison skipped",
            old_threads, old_batch
        );
        return;
    }
    let Some(old_ms) = json_number(old, "per_pbs_ms") else {
        eprintln!("bench_snapshot: baseline {baseline_path} has no per_pbs_ms; skipped");
        return;
    };
    let speedup = old_ms / per_pbs_ms;
    eprintln!(
        "bench_snapshot: baseline {old_ms:.3} ms/PBS -> {per_pbs_ms:.3} ms/PBS \
         ({speedup:.3}x vs {baseline_path})"
    );
    if per_pbs_ms > old_ms * 1.05 {
        eprintln!(
            "bench_snapshot: WARNING: PBS regressed more than 5% vs baseline \
             ({old_ms:.3} ms -> {per_pbs_ms:.3} ms). Warn-only; not failing."
        );
    }
}

/// One kernel's measured throughput plus its per-stage breakdown.
struct KernelMeasure {
    per_pbs_ms: f64,
    pbs_per_s: f64,
    stages: Vec<(&'static str, f64)>,
}

/// Measures one PBS kernel: epoch throughput via `run` (sharded over
/// `threads`), then a per-stage breakdown via `run_profiled` over the
/// probed production path. The breakdown is always measured on ONE
/// thread regardless of `threads` — the probe needs exclusive
/// `StageTimings` — so the emitted stage object carries its own
/// `"threads": 1` marker; the stage sum reconciles with `per_pbs_ms`
/// only when `threads` is 1 too.
fn measure_kernel(
    batch: usize,
    mut run: impl FnMut(usize),
    mut run_profiled: impl FnMut(&mut StageTimings),
    threads: usize,
) -> KernelMeasure {
    let per_epoch = time_per_call(|| run(threads));
    let mut timings = StageTimings::new();
    let mut profiled_epochs = 0u32;
    let t0 = Instant::now();
    while t0.elapsed() < BUDGET || profiled_epochs == 0 {
        run_profiled(&mut timings);
        profiled_epochs += 1;
    }
    let per_pbs_us = |stage: PbsStage| {
        timings.total_for(stage).as_secs_f64() * 1e6 / (profiled_epochs as f64 * batch as f64)
    };
    KernelMeasure {
        per_pbs_ms: per_epoch * 1e3 / batch as f64,
        pbs_per_s: batch as f64 / per_epoch,
        stages: vec![
            ("modswitch_us", per_pbs_us(PbsStage::ModSwitch)),
            ("rotate_us", per_pbs_us(PbsStage::Rotate)),
            ("decompose_us", per_pbs_us(PbsStage::Decompose)),
            ("forward_fft_us", per_pbs_us(PbsStage::Fft)),
            ("vma_us", per_pbs_us(PbsStage::VectorMultiply)),
            ("inverse_fft_us", per_pbs_us(PbsStage::IfftAccumulate)),
            ("sample_extract_us", per_pbs_us(PbsStage::SampleExtract)),
        ],
    }
}

fn main() {
    let mut fast = false;
    let mut threads = 1usize;
    let mut batch = 8usize;
    let mut kernel = String::from("both");
    let mut grouping = 3usize;
    let mut backend = StrixFftBackend::Auto;
    let mut out_path = String::from("BENCH_pbs.json");
    let mut baseline: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--fast" => fast = true,
            "--threads" => {
                threads = args.next().and_then(|v| v.parse().ok()).expect("--threads <count>");
            }
            "--batch" => {
                batch = args.next().and_then(|v| v.parse().ok()).expect("--batch <jobs>");
            }
            "--kernel" => {
                kernel = args.next().expect("--kernel <both|classical|multi_bit>");
            }
            "--grouping" => {
                grouping = args.next().and_then(|v| v.parse().ok()).expect("--grouping <factor>");
            }
            "--backend" => {
                backend = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--backend <auto|portable|avx2|avx512>");
            }
            "--out" => out_path = args.next().expect("--out <path>"),
            "--baseline" => baseline = Some(args.next().expect("--baseline <file>")),
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    let (classical_enabled, multi_bit_enabled) = match kernel.as_str() {
        "both" => (true, true),
        "classical" => (true, false),
        "multi_bit" => (false, true),
        other => {
            eprintln!("unknown --kernel value: {other} (expected both|classical|multi_bit)");
            std::process::exit(2);
        }
    };

    // Capture the baseline *now*, before anything writes `out_path` —
    // `--baseline BENCH_pbs.json --out BENCH_pbs.json` must compare
    // against the previous snapshot, not the one being produced.
    let baseline_contents = baseline.as_ref().map(|p| (p.clone(), std::fs::read_to_string(p)));

    let params = if fast { TfheParameters::testing_fast() } else { TfheParameters::set_ii() }
        .with_fft_backend(backend);
    if fast {
        batch = batch.min(4);
    }
    // The backend the PBS/FFT measurements below actually run on — the
    // snapshot records the resolved tier, never "auto".
    let resolved = match backend.resolve() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("bench_snapshot: {e}");
            std::process::exit(2);
        }
    };
    let cpu_features = detected_cpu_features();
    eprintln!(
        "bench_snapshot: params={} batch={batch} threads={threads} kernel={kernel} \
         backend={resolved} cpu=[{}]",
        params.name,
        cpu_features.join(" "),
    );

    // FFT rows: the per-transform numbers future PRs diff against,
    // measured on the selected backend.
    let fft_sizes: &[usize] = if fast { &[256, 1024] } else { &[1024, 2048] };
    let fft_rows: Vec<FftRow> = fft_sizes.iter().map(|&n| measure_fft(n, backend, 1)).collect();

    // Per-backend FFT rows: every backend the host supports, timed on
    // the same sizes through the batched SoA entry points (the only
    // transforms the SIMD dispatch covers), so the committed snapshot
    // shows the per-tier speedup (and any regression in a tier nobody
    // exercises by default). Values are per-transform µs at a batch of
    // BACKEND_FFT_BATCH.
    let backend_rows: Vec<(StrixFftBackend, FftRow)> =
        [StrixFftBackend::Portable, StrixFftBackend::Avx2, StrixFftBackend::Avx512]
            .into_iter()
            .filter(|b| b.is_available())
            .flat_map(|b| fft_sizes.iter().map(move |&n| (b, measure_fft(n, b, BACKEND_FFT_BATCH))))
            .collect();

    // PBS throughput on the timing-equivalent benchmark keys: one
    // key-major epoch of `batch` sign-LUT bootstraps per kernel,
    // repeated to fill the budget. Keys are generated only for the
    // kernels actually measured (the multi-bit key is 2^g/g times the
    // classical footprint: 2x at g = 2, 2.67x at g = 3).
    let bsk = classical_enabled
        .then(|| BootstrapKey::generate_for_benchmark(&params, PbsKernel::Classical));
    let mbsk = multi_bit_enabled.then(|| {
        let kernel = PbsKernel::MultiBit { grouping_factor: grouping };
        BootstrapKey::generate_for_benchmark(&params, kernel)
    });
    let lut = Lut::sign(params.polynomial_size, encode_fraction(1, 3));
    // Pseudorandom masks (splitmix64): a trivial zero-mask ciphertext
    // would modulus-switch to all-zero rotations and skip every CMUX,
    // so the masks must be dense for the timing to be honest.
    let mut state = 0x9e3779b97f4a7c15u64;
    let mut next = move || {
        state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    };
    let cts: Vec<LweCiphertext> = (0..batch)
        .map(|_| LweCiphertext::from_raw((0..=params.lwe_dimension).map(|_| next()).collect()))
        .collect();
    let jobs: Vec<PbsJob<'_>> = cts.iter().map(|ct| PbsJob { ct, lut: &lut }).collect();
    let classical = bsk.as_ref().map(|bsk| {
        measure_kernel(
            batch,
            |t| {
                let out = bsk.bootstrap_batch(&jobs, t).unwrap();
                std::hint::black_box(&out);
            },
            |timings| {
                let out = bsk.bootstrap_batch_profiled(&jobs, timings).unwrap();
                std::hint::black_box(&out);
            },
            threads,
        )
    });
    let multi_bit = mbsk.as_ref().map(|mb| {
        measure_kernel(
            batch,
            |t| {
                let out = mb.bootstrap_batch(&jobs, t).unwrap();
                std::hint::black_box(&out);
            },
            |timings| {
                let out = mb.bootstrap_batch_profiled(&jobs, timings).unwrap();
                std::hint::black_box(&out);
            },
            threads,
        )
    });
    if let (Some(c), Some(m)) = (&classical, &multi_bit) {
        eprintln!(
            "bench_snapshot: multi-bit g={grouping}: {:.3} ms/PBS vs classical {:.3} ms/PBS \
             ({:.3}x)",
            m.per_pbs_ms,
            c.per_pbs_ms,
            c.per_pbs_ms / m.per_pbs_ms
        );
    }

    let unix_time = SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_secs()).unwrap_or(0);
    let fft_json: Vec<String> = fft_rows
        .iter()
        .map(|r| {
            format!(
                "    {{ \"n\": {}, \"forward_us\": {:.3}, \"inverse_us\": {:.3}, \"pair_us\": {:.3} }}",
                r.n, r.forward_us, r.inverse_us, r.pair_us
            )
        })
        .collect();
    let backend_json: Vec<String> = backend_rows
        .iter()
        .map(|(b, r)| {
            format!(
                "    {{ \"backend\": \"{b}\", \"n\": {}, \"batch\": {BACKEND_FFT_BATCH}, \
                 \"forward_us\": {:.3}, \"inverse_us\": {:.3}, \"pair_us\": {:.3} }}",
                r.n, r.forward_us, r.inverse_us, r.pair_us
            )
        })
        .collect();
    let features_json =
        cpu_features.iter().map(|f| format!("\"{f}\"")).collect::<Vec<_>>().join(", ");
    let stage_obj = |m: &KernelMeasure| {
        std::iter::once("    \"threads\": 1".to_string())
            .chain(m.stages.iter().map(|(k, v)| format!("    \"{k}\": {v:.3}")))
            .collect::<Vec<_>>()
            .join(",\n")
    };
    // One `pbs*` block per measured kernel. The classical block keeps
    // its historical keys (`pbs` / `pbs_stages`) so older baselines
    // stay comparable; the multi-bit block sits alongside it.
    let mut kernel_blocks: Vec<String> = Vec::new();
    if let Some(m) = &classical {
        kernel_blocks.push(format!(
            "  \"pbs\": {{ \"batch\": {batch}, \"per_pbs_ms\": {:.3}, \"pbs_per_s\": {:.2} }}",
            m.per_pbs_ms, m.pbs_per_s
        ));
        kernel_blocks.push(format!("  \"pbs_stages\": {{\n{}\n  }}", stage_obj(m)));
    }
    if let Some(m) = &multi_bit {
        kernel_blocks.push(format!(
            "  \"pbs_multi_bit\": {{ \"grouping_factor\": {grouping}, \"batch\": {batch}, \
             \"per_pbs_ms\": {:.3}, \"pbs_per_s\": {:.2} }}",
            m.per_pbs_ms, m.pbs_per_s
        ));
        kernel_blocks.push(format!("  \"pbs_multi_bit_stages\": {{\n{}\n  }}", stage_obj(m)));
    }
    let json = format!(
        "{{\n\
         \x20 \"schema\": \"strix-bench-snapshot-v3\",\n\
         \x20 \"unix_time\": {unix_time},\n\
         \x20 \"git_commit\": \"{commit}\",\n\
         \x20 \"kernel_backend\": \"{resolved}\",\n\
         \x20 \"cpu_features\": [{features_json}],\n\
         \x20 \"params\": {{\n\
         \x20   \"name\": \"{name}\",\n\
         \x20   \"lwe_dimension\": {n_lwe},\n\
         \x20   \"glwe_dimension\": {k},\n\
         \x20   \"polynomial_size\": {poly},\n\
         \x20   \"pbs_base_log\": {base},\n\
         \x20   \"pbs_level\": {level},\n\
         \x20   \"ks_base_log\": {ks_base},\n\
         \x20   \"ks_level\": {ks_level}\n\
         \x20 }},\n\
         \x20 \"threads\": {threads},\n\
         {kernels},\n\
         \x20 \"fft\": [\n{fft}\n  ],\n\
         \x20 \"fft_backends\": [\n{fft_backends}\n  ]\n\
         }}\n",
        commit = git_commit(),
        name = params.name,
        n_lwe = params.lwe_dimension,
        k = params.glwe_dimension,
        poly = params.polynomial_size,
        base = params.pbs_base_log,
        level = params.pbs_level,
        ks_base = params.ks_base_log,
        ks_level = params.ks_level,
        kernels = kernel_blocks.join(",\n"),
        fft = fft_json.join(",\n"),
        fft_backends = backend_json.join(",\n"),
    );
    std::fs::write(&out_path, &json).expect("write snapshot JSON");
    println!("{json}");
    eprintln!("bench_snapshot: wrote {out_path}");
    match baseline_contents {
        Some((path, Ok(old))) => {
            if let Some(m) = &classical {
                compare_against_baseline(
                    &old,
                    &path,
                    &params.name,
                    threads,
                    batch,
                    resolved.label(),
                    m.per_pbs_ms,
                );
            } else {
                eprintln!(
                    "bench_snapshot: classical kernel not measured; baseline comparison skipped"
                );
            }
        }
        Some((path, Err(_))) => {
            eprintln!("bench_snapshot: baseline {path} unreadable; comparison skipped");
        }
        None => {}
    }
}
