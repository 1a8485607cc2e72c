//! **strix-perfbench** — the repository's checked, layer-by-layer
//! service benchmark.
//!
//! One run drives one named workload through the real `strix-runtime`
//! with real-key clients, for a fixed window, and checks every decrypted
//! output. An untraced run (`--trace 0`) reports the end-to-end
//! metrics; a traced run (`--trace 1`) records spans around every
//! public layer boundary, reconciles them, and reports the per-layer
//! metrics. See `perfbench/README.md` for the workloads and metrics.

pub mod host;
pub mod report;
pub mod spans;
pub mod stats;
pub mod workloads;

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use report::{json_number, json_string, Counts, LayerInputs, Metric};
use spans::{ms_between, reconcile, EpochSpan, Reconciliation, RequestSpan};
use workloads::{drive, setup, BenchError, Shape, Workload};

/// One benchmark invocation.
#[derive(Clone, Debug)]
pub struct Options {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Tiny insecure parameters (smoke tests only).
    pub fast: bool,
}

/// What a run produced.
#[derive(Debug)]
pub struct RunOutput {
    /// Every output decrypted to its expected value and, when traced,
    /// every span reconciled.
    pub correct: bool,
    /// Window request counts.
    pub counts: Counts,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Wrong outputs seen (warm-up included).
    pub wrong: u64,
    /// The traced run's reconciliation.
    pub reconciliation: Option<Reconciliation>,
    /// One-line JSON describing the run and its host.
    pub info: String,
}

/// Runs one workload: set up, drive the window, check outputs, set up
/// again for the remaining `setup_s` samples, and compute the metrics.
///
/// # Errors
///
/// Fails when keys, the LUT or the runtime cannot be set up, or a
/// generator thread dies.
pub fn run(options: &Options) -> Result<RunOutput, BenchError> {
    let workload = options.workload;
    let shape = Shape::new(workload, options.fast);
    // The measured service is the first set-up of a fresh process; the
    // remaining set-ups run after the window, so neither their memory
    // nor their CPU lands in the window's figures.
    let (mut service, first_setup) = setup(workload, &shape, options.seed, options.trace)?;
    let backend = service.runtime.report().fft_backend;
    let measured = drive(workload, &shape, &mut service, options.seed, options.seconds)?;
    let peak_rss_mb = host::peak_rss_mb();
    let expand_ms: Vec<f64> = service
        .seeded
        .iter()
        .map(|key| {
            let t0 = Instant::now();
            drop(key.expand());
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let epochs = service.log.as_ref().map(|log| log.take()).unwrap_or_default();
    let record_ms = service.log.as_ref().map_or(0.0, |log| log.record_ms());
    let warmup_wrong = service.warmup_wrong;
    service.runtime.shutdown();
    let mut setup_times = vec![first_setup];
    for _ in 1..shape.setup_reps {
        let (again, secs) = setup(workload, &shape, options.seed, false)?;
        setup_times.push(secs);
        again.runtime.shutdown();
    }

    let open = workload.open_loop();
    let setup_s = stats::median(setup_times.iter().copied());
    let (e2e, counts, latency_samples) = report::end_to_end(&measured, setup_s, open, peak_rss_mb);
    let wrong = measured.traffic.wrong + warmup_wrong;
    let (metrics, reconciliation, spans_file) = if options.trace {
        let (joined, rec) = reconcile(&measured.traffic.requests, &epochs, open);
        let inputs =
            LayerInputs { epochs: &epochs, joined: &joined, expand_ms: &expand_ms, record_ms };
        let metrics = report::per_layer(&measured, open, &inputs);
        let path = write_spans(options, &measured.traffic.requests, &epochs, measured.window.0.at);
        (metrics, Some(rec), path)
    } else {
        (e2e, None, None)
    };
    let correct = wrong == 0 && reconciliation.as_ref().is_none_or(Reconciliation::holds);

    let mut info = String::new();
    let _ = write!(
        info,
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"params\": {}, \
         \"nproc\": {}, \"cpu_features\": [{}], \"kernel_backend\": {}, \"git_commit\": {}, \
         \"setup_s_samples\": [{}], \"latency_samples\": {}, \"p95_samples_beyond\": {}, \
         \"loadgen_lag_p95_ms\": {}, \"wrong_outputs\": {}",
        json_string(workload.name()),
        options.seed,
        json_number(options.seconds),
        u8::from(options.trace),
        json_string(&shape.params.name),
        host::nproc(),
        host::cpu_features().iter().map(|f| json_string(f)).collect::<Vec<_>>().join(", "),
        json_string(&backend),
        json_string(&host::git_commit()),
        setup_times.iter().map(|s| json_number(*s)).collect::<Vec<_>>().join(", "),
        latency_samples,
        stats::samples_beyond(latency_samples, 0.95),
        json_number(report::lag_p95_ms(
            &measured.traffic.requests,
            report::Window::between(&measured.window.0, &measured.window.1),
            open,
        )),
        wrong,
    );
    if let Some(rec) = &reconciliation {
        let _ = write!(
            info,
            ", \"reconciliation\": {{\"requests_checked\": {}, \"request_violations\": {}, \
             \"max_error_ms\": {}, \"tolerance\": \"{} ms + {}% of latency\", \"unjoined\": {}, \
             \"epoch_violations\": {}, \"epoch_link_mismatches\": {}}}",
            rec.requests_checked,
            rec.request_violations,
            json_number(rec.max_error_ms),
            spans::RECONCILE_ABS_MS,
            spans::RECONCILE_REL * 100.0,
            rec.unjoined,
            rec.epoch_violations,
            rec.epoch_link_mismatches,
        );
    }
    if let Some(path) = &spans_file {
        let _ = write!(info, ", \"spans_file\": {}", json_string(&path.display().to_string()));
    }
    info.push('}');
    Ok(RunOutput { correct, counts, metrics, wrong, reconciliation, info })
}

/// Writes the traced run's spans as JSON lines (times in ms from the
/// window start) under `.bench_build/perfbench-traces/`. Returns the
/// path, or `None` if it could not be written.
fn write_spans(
    options: &Options,
    requests: &[RequestSpan],
    epochs: &[EpochSpan],
    base: Instant,
) -> Option<PathBuf> {
    let dir = PathBuf::from(".bench_build").join("perfbench-traces");
    std::fs::create_dir_all(&dir).ok()?;
    let path = dir.join(format!("{}-seed{}.jsonl", options.workload.name(), options.seed));
    let t = |i: Instant| json_number(ms_between(base, i));
    let opt = |i: Option<Instant>| i.map_or("null".into(), t);
    let pair = |s: Option<(Instant, Instant)>| {
        s.map_or("null".into(), |(a, b)| format!("[{}, {}]", t(a), t(b)))
    };
    let runtime_epoch: HashMap<(u64, u64), u64> =
        requests.iter().filter_map(|r| Some(((r.client, r.seq), r.epoch?))).collect();
    let mut out = String::new();
    for r in requests {
        let _ = writeln!(
            out,
            "{{\"kind\": \"request\", \"client\": {}, \"seq\": {}, \"tenant\": {}, \"epoch\": {}, \
             \"ok\": {}, \"due_ms\": {}, \"call_ms\": {}, \"returned_ms\": {}, \"recv_ms\": {}}}",
            r.client,
            r.seq,
            r.tenant,
            r.epoch.map_or("null".into(), |e| e.to_string()),
            r.ok,
            t(r.due),
            t(r.call),
            t(r.returned),
            opt(r.recv),
        );
    }
    for e in epochs {
        let id = e.requests.first().and_then(|w| runtime_epoch.get(&(w.client, w.seq)));
        let waypoints: Vec<String> = e
            .requests
            .iter()
            .map(|w| {
                format!(
                    "[{}, {}, {}, {}, {}]",
                    w.client,
                    w.seq,
                    t(w.submitted),
                    opt(w.batched),
                    opt(w.flushed)
                )
            })
            .collect();
        let _ = writeln!(
            out,
            "{{\"kind\": \"epoch\", \"epoch\": {}, \"start_ms\": {}, \"end_ms\": {}, \"pbs\": {}, \
             \"ks\": {}, \"jobs\": {}, \"profiled\": {}, \"key_miss\": {}, \
             \"requests\": [{}]}}",
            id.map_or("null".into(), |e| e.to_string()),
            t(e.start),
            t(e.end),
            pair(e.pbs),
            pair(e.ks),
            e.jobs(),
            e.profiled,
            e.key_miss,
            waypoints.join(", "),
        );
    }
    std::fs::write(&path, out).ok()?;
    Some(path)
}
