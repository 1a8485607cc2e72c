//! Turning a run's spans and counters into named metrics.

use std::fmt::Write as _;
use std::time::Instant;

use strix_tfhe::profiler::{PbsStage, StageTimings};

use crate::spans::{ms_between, EpochSpan, Joined, RequestSpan};
use crate::stats::{mean, median, percentile, sorted};
use crate::workloads::{epoch_size, Measurement, Snapshot};

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The measured window `[start, end)`.
#[derive(Clone, Copy, Debug)]
pub struct Window {
    /// Opening instant.
    pub start: Instant,
    /// Closing instant.
    pub end: Instant,
}

impl Window {
    /// The window between two snapshots.
    pub fn between(a: &Snapshot, b: &Snapshot) -> Self {
        Self { start: a.at, end: b.at }
    }

    /// Whether `t` falls inside the window.
    pub fn contains(&self, t: Instant) -> bool {
        t >= self.start && t < self.end
    }

    /// Window length in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// How many requests a run attempted and how many failed, counting
/// only requests due inside the window.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Requests due (open loop) or submitted (closed loop) in the
    /// window, refused submits included.
    pub attempted: u64,
    /// Of those, refused at submit, failed, or never answered.
    pub failed: u64,
    /// PBS whose response reached `recv` inside the window.
    pub completed_in_window: u64,
}

/// Counts the window's requests. A request belongs to the window by its
/// latency origin; a completion counts toward throughput only when its
/// `recv` falls inside the window.
pub fn count(requests: &[RequestSpan], refused: &[Instant], window: Window, open: bool) -> Counts {
    let mut counts = Counts::default();
    for r in requests {
        if window.contains(r.origin(open)) {
            counts.attempted += 1;
            if !r.ok {
                counts.failed += 1;
            }
        }
        if r.ok && r.recv.is_some_and(|t| window.contains(t)) {
            counts.completed_in_window += 1;
        }
    }
    let refused_in = refused.iter().filter(|&&t| window.contains(t)).count() as u64;
    counts.attempted += refused_in;
    counts.failed += refused_in;
    counts
}

/// Latencies (ms) of the window's successful requests, ascending.
pub fn latencies(requests: &[RequestSpan], window: Window, open: bool) -> Vec<f64> {
    sorted(
        requests
            .iter()
            .filter(|r| r.ok && window.contains(r.origin(open)))
            .filter_map(|r| r.recv.map(|recv| ms_between(r.origin(open), recv))),
    )
}

/// p95 of how late the generator submitted (due → submit call), in ms,
/// over the window's requests: a run with a high lag did not offer the
/// load it claims.
pub fn lag_p95_ms(requests: &[RequestSpan], window: Window, open: bool) -> f64 {
    let lags = requests
        .iter()
        .filter(|r| window.contains(r.origin(open)))
        .map(|r| ms_between(r.due, r.call));
    percentile(&sorted(lags), 0.95)
}

/// The end-to-end metrics of a run.
pub fn end_to_end(
    m: &Measurement,
    setup_s: f64,
    open: bool,
    peak_rss_mb: f64,
) -> (Vec<Metric>, Counts, usize) {
    let (a, b) = &m.window;
    let window = Window::between(a, b);
    let t = &m.traffic;
    let counts = count(&t.requests, &t.refused, window, open);
    let lat = latencies(&t.requests, window, open);
    let programs: Vec<f64> = if t.programs.is_empty() && t.failed_programs.is_empty() {
        // Without sessions every request is a one-node program.
        lat.clone()
    } else {
        sorted(t.programs.iter().filter(|(s, _)| window.contains(*s)).map(|(_, ms)| *ms))
    };
    let completed = counts.completed_in_window.max(1) as f64;
    let served = if counts.attempted == 0 {
        0.0
    } else {
        (counts.attempted - counts.failed) as f64 / counts.attempted as f64
    };
    let metrics = vec![
        metric("setup_s", setup_s, "s"),
        metric("throughput_pbs_per_s", counts.completed_in_window as f64 / window.seconds(), "1/s"),
        metric("latency_p50_ms", percentile(&lat, 0.50), "ms"),
        metric("latency_p95_ms", percentile(&lat, 0.95), "ms"),
        metric("program_latency_p50_ms", percentile(&programs, 0.50), "ms"),
        metric("served_share", served, "ratio"),
        metric("cpu_ms_per_pbs", (b.cpu_s - a.cpu_s) * 1e3 / completed, "ms"),
        metric("peak_rss_mb", peak_rss_mb, "MiB"),
    ];
    (metrics, counts, lat.len())
}

fn per_job_ms(epochs: &[&EpochSpan]) -> f64 {
    let jobs: usize = epochs.iter().map(|e| e.jobs()).sum();
    let ms: f64 = epochs.iter().map(|e| EpochSpan::span_ms(e.pbs) + EpochSpan::span_ms(e.ks)).sum();
    if jobs == 0 {
        0.0
    } else {
        ms / jobs as f64
    }
}

/// Summed per-stage timings of the probed epochs and the PBS count
/// they cover.
fn stage_split(epochs: &[&EpochSpan]) -> Option<(StageTimings, usize)> {
    let mut samples = epochs.iter().filter_map(|e| e.stages.as_ref()).peekable();
    samples.peek()?;
    let mut timings = StageTimings::new();
    let mut jobs = 0;
    for (t, n) in samples {
        timings.merge(t);
        jobs += n;
    }
    Some((timings, jobs))
}

/// Inputs to the per-layer metrics besides the measurement itself.
pub struct LayerInputs<'a> {
    /// Recorded epochs.
    pub epochs: &'a [EpochSpan],
    /// Requests joined with their epochs.
    pub joined: &'a [Joined],
    /// `SeededServerKey::expand` timings, in ms.
    pub expand_ms: &'a [f64],
    /// Time the executor wrapper spent recording spans, in ms.
    pub record_ms: f64,
}

/// The per-layer metrics of a traced run.
pub fn per_layer(m: &Measurement, open: bool, inputs: &LayerInputs<'_>) -> Vec<Metric> {
    let (a, b) = &m.window;
    let window = Window::between(a, b);
    let window_ms = window.seconds() * 1e3;
    let t = &m.traffic;
    let in_window: Vec<&RequestSpan> =
        t.requests.iter().filter(|r| window.contains(r.origin(open))).collect();
    let layers: Vec<_> = inputs
        .joined
        .iter()
        .filter(|j| window.contains(t.requests[j.request].origin(open)))
        .map(|j| j.layers)
        .collect();
    let layer = |f: fn(&crate::spans::LayerTimes) -> f64| sorted(layers.iter().map(f));
    let batch_wait = layer(|l| l.batch);

    let epochs: Vec<&EpochSpan> =
        inputs.epochs.iter().filter(|e| window.contains(e.start)).collect();
    let steady: Vec<&EpochSpan> =
        epochs.iter().copied().filter(|e| !e.profiled && !e.key_miss).collect();
    let steady_jobs = steady.iter().map(|e| e.jobs()).sum::<usize>().max(1) as f64;
    let sum_steady = |f: &dyn Fn(&EpochSpan) -> f64| steady.iter().map(|e| f(e)).sum::<f64>();
    let pbs_ms = sum_steady(&|e| EpochSpan::span_ms(e.pbs)) / steady_jobs;
    let ks_ms = sum_steady(&|e| EpochSpan::span_ms(e.ks)) / steady_jobs;
    let exec_ms = sum_steady(&|e| e.execute_ms()) / steady_jobs;
    // Probe overhead compares probed and unprobed epochs of one kind:
    // those without a key miss when the window has probed ones (a freshly
    // expanded key runs slower), otherwise all of them.
    let kind = |probed: bool, hits_only: bool| -> Vec<&EpochSpan> {
        epochs
            .iter()
            .copied()
            .filter(|e| e.profiled == probed && !(hits_only && e.key_miss))
            .collect()
    };
    let hits_only = epochs.iter().any(|e| e.profiled && !e.key_miss);
    let probed_ms = per_job_ms(&kind(true, hits_only));
    let unprobed_ms = per_job_ms(&kind(false, hits_only));
    let stages = stage_split(&epochs);
    let (probe_overhead_pct, scale) = if probed_ms > 0.0 && unprobed_ms > 0.0 {
        ((probed_ms - unprobed_ms) / unprobed_ms * 100.0, (unprobed_ms / probed_ms).min(1.0))
    } else {
        (0.0, 1.0)
    };
    let stage_us = |stage: PbsStage| {
        stages.as_ref().map_or(0.0, |(timings, jobs)| {
            timings.total_for(stage).as_secs_f64() * 1e6 / (*jobs).max(1) as f64 * scale
        })
    };

    let reg = (b.registry.hits - a.registry.hits, b.registry.misses - a.registry.misses);
    let miss_epochs = sorted(epochs.iter().filter(|e| e.key_miss).map(|e| e.execute_ms()));
    let ns_share = |x: u64, y: u64| (y.saturating_sub(x)) as f64 / 1e6 / window_ms;

    vec![
        metric(
            "queue.submit_p95_ms",
            percentile(&sorted(in_window.iter().map(|r| ms_between(r.call, r.returned))), 0.95),
            "ms",
        ),
        metric("queue.wait_p50_ms", percentile(&layer(|l| l.queue), 0.5), "ms"),
        metric("batcher.wait_p50_ms", percentile(&batch_wait, 0.5), "ms"),
        metric("batcher.wait_p95_ms", percentile(&batch_wait, 0.95), "ms"),
        metric(
            "batcher.occupancy_mean",
            mean(epochs.iter().map(|e| e.jobs() as f64 / epoch_size() as f64)),
            "ratio",
        ),
        metric("batcher.epochs", epochs.len() as f64, "count"),
        metric("batcher.cpu_share", ns_share(a.batcher_ns, b.batcher_ns), "ratio"),
        metric("worker.dispatch_wait_p50_ms", percentile(&layer(|l| l.dispatch), 0.5), "ms"),
        metric("worker.busy_share", ns_share(a.worker_ns, b.worker_ns), "ratio"),
        metric("executor.epoch_ms_p50", median(epochs.iter().map(|e| e.execute_ms())), "ms"),
        metric("executor.pbs_ms_per_job", pbs_ms, "ms"),
        metric("executor.ks_ms_per_job", ks_ms, "ms"),
        metric("executor.other_ms_per_job", (exec_ms - pbs_ms - ks_ms).max(0.0), "ms"),
        metric("registry.hits", reg.0 as f64, "count"),
        metric("registry.misses", reg.1 as f64, "count"),
        metric("registry.evictions", (b.registry.evictions - a.registry.evictions) as f64, "count"),
        metric(
            "registry.hit_ratio",
            if reg.0 + reg.1 == 0 { 0.0 } else { reg.0 as f64 / (reg.0 + reg.1) as f64 },
            "ratio",
        ),
        metric("registry.expand_ms", median(inputs.expand_ms.iter().copied()), "ms"),
        metric("registry.miss_epoch_ms_p50", percentile(&miss_epochs, 0.5), "ms"),
        metric("session.in_flight_mean", mean(t.in_flight.iter().copied()), "count"),
        metric(
            "session.programs",
            t.programs.iter().filter(|(s, _)| window.contains(*s)).count() as f64,
            "count",
        ),
        metric("delivery.p50_ms", percentile(&layer(|l| l.delivery), 0.5), "ms"),
        metric("tfhe.modswitch_us", stage_us(PbsStage::ModSwitch), "us"),
        metric("tfhe.rotate_us", stage_us(PbsStage::Rotate), "us"),
        metric("tfhe.decompose_us", stage_us(PbsStage::Decompose), "us"),
        metric("fft.forward_us", stage_us(PbsStage::Fft), "us"),
        metric("fft.vma_us", stage_us(PbsStage::VectorMultiply), "us"),
        metric("fft.inverse_us", stage_us(PbsStage::IfftAccumulate), "us"),
        metric("tfhe.sample_extract_us", stage_us(PbsStage::SampleExtract), "us"),
        metric("tfhe.keyswitch_us", stage_us(PbsStage::KeySwitch), "us"),
        metric("loadgen.lag_p95_ms", lag_p95_ms(&t.requests, window, open), "ms"),
        metric("trace.overhead_pct", inputs.record_ms / window_ms * 100.0, "pct"),
        metric("trace.probe_overhead_pct", probe_overhead_pct, "pct"),
    ]
}

/// Formats a finite number for JSON with full precision.
pub fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

/// Escapes a string for JSON.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: `correct`, `attempted`, `failed` and every metric
/// with its unit.
pub fn result_line(correct: bool, counts: Counts, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(m.name),
                json_number(m.value),
                json_string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        counts.attempted.max(1),
        counts.failed,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn span(base: Instant, due_ms: u64, recv_ms: Option<u64>, ok: bool) -> RequestSpan {
        let due = base + Duration::from_millis(due_ms);
        RequestSpan {
            client: 0,
            seq: due_ms,
            tenant: 0,
            due,
            call: due + Duration::from_millis(1),
            returned: due + Duration::from_millis(1),
            recv: recv_ms.map(|r| base + Duration::from_millis(r)),
            epoch: recv_ms.map(|_| 0),
            ok,
        }
    }

    #[test]
    fn only_window_requests_and_completions_count() {
        let base = Instant::now();
        let window = Window {
            start: base + Duration::from_millis(100),
            end: base + Duration::from_millis(1100),
        };
        let requests = vec![
            span(base, 50, Some(150), true), // due before: completion counts only
            span(base, 200, Some(300), true), // fully inside
            span(base, 900, Some(1200), true), // due inside, completes after
            span(base, 1000, None, false),   // due inside, lost
            span(base, 1150, Some(1300), true), // due after: ignored
        ];
        let refused = vec![base + Duration::from_millis(500), base + Duration::from_millis(5)];
        let c = count(&requests, &refused, window, true);
        assert_eq!(c.attempted, 4); // 200, 900, 1000 + one refusal
        assert_eq!(c.failed, 2); // the lost one + the refusal
        assert_eq!(c.completed_in_window, 2); // recv at 150 and 300
        let lat = latencies(&requests, window, true);
        assert_eq!(lat, vec![100.0, 300.0]);
        // Closed loop: the origin is the submit call, 1 ms after due.
        assert_eq!(latencies(&requests, window, false), vec![99.0, 299.0]);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(
            true,
            Counts { attempted: 10, failed: 0, completed_in_window: 9 },
            &[metric("latency_p50_ms", 1.25, "ms"), metric("setup_s", 0.5, "s")],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"latency_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(json_number(f64::NAN), "null");
    }
}
