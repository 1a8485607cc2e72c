//! Spans recorded from outside the runtime, and their reconciliation.
//!
//! Every timestamp here comes through a public function: the client
//! side stamps `ClientHandle::submit`/`recv` calls, and [`TimedExecutor`]
//! wraps `MultiTenantExecutor::execute_epoch`, reading the waypoints the
//! runtime stamps on each [`Request`] and the execution timeline in
//! [`EpochExecution`]. Spans stay in memory until the run ends.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use strix_runtime::{
    AdmissionPolicy, BatchExecutor, EpochExecution, KeyRegistry, MultiTenantExecutor, Request,
};
use strix_tfhe::lwe::LweCiphertext;
use strix_tfhe::profiler::StageTimings;
use strix_tfhe::TfheError;

/// Absolute slack of the per-request reconciliation, in ms.
pub const RECONCILE_ABS_MS: f64 = 0.05;
/// Relative slack of the per-request reconciliation (share of the
/// request's end-to-end latency).
pub const RECONCILE_REL: f64 = 0.01;

/// Signed milliseconds from `a` to `b`.
pub fn ms_between(a: Instant, b: Instant) -> f64 {
    if b >= a {
        (b - a).as_secs_f64() * 1e3
    } else {
        -((a - b).as_secs_f64() * 1e3)
    }
}

/// One request as its client saw it.
#[derive(Clone, Debug)]
pub struct RequestSpan {
    /// `ClientId` of the submitting handle.
    pub client: u64,
    /// Sequence number `submit` returned.
    pub seq: u64,
    /// Tenant (key domain) the request ran under.
    pub tenant: u64,
    /// When the request was due: its scheduled arrival (open loop) or
    /// the moment its slot freed up (closed loop).
    pub due: Instant,
    /// When the submitting call began.
    pub call: Instant,
    /// When the submitting call returned.
    pub returned: Instant,
    /// When `recv` handed the response back, if it did.
    pub recv: Option<Instant>,
    /// `Response::epoch`, if a response arrived.
    pub epoch: Option<u64>,
    /// Whether the response carried a ciphertext.
    pub ok: bool,
}

impl RequestSpan {
    /// The latency origin: the due time in an open loop, the submit
    /// call in a closed loop.
    pub fn origin(&self, open_loop: bool) -> Instant {
        if open_loop {
            self.due
        } else {
            self.call
        }
    }
}

/// The runtime's waypoints for one request, read off the [`Request`]
/// handed to the executor.
#[derive(Clone, Debug)]
pub struct Waypoints {
    /// `ClientId` of the request.
    pub client: u64,
    /// Its sequence number.
    pub seq: u64,
    /// `Request::submitted_at`.
    pub submitted: Instant,
    /// `Request::batched_at`.
    pub batched: Option<Instant>,
    /// `Request::flushed_at`.
    pub flushed: Option<Instant>,
}

/// One executed epoch as seen around `execute_epoch`.
#[derive(Clone, Debug)]
pub struct EpochSpan {
    /// Entry into `execute_epoch`.
    pub start: Instant,
    /// Return from `execute_epoch`.
    pub end: Instant,
    /// `EpochExecution::pbs_span`.
    pub pbs: Option<(Instant, Instant)>,
    /// `EpochExecution::ks_span`.
    pub ks: Option<(Instant, Instant)>,
    /// `EpochExecution::stage_sample`, on probed epochs.
    pub stages: Option<(StageTimings, usize)>,
    /// Whether the runtime asked for the probed kernel.
    pub profiled: bool,
    /// Whether resolving the epoch's key missed the registry cache.
    pub key_miss: bool,
    /// Every request of the epoch, in epoch order.
    pub requests: Vec<Waypoints>,
}

impl EpochSpan {
    /// Requests (all PBS-bearing in these workloads) in the epoch.
    pub fn jobs(&self) -> usize {
        self.requests.len()
    }

    /// Wall time inside `execute_epoch`, in ms.
    pub fn execute_ms(&self) -> f64 {
        ms_between(self.start, self.end)
    }

    /// Length of an optional `(start, end)` span, in ms.
    pub fn span_ms(span: Option<(Instant, Instant)>) -> f64 {
        span.map_or(0.0, |(a, b)| ms_between(a, b))
    }
}

/// Epoch spans collected by a [`TimedExecutor`], plus the time spent
/// recording them.
#[derive(Default)]
pub struct SpanLog {
    epochs: Mutex<Vec<EpochSpan>>,
    record_ns: AtomicU64,
}

impl SpanLog {
    /// Takes the recorded epochs out of the log.
    pub fn take(&self) -> Vec<EpochSpan> {
        std::mem::take(&mut *self.epochs.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Adds time spent on span bookkeeping.
    pub fn charge(&self, spent: Duration) {
        self.record_ns.fetch_add(spent.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Total bookkeeping time so far, in ms.
    pub fn record_ms(&self) -> f64 {
        self.record_ns.load(Ordering::Relaxed) as f64 / 1e6
    }
}

/// The benchmark's [`BatchExecutor`]: a `MultiTenantExecutor` whose
/// every epoch is bracketed from outside. With no log it only delegates.
pub struct TimedExecutor {
    inner: MultiTenantExecutor,
    registry: Arc<KeyRegistry>,
    log: Option<Arc<SpanLog>>,
}

impl TimedExecutor {
    /// Wraps a single-threaded executor over `registry`; spans go to
    /// `log` when one is given.
    pub fn new(registry: Arc<KeyRegistry>, log: Option<Arc<SpanLog>>) -> Self {
        let inner = MultiTenantExecutor::with_threads(Arc::clone(&registry), 1);
        Self { inner, registry, log }
    }
}

impl BatchExecutor for TimedExecutor {
    fn execute(&self, batch: &[Request]) -> Vec<Result<LweCiphertext, TfheError>> {
        self.execute_epoch(batch, false).results
    }

    fn execute_epoch(&self, batch: &[Request], profiled: bool) -> EpochExecution {
        let Some(log) = &self.log else {
            return self.inner.execute_epoch(batch, profiled);
        };
        let entered = Instant::now();
        let misses_before = self.registry.stats().misses;
        let start = Instant::now();
        let execution = self.inner.execute_epoch(batch, profiled);
        let end = Instant::now();
        let key_miss = self.registry.stats().misses > misses_before;
        let span = EpochSpan {
            start,
            end,
            pbs: execution.pbs_span,
            ks: execution.ks_span,
            stages: execution.stage_sample.clone(),
            profiled,
            key_miss,
            requests: batch
                .iter()
                .map(|r| Waypoints {
                    client: r.client.0,
                    seq: r.seq,
                    submitted: r.submitted_at,
                    batched: r.batched_at,
                    flushed: r.flushed_at,
                })
                .collect(),
        };
        log.epochs.lock().unwrap_or_else(|e| e.into_inner()).push(span);
        log.charge((start - entered) + end.elapsed());
        execution
    }

    fn planned_threads(&self, batch_len: usize) -> usize {
        self.inner.planned_threads(batch_len)
    }

    fn max_threads(&self) -> usize {
        self.inner.max_threads()
    }

    fn admission(&self) -> Option<AdmissionPolicy> {
        self.inner.admission()
    }

    fn fft_backend(&self) -> Option<String> {
        self.inner.fft_backend()
    }
}

/// One request's end-to-end latency split into disjoint layer times
/// (all in ms, each clamped at zero).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTimes {
    /// Generator lag: due → submit call (open loop only).
    pub lag: f64,
    /// Submit call → `Request::submitted_at`.
    pub submit_entry: f64,
    /// Ingress queue: submitted → batched.
    pub queue: f64,
    /// Batch formation: batched → flushed.
    pub batch: f64,
    /// Worker dispatch: flushed → `execute_epoch` entry.
    pub dispatch: f64,
    /// `execute_epoch` entry → return.
    pub execute: f64,
    /// Delivery and reorder: `execute_epoch` return → `recv`.
    pub delivery: f64,
    /// The end-to-end latency the parts must add up to.
    pub end_to_end: f64,
}

impl LayerTimes {
    /// Splits a request's latency at the runtime's waypoints.
    pub fn split(request: &RequestSpan, way: &Waypoints, epoch: &EpochSpan, open: bool) -> Self {
        let recv = request.recv.unwrap_or(epoch.end);
        let batched = way.batched.unwrap_or(way.submitted);
        let flushed = way.flushed.unwrap_or(batched);
        let part = |a, b| ms_between(a, b).max(0.0);
        Self {
            lag: if open { part(request.due, request.call) } else { 0.0 },
            submit_entry: part(request.call, way.submitted),
            queue: part(way.submitted, batched),
            batch: part(batched, flushed),
            dispatch: part(flushed, epoch.start),
            execute: part(epoch.start, epoch.end),
            delivery: part(epoch.end, recv),
            end_to_end: ms_between(request.origin(open), recv),
        }
    }

    /// Sum of the layer times.
    pub fn sum(&self) -> f64 {
        self.lag
            + self.submit_entry
            + self.queue
            + self.batch
            + self.dispatch
            + self.execute
            + self.delivery
    }

    /// How far the layer sum misses the end-to-end latency, in ms.
    pub fn error_ms(&self) -> f64 {
        (self.sum() - self.end_to_end).abs()
    }

    /// Whether the layers add up within the stated tolerance.
    pub fn reconciles(&self) -> bool {
        self.error_ms() <= RECONCILE_ABS_MS + RECONCILE_REL * self.end_to_end.abs()
    }
}

/// A completed request's layer split, by index into the request list.
#[derive(Clone, Debug)]
pub struct Joined {
    /// Index into the request list.
    pub request: usize,
    /// The request's layer split.
    pub layers: LayerTimes,
}

/// The outcome of reconciling a traced run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Reconciliation {
    /// Requests joined with an epoch and checked.
    pub requests_checked: usize,
    /// Requests whose layer times miss their latency beyond tolerance.
    pub request_violations: usize,
    /// Largest per-request miss, in ms.
    pub max_error_ms: f64,
    /// Completed requests no recorded epoch contains.
    pub unjoined: usize,
    /// Epochs whose `pbs_span + ks_span` exceeds their execute time, or
    /// whose spans fall outside it.
    pub epoch_violations: usize,
    /// Epochs whose requests report different `Response::epoch` ids.
    pub epoch_link_mismatches: usize,
}

impl Reconciliation {
    /// Whether every check held.
    pub fn holds(&self) -> bool {
        self.request_violations == 0
            && self.unjoined == 0
            && self.epoch_violations == 0
            && self.epoch_link_mismatches == 0
    }
}

/// Joins completed requests to their epochs by `(client, seq)` and
/// checks that (a) each request's disjoint layer times add up to its
/// end-to-end latency, (b) each epoch's PBS and keyswitch spans fit
/// inside its execute span, and (c) all requests of one recorded epoch
/// name the same `Response::epoch`.
pub fn reconcile(
    requests: &[RequestSpan],
    epochs: &[EpochSpan],
    open_loop: bool,
) -> (Vec<Joined>, Reconciliation) {
    let mut index = HashMap::new();
    for (e, epoch) in epochs.iter().enumerate() {
        for (w, way) in epoch.requests.iter().enumerate() {
            index.insert((way.client, way.seq), (e, w));
        }
    }
    let mut out = Reconciliation::default();
    let mut joined = Vec::new();
    let mut runtime_epoch: Vec<Option<u64>> = vec![None; epochs.len()];
    let mut mismatched = vec![false; epochs.len()];
    for (r, request) in requests.iter().enumerate() {
        if request.recv.is_none() {
            continue;
        }
        let Some(&(e, w)) = index.get(&(request.client, request.seq)) else {
            out.unjoined += 1;
            continue;
        };
        match (runtime_epoch[e], request.epoch) {
            (None, id) => runtime_epoch[e] = id,
            (Some(a), Some(b)) if a != b => mismatched[e] = true,
            _ => {}
        }
        let layers = LayerTimes::split(request, &epochs[e].requests[w], &epochs[e], open_loop);
        out.requests_checked += 1;
        out.max_error_ms = out.max_error_ms.max(layers.error_ms());
        if !layers.reconciles() {
            out.request_violations += 1;
        }
        joined.push(Joined { request: r, layers });
    }
    out.epoch_link_mismatches = mismatched.iter().filter(|&&m| m).count();
    out.epoch_violations = epochs.iter().filter(|e| !epoch_fits(e)).count();
    (joined, out)
}

fn epoch_fits(epoch: &EpochSpan) -> bool {
    let inside = |span: Option<(Instant, Instant)>| {
        span.is_none_or(|(a, b)| a >= epoch.start && b <= epoch.end && a <= b)
    };
    let parts = EpochSpan::span_ms(epoch.pbs) + EpochSpan::span_ms(epoch.ks);
    inside(epoch.pbs) && inside(epoch.ks) && parts <= epoch.execute_ms() + RECONCILE_ABS_MS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(base: Instant, ms: f64) -> Instant {
        base + Duration::from_secs_f64(ms / 1e3)
    }

    fn synthetic(base: Instant, recv_ms: f64) -> (RequestSpan, EpochSpan) {
        let request = RequestSpan {
            client: 3,
            seq: 9,
            tenant: 0,
            due: at(base, 0.0),
            call: at(base, 1.0),
            returned: at(base, 1.2),
            recv: Some(at(base, recv_ms)),
            epoch: Some(42),
            ok: true,
        };
        let epoch = EpochSpan {
            start: at(base, 30.0),
            end: at(base, 80.0),
            pbs: Some((at(base, 31.0), at(base, 70.0))),
            ks: Some((at(base, 70.0), at(base, 79.0))),
            stages: None,
            profiled: false,
            key_miss: false,
            requests: vec![Waypoints {
                client: 3,
                seq: 9,
                submitted: at(base, 1.1),
                batched: Some(at(base, 2.0)),
                flushed: Some(at(base, 25.0)),
            }],
        };
        (request, epoch)
    }

    #[test]
    fn layers_add_up_to_open_and_closed_loop_latency() {
        let base = Instant::now();
        let (request, epoch) = synthetic(base, 81.5);
        let (joined, rec) =
            reconcile(std::slice::from_ref(&request), std::slice::from_ref(&epoch), true);
        assert!(rec.holds(), "{rec:?}");
        let l = joined[0].layers;
        assert!((l.lag - 1.0).abs() < 1e-6);
        assert!((l.queue - 0.9).abs() < 1e-6);
        assert!((l.batch - 23.0).abs() < 1e-6);
        assert!((l.dispatch - 5.0).abs() < 1e-6);
        assert!((l.execute - 50.0).abs() < 1e-6);
        assert!((l.delivery - 1.5).abs() < 1e-6);
        assert!((l.end_to_end - 81.5).abs() < 1e-6);
        let (joined, rec) = reconcile(&[request], &[epoch], false);
        assert!(rec.holds());
        assert_eq!(joined[0].layers.lag, 0.0);
        assert!((joined[0].layers.end_to_end - 80.5).abs() < 1e-6);
    }

    #[test]
    fn out_of_order_waypoints_break_reconciliation() {
        let base = Instant::now();
        // A response "received" before its epoch finished cannot be
        // split into non-negative layers.
        let (request, epoch) = synthetic(base, 60.0);
        let (_, rec) = reconcile(&[request], &[epoch], true);
        assert_eq!(rec.request_violations, 1);
        assert!(!rec.holds());
        assert!(rec.max_error_ms > 19.0);
    }

    #[test]
    fn epoch_spans_must_fit_inside_execute() {
        let base = Instant::now();
        let (request, mut epoch) = synthetic(base, 81.5);
        epoch.ks = Some((at(base, 70.0), at(base, 85.0)));
        let (_, rec) = reconcile(&[request], &[epoch], true);
        assert_eq!(rec.epoch_violations, 1);
    }

    #[test]
    fn unjoined_and_mislinked_requests_are_flagged() {
        let base = Instant::now();
        let (request, epoch) = synthetic(base, 81.5);
        let mut stranger = request.clone();
        stranger.seq = 10;
        let (_, rec) = reconcile(&[stranger], std::slice::from_ref(&epoch), true);
        assert_eq!(rec.unjoined, 1);

        let mut twin_epoch = epoch;
        let mut way = twin_epoch.requests[0].clone();
        way.seq = 10;
        twin_epoch.requests.push(way);
        let mut other = request.clone();
        other.seq = 10;
        other.epoch = Some(43);
        let (_, rec) = reconcile(&[request, other], &[twin_epoch], true);
        assert_eq!(rec.epoch_link_mismatches, 1);
    }
}
