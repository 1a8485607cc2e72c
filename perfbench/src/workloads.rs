//! The workloads: their shapes, set-up, and load generators.
//!
//! All of them run through `Runtime::start` over the benchmark's
//! [`TimedExecutor`] (a `MultiTenantExecutor`), with the runtime shape
//! of `BENCH_service.json`: a 2×4 epoch, a 40 ms flush deadline, one
//! worker with one thread, and tracing and stage sampling at their
//! defaults. Clients hold real keys and every response is decrypted
//! and checked against the plaintext function.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use strix_core::BatchGeometry;
use strix_runtime::{
    ClientHandle, KeyRegistry, KeyRegistryStats, ProgramSession, RequestOp, Response, Runtime,
    RuntimeConfig, RuntimeError, TenantId,
};
use strix_tfhe::bootstrap::Lut;
use strix_tfhe::lwe::LweCiphertext;
use strix_tfhe::torus::decode_message;
use strix_tfhe::{ClientKey, PbsKernel, SeededServerKey, TfheError, TfheParameters};
use strix_workloads::nn::{ReluSchedule, RELU_ACTIVATION_MAX, RELU_MESSAGE_BITS};

use crate::host;
use crate::spans::{ms_between, RequestSpan, SpanLog, TimedExecutor};

/// Epoch shape: 2 TvLP lanes × 4 core-batch slots.
pub const GEOMETRY: (usize, usize) = (2, 4);
/// Flush deadline of an open batch.
pub const MAX_DELAY: Duration = Duration::from_millis(40);
/// Message bits of the LUT workloads (plus one padding bit).
pub const LUT_BITS: u32 = 2;
/// The function the LUT workloads evaluate: a permutation of `0..4`,
/// so a wrong rotation or a wrong key shows up as a wrong value.
pub const LUT_TABLE: [u64; 4] = [1, 3, 0, 2];
/// Longest a generator waits for one response before declaring the
/// rest of its requests lost.
const RECV_TIMEOUT: Duration = Duration::from_secs(30);
/// Polling period of the open-loop generator between arrivals.
const POLL: Duration = Duration::from_micros(250);
/// Ciphertexts pre-encrypted per tenant before the window.
const INPUT_POOL: usize = 64;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, one tenant, set-II, every epoch full.
    PbsBacklog,
    /// Closed loop, two tenants over a one-key budget, whole-epoch turns.
    TenantsBacklog,
    /// Open loop at a fixed rate over more tenants than the key budget.
    TenantsOpen,
    /// Concurrent Deep-NN ReLU sessions on multi-bit deep-nn-1024.
    NnSessions,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::PbsBacklog,
        Workload::TenantsBacklog,
        Workload::NnSessions,
        Workload::TenantsOpen,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PbsBacklog => "pbs_backlog",
            Workload::TenantsBacklog => "tenants_backlog",
            Workload::TenantsOpen => "tenants_open",
            Workload::NnSessions => "nn_sessions",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether requests are timed from their due time (open loop)
    /// rather than their submit (closed loop).
    pub fn open_loop(self) -> bool {
        self == Workload::TenantsOpen
    }
}

/// A workload's fixed sizes.
#[derive(Clone, Debug)]
pub struct Shape {
    /// Parameter set every tenant's key is generated for.
    pub params: TfheParameters,
    /// Tenants, one key each.
    pub tenants: usize,
    /// Expanded keys the registry's budget holds.
    pub resident_keys: usize,
    /// Full set-ups per run; `setup_s` is their nearest-rank median.
    pub setup_reps: usize,
    /// Requests kept outstanding (closed LUT loops).
    pub backlog: usize,
    /// Fixed offered rate in PBS/s (tenants_open).
    pub rate_per_s: f64,
    /// Zipf exponent of tenant popularity.
    pub zipf_s: f64,
    /// Consecutive requests sent for one tenant before the next takes
    /// its turn.
    pub tenant_block: usize,
    /// Generator threads driving sessions (nn_sessions).
    pub session_threads: usize,
    /// Concurrent sessions per generator thread (nn_sessions).
    pub sessions_per_thread: usize,
    /// Layers of the ReLU schedule (nn_sessions).
    pub depth: usize,
    /// Load before the window opens, so a closed loop starts full.
    pub settle: Duration,
}

impl Shape {
    /// The shape of `workload`; `fast` swaps in the tiny insecure test
    /// parameters and a single set-up, for smoke tests only.
    pub fn new(workload: Workload, fast: bool) -> Self {
        let params = match (workload, fast) {
            (Workload::NnSessions, false) => TfheParameters::deep_nn(1024)
                .unwrap_or_else(|_| unreachable!("1024 is a supported deep-NN size"))
                .with_kernel(PbsKernel::MultiBit { grouping_factor: 3 }),
            (Workload::NnSessions, true) => TfheParameters::testing_fast()
                .with_kernel(PbsKernel::MultiBit { grouping_factor: 3 }),
            (_, false) => TfheParameters::set_ii(),
            (_, true) => TfheParameters::testing_fast(),
        };
        // tenants_backlog sends whole epochs per tenant, two turns to
        // one tenant for every turn to the other, over a one-key budget:
        // two of every three epochs miss, the same for every seed.
        let (tenants, resident_keys, zipf_s, tenant_block) = match workload {
            Workload::TenantsBacklog => (2, 1, 1.0, epoch_size()),
            Workload::TenantsOpen => (3, 2, 2.0, 1),
            _ => (1, 1, 1.0, 1),
        };
        Self {
            params,
            tenants,
            resident_keys,
            setup_reps: if fast { 1 } else { 2 },
            backlog: 2 * epoch_size(),
            rate_per_s: 12.0,
            zipf_s,
            tenant_block,
            session_threads: 2,
            sessions_per_thread: 2,
            depth: 4,
            settle: if workload.open_loop() {
                Duration::from_millis(50)
            } else {
                Duration::from_millis(500)
            },
        }
    }
}

/// Requests per full epoch.
pub fn epoch_size() -> usize {
    GEOMETRY.0 * GEOMETRY.1
}

/// The runtime configuration every workload runs under.
pub fn runtime_config() -> RuntimeConfig {
    RuntimeConfig::new(BatchGeometry::explicit(GEOMETRY.0, GEOMETRY.1))
        .with_max_delay(MAX_DELAY)
        .with_workers(1)
        .with_threads_per_worker(1)
}

/// SplitMix64: the benchmark's only source of randomness, seeded from
/// the command line.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, separated by `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Why a run could not produce a result.
#[derive(Debug)]
pub struct BenchError(pub String);

impl std::fmt::Display for BenchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<TfheError> for BenchError {
    fn from(e: TfheError) -> Self {
        BenchError(e.to_string())
    }
}

impl From<RuntimeError> for BenchError {
    fn from(e: RuntimeError) -> Self {
        BenchError(e.to_string())
    }
}

/// A started service: keys, registry and runtime, warmed up.
pub struct Service {
    /// The runtime under test.
    pub runtime: Runtime,
    /// The key registry its executor resolves from.
    pub registry: Arc<KeyRegistry>,
    /// Epoch spans, on traced runs.
    pub log: Option<Arc<SpanLog>>,
    /// One client key per tenant.
    pub keys: Vec<ClientKey>,
    /// Seeded transport keys kept for timing `SeededServerKey::expand`
    /// (multi-tenant workloads, traced runs only).
    pub seeded: Vec<SeededServerKey>,
    /// The LUT the LUT workloads evaluate.
    pub lut: Arc<Lut>,
    /// Wrong outputs seen during warm-up.
    pub warmup_wrong: u64,
}

/// The LUT a workload's warm-up and LUT requests evaluate, and the
/// message bits and plaintext function it encodes.
fn workload_lut(
    workload: Workload,
    params: &TfheParameters,
) -> Result<(Arc<Lut>, u32), BenchError> {
    let n = params.polynomial_size;
    Ok(match workload {
        Workload::NnSessions => (Arc::new(ReluSchedule::lut(n)?), RELU_MESSAGE_BITS),
        _ => (Arc::new(Lut::from_function(n, LUT_BITS, |m| LUT_TABLE[m as usize])?), LUT_BITS),
    })
}

/// The plaintext function behind [`workload_lut`].
fn expected(workload: Workload, m: u64) -> u64 {
    match workload {
        Workload::NnSessions => ReluSchedule::activation(m),
        _ => LUT_TABLE[m as usize],
    }
}

/// Decrypts a keyswitched output in a `bits`-bit message space.
fn decrypt(key: &ClientKey, ct: &LweCiphertext, bits: u32) -> Option<u64> {
    key.decrypt_phase(ct).ok().map(|phase| decode_message(phase, bits + 1))
}

fn encrypt(key: &mut ClientKey, m: u64, bits: u32) -> Result<LweCiphertext, BenchError> {
    Ok(key.encrypt_shortint(m, bits)?.as_lwe().clone())
}

/// Generates keys, registers them, starts the runtime and runs one full
/// epoch per tenant (so every tenant's key has been expanded once).
/// Returns the service and the seconds all of that took.
pub fn setup(
    workload: Workload,
    shape: &Shape,
    seed: u64,
    traced: bool,
) -> Result<(Service, f64), BenchError> {
    let t0 = Instant::now();
    let registry =
        Arc::new(KeyRegistry::with_resident_keys(shape.params.clone(), shape.resident_keys));
    let mut keys = Vec::new();
    let mut seeded = Vec::new();
    for t in 0..shape.tenants as u64 {
        let mut key = ClientKey::generate(&shape.params, Rng::new(seed, 100 + t).next_u64());
        if shape.tenants > shape.resident_keys {
            let transport = key.seeded_server_key(Rng::new(seed, 200 + t).next_u64());
            if traced {
                seeded.push(transport.clone());
            }
            registry.register_seeded(TenantId(t), transport);
        } else {
            registry.register_server_key(TenantId(t), Arc::new(key.server_key()));
        }
        keys.push(key);
    }
    let log = traced.then(|| Arc::new(SpanLog::default()));
    let runtime =
        Runtime::start(runtime_config(), TimedExecutor::new(Arc::clone(&registry), log.clone()));
    let (lut, bits) = workload_lut(workload, &shape.params)?;
    let mut rng = Rng::new(seed, 300);
    let mut warmup_wrong = 0;
    for (t, key) in keys.iter_mut().enumerate() {
        let mut handle = runtime.client_for(TenantId(t as u64));
        let mut sent = Vec::new();
        for _ in 0..epoch_size() {
            let m = rng.below(1 << bits);
            handle.submit(encrypt(key, m, bits)?, RequestOp::Lut(Arc::clone(&lut)))?;
            sent.push(m);
        }
        for m in sent {
            let ct = handle.recv_timeout(RECV_TIMEOUT)?.result?;
            if decrypt(key, &ct, bits) != Some(expected(workload, m)) {
                warmup_wrong += 1;
            }
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    Ok((Service { runtime, registry, log, keys, seeded, lut, warmup_wrong }, secs))
}

/// Process and runtime-thread counters at one instant.
#[derive(Clone, Copy, Debug)]
pub struct Snapshot {
    /// When it was taken.
    pub at: Instant,
    /// Process CPU seconds.
    pub cpu_s: f64,
    /// On-CPU ns of the `strix-batcher` thread.
    pub batcher_ns: u64,
    /// On-CPU ns of the `strix-worker-*` threads.
    pub worker_ns: u64,
    /// Key registry counters.
    pub registry: KeyRegistryStats,
}

impl Snapshot {
    fn take(registry: &KeyRegistry) -> Self {
        Self {
            at: Instant::now(),
            cpu_s: host::process_cpu_seconds().unwrap_or(0.0),
            batcher_ns: host::thread_cpu_ns("strix-batcher"),
            worker_ns: host::thread_cpu_ns("strix-worker-"),
            registry: registry.stats(),
        }
    }
}

/// What one generator thread saw.
#[derive(Default)]
pub struct Traffic {
    /// Every request the runtime accepted.
    pub requests: Vec<RequestSpan>,
    /// Submits the runtime refused, with the call time.
    pub refused: Vec<Instant>,
    /// Responses whose decrypted value was wrong.
    pub wrong: u64,
    /// Completed sessions as `(start, start → last output in ms)`.
    pub programs: Vec<(Instant, f64)>,
    /// Sessions that failed, with their start.
    pub failed_programs: Vec<Instant>,
    /// `ProgramSession::in_flight` samples.
    pub in_flight: Vec<f64>,
}

impl Traffic {
    fn merge(&mut self, other: Traffic) {
        self.requests.extend(other.requests);
        self.refused.extend(other.refused);
        self.wrong += other.wrong;
        self.programs.extend(other.programs);
        self.failed_programs.extend(other.failed_programs);
        self.in_flight.extend(other.in_flight);
    }
}

/// The measured part of a run.
pub struct Measurement {
    /// All traffic, merged over generator threads.
    pub traffic: Traffic,
    /// Counters at the window's start and end.
    pub window: (Snapshot, Snapshot),
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Drives `workload` against a warmed-up service: load starts now, the
/// window opens after the shape's settle time and lasts `seconds`, and
/// generators stop submitting when it closes and drain what is still
/// outstanding.
pub fn drive(
    workload: Workload,
    shape: &Shape,
    service: &mut Service,
    seed: u64,
    seconds: f64,
) -> Result<Measurement, BenchError> {
    let w0 = Instant::now() + shape.settle;
    let w1 = w0 + Duration::from_secs_f64(seconds);
    let registry = Arc::clone(&service.registry);
    let runtime = &service.runtime;
    let lut = &service.lut;
    let keys = &mut service.keys;
    std::thread::scope(|scope| {
        let generators: Vec<_> = match workload {
            Workload::PbsBacklog | Workload::TenantsBacklog | Workload::TenantsOpen => {
                let handles =
                    (0..shape.tenants as u64).map(|t| runtime.client_for(TenantId(t))).collect();
                let mut rng = Rng::new(seed, 400);
                let order =
                    TenantOrder::new(shape.tenants, shape.zipf_s, shape.tenant_block, &mut rng);
                let offer = if workload.open_loop() {
                    let offsets = arrival_offsets(shape.rate_per_s, seconds, &mut rng);
                    Offer::Open {
                        due: offsets.iter().map(|&s| w0 + Duration::from_secs_f64(s)).collect(),
                    }
                } else {
                    Offer::Closed { backlog: shape.backlog, until: w1 }
                };
                let keys = &mut keys[..];
                vec![scope.spawn(move || lut_traffic(handles, keys, lut, offer, order, rng))]
            }
            Workload::NnSessions => {
                let key = &keys[0];
                (0..shape.session_threads as u64)
                    .map(|i| {
                        let handle = runtime.client_for(TenantId(0));
                        let key = key.clone();
                        let rng = Rng::new(seed, 500 + i);
                        scope.spawn(move || sessions(handle, key, shape, seed, rng, w1))
                    })
                    .collect()
            }
        };
        sleep_until(w0);
        let start = Snapshot::take(&registry);
        sleep_until(w1);
        let end = Snapshot::take(&registry);
        let mut traffic = Traffic::default();
        for generator in generators {
            match generator.join() {
                Ok(Ok(part)) => traffic.merge(part),
                Ok(Err(e)) => return Err(e),
                Err(_) => return Err(BenchError("a generator thread panicked".into())),
            }
        }
        Ok(Measurement { traffic, window: (start, end) })
    })
}

/// Stamps a response onto its span and checks its value.
fn complete(
    span: &mut RequestSpan,
    response: Response,
    key: &ClientKey,
    bits: u32,
    want: u64,
    wrong: &mut u64,
) -> Option<LweCiphertext> {
    span.recv = Some(Instant::now());
    span.epoch = Some(response.epoch);
    let ct = response.result.ok()?;
    span.ok = true;
    if decrypt(key, &ct, bits) != Some(want) {
        *wrong += 1;
    }
    Some(ct)
}

fn input_pool(key: &mut ClientKey, rng: &mut Rng) -> Result<Vec<(u64, LweCiphertext)>, BenchError> {
    (0..INPUT_POOL)
        .map(|_| {
            let m = rng.below(1 << LUT_BITS);
            Ok((m, encrypt(key, m, LUT_BITS)?))
        })
        .collect()
}

fn span_for(handle: &ClientHandle, seq: u64, due: Instant, call: Instant) -> RequestSpan {
    RequestSpan {
        client: handle.id().0,
        seq,
        tenant: handle.tenant().0,
        due,
        call,
        returned: Instant::now(),
        recv: None,
        epoch: None,
        ok: false,
    }
}

/// Which tenant sends next: turns of `block` consecutive requests,
/// handed out by smooth weighted round robin over Zipf weights from a
/// seeded starting phase. Every tenant's share, and how often the key
/// working set exceeds the registry budget, are then the same for every
/// seed.
#[derive(Clone, Debug)]
pub struct TenantOrder {
    weights: Vec<f64>,
    credit: Vec<f64>,
    total: f64,
    block: usize,
    current: usize,
    left: usize,
}

impl TenantOrder {
    /// An order over `tenants` with popularity `1/(rank+1)^zipf_s`, in
    /// turns of `block` requests.
    pub fn new(tenants: usize, zipf_s: f64, block: usize, rng: &mut Rng) -> Self {
        let weights: Vec<f64> = (0..tenants).map(|t| 1.0 / ((t + 1) as f64).powf(zipf_s)).collect();
        let credit = weights.iter().map(|w| rng.unit() * w).collect();
        let total = weights.iter().sum();
        Self { weights, credit, total, block: block.max(1), current: 0, left: 0 }
    }

    /// The tenant of the next request.
    pub fn next_tenant(&mut self) -> usize {
        if self.left == 0 {
            self.current = self.next_turn();
            self.left = self.block;
        }
        self.left -= 1;
        self.current
    }

    fn next_turn(&mut self) -> usize {
        for (c, w) in self.credit.iter_mut().zip(&self.weights) {
            *c += w;
        }
        let tenant = (0..self.credit.len())
            .max_by(|&a, &b| self.credit[a].total_cmp(&self.credit[b]).then(b.cmp(&a)))
            .unwrap_or(0);
        self.credit[tenant] -= self.total;
        tenant
    }
}

/// The open-loop arrival offsets, in seconds from the window start:
/// one arrival at a uniformly random instant inside each consecutive
/// `1/rate` slot, so the offered rate is exact while the instants vary
/// with the seed.
pub fn arrival_offsets(rate_per_s: f64, seconds: f64, rng: &mut Rng) -> Vec<f64> {
    let n = (rate_per_s * seconds).round() as usize;
    (0..n).map(|slot| (slot as f64 + rng.unit()) / rate_per_s).collect()
}

/// How a LUT generator offers load.
enum Offer {
    /// Keep this many requests outstanding until the instant, then drain.
    Closed { backlog: usize, until: Instant },
    /// Submit one request at each due instant, whatever the responses do.
    Open { due: Vec<Instant> },
}

/// Responses still owed to one LUT generator: per tenant handle, the
/// span index and message of each outstanding request, oldest first.
struct Outstanding {
    pending: Vec<VecDeque<(usize, u64)>>,
    count: usize,
}

impl Outstanding {
    /// Waits up to `wait` on the handle owing the oldest response, then
    /// takes whatever every handle has ready. Returns how many arrived.
    fn collect(
        &mut self,
        handles: &mut [ClientHandle],
        keys: &[ClientKey],
        out: &mut Traffic,
        wait: Duration,
    ) -> usize {
        let oldest = (0..handles.len())
            .filter_map(|t| self.pending[t].front().map(|&(i, _)| (out.requests[i].call, t)))
            .min()
            .map(|(_, t)| t);
        let Some(oldest) = oldest else {
            std::thread::sleep(wait);
            return 0;
        };
        let mut got = 0;
        if let Ok(response) = handles[oldest].recv_timeout(wait) {
            got += self.finish(oldest, response, keys, out);
        }
        for (t, handle) in handles.iter_mut().enumerate() {
            while let Some(response) = handle.try_recv() {
                got += self.finish(t, response, keys, out);
            }
        }
        got
    }

    /// Checks one of tenant `t`'s responses against its oldest request.
    fn finish(
        &mut self,
        t: usize,
        response: Response,
        keys: &[ClientKey],
        out: &mut Traffic,
    ) -> usize {
        let Some((i, m)) = self.pending[t].pop_front() else { return 0 };
        let want = LUT_TABLE[m as usize];
        complete(&mut out.requests[i], response, &keys[t], LUT_BITS, want, &mut out.wrong);
        self.count -= 1;
        1
    }
}

/// The LUT generator of pbs_backlog, tenants_backlog and tenants_open:
/// one thread offers `RequestOp::Lut` requests over one handle per
/// tenant, choosing each request's tenant by `order`, and checks every
/// response under that tenant's key.
fn lut_traffic(
    mut handles: Vec<ClientHandle>,
    keys: &mut [ClientKey],
    lut: &Arc<Lut>,
    offer: Offer,
    mut order: TenantOrder,
    mut rng: Rng,
) -> Result<Traffic, BenchError> {
    let pools =
        keys.iter_mut().map(|key| input_pool(key, &mut rng)).collect::<Result<Vec<_>, _>>()?;
    let mut out = Traffic::default();
    let mut owed = Outstanding { pending: vec![VecDeque::new(); handles.len()], count: 0 };
    let mut next_due = 0;
    let mut slot_free = Instant::now();
    let mut progress = Instant::now();
    loop {
        let now = Instant::now();
        let mut send = |due: Instant, out: &mut Traffic, owed: &mut Outstanding| {
            let t = order.next_tenant();
            let (m, ct) = &pools[t][rng.below(INPUT_POOL as u64) as usize];
            let call = Instant::now();
            match handles[t].submit(ct.clone(), RequestOp::Lut(Arc::clone(lut))) {
                Ok(seq) => {
                    out.requests.push(span_for(&handles[t], seq, due.min(call), call));
                    owed.pending[t].push_back((out.requests.len() - 1, *m));
                    owed.count += 1;
                    true
                }
                Err(_) => {
                    out.refused.push(call);
                    false
                }
            }
        };
        let (offering, wait) = match &offer {
            Offer::Closed { backlog, until } => {
                while now < *until && owed.count < *backlog && send(slot_free, &mut out, &mut owed)
                {
                }
                (now < *until, POLL)
            }
            Offer::Open { due } => {
                while due.get(next_due).is_some_and(|&d| d <= now) {
                    send(due[next_due], &mut out, &mut owed);
                    next_due += 1;
                }
                let wait = due.get(next_due).map_or(POLL, |&d| d.saturating_duration_since(now));
                (next_due < due.len(), wait.min(POLL))
            }
        };
        if !offering && owed.count == 0 {
            break;
        }
        if owed.count > 0 && progress.elapsed() > RECV_TIMEOUT {
            break; // whatever is still pending counts as lost
        }
        if owed.collect(&mut handles, keys, &mut out, wait) > 0 {
            slot_free = Instant::now();
            progress = slot_free;
        } else if owed.count == 0 {
            progress = Instant::now();
        }
    }
    Ok(out)
}

/// One live ReLU inference.
struct Live<'p> {
    session: ProgramSession<'p>,
    generation: u64,
    plain: Vec<u64>,
    start: Instant,
    /// The most recent `width` outputs: once the session completes these
    /// are the last layer's activations.
    recent: VecDeque<LweCiphertext>,
}

/// Routes a thread's responses back to the session that submitted them.
#[derive(Default)]
struct Mux {
    /// seq → (slot, session generation, index into the request spans).
    owner: HashMap<u64, (usize, u64, usize)>,
    submitted: u64,
    received: u64,
}

impl Mux {
    /// Submits a session's ready frontier, stamping every sequence
    /// number the handle handed out meanwhile with the call's start.
    fn submit(
        &mut self,
        live: &mut Live<'_>,
        slot: usize,
        handle: &mut ClientHandle,
        out: &mut Traffic,
    ) -> Result<(), RuntimeError> {
        let call = Instant::now();
        let result = live.session.submit_ready(handle);
        let total = self.received + handle.outstanding();
        for seq in self.submitted..total {
            self.owner.insert(seq, (slot, live.generation, out.requests.len()));
            out.requests.push(span_for(handle, seq, call, call));
        }
        self.submitted = total;
        out.in_flight.push(live.session.in_flight() as f64);
        result
    }
}

/// nn_sessions: one thread multiplexes `sessions_per_thread` ReLU
/// sessions over one handle, starting a new inference whenever one
/// finishes, until `w1`. Responses route back to their session by
/// sequence number.
fn sessions(
    mut handle: ClientHandle,
    mut key: ClientKey,
    shape: &Shape,
    seed: u64,
    mut rng: Rng,
    w1: Instant,
) -> Result<Traffic, BenchError> {
    let schedule = ReluSchedule::new(shape.depth, 3, seed);
    let program = schedule.program(shape.params.polynomial_size)?;
    let width = schedule.width();
    let mut out = Traffic::default();
    let mut slots: Vec<Option<Live<'_>>> = (0..shape.sessions_per_thread).map(|_| None).collect();
    let mut mux = Mux::default();
    let mut generation = 0u64;
    loop {
        for (slot, entry) in slots.iter_mut().enumerate() {
            if entry.is_some() || Instant::now() >= w1 {
                continue;
            }
            let plain: Vec<u64> = (0..width).map(|_| rng.below(RELU_ACTIVATION_MAX + 1)).collect();
            let inputs = plain
                .iter()
                .map(|&m| encrypt(&mut key, m, RELU_MESSAGE_BITS))
                .collect::<Result<Vec<_>, _>>()?;
            generation += 1;
            let mut live = Live {
                session: ProgramSession::new(&program, inputs)?,
                generation,
                plain,
                start: Instant::now(),
                recent: VecDeque::new(),
            };
            if mux.submit(&mut live, slot, &mut handle, &mut out).is_err() {
                out.failed_programs.push(live.start);
                continue;
            }
            *entry = Some(live);
        }
        if mux.owner.is_empty() {
            break;
        }
        let Ok(response) = handle.recv_timeout(RECV_TIMEOUT) else { break };
        mux.received += 1;
        let Some((slot, gen, i)) = mux.owner.remove(&response.seq) else { continue };
        let Some(live) = slots[slot].as_mut().filter(|l| l.generation == gen) else {
            // A response for a session that already failed.
            out.requests[i].recv = Some(Instant::now());
            out.requests[i].epoch = Some(response.epoch);
            continue;
        };
        let received_at = Instant::now();
        let span = &mut out.requests[i];
        span.recv = Some(received_at);
        span.epoch = Some(response.epoch);
        let absorbed = match &response.result {
            Ok(ct) => {
                span.ok = true;
                // Every activation is clamped to 0..=RELU_ACTIVATION_MAX.
                let value = decrypt(&key, ct, RELU_MESSAGE_BITS);
                if value.is_none_or(|v| v > RELU_ACTIVATION_MAX) {
                    out.wrong += 1;
                }
                live.recent.push_back(ct.clone());
                if live.recent.len() > width {
                    live.recent.pop_front();
                }
                live.session.absorb(response).is_ok()
            }
            Err(_) => false,
        };
        let progressed = absorbed
            && (live.session.is_complete()
                || mux.submit(live, slot, &mut handle, &mut out).is_ok());
        if !progressed {
            out.failed_programs.push(live.start);
            slots[slot] = None;
            continue;
        }
        if live.session.is_complete() {
            // Outputs come back in frontier order, not declaration
            // order, so compare them as a multiset.
            let mut got: Vec<Option<u64>> =
                live.recent.iter().map(|ct| decrypt(&key, ct, RELU_MESSAGE_BITS)).collect();
            let mut want: Vec<Option<u64>> =
                schedule.infer_plain(&live.plain).into_iter().map(Some).collect();
            got.sort();
            want.sort();
            if got != want {
                out.wrong += 1;
            }
            out.programs.push((live.start, ms_between(live.start, received_at)));
            slots[slot] = None;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn tenant_order_is_seeded_and_skewed() {
        let shares = |seed| {
            let mut order = TenantOrder::new(3, 2.0, 1, &mut Rng::new(seed, 1));
            let picks: Vec<usize> = (0..300).map(|_| order.next_tenant()).collect();
            let counts: Vec<usize> =
                (0..3).map(|t| picks.iter().filter(|&&p| p == t).count()).collect();
            (picks, counts)
        };
        let (a, counts) = shares(7);
        assert_eq!(a, shares(7).0);
        // Weights 1 : 1/4 : 1/9 give 220 : 55 : 24 of 300, within one.
        for (got, want) in counts.iter().zip([220.4, 55.1, 24.5]) {
            assert!((*got as f64 - want).abs() <= 1.5, "{counts:?}");
        }
        assert_eq!(shares(8).1, counts, "shares do not depend on the seed");

        let mut blocks = TenantOrder::new(2, 1.0, 8, &mut Rng::new(3, 1));
        let turns: Vec<usize> = (0..48).map(|_| blocks.next_tenant()).collect();
        assert!(turns.chunks(8).all(|c| c.iter().all(|&t| t == c[0])), "{turns:?}");
        assert_eq!(turns.iter().filter(|&&t| t == 0).count(), 32, "two turns in three");
    }

    #[test]
    fn open_loop_arrivals_are_seeded_and_exactly_paced() {
        let a = arrival_offsets(12.0, 10.0, &mut Rng::new(7, 2));
        assert_eq!(a, arrival_offsets(12.0, 10.0, &mut Rng::new(7, 2)));
        assert_ne!(a, arrival_offsets(12.0, 10.0, &mut Rng::new(8, 2)));
        assert_eq!(a.len(), 120);
        for (slot, at) in a.iter().enumerate() {
            assert!((slot as f64 / 12.0..(slot + 1) as f64 / 12.0).contains(at));
        }
    }
}
