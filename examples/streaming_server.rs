//! Streaming server demo: many concurrent clients fire Poisson traffic
//! at a `strix-runtime` instance, which forms two-level batches from
//! the live stream, executes them against the TFHE stack, and reports
//! latency percentiles, achieved PBS/s and batch occupancy — the
//! software realisation of the paper's end-to-end streaming story,
//! printed next to the simulator's view of the same batch geometry.
//!
//! ```sh
//! cargo run --release -p strix --example streaming_server
//! ```
//!
//! Pass `--trace-out <path>` to export the run's end-to-end request
//! timeline in Chrome trace-event format — open the file in Perfetto
//! (<https://ui.perfetto.dev>) or `chrome://tracing` to see each
//! client's queue-wait / batch-wait / execute slices per request:
//!
//! ```sh
//! cargo run --release -p strix --example streaming_server -- --trace-out trace.json
//! ```

use std::sync::Arc;
use std::time::Duration;

use strix::core::{BatchGeometry, StrixConfig, StrixSimulator};
use strix::runtime::{
    ArrivalProcess, KeyRegistry, OpenLoopTrafficGen, RequestOp, Runtime, RuntimeConfig,
};
use strix::tfhe::bootstrap::Lut;
use strix::tfhe::prelude::*;

const CLIENTS: usize = 8;
const REQUESTS_PER_CLIENT: usize = 12;
const MESSAGE_BITS: u32 = 3;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut trace_out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--trace-out" => trace_out = Some(args.next().expect("--trace-out <path>")),
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }

    let params = TfheParameters::testing_fast();
    let (client_key, server_key) = generate_keys(&params, 0x57121);

    // A small epoch so the demo's hundred-ish requests span many
    // batches; a production deployment would mirror the paper's
    // 8 × 32 design point via `StrixSimulator::batch_geometry()`.
    // Each worker shards its epoch across scoped PBS threads
    // (`threads_per_worker`, the host's cores split between the two
    // workers, capped at 2), so the report's thread-occupancy line
    // shows how full the intra-epoch pool ran.
    let geometry = BatchGeometry::explicit(4, 8);
    const WORKERS: usize = 2;
    let threads_per_worker =
        std::thread::available_parallelism().map_or(1, |p| (p.get() / WORKERS).clamp(1, 2));
    let runtime = Runtime::start_multi_tenant(
        RuntimeConfig::new(geometry)
            .with_max_delay(Duration::from_millis(5))
            .with_workers(WORKERS)
            .with_threads_per_worker(threads_per_worker),
        Arc::new(KeyRegistry::pinned(Arc::new(server_key))),
    );

    // Every request evaluates f(m) = (m + 3) mod 8 via one PBS + KS.
    let lut = Arc::new(Lut::from_function(params.polynomial_size, MESSAGE_BITS, |m| (m + 3) % 8)?);
    let traffic = OpenLoopTrafficGen::new(ArrivalProcess::Poisson { rate_hz: 400.0 }, 42);

    println!(
        "streaming {} clients x {} Poisson requests into a {}x{} epoch runtime...",
        CLIENTS, REQUESTS_PER_CLIENT, geometry.tvlp, geometry.core_batch
    );

    std::thread::scope(|scope| {
        for client_idx in 0..CLIENTS as u64 {
            let mut handle = runtime.client();
            let mut key = client_key.clone();
            let lut = Arc::clone(&lut);
            let delays = traffic.inter_arrivals(client_idx, REQUESTS_PER_CLIENT);
            scope.spawn(move || {
                // Open loop: submit on the arrival clock...
                for (i, delay) in delays.iter().enumerate() {
                    std::thread::sleep(*delay);
                    let m = (client_idx + i as u64) % 8;
                    let ct = key
                        .encrypt_shortint(m, MESSAGE_BITS)
                        .expect("message in range")
                        .as_lwe()
                        .clone();
                    handle.submit(ct, RequestOp::Lut(Arc::clone(&lut))).expect("runtime up");
                }
                // ...then collect and verify, in submission order.
                for i in 0..REQUESTS_PER_CLIENT as u64 {
                    let response = handle.recv().expect("response arrives");
                    assert_eq!(response.seq, i, "per-client order broken");
                    let out = response.result.expect("homomorphic op succeeds");
                    let phase = key.decrypt_phase(&out).expect("dimension matches");
                    let decoded = strix::tfhe::torus::decode_message(phase, MESSAGE_BITS + 1);
                    let expected = ((client_idx + i) % 8 + 3) % 8;
                    assert_eq!(decoded, expected, "client {client_idx} request {i}");
                }
            });
        }
    });

    // Export the trace before shutdown consumes the runtime; by now
    // every request has its Completed event, so the timeline is whole.
    if let Some(path) = trace_out {
        let json = runtime.tracer().chrome_trace_json();
        std::fs::write(&path, json)?;
        println!(
            "wrote {} trace events to {path} (open in https://ui.perfetto.dev)",
            runtime.tracer().events().len()
        );
    }

    let report = runtime.shutdown();
    println!("\n--- runtime report ---------------------------------------");
    println!("{}", report.summary());
    assert_eq!(report.requests_completed, CLIENTS * REQUESTS_PER_CLIENT);
    assert_eq!(report.requests_failed, 0);

    // The simulator's view of the same two-level batching policy at the
    // paper's design point, for contrast.
    let sim = StrixSimulator::new(StrixConfig::paper_default(), TfheParameters::set_i())?;
    println!("\n--- simulated Strix @ set I (same batching policy) -------");
    let pbs = sim.pbs_report(report.requests_completed.max(1));
    println!(
        "epoch {} LWEs ({}x{}), {:.0} PBS/s steady-state, {:.2} ms latency",
        pbs.epoch_size,
        sim.batch_geometry().tvlp,
        sim.batch_geometry().core_batch,
        pbs.throughput_pbs_per_s,
        pbs.latency_s * 1e3,
    );
    println!(
        "\nsoftware-vs-model gap: {:.0}x (the accelerator case, Table V)",
        pbs.throughput_pbs_per_s / report.achieved_pbs_per_s.max(1e-9)
    );
    Ok(())
}
