//! Streaming-runtime throughput bench: saturates `strix-runtime` with
//! a backlog workload at the fast test parameters and prints the
//! measured software report next to the simulator's accelerator model
//! of the same two-level batching policy.
//!
//! ```sh
//! cargo bench -p strix-bench --bench streaming_runtime
//! ```

use std::sync::Arc;
use std::time::Duration;

use strix_bench::{banner, markdown_table, runtime_vs_simulator_rows, RUNTIME_COMPARISON_HEADER};
use strix_core::{BatchGeometry, StrixConfig, StrixSimulator};
use strix_runtime::{
    ArrivalProcess, KeyRegistry, OpenLoopTrafficGen, RequestOp, Runtime, RuntimeConfig,
};
use strix_tfhe::bootstrap::Lut;
use strix_tfhe::prelude::*;

const CLIENTS: u64 = 8;
const PER_CLIENT: usize = 64;
const BITS: u32 = 3;

fn main() {
    println!("{}", banner("Streaming runtime vs simulated Strix"));

    let params = TfheParameters::testing_fast();
    let (client_key, server_key) = generate_keys(&params, 0xBE7C);
    let geometry = BatchGeometry::explicit(4, 8);
    // Shard each epoch across the cores, divided between the two
    // workers so workers x threads never oversubscribes the host
    // (capped at 4 threads per worker either way).
    const WORKERS: usize = 2;
    let threads_per_worker =
        std::thread::available_parallelism().map_or(1, |p| (p.get() / WORKERS).clamp(1, 4));
    let runtime = Runtime::start_multi_tenant(
        RuntimeConfig::new(geometry)
            .with_max_delay(Duration::from_millis(50))
            .with_workers(WORKERS)
            .with_threads_per_worker(threads_per_worker),
        Arc::new(KeyRegistry::pinned(Arc::new(server_key))),
    );
    let lut =
        Arc::new(Lut::from_function(params.polynomial_size, BITS, |m| (7 * m + 1) % 8).unwrap());

    // Backlog arrivals: every client submits as fast as the ingress
    // accepts, so epochs flush full and the measurement is the
    // software stack's saturated PBS/s.
    let traffic = OpenLoopTrafficGen::new(ArrivalProcess::Backlog, 1);
    std::thread::scope(|scope| {
        for client_idx in 0..CLIENTS {
            let mut handle = runtime.client();
            let mut key = client_key.clone();
            let lut = Arc::clone(&lut);
            let delays = traffic.inter_arrivals(client_idx, PER_CLIENT);
            scope.spawn(move || {
                for (i, delay) in delays.iter().enumerate() {
                    std::thread::sleep(*delay);
                    let ct = key.encrypt_shortint((i as u64) % 8, BITS).unwrap().as_lwe().clone();
                    handle.submit(ct, RequestOp::Lut(Arc::clone(&lut))).unwrap();
                }
                for _ in 0..PER_CLIENT {
                    handle.recv().expect("response").result.expect("op succeeds");
                }
            });
        }
    });
    let measured = runtime.shutdown();

    // Simulate the *same* geometry the runtime just ran (4 cores,
    // core batch pinned to 8), so the two rows differ only in
    // software-vs-modelled-hardware, not in batch shape.
    let sim_config = StrixConfig { tvlp: geometry.tvlp, ..StrixConfig::paper_default() }
        .with_core_batch(geometry.core_batch);
    let sim = StrixSimulator::new(sim_config, params.clone()).expect("valid config");
    assert_eq!(sim.batch_geometry(), geometry, "rows must share one batch shape");
    let simulated = sim.pbs_report(measured.requests_completed.max(1));

    println!(
        "workload: {} clients x {} backlog requests at {} (epoch {})",
        CLIENTS,
        PER_CLIENT,
        params.name,
        geometry.epoch_size()
    );
    println!();
    println!(
        "{}",
        markdown_table(
            &RUNTIME_COMPARISON_HEADER,
            &runtime_vs_simulator_rows(&measured, &simulated)
        )
    );
    println!("{}", measured.summary());
}
