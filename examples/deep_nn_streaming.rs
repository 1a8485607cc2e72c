//! Deep-NN streaming demo: concurrent clients stream quantised ReLU
//! inference schedules (the executable toy counterpart of the paper's
//! Fig. 7 Zama Deep-NN workload) through the runtime as dataflow
//! programs. Every neuron is one fused linear-preamble + ReLU-LUT
//! request; layers are dependent, neurons within a layer independent,
//! and independent layers from different clients interleave into
//! shared `TvLP × core_batch` epochs.
//!
//! Each streamed inference is verified against the plaintext model, so
//! CI can run this end-to-end (debug, tiny depth):
//!
//! ```sh
//! cargo run -p strix --example deep_nn_streaming -- --depth 4 --clients 2
//! ```

use std::sync::Arc;
use std::time::Duration;

use strix::core::BatchGeometry;
use strix::runtime::session::ProgramSession;
use strix::runtime::{KeyRegistry, Runtime, RuntimeConfig};
use strix::tfhe::lwe::LweCiphertext;
use strix::tfhe::prelude::*;
use strix::workloads::nn::{ReluSchedule, RELU_ACTIVATION_MAX, RELU_MESSAGE_BITS};

fn arg(name: &str, default: usize) -> usize {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == name {
            return args
                .next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("{name} expects an integer"));
        }
    }
    default
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let depth = arg("--depth", 6);
    let width = arg("--width", 3).min(3);
    let clients = arg("--clients", 4);

    let params = TfheParameters::testing_fast();
    let (client_key, server_key) = generate_keys(&params, 0xDEE9);
    let runtime = Runtime::start_multi_tenant(
        RuntimeConfig::new(BatchGeometry::explicit(2, 8))
            .with_max_delay(Duration::from_millis(10))
            .with_workers(2),
        Arc::new(KeyRegistry::pinned(Arc::new(server_key))),
    );

    println!(
        "streaming {clients} concurrent NN-{depth}x{width} ReLU schedules \
         ({} PBS each) through a 2x8-epoch runtime...",
        depth * width
    );

    std::thread::scope(|scope| {
        for c in 0..clients as u64 {
            let mut key = client_key.clone();
            let mut handle = runtime.client();
            scope.spawn(move || {
                // Every client runs its own weights and its own input
                // image, so cross-client mixups would corrupt values.
                let nn = ReluSchedule::new(depth, width, 0xA11CE + c);
                let program =
                    nn.program(key.params().polynomial_size).expect("relu program compiles");
                let inputs_plain: Vec<u64> =
                    (0..width as u64).map(|i| (i + c) % (RELU_ACTIVATION_MAX + 1)).collect();
                let inputs: Vec<LweCiphertext> = inputs_plain
                    .iter()
                    .map(|&m| {
                        key.encrypt_shortint(m, RELU_MESSAGE_BITS)
                            .expect("activation in range")
                            .as_lwe()
                            .clone()
                    })
                    .collect();
                let session = ProgramSession::new(&program, inputs).expect("input arity");
                let outputs = session.run(&mut handle).expect("inference completes");

                let expected = nn.infer_plain(&inputs_plain);
                for (j, (ct, want)) in outputs.iter().zip(&expected).enumerate() {
                    let phase = key.decrypt_phase(ct).expect("output under client key");
                    let got = strix::tfhe::torus::decode_message(phase, RELU_MESSAGE_BITS + 1);
                    assert_eq!(got, *want, "client {c} output neuron {j}");
                }
                println!("client {c}: streamed inference matches plaintext model {expected:?}");
            });
        }
    });

    let report = runtime.shutdown();
    println!("\n{}", report.summary());
    assert_eq!(report.requests_failed, 0);
    assert_eq!(report.requests_completed, clients * depth * width);
    assert_eq!(report.fused_linear_completed, report.requests_completed);
    println!("\nall {} streamed neuron requests verified OK", report.requests_completed);
    Ok(())
}
