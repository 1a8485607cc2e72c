//! Shared helpers for the benchmark harnesses: table formatting and
//! paper-vs-measured comparison rows.
//!
//! Every table and figure of the Strix paper has a matching bench
//! target in this crate (`cargo bench -p strix-bench --bench <name>`);
//! the helpers here keep their output format consistent so
//! `EXPERIMENTS.md` can be assembled from the printed blocks.

use serde::{Deserialize, Serialize, Value};
use strix_core::PbsReport;
use strix_runtime::RuntimeReport;

/// Schema tag written into (and expected from) `BENCH_service.json`.
pub const SERVICE_SCHEMA: &str = "strix-bench-service-v1";

/// The committed closed-loop SLO snapshot (`BENCH_service.json`):
/// p50/p99 latency and achieved throughput at a sweep of offered loads
/// through the full streaming runtime, bracketing the saturation knee.
///
/// Written by `cargo run --release -p strix-bench --bin bench_service`,
/// parsed back by the same binary for the warn-only `--baseline`
/// comparison and by the schema round-trip tests, so the file format
/// is pinned by these derives rather than by hand-maintained format
/// strings.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ServiceBenchReport {
    /// Always [`SERVICE_SCHEMA`]; bumped when the shape changes.
    pub schema: String,
    /// Seconds since the Unix epoch at measurement time.
    pub unix_time: u64,
    /// Short git commit hash the numbers were measured at.
    pub git_commit: String,
    /// Parameter set and runtime shape the sweep ran with.
    pub config: ServiceBenchConfig,
    /// Fixed-backlog capacity of the runtime (PBS/s with every epoch
    /// full), measured before the sweep and used to place the load
    /// points around the knee.
    pub capacity_pbs_per_s: f64,
    /// Throughput cost of tracing + stage sampling at their default
    /// settings, in percent of untraced capacity (negative values are
    /// measurement noise).
    pub trace_overhead_percent: f64,
    /// The saturation knee: the largest achieved PBS/s over the
    /// unsaturated points (0.0 when every point saturated).
    pub knee_pbs_per_s: f64,
    /// One entry per offered-load point, in sweep order.
    pub points: Vec<ServiceLoadPoint>,
}

/// The runtime/parameter shape a [`ServiceBenchReport`] was measured
/// with; baselines are only comparable when these match.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ServiceBenchConfig {
    /// Parameter-set name (`set_ii`, `testing_fast`, …).
    pub params: String,
    /// LWE dimension `n`.
    pub lwe_dimension: usize,
    /// Polynomial size `N`.
    pub polynomial_size: usize,
    /// TvLP factor of the epoch geometry.
    pub tvlp: usize,
    /// Core batch factor of the epoch geometry.
    pub core_batch: usize,
    /// Worker threads executing epochs.
    pub workers: usize,
    /// Intra-epoch PBS threads per worker.
    pub threads_per_worker: usize,
    /// Concurrent open-loop client streams.
    pub clients: usize,
    /// Batcher deadline, in milliseconds.
    pub max_delay_ms: f64,
    /// Stage-profiling period (every Nth epoch; 0 = off).
    pub profile_every: u64,
    /// Resolved SIMD kernel backend the runtime's transforms ran on
    /// (`"portable"` / `"avx2"` / `"avx512"`; empty in snapshots from
    /// pre-backend builds). Part of the comparability shape: numbers
    /// from different backends are different machines, not different
    /// code.
    #[serde(default)]
    pub kernel_backend: String,
}

/// One offered-load point of the SLO sweep.
///
/// Latencies are measured from each request's *scheduled* arrival
/// time, not from when `submit` returned — past the knee the schedule
/// slips and queue-blocked submits dominate, and charging that wait to
/// the request is exactly what makes the p99 curve bend instead of
/// flattening (the coordinated-omission trap).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ServiceLoadPoint {
    /// Offered load, in PBS/s across all clients.
    pub offered_pbs_per_s: f64,
    /// Length of the arrival schedule, in seconds.
    pub duration_s: f64,
    /// Requests submitted.
    pub requests: usize,
    /// Requests completed successfully.
    pub completed: usize,
    /// Requests that returned an error.
    pub failed: usize,
    /// Completed PBS per second of runtime wall clock.
    pub achieved_pbs_per_s: f64,
    /// Median latency from scheduled arrival, milliseconds.
    pub p50_ms: f64,
    /// 90th-percentile latency, milliseconds.
    pub p90_ms: f64,
    /// 99th-percentile latency, milliseconds.
    pub p99_ms: f64,
    /// Worst observed latency, milliseconds.
    pub max_ms: f64,
    /// Mean epoch occupancy (fraction of slots filled at flush).
    pub mean_occupancy: f64,
    /// Deepest the ingress queue got during the point.
    pub queue_high_water: usize,
    /// Mean schedule slip, milliseconds: how far behind its Poisson
    /// arrival time the average submit ran because backpressure
    /// blocked the client — the coordinated-omission debt the latency
    /// percentiles already include.
    pub mean_slip_ms: f64,
    /// Whether this point ran past the knee: achieved throughput fell
    /// measurably short of offered *and* the arrival schedule slipped
    /// (so the shortfall is the runtime's pace, not idle lead-in).
    pub saturated: bool,
}

/// Schema tag written into (and expected from) `BENCH_tenants.json`.
pub const TENANTS_SCHEMA: &str = "strix-bench-tenants-v1";

/// The committed multi-tenant key-fabric snapshot
/// (`BENCH_tenants.json`): aggregate throughput versus the number of
/// *hot* tenants sharing a fixed key-cache residency budget, through
/// the registry-backed runtime.
///
/// Written by `cargo run --release -p strix-bench --bin bench_tenants`,
/// parsed back for the warn-only `--baseline` comparison and by the
/// schema round-trip tests. The sweep's story: with the hot set inside
/// the budget the cache converges to all-hits and throughput holds
/// near single-tenant capacity; past the budget every epoch thrashes a
/// key expansion and the cost of key churn becomes visible.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TenantsBenchReport {
    /// Always [`TENANTS_SCHEMA`]; bumped when the shape changes.
    pub schema: String,
    /// Seconds since the Unix epoch at measurement time.
    pub unix_time: u64,
    /// Short git commit hash the numbers were measured at.
    pub git_commit: String,
    /// Parameter set, runtime shape and cache budget of the sweep.
    pub config: TenantsBenchConfig,
    /// One entry per hot-tenant count, in ascending order.
    pub points: Vec<TenantsLoadPoint>,
}

/// The shape a [`TenantsBenchReport`] was measured with; baselines are
/// only comparable when these match.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TenantsBenchConfig {
    /// Parameter-set name (`set_ii`, `testing_fast`, …).
    pub params: String,
    /// LWE dimension `n`.
    pub lwe_dimension: usize,
    /// Polynomial size `N`.
    pub polynomial_size: usize,
    /// TvLP factor of the epoch geometry.
    pub tvlp: usize,
    /// Core batch factor of the epoch geometry.
    pub core_batch: usize,
    /// Worker threads executing epochs.
    pub workers: usize,
    /// Intra-epoch PBS threads per worker.
    pub threads_per_worker: usize,
    /// Batcher deadline, in milliseconds.
    pub max_delay_ms: f64,
    /// Tenants registered in the key registry (all seeded).
    pub tenants_registered: usize,
    /// Residency budget, in whole expanded keys.
    pub cache_budget_keys: usize,
    /// Bytes one tenant's seeded transport form ships at onboarding.
    pub seeded_transport_bytes: usize,
    /// Bytes of one tenant's expanded resident key (the eviction
    /// accounting unit; the transport form must stay ≤ 0.6× of this).
    pub server_key_bytes: usize,
    /// Resolved SIMD kernel backend the transforms ran on.
    #[serde(default)]
    pub kernel_backend: String,
}

/// One hot-tenant-count point of the multi-tenant sweep.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TenantsLoadPoint {
    /// Tenants actively submitting during the timed window.
    pub hot_tenants: usize,
    /// Requests submitted in the timed window (across all tenants).
    pub requests: usize,
    /// Requests completed successfully.
    pub completed: usize,
    /// Requests that returned an error.
    pub failed: usize,
    /// Timed-window wall clock, in seconds.
    pub duration_s: f64,
    /// Completed PBS per second over the timed window, summed across
    /// every hot tenant.
    pub aggregate_pbs_per_s: f64,
    /// Mean epoch occupancy (fraction of slots filled at flush).
    pub mean_occupancy: f64,
    /// Key-cache hits during the timed window (warmup excluded).
    pub key_cache_hits: u64,
    /// Key-cache misses — each one is a full seeded-key expansion.
    pub key_cache_misses: u64,
    /// Resident keys dropped to fit the budget during the window.
    pub key_cache_evictions: u64,
    /// Median submit→completion latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile submit→completion latency, milliseconds.
    pub p99_ms: f64,
}

/// Renders a [`Value`] as indented JSON (two-space indent), matching
/// the compact writer's escaping and float formatting byte for byte —
/// `serde_json::from_str` of the output parses to the same value. The
/// vendored `serde_json` only writes compact JSON; committed snapshot
/// files go through this so they diff readably across PRs.
pub fn pretty_json(value: &Value) -> String {
    let mut out = String::new();
    write_pretty(value, 0, &mut out);
    out.push('\n');
    out
}

fn write_pretty(value: &Value, depth: usize, out: &mut String) {
    match value {
        Value::Array(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                push_indent(depth + 1, out);
                write_pretty(item, depth + 1, out);
            }
            out.push('\n');
            push_indent(depth, out);
            out.push(']');
        }
        Value::Object(entries) if !entries.is_empty() => {
            out.push_str("{\n");
            for (i, (key, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                push_indent(depth + 1, out);
                out.push_str(&serde_json::to_string(key).expect("strings always serialize"));
                out.push_str(": ");
                write_pretty(item, depth + 1, out);
            }
            out.push('\n');
            push_indent(depth, out);
            out.push('}');
        }
        // Scalars and empty containers: defer to the compact writer so
        // escaping and float formatting stay identical.
        leaf => {
            out.push_str(&leaf_to_string(leaf));
        }
    }
}

fn push_indent(depth: usize, out: &mut String) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn leaf_to_string(v: &Value) -> String {
    match v {
        Value::Null => "null".into(),
        Value::Bool(b) => b.to_string(),
        Value::U64(u) => u.to_string(),
        Value::I64(i) => i.to_string(),
        Value::F64(x) if x.is_finite() => format!("{x:?}"),
        Value::F64(_) => "null".into(),
        Value::Str(s) => serde_json::to_string(s).expect("strings always serialize"),
        Value::Array(_) => "[]".into(),
        Value::Object(_) => "{}".into(),
    }
}

/// Formats a markdown table from a header and rows.
pub fn markdown_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push_str(&format!("| {} |\n", header.join(" | ")));
    out.push_str(&format!("|{}\n", "---|".repeat(header.len())));
    for row in rows {
        out.push_str(&format!("| {} |\n", row.join(" | ")));
    }
    out
}

/// Formats an optional value with a unit, printing `–` for `None`
/// (the paper's blank-cell convention).
pub fn opt_cell(v: Option<f64>, precision: usize) -> String {
    match v {
        Some(x) => format!("{x:.precision$}"),
        None => "–".to_string(),
    }
}

/// Ratio of measured to reference, rendered as `×` with one decimal.
pub fn ratio_cell(measured: f64, reference: f64) -> String {
    if reference == 0.0 {
        return "–".into();
    }
    format!("{:.2}x", measured / reference)
}

/// A section banner for bench output.
pub fn banner(title: &str) -> String {
    format!("\n=== {title} ===\n")
}

/// The header matching [`runtime_vs_simulator_rows`].
pub const RUNTIME_COMPARISON_HEADER: [&str; 6] =
    ["source", "epoch", "occupancy", "p50 latency", "p99 latency", "PBS/s"];

/// Renders the software runtime's measured report next to the
/// simulator's model of the same batching policy, as rows for
/// [`markdown_table`] under [`RUNTIME_COMPARISON_HEADER`]. This is how
/// measured software throughput sits beside the accelerator estimate
/// in the streaming bench output.
pub fn runtime_vs_simulator_rows(
    measured: &RuntimeReport,
    simulated: &PbsReport,
) -> Vec<Vec<String>> {
    vec![
        vec![
            "strix-runtime (measured)".into(),
            measured.epoch_capacity.to_string(),
            format!("{:.1}%", measured.mean_batch_occupancy * 100.0),
            format!("{:.3} ms", measured.p50_latency_us as f64 / 1e3),
            format!("{:.3} ms", measured.p99_latency_us as f64 / 1e3),
            format!("{:.1}", measured.achieved_pbs_per_s),
        ],
        vec![
            "strix-core (simulated)".into(),
            simulated.epoch_size.to_string(),
            "100.0%".into(),
            format!("{:.3} ms", simulated.latency_s * 1e3),
            format!("{:.3} ms", simulated.latency_s * 1e3),
            format!("{:.1}", simulated.throughput_pbs_per_s),
        ],
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_markdown() {
        let t = markdown_table(&["a", "b"], &[vec!["1".into(), "2".into()]]);
        assert!(t.contains("| a | b |"));
        assert!(t.contains("|---|---|"));
        assert!(t.contains("| 1 | 2 |"));
    }

    #[test]
    fn optional_cells() {
        assert_eq!(opt_cell(Some(1.234), 2), "1.23");
        assert_eq!(opt_cell(None, 2), "–");
    }

    #[test]
    fn ratios() {
        assert_eq!(ratio_cell(74696.0, 10000.0), "7.47x");
        assert_eq!(ratio_cell(1.0, 0.0), "–");
    }

    #[test]
    fn banner_contains_title() {
        assert!(banner("Table V").contains("Table V"));
    }

    fn sample_service_report() -> ServiceBenchReport {
        ServiceBenchReport {
            schema: SERVICE_SCHEMA.into(),
            unix_time: 1_754_000_000,
            git_commit: "abc1234".into(),
            config: ServiceBenchConfig {
                params: "set_ii".into(),
                lwe_dimension: 742,
                polynomial_size: 2048,
                tvlp: 2,
                core_batch: 4,
                workers: 1,
                threads_per_worker: 1,
                clients: 8,
                max_delay_ms: 40.0,
                profile_every: 16,
                kernel_backend: "avx2".into(),
            },
            capacity_pbs_per_s: 37.25,
            trace_overhead_percent: 0.4,
            knee_pbs_per_s: 36.9,
            points: vec![ServiceLoadPoint {
                offered_pbs_per_s: 14.9,
                duration_s: 4.0,
                requests: 60,
                completed: 60,
                failed: 0,
                achieved_pbs_per_s: 14.7,
                p50_ms: 151.25,
                p90_ms: 230.0,
                p99_ms: 280.5,
                max_ms: 301.0,
                mean_occupancy: 0.52,
                queue_high_water: 9,
                mean_slip_ms: 0.08,
                saturated: false,
            }],
        }
    }

    #[test]
    fn service_report_round_trips_through_pretty_json() {
        let report = sample_service_report();
        let pretty = pretty_json(&serde_json::to_value(&report));
        let parsed: ServiceBenchReport =
            serde_json::from_str(&pretty).expect("pretty output parses");
        assert_eq!(parsed, report);
        // And through the compact writer, for good measure.
        let compact = serde_json::to_string(&report).unwrap();
        let parsed: ServiceBenchReport = serde_json::from_str(&compact).unwrap();
        assert_eq!(parsed, report);
    }

    #[test]
    fn pretty_json_matches_compact_semantics() {
        let report = sample_service_report();
        let pretty = pretty_json(&serde_json::to_value(&report));
        let reparsed: ServiceBenchReport = serde_json::from_str(&pretty).expect("valid JSON");
        assert_eq!(
            serde_json::to_string(&reparsed).unwrap(),
            serde_json::to_string(&report).unwrap(),
            "pretty form must carry exactly the compact form's data"
        );
        // Indentation actually happened (the point of the pretty form),
        // and floats keep their shortest round-trip spelling.
        assert!(pretty.contains("\n  \"schema\": "));
        assert!(pretty.contains("\"p50_ms\": 151.25"));
    }

    #[test]
    fn committed_service_snapshot_parses_against_the_current_schema() {
        // The schema structs and the committed BENCH_service.json must
        // move together: a field rename that orphans the committed
        // baseline fails here, in CI, not at the next manual sweep.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_service.json");
        let text = std::fs::read_to_string(path).expect("committed BENCH_service.json exists");
        let report: ServiceBenchReport =
            serde_json::from_str(&text).expect("committed snapshot matches schema");
        assert_eq!(report.schema, SERVICE_SCHEMA);
        assert!(report.points.len() >= 4, "sweep must bracket the knee");
        assert!(
            report.points.iter().any(|p| p.saturated),
            "at least one point past the saturation knee"
        );
        assert!(report.capacity_pbs_per_s > 0.0);
    }

    fn sample_tenants_report() -> TenantsBenchReport {
        TenantsBenchReport {
            schema: TENANTS_SCHEMA.into(),
            unix_time: 1_754_000_000,
            git_commit: "abc1234".into(),
            config: TenantsBenchConfig {
                params: "set_ii".into(),
                lwe_dimension: 742,
                polynomial_size: 2048,
                tvlp: 2,
                core_batch: 4,
                workers: 1,
                threads_per_worker: 1,
                max_delay_ms: 40.0,
                tenants_registered: 64,
                cache_budget_keys: 8,
                seeded_transport_bytes: 50_000_000,
                server_key_bytes: 100_000_000,
                kernel_backend: "avx2".into(),
            },
            points: vec![TenantsLoadPoint {
                hot_tenants: 8,
                requests: 384,
                completed: 384,
                failed: 0,
                duration_s: 6.8,
                aggregate_pbs_per_s: 56.5,
                mean_occupancy: 1.0,
                key_cache_hits: 48,
                key_cache_misses: 0,
                key_cache_evictions: 0,
                p50_ms: 420.5,
                p99_ms: 890.0,
            }],
        }
    }

    #[test]
    fn tenants_report_round_trips_through_pretty_json() {
        let report = sample_tenants_report();
        let pretty = pretty_json(&serde_json::to_value(&report));
        let parsed: TenantsBenchReport =
            serde_json::from_str(&pretty).expect("pretty output parses");
        assert_eq!(parsed, report);
        let compact = serde_json::to_string(&report).unwrap();
        let parsed: TenantsBenchReport = serde_json::from_str(&compact).unwrap();
        assert_eq!(parsed, report);
    }

    #[test]
    fn committed_tenants_snapshot_parses_and_keeps_the_fabric_guarantees() {
        // The committed multi-tenant baseline must stay parseable and
        // keep the key-fabric acceptance properties: seeded transport
        // at most 0.6x the expanded key, and a hot set that fits the
        // cache budget retaining at least 0.8x of the single-tenant
        // point's throughput.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_tenants.json");
        let text = std::fs::read_to_string(path).expect("committed BENCH_tenants.json exists");
        let report: TenantsBenchReport =
            serde_json::from_str(&text).expect("committed snapshot matches schema");
        assert_eq!(report.schema, TENANTS_SCHEMA);
        assert!(report.config.tenants_registered >= report.config.cache_budget_keys);
        assert!(
            report.config.seeded_transport_bytes as f64
                <= 0.6 * report.config.server_key_bytes as f64,
            "seeded transport must stay within 0.6x of the expanded key"
        );
        assert!(report.points.len() >= 3, "sweep covers 1 / budget / all-tenants hot counts");
        assert!(
            report.points.windows(2).all(|w| w[0].hot_tenants < w[1].hot_tenants),
            "points in ascending hot-tenant order"
        );
        let single = &report.points[0];
        assert_eq!(single.hot_tenants, 1);
        let budget_sized = report
            .points
            .iter()
            .find(|p| p.hot_tenants == report.config.cache_budget_keys)
            .expect("a point with the hot set exactly filling the budget");
        assert!(
            budget_sized.aggregate_pbs_per_s >= 0.8 * single.aggregate_pbs_per_s,
            "a budget-sized hot set must retain >= 0.8x single-tenant throughput \
             ({} vs {})",
            budget_sized.aggregate_pbs_per_s,
            single.aggregate_pbs_per_s
        );
        for point in &report.points {
            assert_eq!(point.failed, 0, "registered tenants never fail");
            assert_eq!(point.requests, point.completed);
        }
    }

    #[test]
    fn runtime_rows_render_into_the_table() {
        use strix_core::{StrixConfig, StrixSimulator};
        use strix_runtime::MetricsSink;
        use strix_tfhe::TfheParameters;

        let sink = MetricsSink::default();
        sink.record_epoch(32, 32);
        let measured = sink.report(32);
        let sim =
            StrixSimulator::new(StrixConfig::paper_default(), TfheParameters::set_i()).unwrap();
        let rows = runtime_vs_simulator_rows(&measured, &sim.pbs_report(4096));
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].len(), RUNTIME_COMPARISON_HEADER.len());
        let table = markdown_table(&RUNTIME_COMPARISON_HEADER, &rows);
        assert!(table.contains("strix-runtime (measured)"));
        assert!(table.contains("strix-core (simulated)"));
        assert!(table.contains("100.0%"));
    }
}
