//! The metrics, workloads and run length `BENCHMARK.json` declares, as
//! constants the program prints against. A unit test holds the two
//! together, so neither can drift from the other.

use crate::json::Json;
use crate::workloads;

pub const DEFAULT_SEED: u64 = 1999;
/// Seconds one run measures (`run_seconds`).
pub const RUN_SECONDS: u64 = 15;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Defined on every workload; what "op" means on each is in
/// `workloads::ALL` and the README.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.15,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Layer = crate. A workload reports the ones its layers touch; the rest
/// read 0 on it. `layer.<crate>_share` is that crate's share of the
/// traced pass's wall time (self time of the spans filed under it).
pub const PER_LAYER: [PerLayer; 54] = [
    layer("bench.trace_overhead_share", "ratio", "lower"),
    layer("core.get_port_ns", "ns", "lower"),
    layer("core.port_overhead_share", "ratio", "lower"),
    layer("data.memcpy_gb_per_s", "GB/s", "higher"),
    layer("data.redist.apply_contig_gb_per_s", "GB/s", "higher"),
    layer("data.redist.apply_strided_gb_per_s", "GB/s", "higher"),
    layer("data.redist.compile_ms", "ms", "lower"),
    layer("framework.assemble_ms", "ms", "lower"),
    layer("framework.bulk.contig_gb_per_s", "GB/s", "higher"),
    layer("framework.bulk.peak_buffer_bytes", "B", "lower"),
    layer("framework.bulk.resends", "count", "lower"),
    layer("framework.bulk.strided_gb_per_s", "GB/s", "higher"),
    layer("framework.connect_remote_ms", "ms", "lower"),
    layer("layer.bench_share", "ratio", "lower"),
    layer("layer.data_share", "ratio", "lower"),
    layer("layer.framework_share", "ratio", "lower"),
    layer("layer.repository_share", "ratio", "lower"),
    layer("layer.rpc_share", "ratio", "lower"),
    layer("layer.sidl_share", "ratio", "lower"),
    layer("layer.solvers_share", "ratio", "lower"),
    layer("repository.batch64_deposit_ms", "ms", "lower"),
    layer("repository.deposit_p50_ms", "ms", "lower"),
    layer("repository.deposit_p99_ms", "ms", "lower"),
    layer("repository.generations", "count", "lower"),
    layer("repository.lookup_p50_us", "us", "lower"),
    layer("repository.lookup_p50_us_under_writes", "us", "lower"),
    layer("repository.lookup_p99_us", "us", "lower"),
    layer("repository.populate_us_per_type", "us", "lower"),
    layer("repository.rss_mb_after_populate", "MB", "lower"),
    layer("repository.search_p50_us", "us", "lower"),
    layer("repository.search_p50_us_under_writes", "us", "lower"),
    layer("repository.search_p99_us", "us", "lower"),
    layer("rpc.bulk.slabs", "count", "lower"),
    layer("rpc.bytes_in_per_call", "B", "lower"),
    layer("rpc.bytes_out_per_call", "B", "lower"),
    layer("rpc.frame.encode_ns", "ns", "lower"),
    layer("rpc.mux.call_p50_us", "us", "lower"),
    layer("rpc.mux.call_p99_us", "us", "lower"),
    layer("rpc.mux.dials", "count", "lower"),
    layer("rpc.mux.peak_in_flight", "count", "higher"),
    layer("rpc.mux.transit_us", "us", "lower"),
    layer("rpc.orb.loopback_ns", "ns", "lower"),
    layer("rpc.raw_socket_rtt_us", "us", "lower"),
    layer("rpc.raw_wire_gb_per_s", "GB/s", "higher"),
    layer("rpc.servant_us", "us", "lower"),
    layer("rpc.wire.decode_ns_per_kb", "ns/KiB", "lower"),
    layer("rpc.wire.encode_ns_per_kb", "ns/KiB", "lower"),
    layer("sidl.compile_ms", "ms", "lower"),
    layer("sidl.dyn_invoke_ns", "ns", "lower"),
    layer("solvers.cg_iters", "count", "lower"),
    layer("solvers.matvec_bytes_per_flop_computed", "B/FLOP", "lower"),
    layer("solvers.matvec_gflops", "GFLOP/s", "higher"),
    layer("solvers.solve_ms_per_step", "ms", "lower"),
    layer("solvers.step_self_ms_per_step", "ms", "lower"),
];

/// Per-layer metrics that are counts made by the program and must repeat
/// exactly between two runs of one seed.
pub const EXACT_COUNTS: [&str; 7] = [
    "solvers.cg_iters",
    "rpc.mux.dials",
    "rpc.bulk.slabs",
    "rpc.bytes_out_per_call",
    "rpc.bytes_in_per_call",
    "repository.generations",
    "framework.bulk.resends",
];

/// `BENCHMARK.json`, generated: `ccabench manifest` prints it.
pub fn manifest() -> Json {
    let strings = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    Json::obj([
        (
            "command",
            strings(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
                "run",
            ]),
        ),
        ("paths", strings(&["benchmark"])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                workloads::ALL
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better)),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_is_the_generated_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside benchmark/");
        assert_eq!(
            Json::parse(&text).expect("BENCHMARK.json parses"),
            manifest(),
            "regenerate with `ccabench manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn manifest_stays_inside_the_contract_limits() {
        assert!((2..=8).contains(&workloads::ALL.len()));
        for w in &workloads::ALL {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
        assert!(PER_LAYER.len() <= 128);
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        {
            assert!(name_ok(name), "{name}");
            assert!(unit_ok(unit), "{name}: {unit}");
        }
        assert!(workloads::ALL.iter().all(|w| name_ok(w.name)));
        assert!(manifest().render_pretty().len() <= 64 * 1024);
    }

    #[test]
    fn names_are_unique_and_exact_counts_are_declared() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        for exact in EXACT_COUNTS {
            assert!(PER_LAYER.iter().any(|m| m.name == exact), "{exact}");
        }
    }
}
