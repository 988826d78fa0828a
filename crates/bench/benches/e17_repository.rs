//! E17 — repository scale: exact lookup, trigram fuzzy discovery, and
//! concurrent query throughput at a million registered types.
//!
//! PR 10 reshapes `cca-repository` from one flat `RwLock<BTreeMap>` into
//! hash-sharded Arc snapshots with a per-shard trigram index. This bench
//! populates a catalog with 1M synthetic SIDL component types (100k in
//! `CCA_BENCH_FAST` mode) and measures:
//!
//! * `single_deposit_us`, `entries_indexed_per_deposit`,
//!   `batch64_deposit_ms` — 256 single deposits, then one 64-entry batch,
//!   into the full catalog. The timings are recorded; the gate is a
//!   **count** a noisy box cannot flip: entries passed through
//!   `Segment::build` per deposit, from `cca_obs::repo()`. A deposit that
//!   rebuilds its shard reads `types / shards`; the two-segment snapshot
//!   (PR 24) rebuilds at most eight entries and folds the shard on every
//!   ninth deposit to it, ≈ `types / shards / 9 + 4` in the long run.
//!   Gate: **≤ `types / shards / 4`**. The same singles, split by
//!   whether the deposit folded (`cca_obs::repo().folds()` moved), give
//!   `append_us`, `fold_us` and their ratio `fold_over_append` (recorded):
//!   the mean deposit is (`RECENT_MAX` × append + fold) ÷ (`RECENT_MAX` +
//!   1), so the ratio is what a choice of `RECENT_MAX` trades against.
//! * `exact_lookup_ns` — class → entry through the shard hash and a
//!   frozen snapshot, per lookup, summarised by block medians. Gate:
//!   **< 5 µs**.
//! * `fuzzy_us` — a mixed needle set (selective compound names plus
//!   broad single words) through the trigram index, scored and capped;
//!   one sample per pass over the needles (the pass median). Gate:
//!   **< 5 ms**. `flat_scan_us` runs the same needles the seed way —
//!   linear scan, `to_lowercase` per entry per query — and `scan_speedup`
//!   is the ratio of medians.
//! * `four_thread_qps` vs `single_thread_qps` — the same mixed query
//!   stream from 4 threads against 1, five alternating rounds. Reads are
//!   lock-free (snapshot clone per query), so with ≥4 real cores the gate
//!   demands ≥2x scaling; on the smaller CI boxes it only demands that
//!   concurrent readers don't collapse (≥1.2x on 2–3 cores, ≥0.4x on 1).

use cca_bench::{Harness, Report, Rounds, Stats};
use cca_core::{CcaError, CcaServices, Component};
use cca_data::TypeMap;
use cca_repository::{ComponentEntry, FuzzyQuery, PortSpec, Repository};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

struct Nop;
impl Component for Nop {
    fn component_type(&self) -> &str {
        "synthetic.Nop"
    }
    fn set_services(&self, _s: Arc<CcaServices>) -> Result<(), CcaError> {
        Ok(())
    }
}

const PKGS: [&str; 16] = [
    "esi", "hydro", "viz", "mesh", "io", "lin", "opt", "stat", "chem", "climate", "fusion",
    "combust", "grid", "data", "mxn", "orb",
];

const WORDS: [&str; 64] = [
    "Krylov",
    "Gmres",
    "Jacobi",
    "Hydro",
    "Euler",
    "Riemann",
    "Mesh",
    "Plot",
    "Stat",
    "Redist",
    "Fourier",
    "Newton",
    "Tensor",
    "Graph",
    "Kernel",
    "Cloud",
    "Solver",
    "Precond",
    "Stencil",
    "Flux",
    "Advect",
    "Diffuse",
    "Gauss",
    "Seidel",
    "Chebyshev",
    "Lanczos",
    "Arnoldi",
    "Schur",
    "Multigrid",
    "Coarsen",
    "Refine",
    "Partition",
    "Balance",
    "Gather",
    "Scatter",
    "Reduce",
    "Halo",
    "Ghost",
    "Bound",
    "Domain",
    "Field",
    "Particle",
    "Tracer",
    "Spline",
    "Wavelet",
    "Entropy",
    "Enthalpy",
    "Viscous",
    "Inviscid",
    "Laminar",
    "Turbulent",
    "Spectral",
    "Modal",
    "Nodal",
    "Quadrature",
    "Jacobian",
    "Hessian",
    "Adjoint",
    "Forward",
    "Inverse",
    "Transpose",
    "Symmetric",
    "Sparse",
    "Dense",
];

/// The mixed query stream: mostly selective compound names (the needle a
/// person types when they know roughly what they want) plus two broad
/// single words (worst-case candidate counts). The p50 gates run over
/// this whole mix.
const NEEDLES: [&str; 8] = [
    "krylovgmres",
    "fourierschur",
    "newtonhalo",
    "riemannflux",
    "chebyshevadjoint",
    "multigridcoarsen",
    "krylov",
    "tensor",
];

fn class_of(i: usize) -> String {
    let w1 = WORDS[i % WORDS.len()];
    let w2 = WORDS[(i / WORDS.len()) % WORDS.len()];
    let pkg = PKGS[(i / (WORDS.len() * WORDS.len())) % PKGS.len()];
    format!("{pkg}.{w1}{w2}{i:07}")
}

fn entry_of(i: usize) -> ComponentEntry {
    let w1 = WORDS[i % WORDS.len()];
    let pkg = PKGS[(i / (WORDS.len() * WORDS.len())) % PKGS.len()];
    ComponentEntry {
        class: class_of(i),
        description: format!("synthetic {w1} component {i}"),
        provides: vec![PortSpec::new("main", format!("{pkg}.{w1}Port"))],
        uses: vec![PortSpec::new("go", "cca.ports.GoPort")],
        properties: TypeMap::new(),
        factory: Arc::new(|| Arc::new(Nop) as Arc<dyn Component>),
    }
}

fn main() {
    let h = Harness::from_env();
    let mut report = Report::new("e17_repository", &h);
    let (types, exact_samples, fuzzy_reps, flat_reps, qps_queries) = h.pick(
        (100_000usize, 1_000usize, 8usize, 1usize, 64usize),
        (1_000_000, 5_000, 25, 3, 400),
    );

    // --- populate: one all-or-nothing batch, one publication per shard --
    let repo = Repository::new();
    repo.deposit_sidl("package cca.ports { interface GoPort { void go(); } }")
        .expect("seed SIDL");
    let start = Instant::now();
    let batch: Vec<ComponentEntry> = (0..types).map(entry_of).collect();
    let n = repo.register_components(batch).expect("populate");
    let populate_ms = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(n, types);
    report.count("types", types as f64);
    report.count("shards", repo.shard_count() as f64);
    report.count("populate_ms", populate_ms);

    // --- deposits into the full catalog ---------------------------------
    let late = |k: usize| ComponentEntry {
        class: format!("late.Arrival{k:07}"),
        description: format!("late arrival {k}"),
        ..entry_of(k)
    };
    const SINGLES: usize = 256;
    let indexed_before = cca_obs::repo().snapshot().entries_indexed;
    let (mut appends, mut folds) = (Vec::new(), Vec::new());
    let samples: Vec<f64> = (0..SINGLES)
        .map(|k| {
            let entry = late(k);
            let folds_before = cca_obs::repo().folds();
            let start = Instant::now();
            repo.register_component(entry).expect("new class");
            let us = start.elapsed().as_secs_f64() * 1e6;
            if cca_obs::repo().folds() > folds_before {
                folds.push(us);
            } else {
                appends.push(us);
            }
            us
        })
        .collect();
    let indexed = cca_obs::repo().snapshot().entries_indexed - indexed_before;
    report.metric("single_deposit_us", Stats::from_blocks(&samples, 16));
    let (appends, folds) = (Stats::from_samples(&appends), Stats::from_samples(&folds));
    report.metric("append_us", appends);
    report.metric("fold_us", folds);
    report.count("fold_over_append", folds.median / appends.median);
    report
        .count(
            "entries_indexed_per_deposit",
            (indexed / SINGLES as u64) as f64,
        )
        .at_most(
            (types / repo.shard_count() / 4) as f64,
            "a single deposit must not rebuild its shard (that reads types / shards)",
        );
    let batch: Vec<ComponentEntry> = (SINGLES..SINGLES + 64).map(late).collect();
    let start = Instant::now();
    repo.register_components(batch).expect("new classes");
    report.count("batch64_deposit_ms", start.elapsed().as_secs_f64() * 1e3);

    // --- exact lookup ----------------------------------------------------
    // Deterministic stride through the keyspace; every lookup hits.
    let mut samples = Vec::with_capacity(exact_samples);
    for k in 0..exact_samples {
        let class = class_of((k * 7919) % types);
        let start = Instant::now();
        let e = repo.entry(&class).expect("registered class");
        samples.push(start.elapsed().as_secs_f64() * 1e9);
        std::hint::black_box(e);
    }
    report
        .metric(
            "exact_lookup_ns",
            Stats::from_blocks(&samples, exact_samples / 20),
        )
        .at_most(5_000.0, "an exact lookup must stay under 5 us");

    // --- the seed baseline: flat map + per-entry lowering ---------------
    // The flat exact path (BTreeMap::get) was never the problem; the scan
    // was. Reproduce the seed's text search exactly: lower every entry's
    // class and description on every query.
    let flat: BTreeMap<String, String> = (0..types)
        .map(|i| (class_of(i), format!("synthetic component {i}")))
        .collect();
    let mut samples = Vec::with_capacity(1_000);
    for k in 0..1_000 {
        let class = class_of((k * 7919) % types);
        let start = Instant::now();
        std::hint::black_box(flat.get(&class));
        samples.push(start.elapsed().as_secs_f64() * 1e9);
    }
    report.metric("flat_exact_ns", Stats::from_blocks(&samples, 50));

    // One sample per pass over the needle mix: the pass's median query, us.
    let needle_pass = |query: &dyn Fn(&str)| {
        let per_needle: Vec<f64> = NEEDLES
            .iter()
            .map(|needle| {
                let start = Instant::now();
                query(needle);
                start.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        Stats::from_samples(&per_needle).median
    };
    let flat_scan: Vec<f64> = (0..flat_reps)
        .map(|_| {
            needle_pass(&|needle| {
                let lowered = needle.to_lowercase();
                let hits = flat
                    .iter()
                    .filter(|(class, desc)| {
                        class.to_lowercase().contains(&lowered)
                            || desc.to_lowercase().contains(&lowered)
                    })
                    .count();
                std::hint::black_box(hits);
            })
        })
        .collect();
    let flat_scan = Stats::from_samples(&flat_scan);
    drop(flat);

    // --- fuzzy query ------------------------------------------------------
    let fuzzy: Vec<f64> = (0..fuzzy_reps)
        .map(|_| {
            needle_pass(&|needle| {
                std::hint::black_box(repo.fuzzy(&FuzzyQuery::new(needle).with_limit(25)));
            })
        })
        .collect();
    let fuzzy = Stats::from_samples(&fuzzy);
    report
        .metric("fuzzy_us", fuzzy)
        .at_most(5_000.0, "a fuzzy query must stay under 5 ms");
    report.metric("flat_scan_us", flat_scan);
    report
        .count("scan_speedup", flat_scan.median / fuzzy.median)
        .at_least(
            h.pick(1.5, 5.0),
            "the trigram path must clearly beat the seed's flat scan",
        );

    // --- concurrent query throughput ------------------------------------
    let run_queries = |count: usize| {
        for q in 0..count {
            let page = repo.fuzzy(&FuzzyQuery::new(NEEDLES[q % NEEDLES.len()]).with_limit(25));
            std::hint::black_box(page);
        }
    };
    // Single- and 4-thread passes alternate, so each round's scaling
    // compares neighbours in time.
    let threads = 4usize;
    let mut qps = vec![Vec::new(), Vec::new()];
    for _ in 0..5 {
        let start = Instant::now();
        run_queries(qps_queries);
        qps[0].push(qps_queries as f64 / start.elapsed().as_secs_f64());

        let start = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| run_queries(qps_queries));
            }
        });
        qps[1].push((threads * qps_queries) as f64 / start.elapsed().as_secs_f64());
    }
    let qps = Rounds(qps);

    // 4-thread scaling >= 2x is demanded only where the hardware can
    // physically deliver it (4+ cores); below that the gate pins
    // "lock-free readers don't collapse under contention".
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let required_scaling = match cores {
        4.. => 2.0,
        2..=3 => 1.2,
        _ => 0.4,
    };
    report.metric("single_thread_qps", qps.stats(0));
    report.metric("four_thread_qps", qps.stats(1));
    report
        .metric("throughput_scaling", qps.derive(|s| s[1] / s[0]))
        .at_least(
            required_scaling,
            "4 reader threads must scale (>=2x on 4+ cores, >=1.2x on 2-3, >=0.4x on 1)",
        );
    report.finish();
}
