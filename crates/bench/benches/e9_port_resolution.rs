//! E9 — the PR's acceptance measurement: port-resolution cost ladder and
//! plan-cache behavior.
//!
//! §6.2 claims a direct-connected port call costs nothing beyond a virtual
//! function call. This bench quantifies the claim for the current
//! implementation:
//!
//! * `bare_virtual_call_ns` — calling through a plain `Arc<dyn Trait>`,
//!   the floor;
//! * `cached_port_ns` — calling through [`cca_core::CachedPort`]: one
//!   relaxed atomic generation check + the same virtual call. Acceptance:
//!   within 3× of the floor;
//! * `uncached_get_port_ns` — full `get_port_as` per call (snapshot read,
//!   BTreeMap lookup, downcast): the price the cache removes;
//! * `fanout8_ns` — one multicast over 8 connected listeners through the
//!   shared `Arc<[PortHandle]>` snapshot (zero allocations per call);
//! * plan-cache build vs. hit latency plus hit/build counters across five
//!   simulated timesteps.
//!
//! The cached call and its floor run as an alternating pair, so the gated
//! ratio is formed within each round.

use cca_bench::fixtures::{wire_fanout, wire_single, WorkImpl, WorkPort};
use cca_bench::{Harness, Report};
use cca_data::{DimDist, DistArrayDesc, Distribution, ProcessGrid, RedistPlan};
use cca_framework::{MxNPort, PlanCache};
use std::hint::black_box;
use std::sync::Arc;

fn main() {
    let h = Harness::from_env();
    let mut report = Report::new("e9_port_resolution", &h);

    // --- port-resolution ladder ----------------------------------------
    let obj: Arc<dyn WorkPort> = Arc::new(WorkImpl { bias: 0.5 });
    let user = wire_single();
    let mut cached = user.cached_port::<dyn WorkPort>("in");
    cached.get().unwrap();
    let pair = h.ratio(
        || black_box(&obj).accumulate(black_box(1.0)),
        || cached.get().unwrap().accumulate(black_box(1.0)),
    );
    report.metric("bare_virtual_call_ns", pair.baseline);
    report.metric("cached_port_ns", pair.probe);
    report.metric("cached_over_bare_ratio", pair.ratio).at_most(
        3.0,
        "a cached port call must be within 3x of a bare virtual call",
    );

    report.metric(
        "uncached_get_port_ns",
        h.time(|| {
            let p: Arc<dyn WorkPort> = user.get_port_as("in").unwrap();
            p.accumulate(black_box(1.0))
        }),
    );

    // --- fan-out over the shared snapshot ------------------------------
    let emitter = wire_fanout(8);
    report.metric(
        "fanout8_ns",
        h.time(|| {
            let mut acc = 0.0;
            for handle in emitter.get_ports("events").unwrap().iter() {
                let l: Arc<dyn WorkPort> = handle.typed().unwrap();
                acc = l.accumulate(black_box(acc));
            }
            acc
        }),
    );

    // --- plan cache across simulated timesteps -------------------------
    let src = DistArrayDesc::new(&[4096], Distribution::block_1d(4, 1).unwrap()).unwrap();
    let dst = DistArrayDesc::new(
        &[4096],
        Distribution::new(ProcessGrid::linear(3).unwrap(), &[DimDist::Cyclic]).unwrap(),
    )
    .unwrap();
    report
        .metric(
            "plan_build_ns",
            h.time(|| RedistPlan::build(&src, &dst).unwrap()),
        )
        .at_most_x_committed(2.0, "build is linear in intervals plus transfers");

    let cache = PlanCache::new();
    cache.get_or_build(&src, &dst).unwrap(); // prime: the "first timestep"
    report.metric(
        "plan_cache_hit_ns",
        h.time(|| cache.get_or_build(&src, &dst).unwrap()),
    );

    let cache = PlanCache::new();
    for step in 0..5u32 {
        let port = MxNPort::with_cache(
            &src,
            &dst,
            vec![0, 1, 2, 3],
            vec![0, 1, 2],
            90 + step,
            &cache,
        )
        .unwrap();
        black_box(port.plan().total_elements());
    }
    report
        .count("timestep_plan_builds", cache.builds() as f64)
        .exactly(1.0, "no plan is built after the first of 5 timesteps");
    report.count("timestep_plan_hits", cache.hits() as f64);
    report.finish();
}
