//! Repository torture battery: the sharded catalog at scale and on the
//! wire. Deposits tens of thousands of synthetic component types in one
//! batch (a million under `CCA_SCALE_FULL=1` — the committed
//! `crates/bench/results/BENCH_e17_repository.json` carries the measured
//! numbers at that size), then
//! hammers the discovery surfaces: exact lookups round-trip every
//! sampled entry, fuzzy queries return known-answer rankings across
//! every score tier, paged cursor walks reach exhaustion with no gaps
//! and no duplicates, duplicate deposits keep the catalog consistent and
//! it reads identically at any shard count, and the `cca.ports.DiscoveryPort` answers over a
//! real `tcp+mux://` socket under the CI fault matrix — a seeded
//! mid-call drop opens the breaker, quarantine is published, and the
//! healed wire recovers on the half-open probe.

use cca::core::event::RecordingListener;
use cca::core::resilience::{fault_seed_from_env, BreakerPolicy, CallPolicy, MockClock};
use cca::core::{CcaError, CcaServices, Component, ConfigEvent};
use cca::framework::{Framework, DISCOVERY_EXPORT_KEY, DISCOVERY_PORT_TYPE};
use cca::repository::{ComponentEntry, FuzzyQuery, PortSpec, QueryCursor, Repository};
use cca::rpc::{MuxTransport, ObjRef, CONNECTION_EXCEPTION_TYPE};
use cca::sidl::{DynObject, DynValue};
use cca_data::TypeMap;
use std::sync::Arc;

// ---------------------------------------------------------------------
// Synthetic catalog
// ---------------------------------------------------------------------

/// Default entry count: big enough that a linear-scan bug or a lost
/// shard shows up, small enough for the debug-build test suite. The full
/// paper-scale run (1,000,000 types, the E17 population) is one env var
/// away: `CCA_SCALE_FULL=1 cargo test --test repository_scale`.
const DEFAULT_TYPES: usize = 50_000;

fn scale() -> usize {
    if std::env::var("CCA_SCALE_FULL").is_ok_and(|v| v == "1") {
        1_000_000
    } else {
        DEFAULT_TYPES
    }
}

struct Nop;
impl Component for Nop {
    fn component_type(&self) -> &str {
        "t.Nop"
    }
    fn set_services(&self, _s: Arc<CcaServices>) -> Result<(), CcaError> {
        Ok(())
    }
}

fn entry(class: &str, desc: &str) -> ComponentEntry {
    ComponentEntry {
        class: class.into(),
        description: desc.into(),
        provides: vec![PortSpec::new("solve", "esi.Solver")],
        uses: vec![PortSpec::new("mesh", "data.Mesh")],
        properties: TypeMap::new(),
        factory: Arc::new(|| Arc::new(Nop) as Arc<dyn Component>),
    }
}

/// Same synthetic naming scheme as the E17 bench: `pkg.Word1Word2NNNNNNN`
/// — every class unique, plenty of shared trigrams so fuzzy queries have
/// real competition.
fn class_of(i: usize) -> String {
    const PKGS: [&str; 8] = [
        "esi", "viz", "data", "mesh", "solver", "opt", "chem", "climate",
    ];
    const WORDS: [&str; 16] = [
        "Krylov",
        "Jacobi",
        "Tensor",
        "Stencil",
        "Fourier",
        "Galerkin",
        "Newton",
        "Euler",
        "Riemann",
        "Poisson",
        "Laplace",
        "Chebyshev",
        "Lanczos",
        "Arnoldi",
        "Hessian",
        "Adjoint",
    ];
    format!(
        "{}.{}{}{:07}",
        PKGS[(i / 256) % 8],
        WORDS[i % 16],
        WORDS[(i / 16) % 16],
        i
    )
}

fn populate(repo: &Repository, n: usize) {
    let batch: Vec<ComponentEntry> = (0..n)
        .map(|i| entry(&class_of(i), "synthetic scale entry"))
        .collect();
    assert_eq!(repo.register_components(batch).unwrap(), n);
}

// ---------------------------------------------------------------------
// 1. Scale round trip: one batch in, every sampled entry back out.
// ---------------------------------------------------------------------

/// Deposits the full synthetic catalog in one all-or-nothing batch and
/// round-trips a stride of exact lookups: every sampled class comes back
/// with its ports intact, misses stay typed errors, and the shard layout
/// reports a published generation on every shard that holds entries.
#[test]
fn scale_deposit_and_exact_lookup_round_trip() {
    let n = scale();
    let repo = Repository::new();
    populate(&repo, n);
    assert_eq!(repo.len(), n);

    // Stride through the catalog coprime to every shard count in play so
    // the sample touches all shards, not a resonant subset.
    let mut hits = 0;
    let mut i = 0;
    while hits < 2_000 {
        let class = class_of(i % n);
        let e = repo.entry(&class).unwrap_or_else(|_| {
            panic!("entry {class} deposited but not found");
        });
        assert_eq!(e.class, class);
        assert_eq!(e.provides[0].port_type, "esi.Solver");
        assert_eq!(e.uses[0].name, "mesh");
        hits += 1;
        i += 7919;
    }
    assert!(repo.entry("esi.NoSuchType9999999").is_err());
    assert!(repo.create("esi.NoSuchType9999999").is_err());

    // Every shard published at least once during the batch deposit.
    let generations = repo.generations();
    assert_eq!(generations.len(), repo.shard_count());
    assert!(
        generations.iter().all(|&g| g >= 1),
        "batch deposit must publish every shard: {generations:?}"
    );
}

// ---------------------------------------------------------------------
// 2. Fuzzy known-answer rankings: every score tier, in order.
// ---------------------------------------------------------------------

/// Plants one curated entry in each score tier for the needle "zephyr" —
/// exact class, class prefix, package-boundary, mid-word substring, and
/// description-only — inside a large noise catalog, and requires the
/// fuzzy ranking to surface them in exactly tier order.
#[test]
fn fuzzy_known_answer_rankings_across_score_tiers() {
    let repo = Repository::new();
    populate(&repo, 10_000);
    // "zephyr" appears nowhere in the synthetic naming scheme, so the
    // expected ranking is exact: tier beats tier, no noise interleaves.
    repo.register_component(entry("app.MegaZephyrPlus", "mid-word hit"))
        .unwrap();
    repo.register_component(entry("esi.Zephyr", "package-boundary hit"))
        .unwrap();
    repo.register_component(entry("Zephyr.Core", "class-prefix hit"))
        .unwrap();
    repo.register_component(entry("Zephyr", "exact-class hit"))
        .unwrap();
    repo.register_component(entry("tools.Breeze", "a gentle zephyr of wind"))
        .unwrap();

    let page = repo.fuzzy(&FuzzyQuery::new("Zephyr").with_limit(10));
    let classes: Vec<&str> = page.hits.iter().map(|h| h.class.as_str()).collect();
    assert_eq!(
        classes,
        vec![
            "Zephyr",             // exact class match
            "Zephyr.Core",        // class prefix
            "esi.Zephyr",         // package-boundary word
            "app.MegaZephyrPlus", // buried substring
            "tools.Breeze",       // description-only hit
        ],
        "score tiers must rank strictly: {:?}",
        page.hits
    );
    assert_eq!(page.matched, 5);
    assert!(page.next.is_none(), "five hits fit one page of ten");
    // Scores strictly descend across tiers.
    assert!(page.hits.windows(2).all(|w| w[0].score > w[1].score));

    // Case-insensitive: the lowered needle finds the same ranking.
    let lower = repo.fuzzy(&FuzzyQuery::new("zephyr").with_limit(10));
    assert_eq!(
        lower
            .hits
            .iter()
            .map(|h| h.class.as_str())
            .collect::<Vec<_>>(),
        classes
    );

    // Short needles (< one trigram) fall back to the scan path and still
    // find boundary hits.
    let short = repo.fuzzy(&FuzzyQuery::new("ze").with_limit(10));
    assert!(short.hits.iter().any(|h| h.class == "Zephyr"));
}

// ---------------------------------------------------------------------
// 3. Cursor walks: paged to exhaustion, no gaps, no duplicates.
// ---------------------------------------------------------------------

/// Walks a broad query ("krylov": thousands of matches in the synthetic
/// catalog) through small pages until the cursor runs dry, then checks
/// the concatenated walk against the one-shot result: same classes, same
/// order, every hit exactly once. Also pins the cursor wire format:
/// encode/parse round-trips and junk is rejected.
#[test]
fn paged_cursor_walk_reaches_exhaustion_without_gaps_or_duplicates() {
    let repo = Repository::new();
    populate(&repo, 10_000);

    let one_shot = repo.fuzzy(&FuzzyQuery::new("krylov").with_limit(100_000));
    assert!(
        one_shot.hits.len() > 500,
        "the synthetic catalog must give the walk real depth, got {}",
        one_shot.hits.len()
    );
    assert!(one_shot.next.is_none());

    let mut walked = Vec::new();
    let mut cursor: Option<QueryCursor> = None;
    let mut pages = 0;
    loop {
        let mut q = FuzzyQuery::new("krylov").with_limit(97);
        if let Some(c) = cursor.take() {
            // The cursor crosses the wire as an opaque string; walk it
            // through its encoding every page, like a remote caller.
            q = q.after(QueryCursor::parse(&c.encode()).unwrap());
        }
        let page = repo.fuzzy(&q);
        // `matched` counts what was still ranked after the incoming
        // cursor, this page included — it must shrink in lockstep with
        // the walk.
        assert_eq!(page.matched, one_shot.hits.len() - walked.len());
        walked.extend(page.hits);
        pages += 1;
        assert!(pages <= 2 + one_shot.hits.len() / 97, "walk must terminate");
        match page.next {
            Some(c) => cursor = Some(c),
            None => break,
        }
    }

    assert_eq!(walked.len(), one_shot.hits.len(), "no gaps, no duplicates");
    for (w, o) in walked.iter().zip(one_shot.hits.iter()) {
        assert_eq!(w.class, o.class, "paged order must equal one-shot order");
        assert_eq!(w.score, o.score);
    }

    assert!(QueryCursor::parse("not-a-cursor").is_none());
    assert!(QueryCursor::parse("v1:junk:junk").is_none());
}

// ---------------------------------------------------------------------
// 4. Deposit edge cases, at three shard counts.
// ---------------------------------------------------------------------

/// Duplicate deposits reject without corrupting the catalog, a batch with
/// an internal duplicate is refused whole (all-or-nothing), re-deposit
/// overwrites in place — and the same catalog built at 8, 32 and 1 shards
/// holds every entry, answers every lookup and ranks every fuzzy query
/// identically: scoring is a pure function of the texts, never the layout.
#[test]
fn duplicate_redeposit_and_shard_count_keep_the_catalog_consistent() {
    let n = 10_000;
    let build = |shards: usize| {
        let repo = Repository::with_shards(shards);
        assert_eq!(repo.shard_count(), shards);
        populate(&repo, n);

        // Duplicate single deposit: typed rejection, count unchanged.
        assert!(repo
            .register_component(entry(&class_of(0), "imposter"))
            .is_err());
        assert_eq!(repo.len(), n);
        assert_eq!(
            repo.entry(&class_of(0)).unwrap().description,
            "synthetic scale entry"
        );

        // All-or-nothing batch: one duplicate (against the store) poisons
        // the whole batch — none of the fresh entries land.
        let poisoned = vec![
            entry("fresh.One", "new"),
            entry(&class_of(42), "imposter"),
            entry("fresh.Two", "new"),
        ];
        assert!(repo.register_components(poisoned).is_err());
        assert_eq!(repo.len(), n);
        assert!(repo.entry("fresh.One").is_err());
        assert!(repo.entry("fresh.Two").is_err());

        // Batch-internal duplicate: also refused whole.
        let twins = vec![entry("twin.A", "first"), entry("twin.A", "second")];
        assert!(repo.register_components(twins).is_err());
        assert!(repo.entry("twin.A").is_err());

        // Re-deposit (upsert) replaces in place.
        repo.reregister_component(entry(&class_of(7), "upgraded"));
        assert_eq!(repo.len(), n);
        assert_eq!(repo.entry(&class_of(7)).unwrap().description, "upgraded");
        repo
    };

    let ranking = |repo: &Repository, needle: &str| -> (usize, Vec<(String, u32)>) {
        let page = repo.fuzzy(&FuzzyQuery::new(needle).with_limit(50));
        let hits = page.hits.into_iter().map(|h| (h.class, h.score)).collect();
        (page.matched, hits)
    };
    let reference = build(8);
    for shards in [32usize, 1] {
        let repo = build(shards);
        for i in (0..n).step_by(997) {
            let class = class_of(i);
            assert_eq!(
                repo.entry(&class).unwrap().description,
                reference.entry(&class).unwrap().description
            );
        }
        for needle in ["tensor", "upgraded", "ze"] {
            assert_eq!(
                ranking(&repo, needle),
                ranking(&reference, needle),
                "{shards} shards must rank {needle:?} like 8"
            );
        }
    }
}

// ---------------------------------------------------------------------
// 5. DiscoveryPort on the wire, under the fault matrix.
// ---------------------------------------------------------------------

/// A consumer with one uses slot for the discovery port; calls cross the
/// wire through the dynamic facade.
struct DiscoveryConsumer;
impl Component for DiscoveryConsumer {
    fn component_type(&self) -> &str {
        "test.DiscoveryConsumer"
    }
    fn set_services(&self, services: Arc<CcaServices>) -> Result<(), CcaError> {
        services.register_uses_port("repo", DISCOVERY_PORT_TYPE, TypeMap::new())
    }
}

/// The discovery plane scraped over a real `tcp+mux://` socket under the
/// CI fault matrix (`CCA_FAULT_SEED` in {1, 7, 42, 1999}): a frameworkless
/// `ObjRef` scrape answers search/page/stats, then the seeded mid-call
/// drop plan fails a breaker-guarded uses slot twice, the provider is
/// quarantined (fail-fast, no socket traffic), and the healed wire
/// recovers on the half-open probe — `ProviderRecovered` published, the
/// catalog still answering.
#[test]
fn discovery_port_over_mux_survives_the_fault_matrix() {
    let seed = fault_seed_from_env();

    // Server side: a populated catalog behind the discovery port.
    let repo = Repository::new();
    populate(&repo, 10_000);
    repo.register_component(entry("esi.Zephyr", "the needle"))
        .unwrap();
    let server_fw = Framework::new(repo);
    server_fw.install_discovery().unwrap();
    let server = server_fw.serve_tcp_mux("127.0.0.1:0").unwrap();
    let addr = server.local_addr().to_string();

    // Frameworkless scrape first: a plain transport + ObjRef, the way a
    // registry browser would dial in.
    let transport = Arc::new(MuxTransport::new(addr.clone()));
    let objref = ObjRef::new(
        DISCOVERY_EXPORT_KEY,
        transport as Arc<dyn cca::rpc::Transport>,
    );
    assert_eq!(
        objref
            .invoke("componentCount", vec![])
            .unwrap()
            .as_long()
            .unwrap(),
        10_001
    );
    let found = objref
        .invoke("lookupJson", vec![DynValue::Str("esi.Zephyr".into())])
        .unwrap();
    assert!(found.as_str().unwrap().contains("\"found\":true"));
    let page1 = objref
        .invoke(
            "searchJson",
            vec![DynValue::Str("krylov".into()), DynValue::Long(5)],
        )
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    assert!(page1.contains("\"hits\":[{"), "{page1}");
    let cursor = page1
        .split("\"cursor\":\"")
        .nth(1)
        .and_then(|s| s.split('"').next())
        .expect("a broad query leaves a continuation cursor")
        .to_string();
    let page2 = objref
        .invoke(
            "pageJson",
            vec![
                DynValue::Str("krylov".into()),
                DynValue::Long(5),
                DynValue::Str(cursor),
            ],
        )
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    assert!(page2.contains("\"hits\":[{"), "{page2}");
    // Pages are disjoint: the cursor resumed, not restarted.
    let first_class = |p: &str| {
        p.split("\"class\":\"")
            .nth(1)
            .and_then(|s| s.split('"').next())
            .map(str::to_string)
    };
    assert_ne!(first_class(&page1), first_class(&page2));
    let stats = objref.invoke("statsJson", vec![]).unwrap();
    let stats = stats.as_str().unwrap();
    assert!(stats.contains("\"components\":10001"), "{stats}");
    assert!(stats.contains("\"shards\":32"), "{stats}");

    // Breaker-guarded framework client: quarantine then recovery, all
    // breaker timing on the mock clock.
    let client_fw = Framework::new(Repository::new());
    let rec = RecordingListener::new();
    client_fw.add_listener(rec.clone());
    client_fw
        .add_instance("browser0", Arc::new(DiscoveryConsumer))
        .unwrap();
    let services = client_fw.services("browser0").unwrap();
    let clock = MockClock::new();
    let policy = CallPolicy::with_clock(clock.clone()).with_breaker(BreakerPolicy::new(2, 10_000));
    services.set_call_policy("repo", Arc::new(policy)).unwrap();
    client_fw
        .connect_remote("browser0", "repo", &addr, DISCOVERY_EXPORT_KEY)
        .unwrap();
    let provider_label = format!("tcp+mux://{addr}/{DISCOVERY_EXPORT_KEY}");

    let mut port = services.cached_port::<dyn DynObject>("repo");
    fn search(p: &(dyn DynObject + 'static)) -> Result<DynValue, CcaError> {
        p.invoke(
            "searchJson",
            vec![DynValue::Str("zephyr".into()), DynValue::Long(3)],
        )
        .map_err(CcaError::from)
    }

    // Healthy: the fuzzy search round-trips through the uses slot.
    let healthy = port.call(search).unwrap();
    assert!(healthy.as_str().unwrap().contains("\"esi.Zephyr\""));

    // Hostile: the seeded plan drops every call mid-flight. Two typed
    // connection failures open the breaker.
    server.set_fault_plan(seed, 1000);
    for _ in 0..2 {
        let err = port.call(search).unwrap_err();
        assert!(
            err.to_string().contains(CONNECTION_EXCEPTION_TYPE),
            "mid-call drop must surface as a connection failure, got: {err}"
        );
    }
    assert!(
        rec.events().iter().any(|e| matches!(
            e,
            ConfigEvent::ProviderQuarantined { provider, .. } if *provider == provider_label
        )),
        "breaker threshold must publish the quarantine"
    );

    // Quarantined: fail-fast, no socket traffic.
    let dropped_before = server.dropped_mid_call();
    assert!(port.call(search).is_err());
    assert_eq!(
        server.dropped_mid_call(),
        dropped_before,
        "quarantined discovery calls must not reach the server"
    );

    // Healed wire + cooldown passed in simulated time: the half-open
    // probe re-dials, the breaker closes, recovery is published, and the
    // catalog answers as before.
    server.set_fault_plan(seed, 0);
    clock.advance_ns(20_000);
    let recovered = port.call(search).unwrap();
    assert!(recovered.as_str().unwrap().contains("\"esi.Zephyr\""));
    assert!(
        rec.events().iter().any(|e| matches!(
            e,
            ConfigEvent::ProviderRecovered { provider, .. } if *provider == provider_label
        )),
        "half-open success must publish the recovery"
    );
    server.shutdown();
}
