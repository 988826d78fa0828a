//! Property tests for the sharded catalog: the discovery guarantees that
//! must hold for *every* catalog, not just the curated fixtures.
//!
//! Six contracts under random entry sets and needles:
//! - **Completeness and soundness**: the trigram-accelerated fuzzy path
//!   returns exactly the entries whose searchable text contains the
//!   needle — the posting intersection may over-approximate, but the
//!   verify step must never let a false positive out and the index must
//!   never lose a true match.
//! - **Layout independence**: rankings are a pure function of the texts;
//!   the same catalog sharded 1, 4, or 32 ways ranks identically — and so
//!   does the same catalog however its deposits split it between each
//!   shard's `base` and `recent` segments (one batch, one entry at a
//!   time, or a mix with an overwrite and a remove, at any shard count).
//! - **Cap fidelity**: a limited page is exactly the head of the
//!   unlimited ranking — capping never trades a higher-scored hit for a
//!   lower one.
//! - **Torn-read freedom**: readers racing a depositor only ever observe
//!   fully-published snapshots — two sorted, class-disjoint segments, class
//!   maps that agree with the entry arrays, a bounded `recent`, a
//!   generation that never runs backwards.
//! - **Concurrent writers**: four writers racing overlapping batches and
//!   singles through `Repository`, beside two readers, finish (ascending
//!   lock order cannot deadlock), land every batch whole or not at all,
//!   and leave each class in the catalog exactly once.

use cca_core::{CcaError, CcaServices, Component};
use cca_data::TypeMap;
use cca_repository::{ComponentEntry, FuzzyQuery, PortSpec, Repository, ShardedStore, StoredEntry};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::time::Duration;

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
        uses: vec![],
        properties: TypeMap::new(),
        factory: Arc::new(|| Arc::new(Nop) as Arc<dyn Component>),
    }
}

/// Random catalogs drawn from a small alphabet so needles actually
/// collide with entry texts (uniform random strings would almost never
/// match and the properties would pass vacuously).
fn arb_catalog() -> impl Strategy<Value = Vec<(String, String)>> {
    proptest::collection::vec(("[a-d]{1,3}\\.[A-Da-d]{2,8}", "[a-d ]{0,12}"), 1..40).prop_map(
        |pairs| {
            // Dedupe by class: the catalog rejects duplicates by contract.
            let mut seen = BTreeMap::new();
            for (class, desc) in pairs {
                seen.entry(class).or_insert(desc);
            }
            seen.into_iter().collect()
        },
    )
}

fn populate(repo: &Repository, catalog: &[(String, String)]) {
    for (class, desc) in catalog {
        repo.register_component(entry(class, desc)).unwrap();
    }
}

/// Everything a reader can observe of a catalog: `entries()`, the
/// unlimited ranking of `needle`, and the same ranking walked by cursor in
/// pages of three.
type Observed = (
    Vec<(String, String)>,
    Vec<(String, u32)>,
    Vec<(String, u32)>,
);

fn observe(repo: &Repository, needle: &str) -> Observed {
    let entries = repo
        .entries()
        .into_iter()
        .map(|e| (e.class, e.description))
        .collect();
    let pairs = |page: cca_repository::QueryPage| -> Vec<(String, u32)> {
        page.hits.into_iter().map(|h| (h.class, h.score)).collect()
    };
    let ranking = pairs(repo.fuzzy(&FuzzyQuery::new(needle).with_limit(usize::MAX)));
    let mut walked = Vec::new();
    let mut query = FuzzyQuery::new(needle).with_limit(3);
    loop {
        let page = repo.fuzzy(&query);
        let next = page.next.clone();
        walked.extend(pairs(page));
        match next {
            Some(cursor) => query = FuzzyQuery::new(needle).with_limit(3).after(cursor),
            None => break,
        }
    }
    (entries, ranking, walked)
}

/// The reference answer, computed the slow honest way: which classes'
/// searchable text (lowered class + lowered aux) contains the needle?
fn expected_matches(catalog: &[(String, String)], needle: &str) -> Vec<String> {
    catalog
        .iter()
        .filter(|(class, desc)| {
            let stored = StoredEntry::new(entry(class, desc));
            stored.lowered_class.contains(needle) || stored.lowered_aux.contains(needle)
        })
        .map(|(class, _)| class.clone())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Fuzzy results are exactly the substring-match set: no entry whose
    /// text contains the needle is ever lost to the trigram intersection
    /// (completeness), and no entry without the substring sneaks through
    /// the candidate over-approximation (soundness). Holds on both the
    /// indexed path (needle ≥ 3 bytes) and the short-needle scan path.
    #[test]
    fn fuzzy_hits_are_exactly_the_substring_matches(
        catalog in arb_catalog(),
        needle in "[a-d.]{1,5}",
    ) {
        let repo = Repository::with_shards(4);
        populate(&repo, &catalog);
        let page = repo.fuzzy(&FuzzyQuery::new(&needle).with_limit(catalog.len() + 1));
        let mut got: Vec<String> = page.hits.iter().map(|h| h.class.clone()).collect();
        got.sort();
        let mut expected = expected_matches(&catalog, &needle);
        expected.sort();
        prop_assert_eq!(got, expected);
        prop_assert_eq!(page.matched, page.hits.len());
        prop_assert!(page.next.is_none(), "an uncapped page leaves no cursor");
    }

    /// The ranking is a pure function of (texts, needle): the same catalog
    /// sharded 1, 4, or 32 ways produces the identical hit sequence,
    /// scores included. This is what makes a cursor mean the same thing at
    /// any shard count and rankings reproducible across deployments.
    #[test]
    fn ranking_is_stable_under_shard_count(
        catalog in arb_catalog(),
        needle in "[a-d]{2,4}",
    ) {
        let reference: Vec<(String, u32)> = {
            let repo = Repository::with_shards(1);
            populate(&repo, &catalog);
            repo.fuzzy(&FuzzyQuery::new(&needle).with_limit(catalog.len() + 1))
                .hits
                .into_iter()
                .map(|h| (h.class, h.score))
                .collect()
        };
        for shards in [4usize, 32] {
            let repo = Repository::with_shards(shards);
            populate(&repo, &catalog);
            let got: Vec<(String, u32)> = repo
                .fuzzy(&FuzzyQuery::new(&needle).with_limit(catalog.len() + 1))
                .hits
                .into_iter()
                .map(|h| (h.class, h.score))
                .collect();
            prop_assert_eq!(
                &got, &reference,
                "{} shards must rank like 1 shard", shards
            );
        }
    }

    /// The same catalog reached by three deposit histories — one batch
    /// (one fold, or one append when it is small), one entry at a time
    /// (eight appends, a fold, eight appends, …), and half as a batch,
    /// half singly, with an overwrite back to the original and a
    /// throw-away class added and removed, built at 1, 4 or 32 shards —
    /// reads identically: `entries()`, the unlimited ranking (class and
    /// score) and the cursor walk. Which segment or shard an entry sits
    /// in is not observable. The first two at one shard, so that catalogs
    /// of a few dozen entries do cross the fold boundary.
    #[test]
    fn reads_are_independent_of_segment_layout(
        catalog in arb_catalog(),
        needle in "[a-d]{1,4}",
        shards in prop_oneof![Just(1usize), Just(4), Just(32)],
    ) {
        let batched = Repository::with_shards(1);
        batched
            .register_components(catalog.iter().map(|(c, d)| entry(c, d)).collect())
            .unwrap();
        let reference = observe(&batched, &needle);
        prop_assert_eq!(&reference.1, &reference.2, "a cursor walk is the ranking");

        let singly = Repository::with_shards(1);
        populate(&singly, &catalog);
        prop_assert_eq!(&observe(&singly, &needle), &reference);

        let mixed = Repository::with_shards(shards);
        let (head, tail) = catalog.split_at(catalog.len() / 2);
        mixed
            .register_components(head.iter().map(|(c, d)| entry(c, d)).collect())
            .unwrap();
        populate(&mixed, tail);
        let (victim, desc) = &catalog[catalog.len() / 3];
        mixed.reregister_component(entry(victim, "dddd scratch"));
        mixed.register_component(entry("zz.Scratch", "abcd")).unwrap();
        mixed.reregister_component(entry(victim, desc));
        mixed.unregister_component("zz.Scratch").unwrap();
        prop_assert_eq!(&observe(&mixed, &needle), &reference);
    }

    /// A capped page is exactly the head of the uncapped ranking: the
    /// top-k heap never evicts a higher-scored hit in favour of a lower
    /// one, and the continuation cursor appears exactly when something
    /// was cut.
    #[test]
    fn capping_keeps_the_best_hits(
        catalog in arb_catalog(),
        needle in "[a-d]{1,3}",
        limit in 1usize..8,
    ) {
        let repo = Repository::with_shards(4);
        populate(&repo, &catalog);
        let full = repo.fuzzy(&FuzzyQuery::new(&needle).with_limit(catalog.len() + 1));
        let capped = repo.fuzzy(&FuzzyQuery::new(&needle).with_limit(limit));
        let keep = limit.min(full.hits.len());
        prop_assert_eq!(capped.hits.len(), keep);
        for (c, f) in capped.hits.iter().zip(full.hits.iter()) {
            prop_assert_eq!(&c.class, &f.class);
            prop_assert_eq!(c.score, f.score);
        }
        prop_assert_eq!(capped.matched, full.hits.len());
        prop_assert_eq!(capped.next.is_some(), full.hits.len() > limit);
    }
}

// ---------------------------------------------------------------------
// Torn-read freedom: readers race a depositor on the raw store.
// ---------------------------------------------------------------------

/// Mirrors `shard.rs`'s private cap on a `recent` segment.
const RECENT_MAX: usize = 8;

/// Readers hammer every shard while a depositor publishes entries one at
/// a time. Every observed snapshot must be internally consistent — each
/// of its two segments strictly sorted by class with a class map pointing
/// at the right ordinals, the two disjoint by class, `recent` within its
/// cap, `len()` their sum, every entry reachable through the snapshot's
/// own `get` — and per-shard generations must never run backwards. A torn
/// publish (a `recent` from one generation beside a `base` that already
/// folded it in) would trip the disjointness check; clone-mutate-swap
/// makes that impossible by construction, and this test is the regression
/// net around that construction.
#[test]
fn concurrent_readers_never_observe_a_torn_snapshot() {
    const SHARDS: usize = 8;
    const DEPOSITS: usize = 2_000;
    let store = Arc::new(ShardedStore::new(SHARDS));
    let done = Arc::new(AtomicBool::new(false));

    std::thread::scope(|scope| {
        for _ in 0..3 {
            let store = Arc::clone(&store);
            let done = Arc::clone(&done);
            scope.spawn(move || {
                let mut last_gen = [0u64; SHARDS];
                let mut checks = 0usize;
                while !done.load(Ordering::Acquire) || checks == 0 {
                    for (shard, last) in last_gen.iter_mut().enumerate() {
                        let snap = store.snapshot(shard);
                        assert!(
                            snap.generation >= *last,
                            "generation ran backwards: {} -> {}",
                            last,
                            snap.generation
                        );
                        *last = snap.generation;
                        let [base, recent] = snap.segments();
                        assert!(recent.entries().len() <= RECENT_MAX);
                        assert_eq!(snap.len(), base.entries().len() + recent.entries().len());
                        let mut seen = BTreeSet::new();
                        for segment in [base, recent] {
                            let entries = segment.entries();
                            assert!(
                                entries.windows(2).all(|w| w[0].class < w[1].class),
                                "a published segment must be strictly sorted"
                            );
                            for stored in entries {
                                let class = stored.class.as_str();
                                assert!(seen.insert(class), "{class} is in both segments");
                                let found = segment
                                    .get(class)
                                    .expect("class map and entry array must agree");
                                assert!(std::ptr::eq(found, stored));
                                let reached = snap
                                    .get(class)
                                    .expect("every published entry is reachable by class");
                                assert!(std::ptr::eq(reached, stored));
                            }
                        }
                        checks += 1;
                    }
                }
            });
        }

        // The depositor: one publish per entry, maximum snapshot churn.
        for i in 0..DEPOSITS {
            let stored = StoredEntry::new(entry(&format!("pkg{}.Type{i:05}", i % 7), "racing"));
            store.try_insert(stored, false).unwrap();
        }
        done.store(true, Ordering::Release);
    });

    assert_eq!(store.len(), DEPOSITS);
    // The final generations account for exactly one publish per deposit.
    assert_eq!(store.generations().iter().sum::<u64>(), DEPOSITS as u64);
}

// ---------------------------------------------------------------------
// Concurrent writers through `Repository`.
// ---------------------------------------------------------------------

/// Four writers race through `Repository` on four shared shards while two
/// readers run `entry` and `fuzzy`. Each round, every writer deposits one
/// class of its own singly and one six-class batch that spans shards.
/// Even rounds poison every writer's batch with the round's contested
/// class, so exactly one of the four batches lands; odd rounds race the
/// contested class as four singles instead. The run must finish within
/// the timeout — batches lock their shards in ascending order, so no two
/// can deadlock — and at the end every batch is wholly present or wholly
/// absent, each contested class was won exactly once, and `entries()`
/// holds every class exactly once.
#[test]
fn concurrent_writers_land_whole_batches_and_each_class_once() {
    const WRITERS: usize = 4;
    const ROUNDS: usize = 64;
    let contested = |round: usize| format!("contested.Round{round:03}");
    let poisoned = |round: usize| round.is_multiple_of(2);
    let batch_of = move |writer: usize, round: usize| -> Vec<String> {
        (0..5)
            .map(|k| format!("w{writer}.Batch{round:03}x{k}"))
            .chain(poisoned(round).then(|| contested(round)))
            .collect()
    };

    let repo = Repository::with_shards(4);
    let (tx, rx) = mpsc::channel();
    let worker = {
        let repo = Arc::clone(&repo);
        std::thread::spawn(move || {
            let start = Barrier::new(WRITERS);
            let writing = AtomicBool::new(true);
            // Per writer and round: whether its batch landed, and whether
            // its single of the contested class did.
            let outcomes = std::thread::scope(|scope| {
                for _ in 0..2 {
                    scope.spawn(|| {
                        let mut probes = 0usize;
                        while writing.load(Ordering::Acquire) || probes == 0 {
                            let page = repo.fuzzy(&FuzzyQuery::new("batch").with_limit(16));
                            let distinct: BTreeSet<&str> =
                                page.hits.iter().map(|h| h.class.as_str()).collect();
                            assert_eq!(distinct.len(), page.hits.len(), "a class listed twice");
                            for hit in &page.hits {
                                // Nothing is ever removed: a class seen once
                                // is found from then on.
                                assert_eq!(repo.entry(&hit.class).unwrap().class, hit.class);
                            }
                            let _ = repo.entry(&contested(probes % ROUNDS));
                            probes += 1;
                        }
                    });
                }
                let writers: Vec<_> = (0..WRITERS)
                    .map(|w| {
                        let (start, repo) = (&start, &repo);
                        scope.spawn(move || {
                            start.wait();
                            let mut mine = Vec::new();
                            for round in 0..ROUNDS {
                                let single = format!("w{w}.Single{round:03}");
                                repo.register_component(entry(&single, "racing")).unwrap();
                                let batch = batch_of(w, round)
                                    .iter()
                                    .map(|class| entry(class, "racing batch"))
                                    .collect();
                                let landed = match repo.register_components(batch) {
                                    Ok(n) => {
                                        assert_eq!(n, batch_of(w, round).len());
                                        true
                                    }
                                    Err(CcaError::ComponentAlreadyExists(class)) => {
                                        assert_eq!(class, contested(round));
                                        false
                                    }
                                    Err(e) => panic!("unexpected batch error {e:?}"),
                                };
                                let won_single = !poisoned(round)
                                    && repo
                                        .register_component(entry(&contested(round), "single"))
                                        .is_ok();
                                mine.push((landed, won_single));
                            }
                            mine
                        })
                    })
                    .collect();
                let outcomes: Vec<_> = writers.into_iter().map(|h| h.join().unwrap()).collect();
                writing.store(false, Ordering::Release);
                outcomes
            });
            tx.send(outcomes).unwrap();
        })
    };
    let outcomes = rx
        .recv_timeout(Duration::from_secs(120))
        .expect("concurrent writers did not finish: deadlock?");
    worker.join().unwrap();

    let mut expected = 0usize;
    for round in 0..ROUNDS {
        let mut winners = 0;
        for (w, mine) in outcomes.iter().enumerate() {
            let (landed, won_single) = mine[round];
            assert!(repo.entry(&format!("w{w}.Single{round:03}")).is_ok());
            let own = &batch_of(w, round)[..5];
            let present = own.iter().filter(|c| repo.entry(c).is_ok()).count();
            assert_eq!(present, if landed { 5 } else { 0 }, "w{w} round {round}");
            expected += 1 + present;
            winners += usize::from(if poisoned(round) { landed } else { won_single });
        }
        assert_eq!(winners, 1, "{} won {winners} times", contested(round));
        assert!(repo.entry(&contested(round)).is_ok());
        expected += 1;
    }
    let classes: Vec<String> = repo.entries().into_iter().map(|e| e.class).collect();
    assert!(
        classes.windows(2).all(|w| w[0] < w[1]),
        "every class appears exactly once"
    );
    assert_eq!(classes.len(), expected);
    assert_eq!(repo.len(), expected);
}
