//! `repo_mixed`: a catalog of seeded synthetic component types under a
//! read mix (exact lookups and fuzzy searches, 50:1) — first alone
//! (phase R), then beside a writer depositing one type at a time
//! (phase W).

use crate::gen::{self, Corpus, NEEDLES};
use crate::harness::{proc_status_mb, Ctx};
use crate::stats;
use crate::trace;
use cca::repository::{score_match, ComponentEntry, FuzzyQuery, Repository};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Lookups per timed batch: one lookup is well under a microsecond, so a
/// clock pair around each would mostly time the clock.
const BATCH: usize = 32;
/// Lookups per search in the read mix.
const LOOKUPS_PER_SEARCH: usize = 50;
const SEARCH_LIMIT: usize = 25;
/// Lookups per round: the least count that is whole batches (50 × 32) and
/// whole searches (32 × 50), and whose 32 searches are four passes over
/// the eight needles.
const ROUND_LOOKUPS: usize = 1600;

struct Ready {
    repo: Arc<Repository>,
    /// Classes to look up, in seeded order.
    keys: Vec<String>,
    /// Needle indices, in seeded order.
    needles: Vec<usize>,
    populate_s: f64,
    types: usize,
}

fn build(seed: u64, types: usize) -> Result<Ready, String> {
    let corpus = Corpus::new(seed);
    let batch: Vec<ComponentEntry> = {
        let _s = trace::span("bench.generate");
        (0..types).map(|i| corpus.entry_of(i)).collect()
    };
    let keys = gen::lookup_ordinals(seed, types, 4096)
        .into_iter()
        .map(|i| corpus.class_of(i))
        .collect();
    let repo = Repository::new();
    repo.deposit_sidl("package cca.ports { interface GoPort { void go(); } }")
        .map_err(|e| format!("seed SIDL: {e}"))?;
    let started = Instant::now();
    {
        let _s = trace::span("repository.populate");
        let n = repo
            .register_components(batch)
            .map_err(|e| format!("populate: {e}"))?;
        if n != types {
            return Err(format!("populate registered {n} of {types} types"));
        }
    }
    Ok(Ready {
        repo,
        keys,
        needles: gen::needle_order(seed, 1024),
        populate_s: started.elapsed().as_secs_f64(),
        types,
    })
}

/// The per-seed known answers: each needle's best class by brute force
/// over the generated corpus — every class scored with the repository's
/// own public `score_match`, best score first, class name breaking ties —
/// with none of the index, shard or heap machinery under test.
fn known_answers(seed: u64, types: usize) -> Vec<String> {
    let corpus = Corpus::new(seed);
    let classes: Vec<String> = (0..types).map(|i| corpus.class_of(i)).collect();
    let lowered: Vec<String> = classes.iter().map(|c| c.to_lowercase()).collect();
    NEEDLES
        .iter()
        .map(|needle| {
            classes
                .iter()
                .zip(&lowered)
                .filter_map(|(class, low)| score_match(low, "", needle).map(|s| (s, class)))
                .max_by(|(sa, ca), (sb, cb)| sa.cmp(sb).then_with(|| cb.cmp(ca)))
                .map(|(_, class)| class.clone())
                .unwrap_or_default()
        })
        .collect()
}

#[derive(Default)]
struct Reads {
    /// µs per lookup, one sample per batch of [`BATCH`].
    lookup_us: Vec<f64>,
    /// µs per fuzzy search.
    search_us: Vec<f64>,
    lookups: u64,
    /// Seconds per round of [`ROUND_LOOKUPS`] lookups and their searches.
    /// Every round does the same work: its searches walk the needle set a
    /// whole number of times.
    round_s: Vec<f64>,
    failures: Vec<String>,
}

impl Reads {
    fn ops(&self) -> u64 {
        self.lookups + self.search_us.len() as u64
    }
    /// Reads per second in the run's quiet rounds.
    fn per_s(&self) -> f64 {
        let round_ops = ROUND_LOOKUPS + ROUND_LOOKUPS / LOOKUPS_PER_SEARCH;
        round_ops as f64 / stats::low_decile(&self.round_s)
    }
}

/// The lookup oracle: the entry returned is the class asked for.
fn lookup_failure(asked: &str, got: Result<ComponentEntry, cca::core::CcaError>) -> Option<String> {
    match got {
        Ok(entry) if entry.class == asked => None,
        Ok(entry) => Some(format!("lookup of {asked} returned {}", entry.class)),
        Err(e) => Some(format!("lookup of {asked} failed: {e}")),
    }
}

/// The search oracle: the needle's top hit is the per-seed known answer.
fn search_failure(needle: &str, top: Option<&str>, known: &str) -> Option<String> {
    (top != Some(known)).then(|| format!("search '{needle}': top hit {top:?}, expected {known}"))
}

/// The read mix until `stop()` says so: batches of lookups with a search
/// after every [`LOOKUPS_PER_SEARCH`] lookups.
fn read_mix(
    ready: &Ready,
    known: &[String],
    spans: [&'static str; 2],
    mut stop: impl FnMut() -> bool,
) -> Reads {
    let mut reads = Reads::default();
    let (mut key_at, mut needle_at) = (0usize, 0usize);
    let mut round_started = Instant::now();
    while !stop() || reads.round_s.is_empty() {
        {
            let _s = trace::span(spans[0]);
            let t = Instant::now();
            for _ in 0..BATCH {
                let asked = &ready.keys[key_at % ready.keys.len()];
                key_at += 1;
                let got = ready.repo.entry(black_box(asked));
                if let Some(why) = lookup_failure(asked, got) {
                    reads.failures.push(why);
                }
            }
            reads
                .lookup_us
                .push(t.elapsed().as_secs_f64() * 1e6 / BATCH as f64);
            reads.lookups += BATCH as u64;
        }
        while (reads.search_us.len() as u64) < reads.lookups / LOOKUPS_PER_SEARCH as u64 {
            let which = ready.needles[needle_at % ready.needles.len()];
            needle_at += 1;
            let needle = NEEDLES[which];
            let t = Instant::now();
            let page = {
                let _s = trace::span(spans[1]);
                ready
                    .repo
                    .fuzzy(&FuzzyQuery::new(black_box(needle)).with_limit(SEARCH_LIMIT))
            };
            reads.search_us.push(t.elapsed().as_secs_f64() * 1e6);
            let top = page.hits.first().map(|h| h.class.as_str());
            reads
                .failures
                .extend(search_failure(needle, top, &known[which]));
            black_box(page);
        }
        if reads.lookups % ROUND_LOOKUPS as u64 == 0 {
            reads.round_s.push(round_started.elapsed().as_secs_f64());
            round_started = Instant::now();
        }
    }
    reads
}

struct Writes {
    deposit_ms: Vec<f64>,
    /// The phase-W reader's samples.
    beside: Reads,
    failures: Vec<String>,
}

/// Phase W: this thread deposits single types, each timed, for `budget`
/// (at least `min` of them); a second thread repeats the read mix until
/// the writer is done. `first` is the ordinal of the first new class.
fn write_phase(
    ready: &Ready,
    known: &[String],
    budget: Duration,
    min: usize,
    first: usize,
) -> Writes {
    let done = AtomicBool::new(false);
    let mut deposit_ms = Vec::new();
    let mut failures = Vec::new();
    let beside = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            read_mix(
                ready,
                known,
                [
                    "repository.lookups_under_writes",
                    "repository.search_under_writes",
                ],
                // SeqCst: the flag is the only thing shared; cost is
                // irrelevant beside a batch of lookups.
                || done.load(Ordering::SeqCst),
            )
        });
        let started = Instant::now();
        while deposit_ms.len() < min || started.elapsed() < budget {
            let entry = gen::deposit_entry(first + deposit_ms.len());
            let t = Instant::now();
            let outcome = {
                let _s = trace::span("repository.deposit");
                ready.repo.register_component(entry)
            };
            deposit_ms.push(t.elapsed().as_secs_f64() * 1e3);
            if let Err(e) = outcome {
                failures.push(format!("deposit {}: {e}", deposit_ms.len()));
            }
        }
        done.store(true, Ordering::SeqCst);
        reader.join().expect("phase-W reader panicked")
    });
    // Every class deposited beside the readers must now resolve.
    for k in first..first + deposit_ms.len() {
        let class = gen::deposit_class(k);
        failures.extend(lookup_failure(&class, ready.repo.entry(&class)));
    }
    Writes {
        deposit_ms,
        beside,
        failures,
    }
}

fn account_reads(ctx: &mut Ctx, reads: &Reads) {
    ctx.attempt(reads.ops());
    for why in &reads.failures {
        ctx.fail(|| why.clone());
    }
}

fn account_writes(ctx: &mut Ctx, writes: &Writes) {
    // Each deposit is attempted twice over: the write and its read-back.
    ctx.attempt(2 * writes.deposit_ms.len() as u64);
    for why in &writes.failures {
        ctx.fail(|| why.clone());
    }
    account_reads(ctx, &writes.beside);
}

fn timed_stop(budget: Duration) -> impl FnMut() -> bool {
    let started = Instant::now();
    move || started.elapsed() >= budget
}

const PHASE_R: [&str; 2] = ["repository.lookups", "repository.search"];

pub fn mixed(ctx: &mut Ctx) {
    let types = ctx.size(100_000, 5_000);
    let seed = ctx.seed();
    ctx.run(5, || build(seed, types), read_then_write);
}

fn read_then_write(ctx: &mut Ctx, ready: Ready) {
    let (seed, types) = (ctx.seed(), ready.types);
    let min_deposits = ctx.size(30, 5);
    let rss_after_populate = proc_status_mb("VmRSS:");
    let known = known_answers(seed, types);

    if !ctx.traced() {
        let (r, w) = (ctx.budget(0.5), ctx.budget(0.5));
        let pass = ctx.pass("bench.run", || {
            let reads = read_mix(&ready, &known, PHASE_R, timed_stop(r));
            (reads, write_phase(&ready, &known, w, min_deposits, 0))
        });
        let (reads, writes) = pass.result;
        account_reads(ctx, &reads);
        account_writes(ctx, &writes);
        ctx.put_from("ops_per_s", reads.per_s(), &reads.round_s, "1/s");
        let us: Vec<f64> = writes.deposit_ms.iter().map(|ms| ms * 1e3).collect();
        ctx.put_quiet("op_p50_us", &stats::block_medians(&us, 10), "us");
        return;
    }

    let (r, w) = (ctx.budget(0.2), ctx.budget(0.25));
    // Tracing is off outside `ctx.pass`: this is the untraced baseline.
    let untraced = read_mix(&ready, &known, PHASE_R, timed_stop(r));
    account_reads(ctx, &untraced);
    let generations_before: u64 = ready.repo.generations().iter().sum();
    let traced = ctx.pass("bench.run", || {
        let reads = read_mix(&ready, &known, PHASE_R, timed_stop(r));
        (reads, write_phase(&ready, &known, w, min_deposits, 0))
    });
    let (reads, writes) = &traced.result;
    account_reads(ctx, reads);
    account_writes(ctx, writes);
    ctx.put_layer_table(&traced.spans, "bench.run");
    ctx.put_trace_overhead(untraced.per_s(), reads.per_s());

    ctx.put(
        "repository.populate_us_per_type",
        ready.populate_s * 1e6 / ready.types as f64,
        "us",
    );
    ctx.put("repository.rss_mb_after_populate", rss_after_populate, "MB");
    ctx.put_samples("repository.lookup_p50_us", &reads.lookup_us, "us");
    ctx.put_tail("repository.lookup_p99_us", &reads.lookup_us, "us");
    ctx.put_samples("repository.search_p50_us", &reads.search_us, "us");
    ctx.put_tail("repository.search_p99_us", &reads.search_us, "us");
    ctx.put_samples("repository.deposit_p50_ms", &writes.deposit_ms, "ms");
    ctx.put_tail("repository.deposit_p99_ms", &writes.deposit_ms, "ms");
    // A gap between these and the phase-R medians is readers stalling
    // while a snapshot is published.
    ctx.put_samples(
        "repository.lookup_p50_us_under_writes",
        &writes.beside.lookup_us,
        "us",
    );
    ctx.put_samples(
        "repository.search_p50_us_under_writes",
        &writes.beside.search_us,
        "us",
    );
    // Exact: shard publications per single deposit.
    let generations: u64 = ready.repo.generations().iter().sum();
    ctx.put(
        "repository.generations",
        (generations - generations_before) as f64 / writes.deposit_ms.len() as f64,
        "count",
    );

    // One 64-entry batch into the full catalog: what batching buys over
    // 64 single deposits.
    let first = writes.deposit_ms.len();
    let batch: Vec<ComponentEntry> = (first..first + 64).map(gen::deposit_entry).collect();
    let t = Instant::now();
    let outcome = ready.repo.register_components(batch);
    ctx.put(
        "repository.batch64_deposit_ms",
        t.elapsed().as_secs_f64() * 1e3,
        "ms",
    );
    ctx.attempt(1);
    ctx.check(matches!(outcome, Ok(64)), || {
        format!("64-entry batch deposit: {outcome:?}")
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_oracle_rejects_the_wrong_class() {
        let entry = gen::deposit_entry(1);
        assert_eq!(
            lookup_failure(&gen::deposit_class(1), Ok(entry.clone())),
            None
        );
        assert!(lookup_failure(&gen::deposit_class(2), Ok(entry)).is_some());
        let missing = cca::core::CcaError::ComponentNotFound("x".into());
        assert!(lookup_failure("x", Err(missing)).is_some());
    }

    #[test]
    fn search_oracle_rejects_a_wrong_or_missing_top_hit() {
        assert_eq!(
            search_failure("krylov", Some("esi.Krylov"), "esi.Krylov"),
            None
        );
        assert!(search_failure("krylov", Some("esi.Other"), "esi.Krylov").is_some());
        assert!(search_failure("krylov", None, "esi.Krylov").is_some());
    }

    #[test]
    fn a_small_catalog_passes_its_oracles_and_a_wrong_answer_does_not() {
        let (seed, types) = (7, 6_000);
        let ready = build(seed, types).expect("set-up");
        let mut known = known_answers(seed, types);
        assert!(known.iter().all(|k| !k.is_empty()), "{known:?}");
        // Asked to stop at once, the mix still finishes one whole round.
        let reads = read_mix(&ready, &known, PHASE_R, || true);
        assert_eq!(reads.failures, Vec::<String>::new());
        assert_eq!(reads.lookups, ROUND_LOOKUPS as u64);
        assert_eq!(reads.search_us.len(), ROUND_LOOKUPS / LOOKUPS_PER_SEARCH);
        assert_eq!(reads.round_s.len(), 1);

        let writes = write_phase(&ready, &known, Duration::ZERO, 3, 0);
        assert_eq!(writes.failures, Vec::<String>::new());
        assert_eq!(writes.beside.failures, Vec::<String>::new());
        assert_eq!(writes.deposit_ms.len(), 3);

        // A corrupted known answer is caught by the first search for it.
        known[0] = "esi.Nonsense".into();
        let reads = read_mix(&ready, &known, PHASE_R, || true);
        assert!(!reads.failures.is_empty());
    }
}
