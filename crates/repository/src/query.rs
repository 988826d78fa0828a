//! Searching the repository — "the functionality necessary to search a
//! framework repository for components" (§4).
//!
//! Two query surfaces share the sharded store's frozen snapshots:
//!
//! * [`Query`] — the conjunctive filter API from the seed repository
//!   (provides/uses with SIDL subtyping, package prefix, free text). The
//!   free-text leg now compares against the **normalize-once** lowered
//!   text computed at deposit time ([`crate::shard::StoredEntry`]), so a
//!   query no longer allocates a fresh lowered string per entry — and it
//!   searches port names/types too, not just class + description.
//! * [`FuzzyQuery`] — trigram-accelerated substring discovery with
//!   scored, capped, paged results. Scoring is a pure function of
//!   `(entry text, needle)` (see [`crate::trigram::score_match`]) and
//!   ties break on class name, so the ranking is a total order: stable
//!   under shard count changes, and a [`QueryCursor`] can resume it
//!   exactly where the previous page stopped.

use crate::shard::{Segment, StoredEntry};
use crate::store::{ComponentEntry, Repository};
use crate::trigram::{score_match, trigrams_of};
use std::collections::BinaryHeap;

/// A conjunctive component query. Empty fields match everything.
#[derive(Debug, Clone, Default)]
pub struct Query {
    /// Match components providing a port whose type *is-a* this interface.
    pub provides: Option<String>,
    /// Match components using a port of exactly this interface or a
    /// supertype of it (i.e. components that could consume a provider of
    /// the given type).
    pub uses: Option<String>,
    /// Match components whose class name starts with this package prefix.
    pub package: Option<String>,
    /// Match components whose class name, port names/types, or
    /// description contains this text (case-insensitive).
    pub text: Option<String>,
}

impl Query {
    /// Matches everything.
    pub fn any() -> Self {
        Query::default()
    }

    /// Restricts to components providing (a subtype of) `port_type`.
    pub fn providing(mut self, port_type: impl Into<String>) -> Self {
        self.provides = Some(port_type.into());
        self
    }

    /// Restricts to components using `port_type` (or a supertype).
    pub fn using(mut self, port_type: impl Into<String>) -> Self {
        self.uses = Some(port_type.into());
        self
    }

    /// Restricts to a package prefix.
    pub fn in_package(mut self, package: impl Into<String>) -> Self {
        self.package = Some(package.into());
        self
    }

    /// Restricts by free text.
    pub fn with_text(mut self, text: impl Into<String>) -> Self {
        self.text = Some(text.into());
        self
    }
}

/// A resumable position in a fuzzy result ranking: the `(score, class)`
/// of the last hit already delivered. Because the ranking is a total
/// order on exactly that pair, the cursor pins a page boundary that
/// means the same at any shard count and survives concurrent deposits
/// (new entries that rank before the cursor are simply never revisited).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryCursor {
    /// Score of the last delivered hit.
    pub score: u32,
    /// Class name of the last delivered hit (tie-break key).
    pub class: String,
}

impl QueryCursor {
    /// Wire form, for carrying the cursor through the DiscoveryPort.
    pub fn encode(&self) -> String {
        format!("v1:{}:{}", self.score, self.class)
    }

    /// Parses [`encode`](QueryCursor::encode)'s output; `None` on junk.
    pub fn parse(s: &str) -> Option<Self> {
        let rest = s.strip_prefix("v1:")?;
        let (score, class) = rest.split_once(':')?;
        if class.is_empty() {
            return None;
        }
        Some(QueryCursor {
            score: score.parse().ok()?,
            class: class.to_string(),
        })
    }
}

/// A fuzzy/substring discovery query over class names, port names/types,
/// and descriptions.
#[derive(Debug, Clone)]
pub struct FuzzyQuery {
    /// The (case-insensitive) substring to look for.
    pub needle: String,
    /// Page size cap (clamped to at least 1).
    pub limit: usize,
    /// Resume after this position (a previous page's `next` cursor).
    pub cursor: Option<QueryCursor>,
}

impl FuzzyQuery {
    /// A first-page query with the default page size (25).
    pub fn new(needle: impl Into<String>) -> Self {
        FuzzyQuery {
            needle: needle.into(),
            limit: 25,
            cursor: None,
        }
    }

    /// Sets the page size cap.
    pub fn with_limit(mut self, limit: usize) -> Self {
        self.limit = limit;
        self
    }

    /// Resumes after a cursor from a previous page.
    pub fn after(mut self, cursor: QueryCursor) -> Self {
        self.cursor = Some(cursor);
        self
    }
}

/// One scored fuzzy hit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzyHit {
    /// Fully qualified class name of the matching entry.
    pub class: String,
    /// Match score (higher is better; see [`crate::trigram::score_match`]).
    pub score: u32,
}

/// One page of fuzzy results.
#[derive(Debug, Clone, Default)]
pub struct QueryPage {
    /// The hits, best first (score descending, class ascending).
    pub hits: Vec<FuzzyHit>,
    /// Where to resume; `None` when this page exhausted the results.
    pub next: Option<QueryCursor>,
    /// Total matches ranked after the incoming cursor (i.e. how much was
    /// left before this page was cut, this page included).
    pub matched: usize,
}

/// Worst-kept-hit tracked by the selection heap: orders by "badness"
/// (low score first, then *descending* class so the lexicographically
/// greatest class among score-ties is the first to be evicted).
struct WorstFirst {
    score: u32,
    class: String,
}

impl PartialEq for WorstFirst {
    fn eq(&self, other: &Self) -> bool {
        self.score == other.score && self.class == other.class
    }
}
impl Eq for WorstFirst {}
impl PartialOrd for WorstFirst {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for WorstFirst {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max-heap surfaces the *worst* hit: lowest score wins, class
        // descending among ties (so eviction preserves the class-ascending
        // total order).
        other
            .score
            .cmp(&self.score)
            .then_with(|| self.class.cmp(&other.class))
    }
}

impl Repository {
    /// Runs a query, returning matching entries sorted by class name.
    pub fn search(&self, query: &Query) -> Vec<ComponentEntry> {
        // Normalize the needle once per query; entries were normalized at
        // deposit time, so no per-entry lowering or allocation happens.
        let lowered = query.text.as_ref().map(|t| t.to_lowercase());
        let mut out: Vec<ComponentEntry> = Vec::new();
        for snap in self.store.snapshots() {
            for stored in snap.segments().into_iter().flat_map(Segment::entries) {
                if let Some(t) = lowered.as_deref() {
                    if !stored.lowered_class.contains(t) && !stored.lowered_aux.contains(t) {
                        continue;
                    }
                }
                if self.matches_structured(&stored.entry, query) {
                    out.push(stored.entry.clone());
                }
            }
        }
        out.sort_by(|a, b| a.class.cmp(&b.class));
        out
    }

    fn matches_structured(&self, entry: &ComponentEntry, query: &Query) -> bool {
        if let Some(want) = &query.provides {
            // The provided port type must be the wanted interface or a
            // subtype of it.
            let ok = entry
                .provides
                .iter()
                .any(|p| self.is_subtype_of(&p.port_type, want));
            if !ok {
                return false;
            }
        }
        if let Some(offered) = &query.uses {
            // A component can consume `offered` through a uses port whose
            // declared type is `offered` itself or a supertype of it.
            let ok = entry
                .uses
                .iter()
                .any(|u| self.is_subtype_of(offered, &u.port_type));
            if !ok {
                return false;
            }
        }
        if let Some(pkg) = &query.package {
            if !entry.class.starts_with(pkg.as_str()) {
                return false;
            }
        }
        true
    }

    /// Runs a fuzzy discovery query: trigram candidates per segment of
    /// every shard (scan fallback for needles under 3 bytes),
    /// substring-verified, scored, and capped to the best `limit` hits in
    /// `(score desc, class asc)` order. `next` resumes exactly after the
    /// last returned hit.
    pub fn fuzzy(&self, query: &FuzzyQuery) -> QueryPage {
        let needle = query.needle.to_lowercase();
        if needle.is_empty() {
            return QueryPage::default();
        }
        let limit = query.limit.max(1);
        let after = query.cursor.as_ref();
        // Min-heap (via the inverted Ord above) of the best `limit` hits
        // seen so far; O(matches · log limit), no full sort of the
        // candidate set. It grows with the hits it holds — at most
        // min(limit, matches) + 1 — never with `limit` itself, which a
        // remote caller chooses.
        let mut heap: BinaryHeap<WorstFirst> = BinaryHeap::new();
        let mut matched = 0usize;
        let mut consider = |stored: &StoredEntry| {
            let class = stored.entry.class.as_str();
            let Some(score) = score_match(&stored.lowered_class, &stored.lowered_aux, &needle)
            else {
                return;
            };
            if let Some(c) = after {
                // Strictly after the cursor in the total order.
                let after_cursor = score < c.score || (score == c.score && *class > *c.class);
                if !after_cursor {
                    return;
                }
            }
            matched += 1;
            if heap.len() < limit {
                heap.push(WorstFirst {
                    score,
                    class: class.to_string(),
                });
                return;
            }
            let worst = heap.peek().expect("heap full");
            if score > worst.score || (score == worst.score && *class < *worst.class) {
                heap.pop();
                heap.push(WorstFirst {
                    score,
                    class: class.to_string(),
                });
            }
        };
        // Decomposed once per query, not once per segment.
        let mut needle_trigrams = Vec::new();
        trigrams_of(&needle, &mut needle_trigrams);
        let mut candidates: Vec<u32> = Vec::new();
        for snap in self.store.snapshots() {
            for segment in snap.segments() {
                let entries = segment.entries();
                if needle_trigrams.is_empty() {
                    // Needle too short for trigrams: scan.
                    entries.iter().for_each(&mut consider);
                } else {
                    segment
                        .index()
                        .candidates(&needle_trigrams, &mut candidates);
                    for &ordinal in &candidates {
                        consider(&entries[ordinal as usize]);
                    }
                }
            }
        }
        let mut hits: Vec<FuzzyHit> = heap
            .into_iter()
            .map(|w| FuzzyHit {
                class: w.class,
                score: w.score,
            })
            .collect();
        hits.sort_by(|a, b| b.score.cmp(&a.score).then_with(|| a.class.cmp(&b.class)));
        let next = if matched > hits.len() {
            hits.last().map(|h| QueryCursor {
                score: h.score,
                class: h.class.clone(),
            })
        } else {
            None
        };
        if query.cursor.is_some() {
            cca_obs::repo().record_cursor_page();
        }
        cca_obs::repo().record_fuzzy_query(hits.len() as u64);
        QueryPage {
            hits,
            next,
            matched,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::PortSpec;
    use cca_core::{CcaError, CcaServices, Component};
    use cca_data::TypeMap;
    use std::sync::Arc;

    struct Nop;
    impl Component for Nop {
        fn component_type(&self) -> &str {
            "x"
        }
        fn set_services(&self, _s: Arc<CcaServices>) -> Result<(), CcaError> {
            Ok(())
        }
    }

    fn entry(
        class: &str,
        desc: &str,
        provides: &[(&str, &str)],
        uses: &[(&str, &str)],
    ) -> ComponentEntry {
        ComponentEntry {
            class: class.into(),
            description: desc.into(),
            provides: provides
                .iter()
                .map(|(n, t)| PortSpec::new(*n, *t))
                .collect(),
            uses: uses.iter().map(|(n, t)| PortSpec::new(*n, *t)).collect(),
            properties: TypeMap::new(),
            factory: Arc::new(|| Arc::new(Nop) as Arc<dyn Component>),
        }
    }

    fn demo_repo() -> Arc<Repository> {
        let repo = Repository::new();
        repo.deposit_sidl(
            "package esi {
                interface Operator { void apply(); }
                interface Solver extends Operator { void solve(); }
                interface Precond extends Operator { void setup(); }
                class Cg implements-all Solver { }
                class Ilu implements-all Precond { }
            }",
        )
        .unwrap();
        repo.register_component(entry(
            "esi.Cg",
            "conjugate gradient Krylov solver",
            &[("solver", "esi.Solver")],
            &[("precond", "esi.Operator")],
        ))
        .unwrap();
        repo.register_component(entry(
            "esi.Ilu",
            "incomplete factorization preconditioner",
            &[("precond", "esi.Precond")],
            &[],
        ))
        .unwrap();
        repo.register_component(entry(
            "viz.Plot",
            "line plots",
            &[("render", "viz.Render")],
            &[("field", "viz.Field")],
        ))
        .unwrap();
        repo
    }

    #[test]
    fn query_any_returns_all() {
        let repo = demo_repo();
        assert_eq!(repo.search(&Query::any()).len(), 3);
    }

    #[test]
    fn providing_honours_subtyping() {
        let repo = demo_repo();
        // Both Cg (Solver) and Ilu (Precond) provide subtypes of Operator.
        let ops = repo.search(&Query::any().providing("esi.Operator"));
        let classes: Vec<&str> = ops.iter().map(|e| e.class.as_str()).collect();
        assert_eq!(classes, vec!["esi.Cg", "esi.Ilu"]);
        // Only Cg provides a Solver.
        let solvers = repo.search(&Query::any().providing("esi.Solver"));
        assert_eq!(solvers.len(), 1);
        assert_eq!(solvers[0].class, "esi.Cg");
    }

    #[test]
    fn using_finds_consumers_for_an_offered_type() {
        let repo = demo_repo();
        // Who could consume a provider of esi.Precond? Cg's uses port is
        // declared as esi.Operator, and Precond is-a Operator.
        let consumers = repo.search(&Query::any().using("esi.Precond"));
        assert_eq!(consumers.len(), 1);
        assert_eq!(consumers[0].class, "esi.Cg");
        // Nothing consumes viz.Render.
        assert!(repo.search(&Query::any().using("viz.Render")).is_empty());
    }

    #[test]
    fn package_and_text_filters() {
        let repo = demo_repo();
        assert_eq!(repo.search(&Query::any().in_package("viz.")).len(), 1);
        let krylov = repo.search(&Query::any().with_text("KRYLOV"));
        assert_eq!(krylov.len(), 1);
        assert_eq!(krylov[0].class, "esi.Cg");
    }

    #[test]
    fn text_filter_reaches_port_names_and_types() {
        let repo = demo_repo();
        // "render" appears only in viz.Plot's port name/type, not in any
        // class or description — the normalized text covers it.
        let hits = repo.search(&Query::any().with_text("RENDER"));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].class, "viz.Plot");
    }

    #[test]
    fn filters_conjoin() {
        let repo = demo_repo();
        let none = repo.search(&Query::any().providing("esi.Operator").in_package("viz."));
        assert!(none.is_empty());
        let one = repo.search(
            &Query::any()
                .providing("esi.Operator")
                .with_text("preconditioner"),
        );
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].class, "esi.Ilu");
    }

    #[test]
    fn fuzzy_finds_and_ranks() {
        let repo = demo_repo();
        // Class-name hit beats a description hit.
        let page = repo.fuzzy(&FuzzyQuery::new("CG"));
        assert_eq!(page.hits[0].class, "esi.Cg");
        // Description-only needle still matches (aux text).
        let page = repo.fuzzy(&FuzzyQuery::new("krylov"));
        assert_eq!(page.hits.len(), 1);
        assert_eq!(page.hits[0].class, "esi.Cg");
        assert!(page.next.is_none());
        // Misses return an empty page, no cursor.
        let page = repo.fuzzy(&FuzzyQuery::new("quantum"));
        assert!(page.hits.is_empty());
        assert!(page.next.is_none());
        assert_eq!(page.matched, 0);
        // Empty needle matches nothing rather than everything.
        assert!(repo.fuzzy(&FuzzyQuery::new("")).hits.is_empty());
    }

    #[test]
    fn fuzzy_pages_walk_to_exhaustion_without_gaps_or_dupes() {
        let repo = Repository::with_shards(4);
        for i in 0..57 {
            repo.register_component(entry(&format!("pkg{i:02}.SolverC"), "a solver", &[], &[]))
                .unwrap();
        }
        let full = repo.fuzzy(&FuzzyQuery::new("solver").with_limit(1000));
        assert_eq!(full.hits.len(), 57);
        assert_eq!(full.matched, 57);
        // Walk in pages of 10 and compare against the one-shot ranking.
        let mut walked = Vec::new();
        let mut cursor = None;
        loop {
            let mut q = FuzzyQuery::new("solver").with_limit(10);
            if let Some(c) = cursor {
                q = q.after(c);
            }
            let page = repo.fuzzy(&q);
            walked.extend(page.hits.iter().cloned());
            match page.next {
                Some(c) => cursor = Some(c),
                None => break,
            }
        }
        assert_eq!(walked, full.hits);
    }

    #[test]
    fn an_absurd_limit_is_a_cap_not_an_allocation() {
        // A remote caller picks the limit (DiscoveryPort passes a `long`
        // straight through); reserving `limit + 1` heap slots up front
        // aborted the process at 10^11 and overflowed at i64::MAX.
        let repo = demo_repo();
        for limit in [100_000_000_000usize, i64::MAX as usize, usize::MAX] {
            let page = repo.fuzzy(&FuzzyQuery::new("esi").with_limit(limit));
            let classes: Vec<&str> = page.hits.iter().map(|h| h.class.as_str()).collect();
            assert_eq!(classes, vec!["esi.Cg", "esi.Ilu"], "limit {limit}");
            assert!(page.next.is_none());
        }
    }

    #[test]
    fn cursor_round_trips_through_encoding() {
        let c = QueryCursor {
            score: 123456,
            class: "esi.Cg".to_string(),
        };
        assert_eq!(QueryCursor::parse(&c.encode()), Some(c.clone()));
        assert!(QueryCursor::parse("v1:notanumber:esi.Cg").is_none());
        assert!(QueryCursor::parse("v2:1:esi.Cg").is_none());
        assert!(QueryCursor::parse("v1:1:").is_none());
        assert!(QueryCursor::parse("garbage").is_none());
        // Class names containing ':' survive (split_once keeps the rest).
        let odd = QueryCursor {
            score: 9,
            class: "a:b.C".to_string(),
        };
        assert_eq!(QueryCursor::parse(&odd.encode()), Some(odd));
    }

    #[test]
    fn short_needle_falls_back_to_scan() {
        let repo = demo_repo();
        // Two bytes — below trigram length, answered by the scan path.
        let page = repo.fuzzy(&FuzzyQuery::new("cg"));
        assert!(page.hits.iter().any(|h| h.class == "esi.Cg"));
    }
}
