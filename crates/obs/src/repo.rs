//! Global repository counters: deposits, lookups, fuzzy discovery.
//!
//! The sharded repository (`cca-repository`) reports here so the
//! `MonitorPort`/`DiscoveryPort` can answer "how hot is the
//! catalog" without walking shards. Like
//! [`resilience`](mod@crate::resilience), these are **not** gated by the
//! `counters` flag: a registration or a fuzzy query already allocates and
//! searches, so one relaxed `fetch_add` on top is noise — only the
//! exact-lookup counters sit near a hot path, and that path is a hash + one
//! shard-snapshot clone, where a relaxed add is still far below
//! measurement floor. Process-global, like [`crate::flags`].

use crate::counters::counter_block;
use std::sync::atomic::Ordering;

counter_block! {
    /// The process-wide repository counter block.
    pub struct RepoCounters => RepoSnapshot {
        /// Component registrations (single + batch).
        deposits => record_deposits(n),
        /// Exact class lookups that found their entry.
        exact_lookups => record_exact_lookup,
        /// Exact class lookups that missed.
        exact_misses => record_exact_miss,
        /// Fuzzy discovery queries served (first pages and continuations).
        fuzzy_queries,
        /// Entries returned across all fuzzy pages.
        fuzzy_hits,
        /// Entries a fuzzy query verified by substring: the posting-list
        /// survivors of every segment, or every entry when the needle is
        /// too short for trigrams.
        fuzzy_candidates => record_fuzzy_candidates(n),
        /// Verified entries that held the needle, whether or not the page
        /// (or its cursor) kept them.
        fuzzy_matches => record_fuzzy_matches(n),
        /// Continuation pages served from a `QueryCursor`.
        cursor_pages => record_cursor_page,
        /// Entries sorted and trigram-indexed by segment builds (appends
        /// rebuild a handful, folds a whole shard) — the work a
        /// publication does, whatever the box's clock says it cost.
        entries_indexed => record_entries_indexed(n),
        /// Folds of a shard's `recent` segment into its base.
        folds => record_fold,
    }
}

impl RepoCounters {
    /// Records one fuzzy query returning `hits` entries on its page.
    pub fn record_fuzzy_query(&self, hits: u64) {
        self.fuzzy_queries.fetch_add(1, Ordering::Relaxed);
        self.fuzzy_hits.fetch_add(hits, Ordering::Relaxed);
    }
}

static GLOBAL: RepoCounters = RepoCounters::new();

/// The process-global repository counter block.
pub fn repo() -> &'static RepoCounters {
    &GLOBAL
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        // Local block (the global one is shared with other tests).
        let c = RepoCounters::default();
        assert_eq!(c.snapshot(), RepoSnapshot::default());
        c.record_deposits(3);
        c.record_exact_lookup();
        c.record_exact_miss();
        c.record_fuzzy_query(10);
        c.record_fuzzy_query(0);
        c.record_fuzzy_candidates(7);
        c.record_fuzzy_matches(4);
        c.record_cursor_page();
        c.record_entries_indexed(9);
        c.record_entries_indexed(3);
        c.record_fold();
        let s = c.snapshot();
        assert_eq!(
            s,
            RepoSnapshot {
                deposits: 3,
                exact_lookups: 1,
                exact_misses: 1,
                fuzzy_queries: 2,
                fuzzy_hits: 10,
                fuzzy_candidates: 7,
                fuzzy_matches: 4,
                cursor_pages: 1,
                entries_indexed: 12,
                folds: 1,
            }
        );
    }

    #[test]
    fn snapshot_json_is_stable() {
        let c = RepoCounters::default();
        c.record_deposits(1);
        assert_eq!(
            c.snapshot().to_json(),
            "{\"deposits\":1,\"exact_lookups\":0,\"exact_misses\":0,\
             \"fuzzy_queries\":0,\"fuzzy_hits\":0,\"fuzzy_candidates\":0,\
             \"fuzzy_matches\":0,\"cursor_pages\":0,\
             \"entries_indexed\":0,\"folds\":0}"
        );
    }

    #[test]
    fn global_block_is_reachable() {
        let before = repo().snapshot().deposits;
        repo().record_deposits(1);
        assert!(repo().snapshot().deposits > before);
    }
}
