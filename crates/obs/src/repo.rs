//! Global repository counters: deposits, lookups, fuzzy discovery.
//!
//! The sharded repository (`cca-repository`) reports here so the
//! `ObservabilityPort`/`DiscoveryPort` can answer "how hot is the
//! catalog" without walking shards. Like [`crate::resilience`], these are
//! **not** gated by the `counters` flag: a registration or a fuzzy query
//! already allocates and searches, so one relaxed `fetch_add` on top is
//! noise — only the exact-lookup counters sit near a hot path, and that
//! path is a hash + one `Arc` clone, where a relaxed add is still far
//! below measurement floor. Process-global, like [`crate::flags`].

use std::sync::atomic::{AtomicU64, Ordering};

/// The process-wide repository counter block.
#[derive(Debug, Default)]
pub struct RepoCounters {
    deposits: AtomicU64,
    exact_lookups: AtomicU64,
    exact_misses: AtomicU64,
    fuzzy_queries: AtomicU64,
    fuzzy_hits: AtomicU64,
    cursor_pages: AtomicU64,
    rebalances: AtomicU64,
    entries_indexed: AtomicU64,
    folds: AtomicU64,
}

impl RepoCounters {
    /// Records `n` component registrations (single or batch deposit).
    pub fn record_deposits(&self, n: u64) {
        self.deposits.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one exact class lookup that found its entry.
    pub fn record_exact_lookup(&self) {
        self.exact_lookups.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one exact class lookup that missed.
    pub fn record_exact_miss(&self) {
        self.exact_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one fuzzy query returning `hits` entries on its page.
    pub fn record_fuzzy_query(&self, hits: u64) {
        self.fuzzy_queries.fetch_add(1, Ordering::Relaxed);
        self.fuzzy_hits.fetch_add(hits, Ordering::Relaxed);
    }

    /// Records one continuation page served from a `QueryCursor`.
    pub fn record_cursor_page(&self) {
        self.cursor_pages.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one store-wide reshard.
    pub fn record_rebalance(&self) {
        self.rebalances.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` entries passed through a segment build — the work a
    /// publication does, whatever the box's clock says it cost.
    pub fn record_entries_indexed(&self, n: u64) {
        self.entries_indexed.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one fold of a shard's `recent` segment into its base.
    pub fn record_fold(&self) {
        self.folds.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy.
    pub fn snapshot(&self) -> RepoSnapshot {
        RepoSnapshot {
            deposits: self.deposits.load(Ordering::Relaxed),
            exact_lookups: self.exact_lookups.load(Ordering::Relaxed),
            exact_misses: self.exact_misses.load(Ordering::Relaxed),
            fuzzy_queries: self.fuzzy_queries.load(Ordering::Relaxed),
            fuzzy_hits: self.fuzzy_hits.load(Ordering::Relaxed),
            cursor_pages: self.cursor_pages.load(Ordering::Relaxed),
            rebalances: self.rebalances.load(Ordering::Relaxed),
            entries_indexed: self.entries_indexed.load(Ordering::Relaxed),
            folds: self.folds.load(Ordering::Relaxed),
        }
    }

    /// Zeroes every counter (test isolation; counters are process-global).
    pub fn reset(&self) {
        self.deposits.store(0, Ordering::Relaxed);
        self.exact_lookups.store(0, Ordering::Relaxed);
        self.exact_misses.store(0, Ordering::Relaxed);
        self.fuzzy_queries.store(0, Ordering::Relaxed);
        self.fuzzy_hits.store(0, Ordering::Relaxed);
        self.cursor_pages.store(0, Ordering::Relaxed);
        self.rebalances.store(0, Ordering::Relaxed);
        self.entries_indexed.store(0, Ordering::Relaxed);
        self.folds.store(0, Ordering::Relaxed);
    }
}

/// A point-in-time copy of the global [`RepoCounters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RepoSnapshot {
    /// Component registrations (single + batch).
    pub deposits: u64,
    /// Exact class lookups that found their entry.
    pub exact_lookups: u64,
    /// Exact class lookups that missed.
    pub exact_misses: u64,
    /// Fuzzy discovery queries served (first pages and continuations).
    pub fuzzy_queries: u64,
    /// Entries returned across all fuzzy pages.
    pub fuzzy_hits: u64,
    /// Continuation pages served from a cursor.
    pub cursor_pages: u64,
    /// Store-wide reshards.
    pub rebalances: u64,
    /// Entries sorted and trigram-indexed by segment builds (appends
    /// rebuild a handful, folds a whole shard).
    pub entries_indexed: u64,
    /// Folds of a shard's `recent` segment into its base.
    pub folds: u64,
}

impl RepoSnapshot {
    /// JSON rendering (object; stable key order).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"deposits\":{},\"exact_lookups\":{},\"exact_misses\":{},\
             \"fuzzy_queries\":{},\"fuzzy_hits\":{},\"cursor_pages\":{},\
             \"rebalances\":{},\"entries_indexed\":{},\"folds\":{}}}",
            self.deposits,
            self.exact_lookups,
            self.exact_misses,
            self.fuzzy_queries,
            self.fuzzy_hits,
            self.cursor_pages,
            self.rebalances,
            self.entries_indexed,
            self.folds
        )
    }
}

static GLOBAL: RepoCounters = RepoCounters {
    deposits: AtomicU64::new(0),
    exact_lookups: AtomicU64::new(0),
    exact_misses: AtomicU64::new(0),
    fuzzy_queries: AtomicU64::new(0),
    fuzzy_hits: AtomicU64::new(0),
    cursor_pages: AtomicU64::new(0),
    rebalances: AtomicU64::new(0),
    entries_indexed: AtomicU64::new(0),
    folds: AtomicU64::new(0),
};

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
        c.record_deposits(3);
        c.record_exact_lookup();
        c.record_exact_miss();
        c.record_fuzzy_query(10);
        c.record_fuzzy_query(0);
        c.record_cursor_page();
        c.record_rebalance();
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
                cursor_pages: 1,
                rebalances: 1,
                entries_indexed: 12,
                folds: 1,
            }
        );
        c.reset();
        assert_eq!(c.snapshot(), RepoSnapshot::default());
    }

    #[test]
    fn snapshot_json_is_stable() {
        let c = RepoCounters::default();
        c.record_deposits(1);
        assert_eq!(
            c.snapshot().to_json(),
            "{\"deposits\":1,\"exact_lookups\":0,\"exact_misses\":0,\
             \"fuzzy_queries\":0,\"fuzzy_hits\":0,\"cursor_pages\":0,\
             \"rebalances\":0,\"entries_indexed\":0,\"folds\":0}"
        );
    }

    #[test]
    fn global_block_is_reachable() {
        let before = repo().snapshot().deposits;
        repo().record_deposits(1);
        assert!(repo().snapshot().deposits > before);
    }
}
