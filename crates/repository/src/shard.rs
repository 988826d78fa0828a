//! The sharded component catalog: lock-free reads at million-entry scale.
//!
//! PR 1 rebuilt the per-component port tables as immutable [`Arc`]
//! snapshots behind a generation counter; this module lifts the same
//! clone-mutate-swap discipline to the repository. Entries are hashed by
//! class name across N shards. Each shard publishes an immutable
//! [`ShardSnapshot`] — entry tables *and* the trigram indexes built over
//! them — behind a briefly-held pointer lock, so a reader (exact lookup,
//! fuzzy query, `entries()` walk) clones two `Arc`s and then works on a
//! frozen world: no lock is held while searching, and a concurrent
//! deposit can never tear the view. Writers serialize per shard, build
//! the successor snapshot off-line and swap the pointer in O(1); the
//! successor carries the shard's generation, one past the snapshot it
//! replaces, so the generation needs no counter of its own.
//!
//! The shard count is fixed when the store is built. Nothing reshapes a
//! live store, so a reader reaches its shard by index — no store-wide
//! lock, no shared refcount — and a writer's shard lock is all that
//! stands between it and its publication.
//!
//! A snapshot is **two** immutable indexed [`Segment`]s, both built by the
//! one `Segment::build`: `base`, the bulk of the shard, shared untouched
//! from one publication to the next, and `recent`, the at most
//! `RECENT_MAX` entries deposited since `base` was built, disjoint from it
//! by class. That split is what lets a deposit cost what the entry costs.
//! Three publications exist, each one generation bump:
//!
//! * **append** — [`ShardedStore::try_insert`] of a new class while
//!   `recent` has room: rebuild `recent` alone (≤ `RECENT_MAX` entries),
//!   republish `base` by `Arc::clone`. O(1) in the shard.
//! * **fold** — `recent` is full, or the write is an overwrite or a
//!   [`try_remove`](ShardedStore::try_remove): rebuild `base ∪ recent`
//!   into one `base` with an empty `recent`. O(shard), every
//!   `RECENT_MAX + 1`-th deposit to a shard.
//! * **batch** — [`ShardedStore::try_insert_batch`] groups the batch by
//!   shard, locks every touched shard (in index order — no deadlock),
//!   validates **all-or-nothing** against both segments (a duplicate
//!   anywhere publishes nothing), then per shard appends when the bucket
//!   fits in `recent` and folds otherwise. A million-type populate is one
//!   fold per shard; a 64-entry batch is an append wherever two more fit.
//!
//! `recent` is indexed rather than scanned so that readers keep one code
//! path and pay nothing for it: a needle none of whose trigrams occur in
//! a shard's eight newest entries costs that segment one binary search.
//!
//! A segment is laid out so that a read touches contiguous memory: the
//! entry table, one text arena holding every entry's lowered search text
//! back to back, one open-addressed `u32` class table, and the postings
//! over the arena. An exact lookup is one hash and a probe or two; a
//! fuzzy query verifies its candidates against arena slices. A fold or an
//! append copies arena slices from the segments it replaces and lowers no
//! text again: lowering happens once, in [`StoredEntry::new`], before the
//! depositor takes a shard lock.

use crate::store::ComponentEntry;
use crate::trigram::{size_class, TrigramIndex};
use cca_core::CcaError;
use parking_lot::{Mutex, RwLock};
use std::sync::Arc;

/// Default shard count: enough that a million entries keep shards in the
/// tens of thousands (bounding single-insert republication cost) without
/// making tiny catalogs pay 64 snapshot allocations.
pub const DEFAULT_SHARDS: usize = 32;

/// One deposit in its normalized, search-ready form. The lowercased
/// texts are computed **once, at deposit time**, outside the shard locks;
/// the segment that takes the entry copies them into its text arena, and
/// queries compare against that arena directly instead of lowering every
/// entry on every search (the per-entry-per-query allocation the flat
/// store used to pay).
#[derive(Clone)]
pub struct StoredEntry {
    /// The registration itself.
    pub entry: ComponentEntry,
    /// `entry.class`, lowercased.
    pub lowered_class: String,
    /// The rest of the searchable text — port names, port types, and the
    /// description — lowercased and space-joined.
    pub lowered_aux: String,
}

impl StoredEntry {
    /// Normalizes an entry for storage.
    pub fn new(entry: ComponentEntry) -> Self {
        let lowered_class = entry.class.to_lowercase();
        let mut aux = String::new();
        for spec in entry.provides.iter().chain(entry.uses.iter()) {
            aux.push_str(&spec.name);
            aux.push(' ');
            aux.push_str(&spec.port_type);
            aux.push(' ');
        }
        aux.push_str(&entry.description);
        let lowered_aux = aux.to_lowercase();
        StoredEntry {
            entry,
            lowered_class,
            lowered_aux,
        }
    }
}

/// Most entries a shard's `recent` segment holds before the next deposit
/// folds it into `base`. Chosen by measurement (DESIGN §4i): a fold costs
/// what a populate of the shard costs, so the mean deposit is
/// fold ÷ (`RECENT_MAX` + 1), and a time-budgeted writer grows the catalog
/// — and the resident set — in inverse proportion to it.
const RECENT_MAX: usize = 8;

/// A free slot of a segment's class table.
const NO_ENTRY: u32 = u32::MAX;

/// FNV-1a, the classic stable string hash: deterministic across runs and
/// processes, so a class always lands on the same shard for a given
/// shard count (tests and cursors may rely on run-to-run stability).
fn fnv1a(key: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in key.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Where a class's probe starts in a table of `mask + 1` slots. Every
/// class of a shard shares `fnv1a`'s low bits (they picked the shard), so
/// the slot comes from the top half of a multiplicative mix of all 64.
#[inline]
fn home_slot(hash: u64, mask: usize) -> usize {
    (hash.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as usize & mask
}

/// A segment offset; a segment's text stays under 4 GiB.
fn offset(at: usize) -> u32 {
    u32::try_from(at).expect("a segment's text arena stays under 4 GiB")
}

/// One entry on its way into a segment being built.
enum Source<'a> {
    /// Entry `ordinal` of a published segment: cloned, its texts copied
    /// from that segment's arena, never lowered again.
    Kept(&'a Segment, usize),
    /// A deposit, normalized by [`StoredEntry::new`]: moved in.
    New(StoredEntry),
}

impl Source<'_> {
    fn class(&self) -> &str {
        match self {
            Source::Kept(segment, ordinal) => &segment.entries[*ordinal].class,
            Source::New(stored) => &stored.entry.class,
        }
    }

    /// The lowered class and the lowered rest.
    fn texts(&self) -> (&str, &str) {
        match self {
            Source::Kept(segment, ordinal) => segment.lowered(*ordinal),
            Source::New(stored) => (&stored.lowered_class, &stored.lowered_aux),
        }
    }
}

/// One immutable indexed run of entries, laid out so a read touches
/// contiguous memory: the entry table, one text arena, one class table
/// and the trigram postings over the arena, frozen together, so any
/// segment is internally consistent by construction.
pub struct Segment {
    /// Entries sorted by class name; the index into this vec is the
    /// ordinal the class table and the trigram postings refer to.
    entries: Vec<ComponentEntry>,
    /// Every entry's lowered class, one space and lowered rest, in ordinal
    /// order, back to back.
    arena: String,
    /// `starts[2i]` is where entry `i`'s lowered class starts in `arena`,
    /// `starts[2i + 1]` where its lowered rest starts (one past the
    /// space); `starts[2 · len]` is the arena's length.
    starts: Vec<u32>,
    /// class → ordinal, open-addressed: a power of two of slots, at least
    /// twice the entries, probed linearly from `home_slot(fnv1a(class))`;
    /// a hit is checked against `entries[ordinal].class`.
    slots: Box<[u32]>,
    /// Trigram postings over each entry's arena text.
    index: TrigramIndex,
}

impl Segment {
    /// Sorts and indexes `sources` (classes must be distinct). The only
    /// way a segment comes to be — `base` and `recent`, append and fold.
    fn build(mut sources: Vec<Source<'_>>) -> Arc<Self> {
        cca_obs::repo().record_entries_indexed(sources.len() as u64);
        // Stable: the kept entries arrive as sorted runs, which the sort
        // merges in linear time.
        sources.sort_by(|a, b| a.class().cmp(b.class()));
        let n = sources.len();
        let text: usize = sources
            .iter()
            .map(|s| s.texts())
            .map(|(class, aux)| class.len() + 1 + aux.len())
            .sum();
        // Long-lived blocks, sized once to a size class (see `size_class`).
        let mut arena = String::with_capacity(size_class(text));
        let mut starts = Vec::with_capacity(size_class(2 * n + 1));
        let mut entries = Vec::with_capacity(size_class(n));
        for source in sources {
            let (class, aux) = source.texts();
            starts.push(offset(arena.len()));
            arena.push_str(class);
            arena.push(' ');
            starts.push(offset(arena.len()));
            arena.push_str(aux);
            entries.push(match source {
                Source::Kept(segment, ordinal) => segment.entries[ordinal].clone(),
                Source::New(stored) => stored.entry,
            });
        }
        starts.push(offset(arena.len()));

        let mut slots = vec![NO_ENTRY; (2 * n).next_power_of_two()].into_boxed_slice();
        let mask = slots.len() - 1;
        for (ordinal, entry) in entries.iter().enumerate() {
            let mut i = home_slot(fnv1a(&entry.class), mask);
            while slots[i] != NO_ENTRY {
                i = (i + 1) & mask;
            }
            slots[i] = ordinal as u32;
        }

        let index = {
            let _span = cca_obs::span("repository.index");
            TrigramIndex::build_from_parts(n, |i| {
                [&arena.as_bytes()[starts[2 * i] as usize..starts[2 * i + 2] as usize]]
            })
        };
        Arc::new(Segment {
            entries,
            arena,
            starts,
            slots,
            index,
        })
    }

    /// Exact lookup by class name.
    pub fn get(&self, class: &str) -> Option<&ComponentEntry> {
        self.get_hashed(class, fnv1a(class))
    }

    /// Exact lookup by class name, its `fnv1a` given.
    fn get_hashed(&self, class: &str, hash: u64) -> Option<&ComponentEntry> {
        let mask = self.slots.len() - 1;
        let mut i = home_slot(hash, mask);
        loop {
            let ordinal = self.slots[i];
            if ordinal == NO_ENTRY {
                return None;
            }
            let entry = &self.entries[ordinal as usize];
            if entry.class == class {
                return Some(entry);
            }
            i = (i + 1) & mask;
        }
    }

    /// All entries, sorted by class name; the position of an entry is the
    /// ordinal this segment's trigram postings refer to.
    pub fn entries(&self) -> &[ComponentEntry] {
        &self.entries
    }

    /// Entry `ordinal`'s lowered class and lowered rest (port names and
    /// types, description), as the arena holds them.
    pub fn lowered(&self, ordinal: usize) -> (&str, &str) {
        let [class, aux, end] =
            [2 * ordinal, 2 * ordinal + 1, 2 * ordinal + 2].map(|i| self.starts[i] as usize);
        (&self.arena[class..aux - 1], &self.arena[aux..end])
    }

    /// This segment's trigram index.
    pub fn index(&self) -> &TrigramIndex {
        &self.index
    }

    /// Every entry, as the source of a segment being built.
    fn kept(&self) -> impl Iterator<Item = Source<'_>> {
        (0..self.entries.len()).map(move |ordinal| Source::Kept(self, ordinal))
    }
}

/// The immutable published state of one shard: two segments, disjoint by
/// class, that together hold every entry of the shard.
#[derive(Clone)]
pub struct ShardSnapshot {
    /// The shard generation this snapshot was published at.
    pub generation: u64,
    /// The bulk of the shard, as of the last fold.
    base: Arc<Segment>,
    /// At most `RECENT_MAX` entries deposited since.
    recent: Arc<Segment>,
}

impl ShardSnapshot {
    /// Both segments, `base` first. Every reader loops over this.
    pub fn segments(&self) -> [&Segment; 2] {
        [&self.base, &self.recent]
    }

    /// Exact lookup by class name: one hash, probed in `base`, then in
    /// `recent`.
    pub fn get(&self, class: &str) -> Option<&ComponentEntry> {
        self.get_hashed(class, fnv1a(class))
    }

    /// Exact lookup by class name, its `fnv1a` given.
    fn get_hashed(&self, class: &str, hash: u64) -> Option<&ComponentEntry> {
        self.segments()
            .into_iter()
            .find_map(|s| s.get_hashed(class, hash))
    }

    /// Entry count.
    pub fn len(&self) -> usize {
        self.base.entries.len() + self.recent.entries.len()
    }

    /// True when the shard holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

struct Shard {
    /// The published snapshot, generation included. Readers take the lock
    /// only long enough to clone its two `Arc`s; writers only to swap it.
    /// Held by value, not behind an `Arc` of its own: one pointer hop
    /// fewer per shard visit.
    snap: RwLock<ShardSnapshot>,
    /// Serializes writers of this shard (clone-mutate-swap must not race
    /// itself or the republication is a lost update).
    write: Mutex<()>,
}

impl Shard {
    fn new() -> Self {
        Shard {
            snap: RwLock::new(ShardSnapshot {
                generation: 0,
                base: Segment::build(Vec::new()),
                recent: Segment::build(Vec::new()),
            }),
            write: Mutex::new(()),
        }
    }

    fn snapshot(&self) -> ShardSnapshot {
        self.snap.read().clone()
    }

    /// Publishes the two segments as the next snapshot, one generation
    /// past the one it replaces. Caller holds `write`.
    fn publish(&self, base: Arc<Segment>, recent: Arc<Segment>) {
        let mut slot = self.snap.write();
        let next = ShardSnapshot {
            generation: slot.generation + 1,
            base,
            recent,
        };
        let replaced = std::mem::replace(&mut *slot, next);
        // Unlock first: whoever holds the last reference to a replaced
        // segment frees it, and that must never be the holder of the
        // pointer lock.
        drop(slot);
        drop(replaced);
    }

    /// Publishes everything `current` holds except the class `without`,
    /// plus `new`, as one `base` with an empty `recent`. Caller holds
    /// `write`.
    fn fold(&self, current: &ShardSnapshot, without: Option<&str>, new: Vec<StoredEntry>) {
        let _span = cca_obs::span("repository.fold");
        cca_obs::repo().record_fold();
        let mut sources = Vec::with_capacity(current.len() + new.len());
        sources.extend(
            current
                .segments()
                .into_iter()
                .flat_map(Segment::kept)
                .filter(|s| Some(s.class()) != without),
        );
        sources.extend(new.into_iter().map(Source::New));
        self.publish(Segment::build(sources), Segment::build(Vec::new()));
    }

    /// Publishes `current` plus `new` (classes absent from `current`):
    /// an append while `recent` has room for them, a fold otherwise.
    /// Caller holds `write`.
    fn deposit(&self, current: &ShardSnapshot, new: Vec<StoredEntry>) {
        if current.recent.entries.len() + new.len() <= RECENT_MAX {
            let _span = cca_obs::span("repository.append");
            let mut sources: Vec<Source<'_>> = current.recent.kept().collect();
            sources.extend(new.into_iter().map(Source::New));
            self.publish(Arc::clone(&current.base), Segment::build(sources));
        } else {
            self.fold(current, None, new);
        }
    }
}

/// A fixed set of shards, sized once at construction.
pub struct ShardedStore {
    shards: Box<[Shard]>,
}

impl ShardedStore {
    /// Creates an empty store with `shards` shards (at least 1).
    pub fn new(shards: usize) -> Self {
        let n = shards.max(1);
        ShardedStore {
            shards: (0..n).map(|_| Shard::new()).collect(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard a class name hashes to.
    fn shard_of(&self, class: &str) -> usize {
        self.shard_of_hash(fnv1a(class))
    }

    /// The shard a class whose `fnv1a` is `hash` hashes to.
    fn shard_of_hash(&self, hash: u64) -> usize {
        (hash % self.shards.len() as u64) as usize
    }

    /// The published snapshot of one shard.
    pub fn snapshot(&self, shard: usize) -> ShardSnapshot {
        self.shards[shard].snapshot()
    }

    /// Published snapshots of every shard (one frozen world per shard;
    /// cross-shard reads are not atomic with each other, which exact
    /// lookups and per-shard queries never need).
    pub fn snapshots(&self) -> Vec<ShardSnapshot> {
        self.shards.iter().map(Shard::snapshot).collect()
    }

    /// Per-shard generations, read from the published snapshots.
    pub fn generations(&self) -> Vec<u64> {
        self.shards
            .iter()
            .map(|s| s.snap.read().generation)
            .collect()
    }

    /// Exact lookup: hash to the shard, read its frozen snapshot, clone
    /// the entry.
    pub fn get(&self, class: &str) -> Option<ComponentEntry> {
        let hash = fnv1a(class);
        self.snapshot(self.shard_of_hash(hash))
            .get_hashed(class, hash)
            .cloned()
    }

    /// Total entries across shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.snapshot().len()).sum()
    }

    /// True when no shard holds entries.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.snapshot().is_empty())
    }

    /// Inserts one entry. `overwrite` distinguishes register (duplicate
    /// is an error) from re-deposit (replace in place). A new class is an
    /// append or, every `RECENT_MAX + 1`-th time, a fold; a replacement
    /// always folds.
    pub fn try_insert(&self, stored: StoredEntry, overwrite: bool) -> Result<(), CcaError> {
        let shard = &self.shards[self.shard_of(&stored.entry.class)];
        let _w = shard.write.lock();
        let current = shard.snapshot();
        if current.get(&stored.entry.class).is_none() {
            shard.deposit(&current, vec![stored]);
        } else if overwrite {
            let class = stored.entry.class.clone();
            shard.fold(&current, Some(&class), vec![stored]);
        } else {
            return Err(CcaError::ComponentAlreadyExists(stored.entry.class));
        }
        Ok(())
    }

    /// Inserts a batch, all-or-nothing: every touched shard is locked (in
    /// index order), every class validated against both segments of the
    /// existing snapshots *and* the batch itself, and only then does any
    /// shard publish — an append where its bucket fits in `recent`, a fold
    /// where not. A duplicate anywhere leaves the whole store untouched.
    pub fn try_insert_batch(&self, batch: Vec<StoredEntry>) -> Result<usize, CcaError> {
        if batch.is_empty() {
            return Ok(0);
        }
        let mut buckets: Vec<Vec<StoredEntry>> =
            (0..self.shards.len()).map(|_| Vec::new()).collect();
        for e in batch {
            buckets[self.shard_of(&e.entry.class)].push(e);
        }
        let touched: Vec<usize> = (0..buckets.len())
            .filter(|&i| !buckets[i].is_empty())
            .collect();
        // Lock in ascending shard order so concurrent batches can't
        // deadlock, then validate everything before publishing anything.
        let guards: Vec<_> = touched
            .iter()
            .map(|&i| self.shards[i].write.lock())
            .collect();
        let mut inserted = 0usize;
        for &i in &touched {
            let current = self.shards[i].snapshot();
            let bucket = &mut buckets[i];
            bucket.sort_by(|a, b| a.entry.class.cmp(&b.entry.class));
            for pair in bucket.windows(2) {
                if pair[0].entry.class == pair[1].entry.class {
                    return Err(CcaError::ComponentAlreadyExists(
                        pair[0].entry.class.clone(),
                    ));
                }
            }
            for e in bucket.iter() {
                if current.get(&e.entry.class).is_some() {
                    return Err(CcaError::ComponentAlreadyExists(e.entry.class.clone()));
                }
            }
            inserted += bucket.len();
        }
        for &i in &touched {
            let shard = &self.shards[i];
            shard.deposit(&shard.snapshot(), std::mem::take(&mut buckets[i]));
        }
        drop(guards);
        Ok(inserted)
    }

    /// Removes one entry by class (a fold, whichever segment held it).
    pub fn try_remove(&self, class: &str) -> Result<ComponentEntry, CcaError> {
        let shard = &self.shards[self.shard_of(class)];
        let _w = shard.write.lock();
        let current = shard.snapshot();
        let Some(removed) = current.get(class).cloned() else {
            return Err(CcaError::ComponentNotFound(class.to_string()));
        };
        shard.fold(&current, Some(class), Vec::new());
        Ok(removed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::PortSpec;
    use cca_core::{CcaServices, Component};
    use cca_data::TypeMap;

    struct Nop;
    impl Component for Nop {
        fn component_type(&self) -> &str {
            "t.Nop"
        }
        fn set_services(&self, _s: Arc<CcaServices>) -> Result<(), CcaError> {
            Ok(())
        }
    }

    fn entry(class: &str) -> StoredEntry {
        StoredEntry::new(ComponentEntry {
            class: class.into(),
            description: format!("The {class} Component"),
            provides: vec![PortSpec::new("go", "cca.ports.GoPort")],
            uses: vec![],
            properties: TypeMap::new(),
            factory: Arc::new(|| Arc::new(Nop) as Arc<dyn Component>),
        })
    }

    #[test]
    fn insert_get_remove_across_shards() {
        let store = ShardedStore::new(4);
        for i in 0..100 {
            store.try_insert(entry(&format!("p{i}.C")), false).unwrap();
        }
        assert_eq!(store.len(), 100);
        assert!(store.get("p42.C").is_some());
        assert!(store.get("p777.C").is_none());
        store.try_remove("p42.C").unwrap();
        assert!(store.get("p42.C").is_none());
        assert_eq!(store.len(), 99);
        assert!(store.try_remove("p42.C").is_err());
    }

    #[test]
    fn normalize_once_lowers_class_and_aux() {
        let e = entry("Esi.KrylovCG");
        assert_eq!(&*e.lowered_class, "esi.krylovcg");
        assert!(e.lowered_aux.contains("go cca.ports.goport"));
        assert!(e.lowered_aux.contains("the esi.krylovcg component"));
    }

    #[test]
    fn duplicate_single_insert_rejected_overwrite_replaces() {
        let store = ShardedStore::new(2);
        store.try_insert(entry("a.B"), false).unwrap();
        assert!(matches!(
            store.try_insert(entry("a.B"), false),
            Err(CcaError::ComponentAlreadyExists(_))
        ));
        let mut replacement = entry("a.B");
        replacement.entry.description = "replaced".into();
        store
            .try_insert(StoredEntry::new(replacement.entry), true)
            .unwrap();
        assert_eq!(store.get("a.B").unwrap().description, "replaced");
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn batch_is_all_or_nothing() {
        let store = ShardedStore::new(4);
        store.try_insert(entry("x.Existing"), false).unwrap();
        let before = store.generations();
        // Batch with a duplicate against the store: nothing publishes.
        let batch = vec![entry("a.A"), entry("b.B"), entry("x.Existing")];
        assert!(store.try_insert_batch(batch).is_err());
        assert_eq!(store.len(), 1);
        assert_eq!(store.generations(), before);
        // Batch with an internal duplicate: same.
        let batch = vec![entry("a.A"), entry("a.A")];
        assert!(store.try_insert_batch(batch).is_err());
        assert_eq!(store.len(), 1);
        // A clean batch lands everywhere.
        let n = store
            .try_insert_batch(vec![entry("a.A"), entry("b.B")])
            .unwrap();
        assert_eq!(n, 2);
        assert_eq!(store.len(), 3);
    }

    /// `(base, recent)` entry counts of a one-shard store.
    fn layout(store: &ShardedStore) -> (usize, usize) {
        let [base, recent] = store.snapshot(0).segments().map(|s| s.entries().len());
        (base, recent)
    }

    fn single(store: &ShardedStore, class: &str) {
        store.try_insert(entry(class), false).unwrap();
    }

    #[test]
    fn the_eighth_deposit_appends_and_the_ninth_folds() {
        let store = ShardedStore::new(1);
        for i in 0..RECENT_MAX {
            single(&store, &format!("p{i}.C"));
            assert_eq!(layout(&store), (0, i + 1), "appends leave base alone");
        }
        let base_before = Arc::as_ptr(&store.snapshot(0).base);
        single(&store, "late.Ninth");
        assert_eq!(layout(&store), (RECENT_MAX + 1, 0), "a full recent folds");
        assert_ne!(Arc::as_ptr(&store.snapshot(0).base), base_before);
        // The next deposit starts a new recent beside the folded base,
        // shared by pointer, not rebuilt.
        let folded = Arc::as_ptr(&store.snapshot(0).base);
        single(&store, "late.Tenth");
        assert_eq!(layout(&store), (RECENT_MAX + 1, 1));
        assert_eq!(Arc::as_ptr(&store.snapshot(0).base), folded);
        // One publication per deposit, every entry reachable from either
        // segment, and never from both.
        assert_eq!(store.generations(), vec![RECENT_MAX as u64 + 2]);
        assert_eq!(store.len(), RECENT_MAX + 2);
        let snap = store.snapshot(0);
        for class in (0..RECENT_MAX)
            .map(|i| format!("p{i}.C"))
            .chain(["late.Ninth".to_string(), "late.Tenth".to_string()])
        {
            assert!(store.get(&class).is_some(), "{class}");
            let holders = snap.segments().map(|s| s.get(&class).is_some());
            assert!(holders[0] != holders[1], "{class}");
        }
    }

    #[test]
    fn overwrite_and_remove_fold_whichever_segment_holds_the_class() {
        let store = ShardedStore::new(1);
        let base: Vec<StoredEntry> = (0..20).map(|i| entry(&format!("b{i:02}.C"))).collect();
        store.try_insert_batch(base).unwrap();
        single(&store, "r.Recent");
        assert_eq!(layout(&store), (20, 1));

        let replace = |class: &str| {
            let mut e = entry(class).entry;
            e.description = "replaced".into();
            store.try_insert(StoredEntry::new(e), true).unwrap();
            assert_eq!(store.get(class).unwrap().description, "replaced");
        };
        replace("r.Recent");
        assert_eq!(layout(&store), (21, 0), "overwrite in recent folds");
        single(&store, "r.Other");
        replace("b07.C");
        assert_eq!(
            layout(&store),
            (22, 0),
            "overwrite in base folds recent in too"
        );
        assert_eq!(store.len(), 22);

        single(&store, "r.Third");
        assert_eq!(layout(&store), (22, 1));
        let gone = store.try_remove("r.Third").unwrap();
        assert_eq!(gone.class, "r.Third");
        assert_eq!(layout(&store), (22, 0), "remove from recent folds");
        single(&store, "r.Fourth");
        store.try_remove("b00.C").unwrap();
        assert_eq!(
            layout(&store),
            (22, 0),
            "remove from base folds recent in too"
        );
        assert!(store.get("b00.C").is_none() && store.get("r.Third").is_none());
        assert!(store.get("r.Fourth").is_some() && store.get("r.Other").is_some());
        assert!(store.try_remove("r.Third").is_err());
    }

    #[test]
    fn a_batch_appends_while_it_fits_and_folds_when_it_overflows() {
        let store = ShardedStore::new(1);
        let batch = |from: usize, n: usize| -> Vec<StoredEntry> {
            (from..from + n)
                .map(|i| entry(&format!("p{i:02}.C")))
                .collect()
        };
        store.try_insert_batch(batch(0, 5)).unwrap();
        assert_eq!(layout(&store), (0, 5));
        store.try_insert_batch(batch(5, RECENT_MAX - 5)).unwrap();
        assert_eq!(
            layout(&store),
            (0, RECENT_MAX),
            "filling recent exactly still appends"
        );
        // A duplicate sitting in recent rejects the batch whole.
        let before = store.generations();
        let mut clash = batch(40, 2);
        clash.push(entry("p03.C"));
        assert!(store.try_insert_batch(clash).is_err());
        assert_eq!(store.generations(), before);
        assert_eq!(layout(&store), (0, RECENT_MAX));
        store.try_insert_batch(batch(20, 2)).unwrap();
        assert_eq!(
            layout(&store),
            (RECENT_MAX + 2, 0),
            "an overflowing bucket folds"
        );
        // ... as does one that never could have fit.
        store.try_insert_batch(batch(50, RECENT_MAX + 1)).unwrap();
        assert_eq!(layout(&store), (2 * RECENT_MAX + 3, 0));
        assert_eq!(store.generations(), vec![4], "one publication per batch");
        // And a duplicate sitting in base rejects too.
        let mut clash = batch(70, 1);
        clash.push(entry("p50.C"));
        assert!(store.try_insert_batch(clash).is_err());
        assert_eq!(store.generations(), vec![4]);
    }

    #[test]
    fn generations_bump_per_publication_and_snapshots_carry_them() {
        let store = ShardedStore::new(1);
        assert_eq!(store.generations(), vec![0]);
        store.try_insert(entry("a.A"), false).unwrap();
        store.try_insert(entry("b.B"), false).unwrap();
        assert_eq!(store.generations(), vec![2]);
        assert_eq!(store.snapshot(0).generation, 2);
    }

    /// An 8-shard store holding `entries`, deposited as one batch.
    fn with_entries(entries: Vec<StoredEntry>) -> ShardedStore {
        let store = ShardedStore::new(8);
        store.try_insert_batch(entries).unwrap();
        store
    }

    #[test]
    fn with_entries_distributes_deterministically() {
        let entries: Vec<StoredEntry> = (0..50).map(|i| entry(&format!("p{i}.C"))).collect();
        let a = with_entries(entries.clone());
        let b = with_entries(entries);
        for i in 0..8 {
            assert_eq!(
                a.snapshot(i).len(),
                b.snapshot(i).len(),
                "shard layout must be deterministic"
            );
        }
        assert_eq!(a.len(), 50);
        assert_eq!(a.shard_of("p1.C"), a.shard_of("p1.C"));
    }
}
