//! Trigram index: fuzzy/substring discovery over component and port
//! names at catalog scale.
//!
//! A linear scan answers "which of these names contains `krylov`" in
//! O(catalog), which is fine at hundreds of entries and hopeless at a
//! million. The index inverts the problem: every entry's *search text*
//! (lowercased class name, port names, port types, description — the
//! normalize-once form, see [`crate::shard`]) is decomposed into 3-byte
//! windows, and each distinct window maps to the sorted list of entry
//! ordinals containing it. A query then intersects the posting lists of
//! the needle's trigrams — starting from the rarest, so a selective
//! needle touches a few hundred ordinals, not the catalog — and only the
//! survivors are verified by a real substring check.
//!
//! The index is **immutable**: it is built once per shard snapshot and
//! shared by every reader of that snapshot (the clone-mutate-swap
//! discipline of PR 1). Scoring lives here too so that ranking is a pure
//! function of `(entry text, needle)` — the property that makes result
//! order independent of shard count and page boundaries.

/// One trigram, packed: three bytes of lowercased text in the low 24
/// bits. Packing keeps the map key `Copy` and the postings table compact.
pub type Trigram = u32;

/// Packs a 3-byte window. The input is already lowercased.
#[inline]
fn pack(window: &[u8]) -> Trigram {
    (window[0] as u32) << 16 | (window[1] as u32) << 8 | window[2] as u32
}

/// Emits every trigram of `text` (which must already be lowercased) into
/// `out`, deduplicated and sorted. Texts shorter than 3 bytes emit
/// nothing — they are only findable by the scan fallback.
pub fn trigrams_of(text: &str, out: &mut Vec<Trigram>) {
    out.clear();
    let bytes = text.as_bytes();
    if bytes.len() < 3 {
        return;
    }
    for w in bytes.windows(3) {
        out.push(pack(w));
    }
    out.sort_unstable();
    out.dedup();
}

/// Rounds a capacity up to one of sixteen steps per power of two (at most
/// 1/8 over). A segment's long-lived blocks — its entry table, its posting
/// pool — are rebuilt a few entries larger at every fold while readers
/// still hold the old ones, so an exactly-sized block never fits the hole
/// its predecessor, or any other shard's, leaves behind: the allocator
/// carves a larger hole or extends the heap, and resident memory creeps
/// with every fold (measured at 100k types: 7 KB a deposit, 139 MB after
/// 3,500 against 123 MB with classes). Classed, a freed block is the next
/// fold's block.
pub(crate) fn size_class(n: usize) -> usize {
    n.next_multiple_of((n.next_power_of_two() / 16).max(1))
}

/// The immutable postings table of one shard snapshot: trigram → sorted
/// entry ordinals. Stored as two parallel sorted arrays (keys + ranges
/// into one flat ordinal pool) so a million-entry shard costs one
/// allocation per array, not one per trigram.
#[derive(Debug, Default)]
pub struct TrigramIndex {
    /// Distinct trigrams, sorted ascending.
    keys: Vec<Trigram>,
    /// `spans[i]` is the half-open range of `postings` holding the
    /// ordinals for `keys[i]`.
    spans: Vec<(u32, u32)>,
    /// Flat, per-key-sorted ordinal pool.
    postings: Vec<u32>,
}

/// The key of a free slot: trigrams fill only the low 24 bits.
const FREE: Trigram = u32::MAX;
/// The `last` of a slot no text has reached yet in the current pass.
const UNSEEN: u32 = u32::MAX;

/// One distinct trigram in the counting table.
#[derive(Clone, Copy)]
struct Slot {
    key: Trigram,
    /// The ordinal of the last text that held `key`: a trigram repeated
    /// within one text is counted, and posted, once.
    last: u32,
    /// Pass 1: how many texts hold `key`. Pass 2: where in the posting
    /// pool its next ordinal goes.
    n: u32,
}

/// Open-addressed map from trigram to [`Slot`], probed linearly from a
/// multiplicative hash. It holds one slot per *distinct* trigram — a few
/// thousand in a catalog shard of a few hundred thousand windows.
struct SlotTable {
    slots: Vec<Slot>,
    /// Occupied slots.
    len: usize,
    /// `32 − log2(slots.len())`: the hash keeps its top bits.
    shift: u32,
}

impl SlotTable {
    /// A table for `windows` trigram windows, which hold at most that many
    /// distinct keys: one slot a window, rounded up to a power of two, and
    /// at most 4,096 to start. An appended segment's several hundred
    /// windows get as many slots; a shard's few hundred thousand windows
    /// hold a few thousand keys, and the table doubles as they come in.
    fn for_windows(windows: usize) -> Self {
        Self::with_slots(windows.next_power_of_two().clamp(16, 4096))
    }

    /// `slots` must be a power of two.
    fn with_slots(slots: usize) -> Self {
        let empty = Slot {
            key: FREE,
            last: UNSEEN,
            n: 0,
        };
        SlotTable {
            slots: vec![empty; slots],
            len: 0,
            shift: 32 - slots.trailing_zeros(),
        }
    }

    /// The slot holding `key`, or the free slot where it belongs.
    #[inline]
    fn position(&self, key: Trigram) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = (key.wrapping_mul(0x9e37_79b1) >> self.shift) as usize;
        loop {
            let at = self.slots[i].key;
            if at == key || at == FREE {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// Pass 1: counts `ordinal` under `key`, once per text.
    #[inline]
    fn count(&mut self, key: Trigram, ordinal: u32) {
        let i = self.position(key);
        let slot = &mut self.slots[i];
        if slot.key == FREE {
            *slot = Slot {
                key,
                last: ordinal,
                n: 1,
            };
            self.len += 1;
            if 4 * self.len > 3 * self.slots.len() {
                self.grow();
            }
        } else if slot.last != ordinal {
            slot.last = ordinal;
            slot.n += 1;
        }
    }

    /// Doubles the table and re-seats every occupied slot.
    fn grow(&mut self) {
        let old = std::mem::replace(self, Self::with_slots(2 * self.slots.len()));
        for slot in old.slots.into_iter().filter(|s| s.key != FREE) {
            let i = self.position(slot.key);
            self.slots[i] = slot;
        }
        self.len = old.len;
    }
}

/// Calls `f` with every 3-byte window of the concatenated `parts`, in
/// order, repeats included: a rolling 24-bit register, one shift per byte.
#[inline]
fn for_each_window<const N: usize>(parts: [&[u8]; N], mut f: impl FnMut(Trigram)) {
    let mut window: Trigram = 0;
    let mut bytes = 0usize;
    for part in parts {
        for &b in part {
            window = (window << 8 | b as Trigram) & 0x00ff_ffff;
            bytes += 1;
            if bytes >= 3 {
                f(window);
            }
        }
    }
}

impl TrigramIndex {
    /// Builds the index over `texts[ordinal]` (each already lowercased).
    pub fn build(texts: &[impl AsRef<str>]) -> Self {
        Self::build_from_parts(texts.len(), |ordinal| [texts[ordinal].as_ref().as_bytes()])
    }

    /// Builds the index over `count` texts, text `ordinal` being the
    /// concatenation of `parts(ordinal)` (already lowercased) — so a text
    /// held as several strings is indexed where it lies, never joined.
    ///
    /// Counting, not sorting: pass 1 walks every text and counts, per
    /// distinct trigram, the texts that hold it; the distinct keys — a few
    /// thousand — are sorted once and prefix-summed into `spans`; pass 2
    /// walks the texts again and writes each (trigram, ordinal) straight
    /// into its key's run of a pool allocated once. Texts go in ordinal
    /// order, so every run comes out ascending and deduplicated with no
    /// sort of its own, and no (trigram, ordinal) pair is ever stored.
    pub fn build_from_parts<'a, const N: usize>(
        count: usize,
        parts: impl Fn(usize) -> [&'a [u8]; N],
    ) -> Self {
        let windows: usize = (0..count)
            .map(|ordinal| parts(ordinal).iter().map(|p| p.len()).sum::<usize>())
            .map(|bytes| bytes.saturating_sub(2))
            .sum();
        let mut table = SlotTable::for_windows(windows);
        for ordinal in 0..count {
            for_each_window(parts(ordinal), |t| table.count(t, ordinal as u32));
        }

        let mut order: Vec<u32> = (0..table.slots.len() as u32)
            .filter(|&i| table.slots[i as usize].key != FREE)
            .collect();
        order.sort_unstable_by_key(|&i| table.slots[i as usize].key);
        let mut keys = Vec::with_capacity(order.len());
        let mut spans = Vec::with_capacity(order.len());
        let mut total = 0u32;
        for i in order {
            let slot = &mut table.slots[i as usize];
            let start = total;
            total += slot.n;
            keys.push(slot.key);
            spans.push((start, total));
            slot.n = start;
            slot.last = UNSEEN;
        }

        let mut postings = Vec::with_capacity(size_class(total as usize));
        postings.resize(total as usize, 0);
        for ordinal in 0..count {
            let posted = ordinal as u32;
            for_each_window(parts(ordinal), |t| {
                let i = table.position(t);
                let slot = &mut table.slots[i];
                if slot.last != posted {
                    slot.last = posted;
                    postings[slot.n as usize] = posted;
                    slot.n += 1;
                }
            });
        }
        TrigramIndex {
            keys,
            spans,
            postings,
        }
    }

    /// The posting list of one trigram (sorted ordinals), empty if absent.
    pub fn postings(&self, t: Trigram) -> &[u32] {
        match self.keys.binary_search(&t) {
            Ok(i) => {
                let (start, end) = self.spans[i];
                &self.postings[start as usize..end as usize]
            }
            Err(_) => &[],
        }
    }

    /// Ordinals whose text contains **every** trigram of the needle,
    /// given decomposed (the non-empty output of [`trigrams_of`], computed
    /// once per query and reused for every segment). Candidates only —
    /// the caller must still verify the substring, as trigram containment
    /// is necessary but not sufficient. Returns at the first trigram this
    /// index does not hold, before touching `out`'s allocation or making
    /// one of its own: a segment that cannot match costs a binary search.
    pub fn candidates(&self, needle_trigrams: &[Trigram], out: &mut Vec<u32>) {
        out.clear();
        let mut lists: Vec<&[u32]> = Vec::new();
        for &t in needle_trigrams {
            let list = self.postings(t);
            if list.is_empty() {
                return;
            }
            if lists.is_empty() {
                lists.reserve_exact(needle_trigrams.len());
            }
            lists.push(list);
        }
        // Rarest-first intersection: sorting the lists by length means the
        // working set can only shrink as fast as possible.
        lists.sort_unstable_by_key(|l| l.len());
        let Some((rarest, rest)) = lists.split_first() else {
            return;
        };
        out.extend_from_slice(rarest);
        for list in rest {
            if out.is_empty() {
                break;
            }
            // Galloping would win on skewed lists; at catalog trigram
            // densities the simple merge is already far off the hot path.
            let mut kept = 0;
            let mut i = 0;
            for k in 0..out.len() {
                let v = out[k];
                while i < list.len() && list[i] < v {
                    i += 1;
                }
                if i < list.len() && list[i] == v {
                    out[kept] = v;
                    kept += 1;
                }
            }
            out.truncate(kept);
        }
    }

    /// Number of distinct trigrams.
    pub fn distinct_trigrams(&self) -> usize {
        self.keys.len()
    }

    /// Total posting entries (memory proxy).
    pub fn posting_entries(&self) -> usize {
        self.postings.len()
    }

    /// Heap bytes the index holds: the capacities of its three arrays.
    pub fn heap_bytes(&self) -> usize {
        size_of::<Trigram>() * self.keys.capacity()
            + size_of::<(u32, u32)>() * self.spans.capacity()
            + size_of::<u32>() * self.postings.capacity()
    }
}

// ---------------------------------------------------------------------
// Scoring: a pure function of (entry text, needle).
// ---------------------------------------------------------------------

/// Where the needle was found, in priority order.
const CLASS_EXACT: u32 = 1 << 20;
const CLASS_PREFIX: u32 = 1 << 19;
const CLASS_BOUNDARY: u32 = 1 << 18;
const CLASS_SUBSTRING: u32 = 1 << 17;
const AUX_SUBSTRING: u32 = 1 << 16;

/// Scores a match of `lowered_needle` against an entry whose lowercased
/// class name is `class` and whose remaining searchable text (port
/// names/types, description) is `aux`. Returns `None` when the needle
/// occurs in neither. Higher is better.
///
/// The score is deterministic and depends only on the two texts and the
/// needle — never on shard layout, insertion order, or page position —
/// so rankings are identical at any shard count and stable under
/// pagination (the properties `shard_proptest.rs` pins). Ties are broken by class name
/// at sort time.
pub fn score_match(class: &str, aux: &str, lowered_needle: &str) -> Option<u32> {
    debug_assert!(!lowered_needle.is_empty());
    if let Some(pos) = class.find(lowered_needle) {
        let mut score = CLASS_SUBSTRING;
        if class.len() == lowered_needle.len() {
            score |= CLASS_EXACT;
        }
        if pos == 0 {
            score |= CLASS_PREFIX;
        } else if class.as_bytes()[pos - 1] == b'.' {
            // Package-boundary hit: "solver" inside "esi.solvercg" ranks
            // above the same needle buried mid-word.
            score |= CLASS_BOUNDARY;
        }
        // Earlier and tighter matches rank higher; both penalties are
        // bounded so they never cross a category boundary.
        score += 30_000 - (pos as u32).min(10_000);
        score -= (class.len() as u32).min(10_000);
        Some(score)
    } else if let Some(pos) = aux.find(lowered_needle) {
        let mut score = AUX_SUBSTRING;
        score += 30_000 - (pos as u32).min(10_000);
        score -= (aux.len() as u32).min(10_000);
        Some(score)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn find(index: &TrigramIndex, needle: &str) -> Vec<u32> {
        let (mut needle_trigrams, mut out) = (Vec::new(), Vec::new());
        trigrams_of(needle, &mut needle_trigrams);
        assert!(!needle_trigrams.is_empty(), "needle >= 3");
        index.candidates(&needle_trigrams, &mut out);
        out
    }

    #[test]
    fn build_and_intersect() {
        let texts = ["esi.cg solver", "esi.ilu precond", "viz.plot render"];
        let index = TrigramIndex::build(&texts);
        assert_eq!(find(&index, "esi"), vec![0, 1]);
        assert_eq!(find(&index, "solver"), vec![0]);
        assert_eq!(find(&index, "render"), vec![2]);
        assert!(find(&index, "zzz").is_empty());
        assert!(index.distinct_trigrams() > 0);
        assert!(index.posting_entries() >= index.distinct_trigrams());
    }

    #[test]
    fn short_needles_decline() {
        let mut tris = vec![7];
        trigrams_of("ab", &mut tris);
        assert!(tris.is_empty());
        trigrams_of("", &mut tris);
        assert!(tris.is_empty());
        trigrams_of("abc", &mut tris);
        assert_eq!(tris.len(), 1);
    }

    #[test]
    fn an_absent_trigram_clears_stale_candidates() {
        let index = TrigramIndex::build(&["abcd"]);
        let mut out = vec![9, 9];
        // "bcd" present, "cde" absent: nothing survives, nothing stale.
        let mut tris = Vec::new();
        trigrams_of("bcde", &mut tris);
        index.candidates(&tris, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn candidates_superset_of_substring_matches() {
        let texts = ["aabbaabb", "abcabc", "xxabcxx", "aaxbb"];
        let index = TrigramIndex::build(&texts);
        let c = find(&index, "abc");
        // Every true substring match is a candidate.
        for (i, t) in texts.iter().enumerate() {
            if t.contains("abc") {
                assert!(c.contains(&(i as u32)), "missing {i}");
            }
        }
    }

    #[test]
    fn scoring_prefers_exact_then_prefix_then_boundary() {
        let n = "solver";
        let exact = score_match("solver", "", n).unwrap();
        let prefix = score_match("solvercg", "", n).unwrap();
        let boundary = score_match("esi.solvercg", "", n).unwrap();
        let sub = score_match("mysolvercg", "", n).unwrap();
        let aux = score_match("esi.cg", "solver op", n).unwrap();
        assert!(exact > prefix, "{exact} {prefix}");
        assert!(prefix > boundary, "{prefix} {boundary}");
        assert!(boundary > sub, "{boundary} {sub}");
        assert!(sub > aux, "{sub} {aux}");
        assert!(score_match("esi.cg", "precond", n).is_none());
    }

    #[test]
    fn scoring_prefers_tighter_names() {
        let n = "cg";
        let tight = score_match("esi.cg", "", n).unwrap();
        let loose = score_match("esi.cgacceleratedgradientfactory", "", n).unwrap();
        assert!(tight > loose);
    }

    /// The pair-sort build the counting build replaced: every (trigram,
    /// ordinal) pair in one vector, sorted. Kept as the oracle the
    /// counting build must match bit for bit.
    fn build_by_sort(texts: &[impl AsRef<str>]) -> TrigramIndex {
        let mut pairs: Vec<(Trigram, u32)> = Vec::new();
        let mut scratch = Vec::new();
        for (ordinal, text) in texts.iter().enumerate() {
            trigrams_of(text.as_ref(), &mut scratch);
            for &t in &scratch {
                pairs.push((t, ordinal as u32));
            }
        }
        // Trigram-major, ordinal-minor: each key's posting run comes out
        // sorted, and runs are contiguous.
        pairs.sort_unstable();
        let mut keys = Vec::new();
        let mut spans = Vec::new();
        let mut postings = Vec::with_capacity(size_class(pairs.len()));
        for (t, ordinal) in pairs {
            if keys.last() != Some(&t) {
                if let Some(last) = spans.last_mut() {
                    let l: &mut (u32, u32) = last;
                    l.1 = postings.len() as u32;
                }
                keys.push(t);
                spans.push((postings.len() as u32, postings.len() as u32));
            }
            postings.push(ordinal);
        }
        if let Some(last) = spans.last_mut() {
            last.1 = postings.len() as u32;
        }
        TrigramIndex {
            keys,
            spans,
            postings,
        }
    }

    /// Asserts the counting build and the pair sort agree exactly.
    fn same_as_the_pair_sort(texts: &[String]) {
        let counted = TrigramIndex::build(texts);
        let sorted = build_by_sort(texts);
        assert_eq!(counted.keys, sorted.keys);
        assert_eq!(counted.spans, sorted.spans);
        assert_eq!(counted.postings, sorted.postings);
        assert_eq!(counted.postings.capacity(), sorted.postings.capacity());
    }

    /// Doublings the counting table makes over `texts`.
    fn table_doublings(texts: &[String]) -> u32 {
        let windows = texts.iter().map(|t| t.len().saturating_sub(2)).sum();
        let mut table = SlotTable::for_windows(windows);
        let start = table.slots.len();
        for (ordinal, text) in texts.iter().enumerate() {
            for_each_window([text.as_bytes()], |t| table.count(t, ordinal as u32));
        }
        (table.slots.len() / start).trailing_zeros()
    }

    /// Texts of `chars` drawn mostly from a small alphabet, so trigrams
    /// repeat within and across texts, with some arbitrary scalar values
    /// (multi-byte UTF-8) mixed in.
    fn arb_text(chars: std::ops::Range<usize>) -> impl Strategy<Value = String> {
        collection::vec(
            prop_oneof![
                (0u8..4).prop_map(|b| (b'a' + b) as char),
                Just(' '),
                any::<char>(),
            ],
            chars,
        )
        .prop_map(|cs| cs.into_iter().collect())
    }

    /// One text of `chars` characters nearly all of whose windows are
    /// distinct trigrams: enough to double the counting table repeatedly.
    fn arb_wide_text(chars: usize) -> impl Strategy<Value = String> {
        collection::vec(any::<u32>(), chars).prop_map(|draws| {
            draws
                .into_iter()
                .map(|d| char::from_u32(0x20 + d % 0x2000).unwrap_or('x'))
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn counting_build_matches_the_pair_sort(
            texts in collection::vec(arb_text(0..40), 0..60),
            wide in collection::vec(arb_wide_text(4_000), 0..3),
        ) {
            same_as_the_pair_sort(&texts);
            // Empty and sub-trigram texts among longer ones, and a trigram
            // repeated within one text.
            let mut edged = texts.clone();
            edged.extend(["", "a", "ab", "ababab", "é", "aaaa"].map(String::from));
            edged.rotate_left(texts.len() / 2);
            same_as_the_pair_sort(&edged);
            // Thousands of distinct trigrams: the table doubles at least
            // twice on the way.
            if !wide.is_empty() {
                let mut grown = wide.clone();
                grown.extend(texts);
                assert!(table_doublings(&grown) >= 2, "{}", table_doublings(&grown));
                same_as_the_pair_sort(&grown);
            }
        }
    }

    #[test]
    fn a_text_in_parts_indexes_as_its_concatenation() {
        let whole = ["esi.cg solver", "ab", "", "viz.plot render"];
        let parts = [
            ["esi.cg", " ", "solver"],
            ["a", "", "b"],
            ["", "", ""],
            ["v", "iz.plot ren", "der"],
        ];
        let joined = TrigramIndex::build_from_parts(parts.len(), |i| parts[i].map(str::as_bytes));
        let reference = TrigramIndex::build(&whole);
        assert_eq!(joined.keys, reference.keys);
        assert_eq!(joined.spans, reference.spans);
        assert_eq!(joined.postings, reference.postings);
    }

    #[test]
    fn empty_index_is_fine() {
        let index = TrigramIndex::build(&[] as &[&str]);
        assert!(find(&index, "abc").is_empty());
        assert_eq!(index.distinct_trigrams(), 0);
    }
}
