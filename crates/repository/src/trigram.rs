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

impl TrigramIndex {
    /// Builds the index over `texts[ordinal]` (each already lowercased).
    pub fn build(texts: &[impl AsRef<str>]) -> Self {
        // Pass 1: count occurrences per trigram to size the pool exactly.
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

    #[test]
    fn empty_index_is_fine() {
        let index = TrigramIndex::build(&[] as &[&str]);
        assert!(find(&index, "abc").is_empty());
        assert_eq!(index.distinct_trigrams(), 0);
    }
}
