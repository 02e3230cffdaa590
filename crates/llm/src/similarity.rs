//! Interned surface-form evidence: the allocation-free fast path behind
//! [`taxoglimpse_core::text::trigram_similarity`] and friends.
//!
//! The knowledge model weighs surface evidence on every question —
//! child↔candidate trigram similarity, whole-name containment,
//! head-noun matches — and a Tables 5–7 grid asks hundreds of
//! thousands of questions over a vocabulary of at most a few thousand
//! distinct names per dataset. Recomputing a name's lowercase form and
//! sorted trigram set on every call (an allocation, a byte pass, a
//! sort) would be the hottest allocation site of the whole query path.
//! [`SimilarityCache`] interns each unique name's [`TrigramSet`] once
//! per thread, and a question resolves each of its names (child,
//! candidate, true parent, every option) with one lookup into an
//! [`Interned`] handle; every comparison it then makes reads the
//! resolved sets. The interner hashes with the workspace's own
//! [`StreamHasher`], word at a time, rather than SipHash.
//!
//! Results are *definitionally* identical to the direct functions: the
//! cache stores the very [`TrigramSet`] the direct function builds
//! (`tests` plus `tests/perf_equivalence.rs` fuzz the equivalence), so
//! determinism — the repo's core invariant — is untouched.
//!
//! The cache is thread-local (see [`with_cache`]): grid workers never
//! contend on a lock, and a `KnowledgeModel` stays `Copy`. Memory is
//! bounded by [`MAX_ENTRIES`]; overflowing vocabularies (no real
//! taxonomy comes close) drop the cache and rebuild.

use std::cell::RefCell;
// lint:allow(D001, interner is lookup-only: entries are keyed by exact name and never iterated, so hash order cannot reach any output)
use std::collections::HashMap;
use std::hash::BuildHasher;
use std::rc::Rc;
use taxoglimpse_core::text::TrigramSet;
use taxoglimpse_synth::rng::StreamHasher;

/// Hard cap on interned names per thread before the cache resets.
pub const MAX_ENTRIES: usize = 1 << 20;

/// Builds the interner's [`StreamHasher`]s (one fixed seed: the map is
/// never iterated, so its hash values reach no output).
#[derive(Debug, Default, Clone, Copy)]
struct NameHash;

impl BuildHasher for NameHash {
    type Hasher = StreamHasher;

    fn build_hasher(&self) -> StreamHasher {
        StreamHasher::new(0x1A7E_4A3E)
    }
}

/// Per-thread interner from name to [`TrigramSet`].
#[derive(Debug, Default)]
pub struct SimilarityCache {
    // lint:allow(D001, hot-path interner: O(1) probes beat BTreeMap here and the map is never iterated)
    map: RefCell<HashMap<Box<str>, Rc<TrigramSet>, NameHash>>,
}

impl SimilarityCache {
    /// An empty cache.
    pub fn new() -> SimilarityCache {
        SimilarityCache::default()
    }

    /// Number of interned names.
    pub fn len(&self) -> usize {
        self.map.borrow().len()
    }

    /// Whether no name has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Intern `s`, computing its trigram set on first sight.
    pub fn entry(&self, s: &str) -> Rc<TrigramSet> {
        if let Some(e) = self.map.borrow().get(s) {
            return Rc::clone(e);
        }
        let entry = Rc::new(TrigramSet::new(s));
        let mut map = self.map.borrow_mut();
        if map.len() >= MAX_ENTRIES {
            map.clear();
        }
        map.insert(Box::from(s), Rc::clone(&entry));
        entry
    }

    /// Resolve `name` once for any number of comparisons.
    pub fn resolve<'a>(&self, name: &'a str) -> Interned<'a> {
        Interned { name, set: self.entry(name) }
    }

    /// Character-trigram Jaccard similarity, case-insensitive —
    /// identical to [`taxoglimpse_core::text::trigram_similarity`],
    /// served from the interned sets.
    pub fn similarity(&self, a: &str, b: &str) -> f64 {
        self.resolve(a).similarity(&self.resolve(b))
    }
}

/// A name resolved against the interner: its spelling and its interned
/// [`TrigramSet`].
#[derive(Debug, Clone)]
pub struct Interned<'a> {
    name: &'a str,
    set: Rc<TrigramSet>,
}

impl Interned<'_> {
    /// Trigram similarity; one shared entry (the same name) is 1.0
    /// without a merge.
    pub fn similarity(&self, other: &Interned<'_>) -> f64 {
        if Rc::ptr_eq(&self.set, &other.set) {
            return 1.0;
        }
        self.set.jaccard(&other.set)
    }

    /// Whole-name containment as the knowledge model defines it:
    /// `concept` is at least four bytes and its lowercase form appears
    /// in this name's lowercase form.
    pub fn contains(&self, concept: &Interned<'_>) -> bool {
        concept.name.len() >= 4 && self.set.lower().contains(concept.set.lower())
    }

    /// Head-noun match as the knowledge model defines it: the last
    /// space-separated word of `concept`, singular-ized by stripping a
    /// trailing lowercase `s`, appears (length ≥ 3) in this name,
    /// case-insensitively.
    pub fn head_matches(&self, concept: &Interned<'_>) -> bool {
        let head_start = concept.name.rfind(' ').map(|i| i + 1).unwrap_or(0);
        let head = &concept.name[head_start..];
        // Strip the suffix on the *original* spelling — a trailing
        // uppercase `S` is deliberately not stripped by the reference
        // implementation — then reuse the cached lowercase bytes, which
        // align byte-for-byte with the original (ASCII lowering
        // preserves length).
        let head = head.strip_suffix('s').unwrap_or(head);
        if head.len() < 3 {
            return false;
        }
        let head_lower = &concept.set.lower()[head_start..head_start + head.len()];
        self.set.lower().contains(head_lower)
    }
}

thread_local! {
    static THREAD_CACHE: SimilarityCache = SimilarityCache::new();
}

/// Run `f` against this thread's interner. Grid workers each get their
/// own cache, so the hot path never takes a lock; within one worker a
/// dataset's vocabulary is interned once and reused for every model,
/// level, and prompt setting it evaluates.
pub fn with_cache<R>(f: impl FnOnce(&SimilarityCache) -> R) -> R {
    THREAD_CACHE.with(f)
}

/// Cached [`taxoglimpse_core::text::trigram_similarity`].
pub fn cached_similarity(a: &str, b: &str) -> f64 {
    with_cache(|c| c.similarity(a, b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use taxoglimpse_core::text::trigram_similarity;

    /// Reference copies of the knowledge model's private helpers, so a
    /// drift in either place fails loudly here.
    fn direct_contains(name: &str, concept: &str) -> bool {
        concept.len() >= 4 && name.to_ascii_lowercase().contains(&concept.to_ascii_lowercase())
    }

    fn direct_head_matches(name: &str, concept: &str) -> bool {
        let head = concept.split(' ').next_back().unwrap_or(concept);
        let head = head.strip_suffix('s').unwrap_or(head);
        if head.len() < 3 {
            return false;
        }
        name.to_ascii_lowercase().contains(&head.to_ascii_lowercase())
    }

    const CORPUS: [&str; 14] = [
        "",
        "a",
        "ab",
        "abc",
        "ABC",
        "Verbascum chaixii",
        "Verbascum",
        "Wireless Speakers",
        "Audio",
        "CARS",
        "cars",
        "Pencils",
        "acute cardiac lesion AE",
        "naïve café names",
    ];

    #[test]
    fn similarity_matches_direct_on_corpus() {
        let cache = SimilarityCache::new();
        for a in CORPUS {
            for b in CORPUS {
                assert_eq!(
                    cache.similarity(a, b),
                    trigram_similarity(a, b),
                    "similarity({a:?}, {b:?})"
                );
            }
        }
    }

    #[test]
    fn containment_and_heads_match_direct_on_corpus() {
        let cache = SimilarityCache::new();
        for a in CORPUS {
            for b in CORPUS {
                let (name, concept) = (cache.resolve(a), cache.resolve(b));
                assert_eq!(name.contains(&concept), direct_contains(a, b), "contains({a:?}, {b:?})");
                assert_eq!(
                    name.head_matches(&concept),
                    direct_head_matches(a, b),
                    "head_matches({a:?}, {b:?})"
                );
            }
        }
    }

    #[test]
    fn names_are_interned_once() {
        let cache = SimilarityCache::new();
        cache.similarity("Verbascum chaixii", "Verbascum");
        cache.similarity("Verbascum chaixii", "Silene");
        assert_eq!(cache.len(), 3);
        let a = cache.entry("Verbascum");
        let b = cache.entry("Verbascum");
        assert!(Rc::ptr_eq(&a, &b));
    }

    #[test]
    fn uppercase_trailing_s_is_not_stripped() {
        // The reference strips only a lowercase `s`; "CARS" keeps it
        // and must therefore not head-match "three car garage".
        let cache = SimilarityCache::new();
        let head_matches = |name, concept| cache.resolve(name).head_matches(&cache.resolve(concept));
        assert!(!head_matches("three car garage", "CARS"));
        assert!(head_matches("three cars here", "CARS"));
        assert!(head_matches("Compact Pencil X137", "Pencils"));
    }

    #[test]
    fn thread_cache_is_reused() {
        with_cache(|c| {
            c.similarity("alpha beta", "beta gamma");
        });
        let before = with_cache(SimilarityCache::len);
        assert_eq!(cached_similarity("alpha beta", "beta gamma"), trigram_similarity("alpha beta", "beta gamma"));
        assert_eq!(with_cache(SimilarityCache::len), before);
    }
}
