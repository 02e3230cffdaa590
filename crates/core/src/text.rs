//! Text primitives shared by the whole workspace: the trigram
//! similarity the simulated models use as their embedding substitute
//! (and the hierarchical router scores regions with), the approximate
//! token count behind every prompt-cost figure, and the digest that
//! pins report bytes.
//!
//! Each has exactly one implementation here; the llm crate, the
//! hierarchical workload, the detailed-run analysis, the benches and the
//! tests all call these.

use taxoglimpse_json::ToJson;
use taxoglimpse_synth::rng::{hash_str, mix64};

/// The byte trigrams of `name`, ASCII-lowercased and packed big-endian
/// into the low 24 bits of a `u32`, in window order with repeats. The
/// packing sorts exactly like the `[u8; 3]` it encodes.
pub(crate) fn grams(name: &str) -> impl Iterator<Item = u32> + '_ {
    let mut gram = 0u32;
    name.bytes().enumerate().filter_map(move |(i, b)| {
        gram = (gram << 8 | u32::from(b.to_ascii_lowercase())) & 0xFF_FFFF;
        (i >= 2).then_some(gram)
    })
}

/// A name's deduplicated, sorted byte trigrams (ASCII-lowercased,
/// packed into `u32`s) and its ASCII-lowercased form.
#[derive(Debug, Clone, Default)]
pub struct TrigramSet {
    grams: Vec<u32>,
    lower: String,
}

impl TrigramSet {
    /// Build the trigram set of `name`.
    pub fn new(name: &str) -> Self {
        // One exact-size gram buffer, and the lowered name collected char
        // by char (the same bytes as `str::to_ascii_lowercase`): this is
        // the allocation pattern `HierWorkload::build`'s RSS and reload
        // timings were measured with (DESIGN.md §13).
        let mut grams = Vec::with_capacity(name.len().saturating_sub(2));
        grams.extend(self::grams(name));
        grams.sort_unstable();
        grams.dedup();
        TrigramSet { grams, lower: name.chars().map(|c| c.to_ascii_lowercase()).collect() }
    }

    /// The ASCII-lowercased name.
    pub fn lower(&self) -> &str {
        &self.lower
    }

    /// Trigram Jaccard similarity in `[0, 1]`; names under three bytes
    /// fall back to case-insensitive equality.
    ///
    /// The merge is branch-free: each step advances whichever side holds
    /// the smaller gram (both on a match), so the only branch left is the
    /// loop bound and the order of gram values cannot be mispredicted.
    pub fn jaccard(&self, other: &TrigramSet) -> f64 {
        let (a, b) = (&self.grams[..], &other.grams[..]);
        if a.is_empty() || b.is_empty() {
            return if self.lower == other.lower { 1.0 } else { 0.0 };
        }
        let (mut i, mut j, mut inter) = (0, 0, 0usize);
        while i < a.len() && j < b.len() {
            let (x, y) = (a[i], b[j]);
            inter += usize::from(x == y);
            i += usize::from(x <= y);
            j += usize::from(y <= x);
        }
        inter as f64 / (a.len() + b.len() - inter) as f64
    }
}

/// Character-trigram Jaccard similarity of `a` and `b`,
/// case-insensitive (see [`TrigramSet::jaccard`]).
pub fn trigram_similarity(a: &str, b: &str) -> f64 {
    TrigramSet::new(a).jaccard(&TrigramSet::new(b))
}

/// Maximum characters one token spans; longer runs are chunked.
const MAX_TOKEN_CHARS: usize = 6;

/// Character classes of the token rule.
const WHITESPACE: u8 = 0;
const ALNUM: u8 = 1;
const OTHER: u8 = 2;

/// [`char_class`] of every ASCII byte: for ASCII, `char::is_alphanumeric`
/// is `[0-9A-Za-z]` and `char::is_whitespace` is `\t \n \x0b \x0c \r`
/// and space (`\x0b` is Unicode whitespace but not
/// `u8::is_ascii_whitespace`).
const ASCII_CLASS: [u8; 128] = {
    let mut table = [OTHER; 128];
    let mut b = 0;
    while b < 128 {
        let c = b as u8;
        if matches!(c, b'\t' | b'\n' | b'\x0b' | b'\x0c' | b'\r' | b' ') {
            table[b] = WHITESPACE;
        } else if c.is_ascii_alphanumeric() {
            table[b] = ALNUM;
        }
        b += 1;
    }
    table
};

fn char_class(c: char) -> u8 {
    if c.is_whitespace() {
        WHITESPACE
    } else if c.is_alphanumeric() {
        ALNUM
    } else {
        OTHER
    }
}

/// Approximate LLM token count of `text`: whitespace-separated words
/// split into alternating alphanumeric/other runs, each run costing
/// `ceil(chars / 6)` tokens (≈ 4 characters per token for English).
pub fn token_count(text: &str) -> usize {
    let mut counter = TokenCounter::default();
    counter.push_str(text);
    counter.finish()
}

/// Streaming form of [`token_count`]: the count of the concatenation
/// of every pushed piece, so a long text never has to be materialized.
/// A run may span pieces.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct TokenCounter {
    tokens: usize,
    run_chars: usize,
    run_class: u8,
}

impl TokenCounter {
    /// Append `text`.
    pub fn push_str(&mut self, text: &str) {
        if text.is_ascii() {
            self.push_classes(text.bytes().map(|b| ASCII_CLASS[usize::from(b)]));
        } else {
            self.push_classes(text.chars().map(char_class));
        }
    }

    fn push_classes(&mut self, classes: impl Iterator<Item = u8>) {
        let TokenCounter { mut tokens, mut run_chars, mut run_class } = *self;
        for class in classes {
            if class != run_class {
                if run_class != WHITESPACE {
                    tokens += run_chars.div_ceil(MAX_TOKEN_CHARS);
                }
                run_class = class;
                run_chars = 0;
            }
            run_chars += 1;
        }
        *self = TokenCounter { tokens, run_chars, run_class };
    }

    /// The token count of everything pushed.
    pub fn finish(self) -> usize {
        let open = if self.run_class == WHITESPACE { 0 } else { self.run_chars };
        self.tokens + open.div_ceil(MAX_TOKEN_CHARS)
    }
}

/// Order-sensitive digest over the compact JSON of every report — the
/// fingerprint that pinned report digests and bench `report_digest`s
/// are recorded in.
pub fn reports_digest<T: ToJson>(reports: &[T]) -> u64 {
    reports
        .iter()
        .fold(0xBA5E_11AE, |acc, r| mix64(acc ^ hash_str(0x5EED, &r.to_json().render())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use taxoglimpse_synth::rng::{fork, Rng};
    use taxoglimpse_synth::{generate, GenOptions, TaxonomyKind};

    /// Reference Jaccard over `[u8; 3]` trigrams, sorted and deduplicated.
    fn reference_similarity(a: &str, b: &str) -> f64 {
        fn trigrams(s: &str) -> Vec<[u8; 3]> {
            let lower = s.to_ascii_lowercase();
            let mut grams: Vec<[u8; 3]> =
                lower.as_bytes().windows(3).map(|w| [w[0], w[1], w[2]]).collect();
            grams.sort_unstable();
            grams.dedup();
            grams
        }
        let (ta, tb) = (trigrams(a), trigrams(b));
        if ta.is_empty() || tb.is_empty() {
            return if a.eq_ignore_ascii_case(b) { 1.0 } else { 0.0 };
        }
        let inter = ta.iter().filter(|g| tb.binary_search(g).is_ok()).count();
        inter as f64 / (ta.len() + tb.len() - inter) as f64
    }

    /// Reference tokenizer: materializes the tokens (whitespace words,
    /// alphanumeric/other runs, runs chunked every six chars).
    fn reference_tokens(text: &str) -> Vec<&str> {
        let mut tokens = Vec::new();
        for word in text.split_whitespace() {
            let mut rest = word;
            while let Some(first) = rest.chars().next() {
                let alnum = first.is_alphanumeric();
                let run_end = rest
                    .char_indices()
                    .find(|(_, c)| c.is_alphanumeric() != alnum)
                    .map_or(rest.len(), |(i, _)| i);
                let (mut run, tail) = rest.split_at(run_end);
                while let Some((split, _)) = run.char_indices().nth(MAX_TOKEN_CHARS) {
                    let (head, t) = run.split_at(split);
                    tokens.push(head);
                    run = t;
                }
                tokens.push(run);
                rest = tail;
            }
        }
        tokens
    }

    const ODD_STRINGS: [&str; 12] = [
        "",
        "   ",
        "a",
        "ab",
        "AB",
        "abc",
        "Emphysema, J43",
        "naïve tæxon",
        "NAÏVE TÆXON",
        "x — y",
        "vertical\x0btab and\u{00a0}nbsp",
        "日本語 ラベル",
    ];

    #[test]
    fn similarity_matches_reference_on_oae_pairs_and_odd_strings() {
        let taxonomy = generate(TaxonomyKind::Oae, GenOptions { seed: 3, scale: 0.2 }).unwrap();
        let names: Vec<&str> = taxonomy.ids().take(60).map(|id| taxonomy.name(id)).collect();
        let mut rng = fork(0x7a78_6f67, "hier-trigram", 0);
        for _ in 0..300 {
            let a = names[rng.gen_index(names.len())];
            let b = names[rng.gen_index(names.len())];
            assert_eq!(trigram_similarity(a, b), reference_similarity(a, b), "{a:?} vs {b:?}");
        }
        for a in ODD_STRINGS {
            for b in ODD_STRINGS {
                assert_eq!(trigram_similarity(a, b), reference_similarity(a, b), "{a:?} vs {b:?}");
                assert_eq!(trigram_similarity(a, b), trigram_similarity(b, a), "{a:?} vs {b:?}");
            }
        }
        assert_eq!(trigram_similarity("ab", "AB"), 1.0);
        assert_eq!(trigram_similarity("ab", "cd"), 0.0);
        assert_eq!(trigram_similarity("", ""), 1.0);
        // Lowering is ASCII-only, so "ï" and "Ï" stay distinct.
        assert!(trigram_similarity("naïve tæxon", "NAÏVE TÆXON") < 1.0);
        assert_eq!(trigram_similarity("naïve tæxon", "NAïVE TæXON"), 1.0);
        assert!(trigram_similarity("Verbascum chaixii", "Verbascum") > 0.4);
        assert!(trigram_similarity("Verbascum chaixii", "Silene") < 0.1);
    }

    /// The branch-free merge against the reference on seeded pairs of
    /// names from every generated taxonomy, identical pairs, pairs of
    /// very unequal size and the odd strings, both ways round.
    #[test]
    fn jaccard_matches_reference_across_all_taxonomies() {
        let mut names: Vec<String> = Vec::new();
        for kind in TaxonomyKind::ALL {
            let taxonomy = generate(kind, GenOptions { seed: 5, scale: 0.02 }).unwrap();
            names.extend(taxonomy.ids().take(200).map(|id| taxonomy.name(id).to_owned()));
        }
        let long = names.iter().max_by_key(|n| n.len()).unwrap().repeat(8);
        let mut pairs: Vec<(&str, &str)> = Vec::new();
        let mut rng = fork(0x7a78_6f67, "jaccard-merge", 0);
        for _ in 0..2_000 {
            pairs.push((&names[rng.gen_index(names.len())], &names[rng.gen_index(names.len())]));
        }
        for name in names.iter().step_by(25) {
            pairs.push((name, name));
            pairs.push((name, &long));
            let short = name.char_indices().nth(4).map_or(name.len(), |(i, _)| i);
            pairs.push((&name[..short], name));
        }
        for a in ODD_STRINGS {
            for b in ODD_STRINGS.iter().copied().chain(names.iter().take(20).map(String::as_str)) {
                pairs.push((a, b));
            }
        }
        for (a, b) in pairs {
            let (sa, sb) = (TrigramSet::new(a), TrigramSet::new(b));
            let ab = sa.jaccard(&sb);
            assert_eq!(ab.to_bits(), reference_similarity(a, b).to_bits(), "{a:?} vs {b:?}");
            assert_eq!(ab.to_bits(), sb.jaccard(&sa).to_bits(), "asymmetric: {a:?} vs {b:?}");
        }
    }

    #[test]
    fn packed_grams_sort_like_byte_triples() {
        let name = "Zebra zebRA ñandú";
        let packed: Vec<u32> = grams(name).collect();
        let lower = name.to_ascii_lowercase();
        let triples: Vec<[u8; 3]> = lower.as_bytes().windows(3).map(|w| [w[0], w[1], w[2]]).collect();
        assert_eq!(packed.len(), triples.len());
        for (p, t) in packed.iter().zip(&triples) {
            assert_eq!(p.to_be_bytes()[1..], t[..]);
        }
        for (i, j) in (0..packed.len()).flat_map(|i| (0..packed.len()).map(move |j| (i, j))) {
            assert_eq!(packed[i].cmp(&packed[j]), triples[i].cmp(&triples[j]));
        }
    }

    #[test]
    fn token_count_matches_reference_on_icd_names_and_odd_strings() {
        let taxonomy = generate(TaxonomyKind::Icd10Cm, GenOptions { seed: 3, scale: 0.05 }).unwrap();
        let names = taxonomy.ids().take(120).map(|id| taxonomy.name(id));
        let samples = [
            "word",
            "hyphenated-compound-name, with punctuation!",
            "A) Audio B) Video C) Garden D) Books E) None of the above",
            "supercalifragilisticexpialidocious",
            "naïve — tæxonomy's œuvre",
            "Is `Verbascum chaixii` a kind of Verbascum? (level 7 -> 6)",
            "a)b)c)d) x--y--z ...",
            "mixed ascii then naïve tail",
        ];
        for text in names.chain(ODD_STRINGS).chain(samples) {
            assert_eq!(token_count(text), reference_tokens(text).len(), "{text:?}");
        }
        assert_eq!(token_count("cat"), 1);
        assert_eq!(token_count("cat, dog"), 3);
        assert_eq!(token_count("extraordinarily"), 3);
        assert_eq!(reference_tokens("know)? answer!"), ["know", ")?", "answer", "!"]);
    }

    #[test]
    fn token_counter_is_chunk_invariant() {
        // Six-char runs straddling a split count once only if the run
        // state carries across pieces, on both the ASCII and the
        // non-ASCII path.
        let text = "abcdef naïvetés ghijkl, 語言ab--cd mnopqr\x0bstuvwx\u{00a0}yz";
        let whole = token_count(text);
        assert_eq!(whole, reference_tokens(text).len());
        for (split, _) in text.char_indices() {
            let mut counter = TokenCounter::default();
            counter.push_str(&text[..split]);
            counter.push_str(&text[split..]);
            assert_eq!(counter.finish(), whole, "split at {split}");
        }
        let mut counter = TokenCounter::default();
        let mut buf = [0u8; 4];
        for c in text.chars() {
            counter.push_str(c.encode_utf8(&mut buf));
        }
        assert_eq!(counter.finish(), whole, "one char per piece");
    }

    #[test]
    fn reports_digest_folds_in_order() {
        let one = reports_digest(&["a"]);
        assert_eq!(one, mix64(0xBA5E_11AE ^ hash_str(0x5EED, "\"a\"")));
        assert_ne!(reports_digest(&["a", "b"]), reports_digest(&["b", "a"]));
        assert_eq!(reports_digest::<&str>(&[]), 0xBA5E_11AE);
    }
}
