//! Integration properties of the two-stage hierarchical classification
//! workload (`core::hier`).
//!
//! Three contracts are pinned here:
//!
//! 1. **Executor purity** — the report for a `(model, taxonomy)` cell
//!    is byte-identical across worker counts {1, 2, 8}, with the
//!    response cache off or on, under a 20% fault plan: threading,
//!    caching and fault placement may change *when* a query runs, never
//!    what the report says.
//! 2. **Validity by construction** — the constrained descent records
//!    zero invalid labels on every one of the ten taxonomies, for the
//!    strongest and weakest simulated models alike.
//! 3. **Cross-crate equivalence** — `core::hier`'s in-core trigram
//!    similarity and token-count approximations (core cannot depend on
//!    the llm crate) compute exactly the same values as
//!    `llm::knowledge::trigram_similarity` and `llm`'s tokenizer.
//! 4. **Shortlist exactness** — the inverted-trigram shortlist the
//!    router and the flat baseline use returns exactly the list that
//!    scoring every node with `TrigramSet::jaccard` and sorting gives.

use std::sync::Arc;

use taxoglimpse::core::cache::{CachedModel, ResponseCache};
use taxoglimpse::core::hier::{
    approx_token_count, RouterConfig, ShortlistIndex, ShortlistScratch, TrigramSet,
};
use taxoglimpse::core::model::LanguageModel;
use taxoglimpse::llm::knowledge::trigram_similarity;
use taxoglimpse::llm::tokenizer::Tokenizer;
use taxoglimpse::prelude::*;
use taxoglimpse::synth::rng::{fork, Rng};

/// Serialize a hier report for byte comparison.
fn report_bytes(report: &taxoglimpse::core::hier::HierReport) -> String {
    taxoglimpse::json::to_string(report).expect("reports serialize")
}

/// One run of the hier workload over `model` with `workers` threads.
fn run_cell(
    workload: &HierWorkload,
    data: &taxoglimpse::core::hier::HierDataset,
    cx: &WorkloadContext<'_>,
    model: &dyn LanguageModel,
    workers: usize,
) -> taxoglimpse::core::hier::HierReport {
    let runner = WorkloadRunner::builder().with_threads(workers).build();
    workload.run(&runner, model, cx, data)
}

/// Contract 1: report bytes are invariant across workers {1, 2, 8} ×
/// cache {off, on} × a 20% fault plan. The fault injector sits outside
/// the cache (the served path can still fault), and fault decisions are
/// keyed by question identity — so no schedule can move a fault from
/// one question to another.
#[test]
fn hier_reports_byte_identical_across_workers_cache_and_faults() {
    let zoo = ModelZoo::default_zoo();
    let base = zoo.get(ModelId::Gpt4).expect("zoo covers GPT-4");
    let workload = HierWorkload::new().with_sample_cap(Some(12));

    for (kind, scale) in [(TaxonomyKind::Ebay, 0.1), (TaxonomyKind::Google, 0.05)] {
        let taxonomy = generate(kind, GenOptions { seed: 42, scale }).expect("valid options");
        let cx = WorkloadContext::new(&taxonomy, kind, 42);
        let data = workload.build(&cx).expect("benchmark taxonomies support hier");

        let mut reference: Option<String> = None;
        for cache_on in [false, true] {
            // One cache per cache-on config, shared across worker
            // counts: later runs hit entries earlier runs filled, which
            // must not change a byte.
            let cache = Arc::new(ResponseCache::new());
            for workers in [1usize, 2, 8] {
                let report = if cache_on {
                    let stack = FaultInjector::new(
                        CachedModel::with_cache(Arc::clone(&base), Arc::clone(&cache)),
                        FaultPlan::uniform(42, 0.2),
                    );
                    run_cell(&workload, &data, &cx, &stack, workers)
                } else {
                    let stack =
                        FaultInjector::new(Arc::clone(&base), FaultPlan::uniform(42, 0.2));
                    run_cell(&workload, &data, &cx, &stack, workers)
                };
                let bytes = report_bytes(&report);
                match &reference {
                    None => reference = Some(bytes),
                    Some(expected) => assert_eq!(
                        expected, &bytes,
                        "{kind}: {workers} workers, cache {cache_on}: report bytes diverged"
                    ),
                }
            }
            if cache_on {
                assert!(cache.stats().hits > 0, "{kind}: warm runs never hit the cache");
            }
        }
    }
}

/// Contract 2: zero invalid labels from the constrained descent on all
/// ten taxonomies, and outcome counts partition the instance count for
/// both the descent and the flat baseline.
#[test]
fn descent_emits_zero_invalid_labels_on_all_ten_taxonomies() {
    let zoo = ModelZoo::default_zoo();
    let runner = WorkloadRunner::default();
    let workload = HierWorkload::new()
        .with_router(RouterConfig::default().with_top_k(2))
        .with_sample_cap(Some(8));

    for kind in TaxonomyKind::ALL {
        let taxonomy = generate(kind, GenOptions { seed: 7, scale: 0.05 }).expect("valid options");
        let cx = WorkloadContext::new(&taxonomy, kind, 7);
        let data = workload.build(&cx).expect("all ten taxonomies have >= 2 levels");
        assert!(!data.instances.is_empty(), "{kind}: empty hier dataset");

        for model_id in [ModelId::Gpt4, ModelId::Llama2_7b] {
            let model = zoo.get(model_id).expect("zoo covers all ids");
            let report = workload.run(&runner, model.as_ref(), &cx, &data);
            let m = report.metrics;
            assert_eq!(m.hier_invalid, 0, "{kind}/{model_id}: descent emitted an invalid label");
            assert_eq!(
                m.hier_correct + m.hier_wrong_branch + m.hier_abstained + m.hier_failed,
                m.instances,
                "{kind}/{model_id}: descent outcomes do not partition instances"
            );
            assert_eq!(
                m.flat_correct + m.flat_wrong_valid + m.flat_invalid + m.flat_abstained
                    + m.flat_failed,
                m.instances,
                "{kind}/{model_id}: flat outcomes do not partition instances"
            );
        }
    }
}

/// Contract 2b: router candidates are themselves deterministic — same
/// inputs, same candidate list, and every candidate sits at the clamped
/// router level.
#[test]
fn router_candidates_are_deterministic_and_level_consistent() {
    let taxonomy =
        generate(TaxonomyKind::Amazon, GenOptions { seed: 11, scale: 0.1 }).expect("valid options");
    let workload = HierWorkload::new().with_router(RouterConfig::default().with_top_k(4));
    for (i, name) in ["Portable Audio", "Garden Tools", "Camera Film", "xyzzy"]
        .into_iter()
        .enumerate()
    {
        let a = workload.route(&taxonomy, name);
        let b = workload.route(&taxonomy, name);
        assert_eq!(a, b, "case {i}: routing is not deterministic");
        assert!(!a.is_empty(), "case {i}: router returned no candidates");
        assert!(a.len() <= 4, "case {i}: router exceeded top-k");
        for &node in &a {
            assert_eq!(taxonomy.level(node), 1, "case {i}: candidate not at router level");
        }
    }
}

/// Contract 3a: in-core trigram similarity equals the llm crate's on
/// real taxonomy names and on adversarial short/unicode strings.
#[test]
fn core_trigram_similarity_matches_llm_crate() {
    let taxonomy =
        generate(TaxonomyKind::Oae, GenOptions { seed: 3, scale: 0.2 }).expect("valid options");
    let names: Vec<&str> = taxonomy.ids().take(60).map(|id| taxonomy.name(id)).collect();
    let mut rng = fork(0x7a78_6f67, "hier-trigram", 0);
    for _ in 0..300 {
        let a = names[rng.gen_index(names.len())];
        let b = names[rng.gen_index(names.len())];
        let core_sim = TrigramSet::new(a).jaccard(&TrigramSet::new(b));
        let llm_sim = trigram_similarity(a, b);
        assert_eq!(core_sim, llm_sim, "trigram similarity diverged on {a:?} vs {b:?}");
    }
    for (a, b) in [
        ("", ""),
        ("ab", "AB"),
        ("ab", "ba"),
        ("a", "abc"),
        ("Emphysema, J43", "emphysema, j43"),
        ("naïve tæxon", "NAÏVE TÆXON"),
        ("x — y", "x—y"),
    ] {
        assert_eq!(
            TrigramSet::new(a).jaccard(&TrigramSet::new(b)),
            trigram_similarity(a, b),
            "trigram similarity diverged on {a:?} vs {b:?}"
        );
    }
}

/// Contract 3b: in-core approximate token counting equals the llm
/// tokenizer's `count` (and its materialized `tokenize().len()`).
#[test]
fn core_token_count_matches_llm_tokenizer() {
    let tokenizer = Tokenizer::default();
    let taxonomy =
        generate(TaxonomyKind::Icd10Cm, GenOptions { seed: 3, scale: 0.05 }).expect("valid options");
    for id in taxonomy.ids().take(120) {
        let name = taxonomy.name(id);
        assert_eq!(
            approx_token_count(name),
            tokenizer.count(name),
            "token count diverged on {name:?}"
        );
    }
    for text in [
        "",
        "   ",
        "word",
        "hyphenated-compound-name, with punctuation!",
        "A) Audio B) Video C) Garden D) Books E) None of the above",
        "supercalifragilisticexpialidocious",
        "naïve — tæxonomy's œuvre",
        "Is `Verbascum chaixii` a kind of Verbascum? (level 7 -> 6)",
    ] {
        let expected = tokenizer.tokenize(text).len();
        assert_eq!(tokenizer.count(text), expected, "tokenizer count/tokenize split on {text:?}");
        assert_eq!(approx_token_count(text), expected, "token count diverged on {text:?}");
    }
}

/// The reference shortlist: every node scored with `TrigramSet::jaccard`
/// and fully sorted by `(similarity desc, name, node id)`.
fn full_scan(t: &Taxonomy, nodes: &[NodeId], probe: &str) -> Vec<NodeId> {
    let probe = TrigramSet::new(probe);
    let mut scored: Vec<(f64, NodeId)> = nodes
        .iter()
        .map(|&n| (probe.jaccard(&TrigramSet::new(t.name(n))), n))
        .collect();
    scored.sort_by(|a, b| {
        b.0.total_cmp(&a.0)
            .then_with(|| t.name(a.1).cmp(t.name(b.1)))
            .then_with(|| a.1.raw().cmp(&b.1.raw()))
    });
    scored.into_iter().map(|(_, n)| n).collect()
}

/// Assert the index's top-k equals the full scan's first k for each k.
fn assert_shortlists_match(
    t: &Taxonomy,
    nodes: &[NodeId],
    probes: &[String],
    ks: &[usize],
    what: &str,
) {
    let index = ShortlistIndex::new(t, nodes.to_vec());
    let mut scratch = ShortlistScratch::default();
    for probe in probes {
        let reference = full_scan(t, nodes, probe);
        for &k in ks {
            assert_eq!(
                index.top_k(probe, k, &mut scratch),
                reference[..k.min(reference.len())],
                "{what}: probe {probe:?}, k = {k}"
            );
        }
    }
}

/// Contract 4a: on all ten taxonomies, the leaf shortlist and the router
/// equal the full scan for the workload's own instances, case-shifted
/// leaf names, short names and names sharing no trigram with any leaf.
#[test]
fn shortlist_index_equals_full_scan_on_all_ten_taxonomies() {
    let workload = HierWorkload::new()
        .with_router(RouterConfig::default().with_top_k(3))
        .with_sample_cap(Some(8));
    for kind in TaxonomyKind::ALL {
        let t = generate(kind, GenOptions { seed: 5, scale: 0.02 }).expect("valid options");
        let cx = WorkloadContext::new(&t, kind, 5);
        let data = workload.build(&cx).expect("all ten taxonomies have >= 2 levels");
        let leaves = t.leaves();
        let mut probes: Vec<String> = data.instances.iter().map(|i| i.name.clone()).collect();
        probes.extend(
            leaves.iter().step_by(leaves.len() / 4 + 1).map(|&l| t.name(l).to_uppercase()),
        );
        probes.extend(["", "a", "Zq", "\u{1}\u{2}\u{3}\u{4}", "ÉTÉ"].map(String::from));
        assert_shortlists_match(&t, &leaves, &probes, &[1, 4, 9], &format!("{kind} leaves"));

        let regions = t.nodes_at_level(1);
        for probe in &probes {
            let reference = full_scan(&t, regions, probe);
            assert_eq!(
                workload.route(&t, probe),
                reference[..3.min(reference.len())],
                "{kind} router: probe {probe:?}"
            );
        }
    }
}

/// Contract 4b: adversarial names — under three bytes, empty,
/// non-ASCII, mixed case, duplicates — and k past the node count.
#[test]
fn shortlist_index_equals_full_scan_on_adversarial_names() {
    let mut b = TaxonomyBuilder::new("adversarial");
    let root = b.add_root("Root");
    let left = b.add_child(root, "Wireless Speakers");
    let right = b.add_child(root, "wireless speakers");
    for parent in [left, right] {
        for name in [
            "ab", "AB", "a", "", "Été", "été", "ÉTÉ", "naïve tæxon", "NAÏVE TÆXON",
            "Wireless Speakers", "x—y", "aaaa", "aaaaaaa", "xyz",
        ] {
            b.add_child(parent, name);
        }
    }
    let t = b.build().expect("adversarial taxonomy builds");
    let all: Vec<NodeId> = t.ids().collect();
    let mut probes: Vec<String> = all.iter().map(|&n| t.name(n).to_owned()).collect();
    probes.extend(
        ["", "A", "Ab", "aB", "éT", "zzzz", "WIRELESS", "aaa", "speakers wireless"]
            .map(String::from),
    );
    let n = all.len();
    let ks = [0, 1, 3, n - 1, n, n + 5];
    assert_shortlists_match(&t, &all, &probes, &ks, "all nodes");
    assert_shortlists_match(&t, &t.leaves(), &probes, &ks, "leaves");
    assert_shortlists_match(&t, &[], &probes, &[0, 2], "no nodes");
}
