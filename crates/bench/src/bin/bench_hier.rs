//! `bench_hier` — the machine-readable two-stage hierarchical
//! classification baseline.
//!
//! Runs `core::hier` (coarse trigram router + constrained sibling-MCQ
//! descent) against the free-form flat baseline on all ten taxonomies
//! and records the results in `BENCH_hier.json` (schema v1): accuracy,
//! invalid-label rates (zero by construction for the descent — the
//! document *proves* it per cell), wrong-branch jump depth, abstain
//! calibration, and prompt-token cost vs the whole-taxonomy-in-prompt
//! alternative.
//!
//! One invariant is *enforced in-run*, not just recorded: for every
//! `(model, taxonomy)` cell the report must be byte-identical across
//! worker counts {1, 2, 8}. Any divergence aborts the run — threading
//! must be a pure executor.
//!
//! ```text
//! cargo run --release -p taxoglimpse-bench --bin bench_hier -- \
//!     [--scale S] [--cap N] [--seed N] [--models CSV] [--repeat R] \
//!     [--top-k K] [--label L] [--out FILE]
//! cargo run --release -p taxoglimpse-bench --bin bench_hier -- --check FILE
//! ```
//!
//! `TAXOGLIMPSE_BENCH_QUICK=1` shrinks the workload to smoke-test size.

use std::time::Instant;
use taxoglimpse_bench::TaxonomyCache;
use taxoglimpse_core::domain::TaxonomyKind;
use taxoglimpse_core::hier::{DescentConfig, HierWorkload, RouterConfig};
use taxoglimpse_core::text::reports_digest;
use taxoglimpse_core::workload::{Workload, WorkloadContext, WorkloadRunner};
use taxoglimpse_json::{from_str_value, Json, ToJson};
use taxoglimpse_llm::profile::ModelId;
use taxoglimpse_llm::zoo::ModelZoo;

/// Current schema version of `BENCH_hier.json` (see README.md).
const SCHEMA_VERSION: u64 = 1;

/// Worker counts whose reports must be byte-identical within a cell.
const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

/// Same default model subset as `bench_eval` / `bench_shard`.
const DEFAULT_MODELS: [ModelId; 4] =
    [ModelId::Gpt4, ModelId::Gpt35, ModelId::Llama2_7b, ModelId::FlanT5_3b];

#[derive(Debug)]
struct BenchOptions {
    scale: f64,
    cap: Option<usize>,
    seed: u64,
    models: Vec<ModelId>,
    repeat: usize,
    top_k: usize,
    label: String,
    out: String,
    check: Option<String>,
}

impl BenchOptions {
    fn parse(args: impl Iterator<Item = String>) -> Result<Self, String> {
        let quick = std::env::var("TAXOGLIMPSE_BENCH_QUICK").map(|v| v != "0").unwrap_or(false);
        let mut o = BenchOptions {
            scale: if quick { 0.05 } else { 0.1 },
            cap: Some(if quick { 12 } else { 120 }),
            seed: 42,
            models: DEFAULT_MODELS.to_vec(),
            repeat: if quick { 1 } else { 3 },
            top_k: RouterConfig::default().top_k(),
            label: "current".to_owned(),
            out: "BENCH_hier.json".to_owned(),
            check: None,
        };
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            let mut value =
                |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
            match arg.as_str() {
                "--scale" => o.scale = value("--scale")?.parse().map_err(|e| format!("--scale: {e}"))?,
                "--cap" => o.cap = Some(value("--cap")?.parse().map_err(|e| format!("--cap: {e}"))?),
                "--seed" => o.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--repeat" => o.repeat = value("--repeat")?.parse().map_err(|e| format!("--repeat: {e}"))?,
                "--top-k" => o.top_k = value("--top-k")?.parse().map_err(|e| format!("--top-k: {e}"))?,
                "--label" => o.label = value("--label")?,
                "--out" => o.out = value("--out")?,
                "--check" => o.check = Some(value("--check")?),
                "--models" => {
                    let csv = value("--models")?;
                    let mut models = Vec::new();
                    for name in csv.split(',') {
                        models.push(name.trim().parse::<ModelId>()?);
                    }
                    o.models = models;
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(o)
    }
}

fn main() {
    let opts = match BenchOptions::parse(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
    };

    if let Some(path) = &opts.check {
        match check_file(path) {
            Ok(summary) => println!("{summary}"),
            Err(msg) => {
                eprintln!("error: {path}: {msg}");
                std::process::exit(1);
            }
        }
        return;
    }

    let doc = run_bench(&opts);
    let rendered = doc.render_pretty();
    std::fs::write(&opts.out, format!("{rendered}\n")).unwrap_or_else(|e| {
        eprintln!("error: {}: {e}", opts.out);
        std::process::exit(1);
    });
    println!("wrote {}", opts.out);
}

/// Run the measured workload and build the `BENCH_hier.json` document.
fn run_bench(opts: &BenchOptions) -> Json {
    let cache = TaxonomyCache::new();
    let zoo = ModelZoo::default_zoo();
    let workload = HierWorkload::new()
        .with_router(RouterConfig::default().with_top_k(opts.top_k))
        .with_descent(DescentConfig::default())
        .with_sample_cap(opts.cap);

    let mut sections = Vec::new();
    for kind in TaxonomyKind::ALL {
        eprintln!("generating {} at scale {} ...", kind.label(), opts.scale);
        let taxonomy = cache.get(kind, opts.seed, opts.scale);
        let cx = WorkloadContext::new(&taxonomy, kind, opts.seed);
        let data = match workload.build(&cx) {
            Ok(data) => data,
            Err(e) => {
                eprintln!("{}: skipped ({e})", kind.label());
                sections.push(Json::obj(vec![
                    ("taxonomy", kind.label().to_json()),
                    ("skipped", format!("{e}").to_json()),
                ]));
                continue;
            }
        };

        let mut entries = Vec::new();
        for &model_id in &opts.models {
            let model = zoo.get(model_id).expect("zoo covers all ids");
            let mut cell_digest: Option<u64> = None;
            let mut cell_report = None;
            let mut workers_out = Vec::new();
            for workers in WORKER_COUNTS {
                let runner = WorkloadRunner::builder().with_threads(workers).build();
                let mut best = f64::INFINITY;
                let mut total = 0.0;
                for rep in 0..opts.repeat.max(1) {
                    let start = Instant::now();
                    let report = workload.run(&runner, model.as_ref(), &cx, &data);
                    let elapsed = start.elapsed().as_secs_f64();
                    total += elapsed;
                    best = best.min(elapsed);
                    if rep == 0 {
                        let digest = reports_digest(std::slice::from_ref(&report));
                        if *cell_digest.get_or_insert(digest) != digest {
                            eprintln!(
                                "error: {} / {}: {workers} workers produced digest \
                                 {digest:016x}, other worker counts produced {:016x} — \
                                 threading changed report bytes",
                                kind.label(),
                                model_id,
                                cell_digest.expect("cell digest was just inserted"),
                            );
                            std::process::exit(1);
                        }
                        cell_report.get_or_insert(report);
                    }
                }
                let repeats = opts.repeat.max(1) as f64;
                workers_out.push(Json::obj(vec![
                    ("workers", (workers as u64).to_json()),
                    ("best_elapsed_ms", (best * 1e3).to_json()),
                    ("mean_elapsed_ms", (total / repeats * 1e3).to_json()),
                    (
                        "instances_per_sec",
                        (data.instances.len() as f64 / best).to_json(),
                    ),
                ]));
            }
            let report = cell_report.expect("at least one worker count ran");
            let m = &report.metrics;
            let savings = if m.hier_tokens_per_instance() > 0.0 {
                m.whole_taxonomy_tokens_per_instance() / m.hier_tokens_per_instance()
            } else {
                0.0
            };
            eprintln!(
                "{} / {}: hier A={:.3} invalid={:.3} abstain={:.3} | flat A={:.3} \
                 invalid={:.3} | {:.0} vs {:.0} tok/inst ({savings:.1}x), digest {:016x}",
                kind.label(),
                model_id,
                m.hier_accuracy(),
                m.hier_invalid_rate(),
                m.hier_abstain_rate(),
                m.flat_accuracy(),
                m.flat_invalid_rate(),
                m.hier_tokens_per_instance(),
                m.whole_taxonomy_tokens_per_instance(),
                cell_digest.expect("cell ran"),
            );
            entries.push(Json::obj(vec![
                ("model", model_id.to_string().to_json()),
                ("report_digest", format!("{:016x}", cell_digest.expect("cell ran")).to_json()),
                ("hier_accuracy", m.hier_accuracy().to_json()),
                ("hier_invalid_rate", m.hier_invalid_rate().to_json()),
                ("hier_abstain_rate", m.hier_abstain_rate().to_json()),
                ("mean_wrong_branch_depth", m.mean_wrong_branch_depth().to_json()),
                ("abstain_calibration", m.abstain_calibration().to_json()),
                ("flat_accuracy", m.flat_accuracy().to_json()),
                ("flat_invalid_rate", m.flat_invalid_rate().to_json()),
                ("hier_tokens_per_query", m.hier_tokens_per_query().to_json()),
                ("hier_tokens_per_instance", m.hier_tokens_per_instance().to_json()),
                (
                    "whole_taxonomy_tokens_per_instance",
                    m.whole_taxonomy_tokens_per_instance().to_json(),
                ),
                ("token_savings_factor", savings.to_json()),
                ("workers", Json::Arr(workers_out)),
                ("metrics", m.to_json()),
            ]));
        }
        sections.push(Json::obj(vec![
            ("taxonomy", kind.label().to_json()),
            ("nodes", (taxonomy.len() as u64).to_json()),
            ("levels", (taxonomy.num_levels() as u64).to_json()),
            ("instances", (data.instances.len() as u64).to_json()),
            ("entries", Json::Arr(entries)),
        ]));
    }

    let workload_doc = Json::obj(vec![
        ("models", Json::Arr(opts.models.iter().map(|m| m.to_string().to_json()).collect())),
        (
            "taxonomies",
            Json::Arr(TaxonomyKind::ALL.iter().map(|k| k.label().to_json()).collect()),
        ),
        ("scale", opts.scale.to_json()),
        ("cap", opts.cap.map(|c| (c as u64).to_json()).unwrap_or(Json::Null)),
        ("seed", opts.seed.to_json()),
        ("router_level", (RouterConfig::default().level() as u64).to_json()),
        ("router_top_k", (opts.top_k as u64).to_json()),
        (
            "descent_max_options",
            (DescentConfig::default().max_options() as u64).to_json(),
        ),
        ("repeats", (opts.repeat as u64).to_json()),
        (
            "worker_counts",
            Json::Arr(WORKER_COUNTS.iter().map(|w| (*w as u64).to_json()).collect()),
        ),
    ]);

    Json::obj(vec![
        ("schema_version", SCHEMA_VERSION.to_json()),
        ("label", opts.label.to_json()),
        ("workload", workload_doc),
        ("taxonomies", Json::Arr(sections)),
    ])
}

/// `--check FILE`: parse with the in-tree JSON crate and validate shape
/// plus the invariants the document claims: the descent's invalid-label
/// count is exactly zero in every cell, every rate lies in [0, 1],
/// outcome counts partition the instance count, and per-worker timings
/// are positive.
fn check_file(path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let doc = from_str_value(&text).map_err(|e| e.to_string())?;
    let version = doc
        .get("schema_version")
        .and_then(Json::as_u64)
        .ok_or("missing schema_version")?;
    if version != SCHEMA_VERSION {
        return Err(format!("schema_version {version} (expected {SCHEMA_VERSION})"));
    }
    doc.get("label").and_then(Json::as_str).ok_or("missing label")?;
    doc.get("workload").and_then(Json::as_obj).ok_or("missing workload object")?;

    let sections =
        doc.get("taxonomies").and_then(Json::as_arr).ok_or("missing taxonomies array")?;
    if sections.is_empty() {
        return Err("empty taxonomies array".to_owned());
    }
    let mut cells = 0usize;
    for section in sections {
        let taxonomy = section
            .get("taxonomy")
            .and_then(Json::as_str)
            .ok_or("section missing taxonomy")?;
        if section.get("skipped").is_some() {
            continue;
        }
        let entries = section
            .get("entries")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("{taxonomy}: missing entries"))?;
        if entries.is_empty() {
            return Err(format!("{taxonomy}: empty entries array"));
        }
        for entry in entries {
            let model = entry
                .get("model")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{taxonomy}: entry missing model"))?;
            let tag = format!("{taxonomy} / {model}");
            cells += check_cell(entry, &tag)?;
        }
    }
    Ok(format!(
        "{path}: OK ({} taxonomies, {cells} cells, schema v{version})",
        sections.len(),
    ))
}

/// Validate one `(model, taxonomy)` cell. Returns 1 (cells checked).
fn check_cell(entry: &Json, tag: &str) -> Result<usize, String> {
    entry
        .get("report_digest")
        .and_then(Json::as_str)
        .filter(|d| d.len() == 16)
        .ok_or_else(|| format!("{tag}: missing 16-hex report_digest"))?;
    for key in [
        "hier_accuracy",
        "hier_invalid_rate",
        "hier_abstain_rate",
        "flat_accuracy",
        "flat_invalid_rate",
    ] {
        entry
            .get(key)
            .and_then(Json::as_f64)
            .filter(|r| (0.0..=1.0).contains(r))
            .ok_or_else(|| format!("{tag}: {key} must be in [0, 1]"))?;
    }
    let metrics = entry.get("metrics").ok_or_else(|| format!("{tag}: missing metrics"))?;
    let count = |key: &str| {
        metrics
            .get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("{tag}: metrics missing {key:?}"))
    };
    let instances = count("instances")?;
    if instances == 0 {
        return Err(format!("{tag}: zero instances"));
    }
    // The headline guarantee: constrained descent cannot emit an
    // invalid label — the recorded count must be exactly zero.
    let hier_invalid = count("hier_invalid")?;
    if hier_invalid != 0 {
        return Err(format!("{tag}: hier_invalid = {hier_invalid} (must be exactly 0)"));
    }
    let hier_sum = count("hier_correct")?
        + count("hier_wrong_branch")?
        + count("hier_abstained")?
        + count("hier_failed")?;
    if hier_sum != instances {
        return Err(format!("{tag}: descent outcomes sum to {hier_sum}, not {instances}"));
    }
    let flat_sum = count("flat_correct")?
        + count("flat_wrong_valid")?
        + count("flat_invalid")?
        + count("flat_abstained")?
        + count("flat_failed")?;
    if flat_sum != instances {
        return Err(format!("{tag}: flat outcomes sum to {flat_sum}, not {instances}"));
    }
    let workers = entry
        .get("workers")
        .and_then(Json::as_arr)
        .filter(|w| !w.is_empty())
        .ok_or_else(|| format!("{tag}: missing workers array"))?;
    for w in workers {
        let n = w
            .get("workers")
            .and_then(Json::as_u64)
            .filter(|n| *n >= 1)
            .ok_or_else(|| format!("{tag}: worker entry missing a positive workers count"))?;
        for key in ["best_elapsed_ms", "mean_elapsed_ms", "instances_per_sec"] {
            w.get(key)
                .and_then(Json::as_f64)
                .filter(|v| *v > 0.0)
                .ok_or_else(|| format!("{tag}: {n} workers: {key} must be positive"))?;
        }
    }
    Ok(1)
}
