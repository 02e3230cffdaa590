//! `bench_eval` — the machine-readable end-to-end throughput baseline.
//!
//! Runs the full grid pipeline (datasets × models × prompt settings)
//! through [`GridRunner`] exactly as `tables567` does, measures
//! queries/second per prompt setting, and writes `BENCH_eval.json` so
//! every perf PR records before/after numbers on the same machine and
//! future PRs have a trajectory to defend.
//!
//! ```text
//! cargo run --release -p taxoglimpse-bench --bin bench_eval -- \
//!     [--scale S] [--cap N] [--seed N] [--models CSV] [--repeat R] \
//!     [--threads T] [--chunk C] [--label L] [--baseline FILE] [--out FILE]
//! cargo run --release -p taxoglimpse-bench --bin bench_eval -- --check FILE
//! ```
//!
//! Since schema v2 every prompt setting is measured under a sweep of
//! execution configs — batch size × response cache on/off (see
//! [`CONFIGS`]) — and each config records a `reports_digest`: a stable
//! 64-bit hash over the JSON of every [`EvalReport`] the grid produced.
//! The run *aborts* if any config's digest diverges from the others
//! within a setting: batching and caching must be pure executors, and
//! identical digests prove the optimised pipeline returned
//! byte-identical results, which is this repo's core invariant. The
//! setting-level headline throughput is the best cache-enabled config.
//!
//! With the cache enabled, rep 0 runs cold (it both measures and fills
//! the cache) and later reps run warm, so `--repeat R` yields a steady
//! `(R-1)/R` hit rate and the best-of measurement reflects the served
//! path.
//!
//! `TAXOGLIMPSE_BENCH_QUICK=1` shrinks the workload to smoke-test size
//! (CI uses this to catch bit-rot without paying for a real measurement).

use std::sync::Arc;
use std::time::Instant;
use taxoglimpse_bench::TaxonomyCache;
use taxoglimpse_core::cache::{CachedModel, ResponseCache};
use taxoglimpse_core::dataset::{Dataset, DatasetBuilder, QuestionDataset};
use taxoglimpse_core::domain::TaxonomyKind;
use taxoglimpse_core::eval::EvalConfig;
use taxoglimpse_core::grid::GridRunner;
use taxoglimpse_core::model::LanguageModel;
use taxoglimpse_core::prompts::PromptSetting;
use taxoglimpse_core::text::reports_digest;
use taxoglimpse_json::{from_str_value, Json, ToJson};
use taxoglimpse_llm::profile::ModelId;
use taxoglimpse_llm::simulate::SimulatedLlm;
use taxoglimpse_llm::zoo::ModelZoo;

/// Current schema version of `BENCH_eval.json` (see README.md).
const SCHEMA_VERSION: u64 = 2;

/// Minimum admissible zero-shot speedup over an embedded baseline when
/// `--check` finds one (the batching + caching acceptance gate).
const MIN_ZERO_SHOT_SPEEDUP: f64 = 2.0;

/// Execution configs swept per prompt setting: (batch size, cache).
/// Batch 1 without cache replays the historical sequential path; the
/// cache-enabled configs are the headline candidates.
const CONFIGS: [(usize, bool); 5] =
    [(1, false), (32, false), (256, false), (32, true), (256, true)];

/// Default model subset: one per major family tier, so the workload
/// exercises terse, chatty, and abstention-prone response paths.
const DEFAULT_MODELS: [ModelId; 4] =
    [ModelId::Gpt4, ModelId::Gpt35, ModelId::Llama2_7b, ModelId::FlanT5_3b];

#[derive(Debug)]
struct BenchOptions {
    scale: f64,
    cap: Option<usize>,
    seed: u64,
    models: Vec<ModelId>,
    repeat: usize,
    threads: usize,
    chunk: usize,
    label: String,
    baseline: Option<String>,
    out: String,
    check: Option<String>,
}

impl BenchOptions {
    fn parse(args: impl Iterator<Item = String>) -> Result<Self, String> {
        let quick = std::env::var("TAXOGLIMPSE_BENCH_QUICK").map(|v| v != "0").unwrap_or(false);
        let mut o = BenchOptions {
            scale: if quick { 0.05 } else { 0.1 },
            cap: Some(if quick { 20 } else { 250 }),
            seed: 42,
            models: DEFAULT_MODELS.to_vec(),
            repeat: if quick { 1 } else { 5 },
            threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            chunk: 256,
            label: "current".to_owned(),
            baseline: None,
            out: "BENCH_eval.json".to_owned(),
            check: None,
        };
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            let mut value = |flag: &str| {
                args.next().ok_or_else(|| format!("{flag} needs a value"))
            };
            match arg.as_str() {
                "--scale" => o.scale = value("--scale")?.parse().map_err(|e| format!("--scale: {e}"))?,
                "--cap" => o.cap = Some(value("--cap")?.parse().map_err(|e| format!("--cap: {e}"))?),
                "--seed" => o.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--repeat" => o.repeat = value("--repeat")?.parse().map_err(|e| format!("--repeat: {e}"))?,
                "--threads" => o.threads = value("--threads")?.parse().map_err(|e| format!("--threads: {e}"))?,
                "--chunk" => o.chunk = value("--chunk")?.parse().map_err(|e| format!("--chunk: {e}"))?,
                "--label" => o.label = value("--label")?,
                "--baseline" => o.baseline = Some(value("--baseline")?),
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

/// Run the measured workload and build the `BENCH_eval.json` document.
fn run_bench(opts: &BenchOptions) -> Json {
    let cache = TaxonomyCache::new();
    let zoo = ModelZoo::default_zoo();

    eprintln!("generating {} taxonomies at scale {} ...", TaxonomyKind::ALL.len(), opts.scale);
    let datasets: Vec<Dataset> = TaxonomyKind::ALL
        .into_iter()
        .map(|kind| {
            let taxonomy = cache.get(kind, opts.seed, opts.scale);
            DatasetBuilder::new(&taxonomy, kind, opts.seed)
                .sample_cap(opts.cap)
                .build(QuestionDataset::Hard)
                .expect("benchmark taxonomies have probe levels")
        })
        .collect();
    let dataset_refs: Vec<&Dataset> = datasets.iter().collect();
    let questions: usize = datasets.iter().map(Dataset::len).sum();
    let queries = questions * opts.models.len();

    let model_arcs: Vec<_> =
        opts.models.iter().map(|&id| zoo.get(id).expect("zoo covers all ids")).collect();
    let model_refs: Vec<&dyn LanguageModel> =
        model_arcs.iter().map(|m| m.as_ref() as &dyn LanguageModel).collect();

    let mut results = Vec::new();
    for setting in PromptSetting::ALL {
        let mut setting_digest: Option<u64> = None;
        let mut config_entries = Vec::new();
        // Headline = best cache-enabled config: (best_s, mean_s, qps, hit_rate).
        let mut headline: Option<(f64, f64, f64, f64)> = None;
        for (batch, cache_on) in CONFIGS {
            let runner = GridRunner::builder()
                .with_config(EvalConfig::default().with_setting(setting))
                .with_threads(opts.threads)
                .with_chunk_size(opts.chunk)
                .with_batch_size(batch)
                .build();
            // One fresh cache per config, shared across its repeat reps
            // and all models (keys include the model name): rep 0 fills
            // it cold, warm reps measure the served path.
            let response_cache = Arc::new(ResponseCache::new());
            let cached_models: Vec<CachedModel<Arc<SimulatedLlm>>> = if cache_on {
                model_arcs
                    .iter()
                    .map(|m| CachedModel::with_cache(Arc::clone(m), Arc::clone(&response_cache)))
                    .collect()
            } else {
                Vec::new()
            };
            let config_refs: Vec<&dyn LanguageModel> = if cache_on {
                cached_models.iter().map(|m| m as &dyn LanguageModel).collect()
            } else {
                model_refs.clone()
            };
            let mut best = f64::INFINITY;
            let mut total = 0.0;
            let mut digest = 0;
            for rep in 0..opts.repeat.max(1) {
                let start = Instant::now();
                let reports = runner.run_cross(&config_refs, &dataset_refs);
                let elapsed = start.elapsed().as_secs_f64();
                total += elapsed;
                best = best.min(elapsed);
                if rep == 0 {
                    digest = reports_digest(&reports);
                }
            }
            if *setting_digest.get_or_insert(digest) != digest {
                eprintln!(
                    "error: {setting}: batch {batch} cache {} produced digest {digest:016x}, \
                     other configs produced {:016x} — batching/caching changed report bytes",
                    if cache_on { "on" } else { "off" },
                    setting_digest.expect("setting digest was just inserted"),
                );
                std::process::exit(1);
            }
            let repeats = opts.repeat.max(1) as f64;
            let mean = total / repeats;
            let qps = queries as f64 / best;
            let stats = response_cache.stats();
            let hit_rate = if cache_on { stats.hit_rate() } else { 0.0 };
            eprintln!(
                "{setting} [batch {batch:>3}, cache {}]: best {:.1} ms, {:.0} q/s, \
                 hit rate {:.2}, digest {digest:016x}",
                if cache_on { "on " } else { "off" },
                best * 1e3,
                qps,
                hit_rate,
            );
            if cache_on && headline.map(|(b, _, _, _)| best < b).unwrap_or(true) {
                headline = Some((best, mean, qps, hit_rate));
            }
            config_entries.push(Json::obj(vec![
                ("batch_size", (batch as u64).to_json()),
                ("cache", cache_on.to_json()),
                ("best_elapsed_ms", (best * 1e3).to_json()),
                ("mean_elapsed_ms", (mean * 1e3).to_json()),
                ("queries_per_sec", qps.to_json()),
                ("cache_hit_rate", hit_rate.to_json()),
                ("cache_entries", (response_cache.len() as u64).to_json()),
                ("reports_digest", format!("{digest:016x}").to_json()),
            ]));
        }
        let digest = setting_digest.expect("CONFIGS is non-empty");
        let (best, mean, qps, hit_rate) = headline.expect("CONFIGS has cache-enabled entries");
        eprintln!("{setting}: headline {:.0} q/s (digest {digest:016x})", qps);
        results.push(Json::obj(vec![
            ("setting", setting.to_string().to_json()),
            ("queries", (queries as u64).to_json()),
            ("best_elapsed_ms", (best * 1e3).to_json()),
            ("mean_elapsed_ms", (mean * 1e3).to_json()),
            ("queries_per_sec", qps.to_json()),
            ("cache_hit_rate", hit_rate.to_json()),
            ("reports_digest", format!("{digest:016x}").to_json()),
            ("configs", Json::Arr(config_entries)),
        ]));
    }

    let workload = Json::obj(vec![
        ("models", Json::Arr(opts.models.iter().map(|m| m.to_string().to_json()).collect())),
        (
            "taxonomies",
            Json::Arr(TaxonomyKind::ALL.iter().map(|k| k.label().to_json()).collect()),
        ),
        ("flavor", "hard".to_json()),
        ("scale", opts.scale.to_json()),
        ("cap", opts.cap.map(|c| (c as u64).to_json()).unwrap_or(Json::Null)),
        ("seed", opts.seed.to_json()),
        ("questions", (questions as u64).to_json()),
        ("queries_per_setting", (queries as u64).to_json()),
        ("threads", (opts.threads as u64).to_json()),
        ("chunk_size", (opts.chunk as u64).to_json()),
        ("repeats", (opts.repeat as u64).to_json()),
    ]);

    let baseline = match &opts.baseline {
        Some(path) => {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("error: --baseline {path}: {e}");
                std::process::exit(1);
            });
            let mut doc = from_str_value(&text).unwrap_or_else(|e| {
                eprintln!("error: --baseline {path}: {e}");
                std::process::exit(1);
            });
            // A baseline of a baseline would nest without bound; embed
            // only the measurement itself.
            if let Json::Obj(fields) = &mut doc {
                fields.retain(|(k, _)| k != "baseline");
            }
            doc
        }
        None => Json::Null,
    };

    Json::obj(vec![
        ("schema_version", SCHEMA_VERSION.to_json()),
        ("label", opts.label.to_json()),
        ("workload", workload),
        ("results", Json::Arr(results)),
        ("baseline", baseline),
    ])
}

/// `--check FILE`: parse with the in-tree JSON crate and validate the
/// v2 shape — per-config entries present, digests identical across the
/// configs of each setting, hit rates within `[0, 1]`, and (when the
/// file embeds a baseline with a matching setting) the zero-shot
/// headline at least [`MIN_ZERO_SHOT_SPEEDUP`]× the baseline's.
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
    let results = doc
        .get("results")
        .and_then(Json::as_arr)
        .ok_or("missing results array")?;
    if results.is_empty() {
        return Err("empty results array".to_owned());
    }
    let mut configs_seen = 0usize;
    for entry in results {
        let setting = entry.get("setting").and_then(Json::as_str).ok_or("result entry missing setting")?;
        for key in ["queries", "best_elapsed_ms", "queries_per_sec", "reports_digest"] {
            if entry.get(key).is_none() {
                return Err(format!("{setting}: result entry missing {key:?}"));
            }
        }
        entry
            .get("queries_per_sec")
            .and_then(Json::as_f64)
            .filter(|q| *q > 0.0)
            .ok_or_else(|| format!("{setting}: queries_per_sec must be a positive number"))?;
        let setting_digest = entry
            .get("reports_digest")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{setting}: reports_digest must be a string"))?;
        check_hit_rate(entry, setting)?;
        let configs = entry
            .get("configs")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("{setting}: missing configs array"))?;
        if configs.is_empty() {
            return Err(format!("{setting}: empty configs array"));
        }
        configs_seen += configs.len();
        for config in configs {
            for key in ["batch_size", "cache", "best_elapsed_ms", "queries_per_sec", "cache_entries"] {
                if config.get(key).is_none() {
                    return Err(format!("{setting}: config entry missing {key:?}"));
                }
            }
            check_hit_rate(config, setting)?;
            let digest = config
                .get("reports_digest")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{setting}: config entry missing reports_digest"))?;
            if digest != setting_digest {
                return Err(format!(
                    "{setting}: config digest {digest} differs from setting digest \
                     {setting_digest} — batching/caching changed report bytes"
                ));
            }
        }
    }
    let speedup = check_baseline_speedup(&doc)?;
    let speedup_note = match speedup {
        Some(s) => format!(", zero-shot {s:.1}x baseline"),
        None => String::new(),
    };
    Ok(format!(
        "{path}: OK ({} settings, {configs_seen} configs, schema v{version}{speedup_note})",
        results.len()
    ))
}

/// Validate a `cache_hit_rate` field, when present, as a number in `[0, 1]`.
fn check_hit_rate(entry: &Json, setting: &str) -> Result<(), String> {
    match entry.get("cache_hit_rate") {
        None => Err(format!("{setting}: missing cache_hit_rate")),
        Some(value) => match value.as_f64() {
            Some(rate) if (0.0..=1.0).contains(&rate) => Ok(()),
            _ => Err(format!("{setting}: cache_hit_rate must be a number in [0, 1]")),
        },
    }
}

/// When the document embeds a baseline whose results include a
/// zero-shot entry, require the document's zero-shot headline to be at
/// least [`MIN_ZERO_SHOT_SPEEDUP`]× the baseline's throughput. Returns
/// the measured speedup, or `None` when no comparable baseline exists
/// (smoke runs omit `--baseline`).
fn check_baseline_speedup(doc: &Json) -> Result<Option<f64>, String> {
    let find_zero_shot = |node: &Json| -> Option<f64> {
        node.get("results")?.as_arr()?.iter().find_map(|entry| {
            let setting = entry.get("setting")?.as_str()?;
            if setting == "zero-shot" {
                entry.get("queries_per_sec")?.as_f64()
            } else {
                None
            }
        })
    };
    let baseline = match doc.get("baseline") {
        Some(b) if !matches!(b, Json::Null) => b,
        _ => return Ok(None),
    };
    let (Some(current), Some(reference)) = (find_zero_shot(doc), find_zero_shot(baseline)) else {
        return Ok(None);
    };
    if reference <= 0.0 {
        return Ok(None);
    }
    let speedup = current / reference;
    if speedup < MIN_ZERO_SHOT_SPEEDUP {
        return Err(format!(
            "zero-shot throughput is only {speedup:.2}x the embedded baseline \
             (needs >= {MIN_ZERO_SHOT_SPEEDUP}x: {current:.0} vs {reference:.0} q/s)"
        ));
    }
    Ok(Some(speedup))
}
