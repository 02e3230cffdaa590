//! `bench_resilience` — the machine-readable resilience baseline.
//!
//! Runs the grid pipeline with every model wrapped in the deterministic
//! [`FaultInjector`] at a ladder of fault rates (0%, 5%, 20%), and
//! records for each rate:
//!
//! * throughput (queries/second, best-of-repeats),
//! * pooled availability (fraction of questions that got any answer),
//! * the retry-amplification factor (model deliveries per question —
//!   how much extra serving the retry layer buys its availability with),
//! * virtual per-query latency percentiles of the retry layer (backoff
//!   waits + retries + fast-fails on a fresh session clock, via the
//!   log-scale histogram the serving benchmarks use),
//! * a `reports_digest` over every report's JSON.
//!
//! Two invariants are *enforced in-run*, not just recorded:
//!
//! 1. at every fault rate the digest is identical across worker counts
//!    {1, 2, 8} — fault streams key on question identity, never worker;
//! 2. at fault rate 0 the digest equals a bare (un-wrapped) model run —
//!    the resilience layer is byte-invisible when nothing fails.
//!
//! ```text
//! cargo run --release -p taxoglimpse-bench --bin bench_resilience -- \
//!     [--scale S] [--cap N] [--seed N] [--models CSV] [--repeat R] \
//!     [--threads T] [--chunk C] [--label L] [--out FILE]
//! cargo run --release -p taxoglimpse-bench --bin bench_resilience -- --check FILE
//! ```
//!
//! `TAXOGLIMPSE_BENCH_QUICK=1` shrinks the workload to smoke-test size.

use std::time::Instant;
use taxoglimpse_bench::TaxonomyCache;
use taxoglimpse_core::dataset::{Dataset, DatasetBuilder, QuestionDataset};
use taxoglimpse_core::domain::TaxonomyKind;
use taxoglimpse_core::grid::GridRunner;
use taxoglimpse_core::metrics::Metrics;
use taxoglimpse_core::model::{LanguageModel, Query};
use taxoglimpse_core::prompts::{render_prompt, PromptSetting};
use taxoglimpse_core::resilience::{ResiliencePolicy, ResilienceSession};
use taxoglimpse_core::templates::TemplateVariant;
use taxoglimpse_core::text::reports_digest;
use taxoglimpse_json::{from_str_value, Json, ToJson};
use taxoglimpse_llm::faults::{FaultInjector, FaultPlan};
use taxoglimpse_llm::profile::ModelId;
use taxoglimpse_llm::simulate::SimulatedLlm;
use taxoglimpse_report::histogram::LatencyHistogram;

/// Current schema version of `BENCH_resilience.json` (see README.md).
const SCHEMA_VERSION: u64 = 1;

/// The fault-rate ladder every run measures.
const FAULT_RATES: [f64; 3] = [0.0, 0.05, 0.20];

/// Worker counts whose reports must be byte-identical.
const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

/// Same default model subset as `bench_eval`.
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
            repeat: if quick { 1 } else { 3 },
            threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            chunk: 256,
            label: "current".to_owned(),
            out: "BENCH_resilience.json".to_owned(),
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
                "--threads" => o.threads = value("--threads")?.parse().map_err(|e| format!("--threads: {e}"))?,
                "--chunk" => o.chunk = value("--chunk")?.parse().map_err(|e| format!("--chunk: {e}"))?,
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

/// Per-query *virtual* latency of the retry layer at one fault rate:
/// replay every query through a fresh [`ResilienceSession`] per model
/// and measure the session-clock delta (backoff waits, retry
/// deliveries, breaker fast-fails) each query costs. Percentiles come
/// from the log-scale [`LatencyHistogram`] the serving benchmarks use.
fn virtual_latency(models: &[&dyn LanguageModel], datasets: &[&Dataset]) -> Json {
    let mut histogram = LatencyHistogram::new();
    for model in models {
        let mut session = ResilienceSession::new(ResiliencePolicy::default());
        for dataset in datasets {
            for question in dataset.questions() {
                let prompt = render_prompt(
                    question,
                    PromptSetting::ZeroShot,
                    TemplateVariant::default(),
                    &[],
                );
                let query = Query::new(&prompt, question, PromptSetting::ZeroShot);
                let before_s = session.clock_s();
                // The outcome itself is scored by the grid runs; here
                // only the clock cost matters.
                let _ = session.call(*model, &query);
                histogram.record(session.clock_s() - before_s);
            }
        }
    }
    Json::obj(vec![
        ("samples", histogram.count().to_json()),
        ("p50_s", histogram.p50().to_json()),
        ("p99_s", histogram.p99().to_json()),
        ("p999_s", histogram.p999().to_json()),
    ])
}

/// Run the measured workload and build the `BENCH_resilience.json`
/// document.
fn run_bench(opts: &BenchOptions) -> Json {
    let cache = TaxonomyCache::new();

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

    let runner_with = |threads: usize| {
        GridRunner::builder().with_threads(threads).with_chunk_size(opts.chunk).build()
    };

    // The rate-0 reference: bare models, no injector anywhere.
    let bare: Vec<SimulatedLlm> =
        opts.models.iter().map(|&id| SimulatedLlm::new(id)).collect();
    let bare_refs: Vec<&dyn LanguageModel> =
        bare.iter().map(|m| m as &dyn LanguageModel).collect();
    let bare_digest =
        reports_digest(&runner_with(opts.threads).run_cross(&bare_refs, &dataset_refs));

    let mut results = Vec::new();
    for rate in FAULT_RATES {
        let injectors: Vec<FaultInjector<SimulatedLlm>> = opts
            .models
            .iter()
            .map(|&id| {
                FaultInjector::new(SimulatedLlm::new(id), FaultPlan::uniform(opts.seed, rate))
            })
            .collect();
        let model_refs: Vec<&dyn LanguageModel> =
            injectors.iter().map(|m| m as &dyn LanguageModel).collect();

        // Invariant 1: digests identical across worker counts.
        let mut worker_digests = Vec::new();
        for workers in WORKER_COUNTS {
            let reports = runner_with(workers).run_cross(&model_refs, &dataset_refs);
            worker_digests.push((workers, reports_digest(&reports)));
        }
        let digest = worker_digests[0].1;
        for (workers, d) in &worker_digests {
            if *d != digest {
                eprintln!(
                    "error: rate {rate}: digest {d:016x} at {workers} workers != {digest:016x} at {} workers",
                    worker_digests[0].0
                );
                std::process::exit(1);
            }
        }

        // Invariant 2: at rate 0 the injector is byte-invisible.
        if rate == 0.0 && digest != bare_digest {
            eprintln!(
                "error: rate 0 digest {digest:016x} != bare-model digest {bare_digest:016x}"
            );
            std::process::exit(1);
        }

        // Measure throughput and collect availability + amplification
        // from a final clean run at the configured thread count.
        let runner = runner_with(opts.threads);
        let mut best = f64::INFINITY;
        let mut total = 0.0;
        for _ in 0..opts.repeat.max(1) {
            let start = Instant::now();
            runner.run_cross(&model_refs, &dataset_refs);
            let elapsed = start.elapsed().as_secs_f64();
            total += elapsed;
            best = best.min(elapsed);
        }
        for injector in &injectors {
            injector.reset();
        }
        let reports = runner.run_cross(&model_refs, &dataset_refs);
        let mut pooled = Metrics::default();
        for report in &reports {
            pooled += report.overall;
        }
        let deliveries: u64 = injectors.iter().map(|i| i.stats().calls).sum();
        let injected: u64 = injectors.iter().map(|i| i.stats().injected).sum();
        let amplification = deliveries as f64 / queries.max(1) as f64;

        let repeats = opts.repeat.max(1) as f64;
        let qps = queries as f64 / best;
        let latency = virtual_latency(&model_refs, &dataset_refs);
        eprintln!(
            "rate {rate}: {queries} queries, best {:.1} ms, {:.0} q/s, avail {:.4}, amp {:.3}, digest {digest:016x}",
            best * 1e3,
            qps,
            pooled.availability(),
            amplification,
        );
        results.push(Json::obj(vec![
            ("fault_rate", rate.to_json()),
            ("queries", (queries as u64).to_json()),
            ("best_elapsed_ms", (best * 1e3).to_json()),
            ("mean_elapsed_ms", (total / repeats * 1e3).to_json()),
            ("queries_per_sec", qps.to_json()),
            ("availability", pooled.availability().to_json()),
            ("failed", (pooled.failed as u64).to_json()),
            ("deliveries", deliveries.to_json()),
            ("injected_faults", injected.to_json()),
            ("retry_amplification", amplification.to_json()),
            ("virtual_latency", latency),
            ("reports_digest", format!("{digest:016x}").to_json()),
            (
                "workers_checked",
                Json::Arr(WORKER_COUNTS.iter().map(|w| (*w as u64).to_json()).collect()),
            ),
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
        ("queries_per_rate", (queries as u64).to_json()),
        ("threads", (opts.threads as u64).to_json()),
        ("chunk_size", (opts.chunk as u64).to_json()),
        ("repeats", (opts.repeat as u64).to_json()),
        ("bare_digest", format!("{bare_digest:016x}").to_json()),
    ]);

    Json::obj(vec![
        ("schema_version", SCHEMA_VERSION.to_json()),
        ("label", opts.label.to_json()),
        ("workload", workload),
        ("results", Json::Arr(results)),
    ])
}

/// `--check FILE`: parse with the in-tree JSON crate and validate shape
/// plus the cross-rate invariants the document claims.
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
    let workload = doc.get("workload").ok_or("missing workload object")?;
    let bare_digest =
        workload.get("bare_digest").and_then(Json::as_str).ok_or("missing bare_digest")?;
    let results = doc.get("results").and_then(Json::as_arr).ok_or("missing results array")?;
    if results.is_empty() {
        return Err("empty results array".to_owned());
    }
    for entry in results {
        for key in [
            "fault_rate",
            "queries",
            "best_elapsed_ms",
            "queries_per_sec",
            "availability",
            "retry_amplification",
            "reports_digest",
        ] {
            if entry.get(key).is_none() {
                return Err(format!("result entry missing {key:?}"));
            }
        }
        entry
            .get("queries_per_sec")
            .and_then(Json::as_f64)
            .filter(|q| *q > 0.0)
            .ok_or("queries_per_sec must be a positive number")?;
        let rate = entry.get("fault_rate").and_then(Json::as_f64).ok_or("fault_rate must be a number")?;
        let avail = entry
            .get("availability")
            .and_then(Json::as_f64)
            .filter(|a| (0.0..=1.0).contains(a))
            .ok_or("availability must be in [0, 1]")?;
        let amp = entry
            .get("retry_amplification")
            .and_then(Json::as_f64)
            .filter(|a| *a >= 1.0 - 1e-9)
            .ok_or("retry_amplification must be >= 1")?;
        let digest =
            entry.get("reports_digest").and_then(Json::as_str).ok_or("missing reports_digest")?;
        // Optional (added after the first pinned baseline): virtual
        // retry-layer latency percentiles must be monotone when present.
        if let Some(latency) = entry.get("virtual_latency") {
            let p50 = latency.get("p50_s").and_then(Json::as_f64).ok_or("virtual_latency.p50_s must be a number")?;
            let p99 = latency.get("p99_s").and_then(Json::as_f64).ok_or("virtual_latency.p99_s must be a number")?;
            let p999 = latency.get("p999_s").and_then(Json::as_f64).ok_or("virtual_latency.p999_s must be a number")?;
            if !(p50 <= p99 && p99 <= p999) {
                return Err(format!(
                    "virtual_latency percentiles not monotone: p50 {p50}, p99 {p99}, p999 {p999}"
                ));
            }
            if rate == 0.0 && p999 != 0.0 {
                return Err(format!(
                    "fault rate 0 virtual_latency p999 {p999} != 0 (nothing retries)"
                ));
            }
        }
        if rate == 0.0 {
            if digest != bare_digest {
                return Err(format!(
                    "fault rate 0 digest {digest} != bare_digest {bare_digest}"
                ));
            }
            if avail != 1.0 {
                return Err(format!("fault rate 0 availability {avail} != 1"));
            }
            if (amp - 1.0).abs() > 1e-9 {
                return Err(format!("fault rate 0 amplification {amp} != 1"));
            }
        }
    }
    Ok(format!("{path}: OK ({} fault rates, schema v{version})", results.len()))
}
