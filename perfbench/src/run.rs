//! The benchmark command: parse options, run one workload's passes for
//! the requested time, check every output, and print the metrics.

use crate::trace::{busy_s, calls, self_s, self_s_union, Span, Tracer};
use crate::{median, peak_rss_mb, quantile, Layers, Pass, StateDir, Workload};
use std::path::Path;
use std::time::Instant;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    /// The Tables 5–7 pipeline at full scale.
    PaperTables,
    /// Open-loop serving in virtual time.
    ServeFleet,
    /// Hierarchical classification by constrained descent.
    HierDescent,
}

impl Name {
    /// Parse a workload name.
    pub fn parse(s: &str) -> Result<Name, String> {
        match s {
            "paper_tables" => Ok(Name::PaperTables),
            "serve_fleet" => Ok(Name::ServeFleet),
            "hier_descent" => Ok(Name::HierDescent),
            other => Err(format!(
                "unknown workload {other:?} (want paper_tables|serve_fleet|hier_descent)"
            )),
        }
    }

    /// The workload's name.
    pub fn label(self) -> &'static str {
        match self {
            Name::PaperTables => "paper_tables",
            Name::ServeFleet => "serve_fleet",
            Name::HierDescent => "hier_descent",
        }
    }

    /// The name of `ops_per_s` on this workload, as the stderr
    /// summary prints it.
    fn ops_label(self) -> &'static str {
        match self {
            Name::PaperTables => "queries_per_s",
            Name::ServeFleet => "requests_per_s",
            Name::HierDescent => "instances_per_s",
        }
    }

    /// Build the workload at its benchmark size.
    pub fn build(self, seed: u64, state: &StateDir) -> Box<dyn Workload> {
        match self {
            Name::PaperTables => Box::new(crate::paper::PaperTables::new(
                seed,
                crate::paper::Size::PAPER,
                state.store(),
            )),
            Name::ServeFleet => Box::new(crate::serve::ServeFleet::new(
                seed,
                crate::serve::Size::FLEET,
                state.store(),
            )),
            Name::HierDescent => Box::new(crate::hier::HierDescent::new(
                seed,
                crate::hier::Size::DESCENT,
                state.store(),
            )),
        }
    }
}

/// Command-line options.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Which workload to run.
    pub workload: Name,
    /// Seed every input is made from.
    pub seed: u64,
    /// How long to keep starting passes.
    pub seconds: f64,
    /// Per-layer metrics from a traced run instead of end-to-end ones.
    pub trace: bool,
}

impl Options {
    /// Parse `--workload W [--seed N] [--seconds S] [--trace 0|1]`.
    pub fn parse(args: impl Iterator<Item = String>) -> Result<Options, String> {
        let mut workload = None;
        let mut opts = Options {
            workload: Name::PaperTables,
            seed: 42,
            seconds: 10.0,
            trace: false,
        };
        let mut args = args.peekable();
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(Name::parse(&value)?),
                "--seed" => opts.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    opts.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(opts.seconds.is_finite() && opts.seconds >= 0.0) {
                        return Err("--seconds must be a non-negative number".to_owned());
                    }
                }
                "--trace" => {
                    opts.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace: want 0 or 1, got {other:?}")),
                    }
                }
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        opts.workload = workload.ok_or("--workload is required")?;
        Ok(opts)
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result line of one benchmark run.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// Workload operations attempted over every pass.
    pub attempted: u64,
    /// Operations of passes whose checks failed.
    pub failed: u64,
    /// The metrics, in definition order.
    pub metrics: Vec<Metric>,
    /// Why the run is not correct.
    pub errors: Vec<String>,
}

impl Outcome {
    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite JSON number; non-finite values (which no metric should
/// produce) become 0 rather than invalid JSON.
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_owned()
    }
}

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("reload_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run (0 where a layer
/// does no work on the workload).
pub const PER_LAYER: [(&str, &str); 52] = [
    ("synth.generate.busy_s", "s"),
    ("taxonomy.snapshot.save.busy_s", "s"),
    ("core.dataset.build.busy_s", "s"),
    ("core.dataset.build.questions", "count"),
    ("taxonomy.snapshot.load.busy_s", "s"),
    ("taxonomy.snapshot.load.bytes", "bytes"),
    ("llm.answer_batch.calls", "count"),
    ("llm.answer_batch.queries", "count"),
    ("llm.answer_batch.busy_s", "s"),
    ("llm.answer_batch.mean_batch", "count"),
    ("llm.answer.calls", "count"),
    ("llm.answer.busy_s", "s"),
    ("core.prompts.render.busy_s", "s"),
    ("core.parse.busy_s", "s"),
    ("core.parse.unparsed", "count"),
    ("core.grid.run_cross.busy_s", "s"),
    ("core.grid.run_cross.self_s", "s"),
    ("core.cache.self_s", "s"),
    ("core.cache.hits", "count"),
    ("core.cache.misses", "count"),
    ("core.cache.hit_rate", "ratio"),
    ("core.cache.entries", "count"),
    ("llm.faults.self_s", "s"),
    ("llm.faults.injected", "count"),
    ("core.resilience.deliveries", "count"),
    ("core.resilience.retries", "count"),
    ("core.resilience.amplification", "ratio"),
    ("core.resilience.fast_failed", "count"),
    ("core.serve.admission.shed_rate_limited", "count"),
    ("core.serve.admission.shed_overload", "count"),
    ("core.serve.admission.shed_queue_full", "count"),
    ("core.serve.run_serve.busy_s", "s"),
    ("core.serve.run_serve.self_s", "s"),
    ("core.serve.trace_events", "count"),
    ("core.serve.batcher.batches", "count"),
    ("core.serve.batcher.mean_occupancy", "count"),
    ("core.serve.virtual_p50_ms", "ms"),
    ("core.serve.virtual_p99_ms", "ms"),
    ("core.serve.slo_attainment", "ratio"),
    ("core.hier.build.busy_s", "s"),
    ("core.hier.route.calls", "count"),
    ("core.hier.route.busy_s", "s"),
    ("core.hier.run.busy_s", "s"),
    ("core.hier.run.self_s", "s"),
    ("core.hier.queries_per_instance", "count"),
    ("core.hier.prompt_tokens_per_query", "count"),
    ("core.hier.invalid", "count"),
    ("core.failed_share", "ratio"),
    ("report.compare.busy_s", "s"),
    ("bench.untraced_wall_s", "s"),
    ("bench.traced_wall_s", "s"),
    ("bench.trace_overhead_share", "ratio"),
];

/// Per-layer metrics computed from one traced pass's spans.
pub fn span_layers(spans: &[Span]) -> Layers {
    let (batch_calls, batch_queries) = calls(spans, "llm.answer_batch");
    let (route_calls, _) = calls(spans, "core.hier.route");
    Layers::from([
        ("synth.generate.busy_s", busy_s(spans, "synth.generate")),
        (
            "taxonomy.snapshot.save.busy_s",
            busy_s(spans, "taxonomy.snapshot.save"),
        ),
        (
            "core.dataset.build.busy_s",
            busy_s(spans, "core.dataset.build"),
        ),
        (
            "taxonomy.snapshot.load.busy_s",
            busy_s(spans, "taxonomy.snapshot.load"),
        ),
        ("llm.answer_batch.calls", batch_calls as f64),
        ("llm.answer_batch.queries", batch_queries as f64),
        ("llm.answer_batch.busy_s", busy_s(spans, "llm.answer_batch")),
        (
            "llm.answer_batch.mean_batch",
            batch_queries as f64 / batch_calls.max(1) as f64,
        ),
        ("llm.answer.calls", calls(spans, "llm.answer").0 as f64),
        ("llm.answer.busy_s", busy_s(spans, "llm.answer")),
        (
            "core.prompts.render.busy_s",
            busy_s(spans, "core.prompts.render"),
        ),
        ("core.parse.busy_s", busy_s(spans, "core.parse")),
        (
            "core.grid.run_cross.busy_s",
            busy_s(spans, "core.grid.run_cross"),
        ),
        (
            "core.grid.run_cross.self_s",
            self_s_union(spans, "core.grid.run_cross", "llm."),
        ),
        (
            "core.cache.self_s",
            self_s(spans, "core.cache.", "llm.answer"),
        ),
        (
            "llm.faults.self_s",
            self_s(spans, "llm.faults.", "core.cache."),
        ),
        (
            "core.serve.run_serve.busy_s",
            busy_s(spans, "core.serve.run_serve"),
        ),
        (
            "core.serve.run_serve.self_s",
            self_s_union(spans, "core.serve.run_serve", "llm."),
        ),
        ("core.hier.build.busy_s", busy_s(spans, "core.hier.build")),
        ("core.hier.route.calls", route_calls as f64),
        ("core.hier.route.busy_s", busy_s(spans, "core.hier.route")),
        ("core.hier.run.busy_s", busy_s(spans, "core.hier.run")),
        (
            "core.hier.run.self_s",
            self_s_union(spans, "core.hier.run", "llm."),
        ),
        ("report.compare.busy_s", busy_s(spans, "report.compare")),
    ])
}

/// The run record: where and on what the numbers were measured.
pub fn run_record(opts: &Options) -> String {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(0);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".to_owned());
    format!(
        "{{\"run\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \"rustc\": \"{}\", \"git_rev\": \"{}\", \"cpu\": \"{}\"}}}}",
        opts.workload.label(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        env!("PERFBENCH_RUSTC_VERSION"),
        git_rev(),
        cpu.replace(['"', '\\'], "")
    )
}

/// The checked-out commit, read from `.git` in the working directory
/// (a checkout without one, such as an exported tree, reads `unknown`).
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_owned(),
        Err(_) => return "unknown".to_owned(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    std::fs::read_to_string(Path::new(".git").join(reference))
        .ok()
        .map(|rev| rev.trim().to_owned())
        .or_else(|| {
            std::fs::read_to_string(".git/packed-refs")
                .ok()
                .and_then(|packed| {
                    packed
                        .lines()
                        .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_owned()))
                })
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Check that every pass produced the same report bytes, and the pinned
/// ones where the workload pins them.
pub fn check_digests(digests: &[u64], pinned: Option<u64>) -> Result<(), String> {
    let Some(&first) = digests.first() else {
        return Err("no pass completed".to_owned());
    };
    if let Some(i) = digests.iter().position(|&d| d != first) {
        return Err(format!(
            "pass {i} report digest {:016x} differs from pass 0's {first:016x}",
            digests[i]
        ));
    }
    match pinned {
        Some(want) if want != first => {
            Err(format!("report digest {first:016x}, pinned {want:016x}"))
        }
        _ => Ok(()),
    }
}

/// Run the passes of one workload and collect the outcome. State lives
/// in a fresh directory under `state_root`, removed before returning.
pub fn execute(opts: &Options, state_root: &Path) -> Result<Outcome, String> {
    let state = StateDir::create(state_root, opts.workload.label())
        .map_err(|e| format!("cannot create {}: {e}", state_root.display()))?;
    let mut workload = opts.workload.build(opts.seed, &state);

    let mut untraced: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let mut errors = Vec::new();
    let start = Instant::now();
    loop {
        // A traced run alternates untraced and traced passes, so the
        // tracing overhead is measured under the same conditions.
        let tracer = (opts.trace && untraced.len() > traced.len()).then(Tracer::new);
        match workload.pass(tracer.as_ref()) {
            Ok(mut pass) => match tracer {
                Some(tracer) => {
                    pass.layers.extend(span_layers(&tracer.take()));
                    traced.push(pass);
                }
                None => untraced.push(pass),
            },
            Err(e) => {
                errors.push(e);
                break;
            }
        }
        let enough = !opts.trace || !traced.is_empty();
        if enough && start.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }
    // Read before `finish`, whose extra checks are not the workload.
    let peak_rss = peak_rss_mb();
    if errors.is_empty() {
        if let Err(e) = workload.finish() {
            errors.push(e);
        }
    }
    let all: Vec<&Pass> = untraced.iter().chain(&traced).collect();
    let digests: Vec<u64> = all.iter().map(|p| p.digest).collect();
    if let Err(e) = check_digests(&digests, workload.pinned_digest(opts.seed)) {
        errors.push(e);
    }
    drop(workload);
    drop(state);

    let attempted = all.iter().map(|p| p.ops).sum::<u64>().max(1);
    summarize(opts, &untraced, &traced, peak_rss);
    let metrics = if opts.trace {
        layer_metrics(&untraced, &traced)
    } else {
        end_to_end(&untraced, peak_rss)
    };
    Ok(Outcome {
        correct: errors.is_empty(),
        attempted,
        failed: if errors.is_empty() { 0 } else { attempted },
        metrics,
        errors,
    })
}

fn of(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> Vec<f64> {
    passes.iter().map(f).collect()
}

fn end_to_end(passes: &[Pass], peak_rss: f64) -> Vec<Metric> {
    let values = [
        median(&of(passes, |p| p.setup_s)),
        median(&of(passes, |p| p.reload_s)),
        median(&of(passes, Pass::wall_s)),
        median(&of(passes, |p| p.ops as f64 / p.run_s)),
        peak_rss,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, value, unit })
        .collect()
}

fn layer_metrics(untraced: &[Pass], traced: &[Pass]) -> Vec<Metric> {
    let untraced_wall = median(&of(untraced, Pass::wall_s));
    let traced_wall = median(&of(traced, Pass::wall_s));
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "bench.untraced_wall_s" => untraced_wall,
                "bench.traced_wall_s" => traced_wall,
                "bench.trace_overhead_share" => (traced_wall - untraced_wall) / untraced_wall,
                _ => median(&of(traced, |p| p.layers.get(name).copied().unwrap_or(0.0))),
            };
            Metric { name, value, unit }
        })
        .collect()
}

/// Human-readable summary on stderr: every end-to-end number with its
/// spread, and the workload's outcome metrics under the names the
/// benchmark's documentation uses.
fn summarize(opts: &Options, untraced: &[Pass], traced: &[Pass], peak_rss: f64) {
    let spread = |v: &[f64]| {
        let m = median(v);
        format!(
            "median {m:.4} (iqr/median {:.3}, n={})",
            (quantile(v, 0.75) - quantile(v, 0.25)) / m,
            v.len()
        )
    };
    eprintln!(
        "{} seed {}: {} untraced, {} traced passes",
        opts.workload.label(),
        opts.seed,
        untraced.len(),
        traced.len()
    );
    for (kind, passes) in [("untraced", untraced), ("traced", traced)] {
        for (i, p) in passes.iter().enumerate() {
            eprintln!(
                "  {kind} pass {i}: setup {:.4} run {:.4} report {:.4} reload {:.4}",
                p.setup_s, p.run_s, p.report_s, p.reload_s
            );
        }
    }
    eprintln!("  setup_s      {}", spread(&of(untraced, |p| p.setup_s)));
    eprintln!("  reload_s     {}", spread(&of(untraced, |p| p.reload_s)));
    eprintln!("  wall_s       {}", spread(&of(untraced, Pass::wall_s)));
    eprintln!("  run_s        {}", spread(&of(untraced, |p| p.run_s)));
    eprintln!(
        "  {:<12} {}",
        opts.workload.ops_label(),
        spread(&of(untraced, |p| p.ops as f64 / p.run_s))
    );
    eprintln!("  peak_rss_mb  {peak_rss:.1}");
    if let Some(first) = untraced.first() {
        for (name, value) in &first.layers {
            eprintln!("  {name} {value}");
        }
    }
}
