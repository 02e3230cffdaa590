//! `paper_tables`: the Tables 5–7 pipeline exactly as the `tables567`
//! binary runs it — ten taxonomies at full scale, Cochran-sized Easy,
//! Hard and MCQ datasets, all eighteen models zero-shot through
//! `GridRunner::run_cross`, then the fidelity comparison and the table
//! render. A closed batch job, started cold from an empty snapshot
//! store, followed by a timed warm reload from the store it filled.

use crate::trace::{self, traced, Shim, Tier, Tracer};
use crate::{digest, generate_and_save, reload, Layers, Pass, Workload, THREADS};
use std::sync::Arc;
use std::time::Instant;
use taxoglimpse_core::dataset::{Dataset, DatasetBuilder, QuestionDataset};
use taxoglimpse_core::domain::TaxonomyKind;
use taxoglimpse_core::eval::{EvalConfig, EvalReport};
use taxoglimpse_core::grid::GridRunner;
use taxoglimpse_core::model::LanguageModel;
use taxoglimpse_core::parse::{parse_mcq, parse_tf, ParsedAnswer};
use taxoglimpse_core::prompts::{render_prefix, render_prompt_into, PromptSetting};
use taxoglimpse_core::question::QuestionKind;
use taxoglimpse_llm::profile::ModelId;
use taxoglimpse_llm::simulate::SimulatedLlm;
use taxoglimpse_llm::zoo::ModelZoo;
use taxoglimpse_report::compare::ComparisonSummary;
use taxoglimpse_report::table::{fmt3, Table};
use taxoglimpse_taxonomy::{SnapshotStore, Taxonomy};

/// Report digest of one pass at seed 42 and full scale.
pub const PINNED_DIGEST_SEED_42: u64 = 0xac19_4e3b_a75a_ae85;

/// Workload size: taxonomy scale and per-level sample cap (`None` is
/// the paper's Cochran sizes).
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Taxonomy scale in `(0, 1]`.
    pub scale: f64,
    /// Per-level sample cap.
    pub cap: Option<usize>,
}

impl Size {
    /// The paper's workload: full scale, Cochran-sized samples.
    pub const PAPER: Size = Size {
        scale: 1.0,
        cap: None,
    };
}

/// Datasets for every flavor, in `QuestionDataset::ALL` order, each
/// holding the ten taxonomies in `TaxonomyKind::ALL` order.
pub type Datasets = Vec<Vec<Dataset>>;

/// Build the thirty datasets from the ten taxonomies.
pub fn build_datasets(
    taxonomies: &[Taxonomy],
    seed: u64,
    size: Size,
    tracer: Option<&Tracer>,
) -> Result<Datasets, String> {
    QuestionDataset::ALL
        .into_iter()
        .map(|flavor| {
            TaxonomyKind::ALL
                .into_iter()
                .zip(taxonomies)
                .map(|(kind, t)| {
                    traced(tracer, "core.dataset.build", || {
                        DatasetBuilder::new(t, kind, seed)
                            .sample_cap(size.cap)
                            .build(flavor)
                    })
                    .map_err(|e| format!("{} {flavor} dataset: {e}", kind.label()))
                })
                .collect()
        })
        .collect()
}

/// Run the grid once per flavor, as `tables567` does: every model on
/// the flavor's ten datasets.
pub fn run_grid(
    models: &[&dyn LanguageModel],
    datasets: &Datasets,
    tracer: Option<&Tracer>,
) -> Vec<Vec<EvalReport>> {
    let runner = GridRunner::builder()
        .with_config(EvalConfig::default())
        .with_threads(THREADS)
        .build();
    datasets
        .iter()
        .map(|flavor| {
            let refs: Vec<&Dataset> = flavor.iter().collect();
            traced(tracer, "core.grid.run_cross", || {
                runner.run_cross(models, &refs)
            })
        })
        .collect()
}

/// Render Tables 5–7 and the fidelity summaries, as `tables567` prints
/// them.
pub fn render(
    model_ids: &[ModelId],
    reports: &[Vec<EvalReport>],
    scale: f64,
    tracer: Option<&Tracer>,
) -> String {
    traced(tracer, "report.compare", || {
        let mut out = String::new();
        for (flavor, reports) in QuestionDataset::ALL.into_iter().zip(reports) {
            let table_no = match flavor {
                QuestionDataset::Hard => 5,
                QuestionDataset::Easy => 6,
                QuestionDataset::Mcq => 7,
            };
            let mut headers = vec!["Model".into(), "".into()];
            headers.extend(
                TaxonomyKind::ALL
                    .iter()
                    .map(|k| k.display_name().to_owned()),
            );
            let mut table = Table::new(
                format!("Table {table_no}: Overall results on {flavor} datasets (scale {scale})"),
                headers,
            );
            let per_model = reports.len() / model_ids.len().max(1);
            let mut comparisons = Vec::new();
            for (mi, &model_id) in model_ids.iter().enumerate() {
                let mut row_a = vec![model_id.to_string(), "A".to_owned()];
                let mut row_m = vec![String::new(), "M".to_owned()];
                for report in &reports[mi * per_model..(mi + 1) * per_model] {
                    row_a.push(fmt3(report.overall.accuracy()));
                    row_m.push(fmt3(report.overall.miss_rate()));
                    comparisons.push((model_id, report.clone()));
                }
                table.push_row(row_a);
                table.push_row(row_m);
            }
            out.push_str(&table.render_ascii());
            let summary = ComparisonSummary::from_reports(flavor, &comparisons);
            out.push_str(&format!(
                "\nfidelity vs paper ({flavor}): mean |dA| = {:.3}, mean |dM| = {:.3}, max |dA| = {:.3}, winner agreement = {:.0}%\n\n",
                summary.mean_delta_a(),
                summary.mean_delta_m(),
                summary.max_delta_a(),
                summary.winner_agreement() * 100.0
            ));
        }
        out
    })
}

/// Digest of every report's JSON plus the rendered tables.
pub fn report_digest(reports: &[Vec<EvalReport>], rendered: &str) -> u64 {
    let json: Vec<String> = reports
        .iter()
        .flatten()
        .map(|r| taxoglimpse_json::to_string(r).expect("eval reports serialize"))
        .collect();
    digest(
        json.iter()
            .map(String::as_str)
            .chain(std::iter::once(rendered)),
    )
}

/// Time prompt rendering by replaying, for every model, each question
/// through the same prefix + `render_prompt_into` path the evaluator
/// uses.
fn replay_render(datasets: &Datasets, models: usize, tracer: &Tracer) {
    let config = EvalConfig::default();
    tracer.span("core.prompts.render", 0, || {
        let mut buf = String::new();
        let mut bytes = 0usize;
        for _ in 0..models {
            for slice in datasets.iter().flatten().flat_map(|d| &d.levels) {
                let prefix = render_prefix(
                    config.setting,
                    config.variant,
                    &slice.exemplars,
                    PromptSetting::SHOTS,
                );
                for q in &slice.questions {
                    render_prompt_into(q, config.setting, config.variant, &prefix, &mut buf);
                    bytes += buf.len();
                }
            }
        }
        std::hint::black_box(bytes)
    });
}

/// Time answer parsing by replaying the responses the model tier
/// delivered. Returns how many did not parse.
fn replay_parse(captured: &trace::Captured, tracer: &Tracer) -> u64 {
    tracer.span("core.parse", 0, || {
        captured
            .iter()
            .map(|(kind, text)| match kind {
                QuestionKind::TrueFalse => parse_tf(text),
                QuestionKind::Mcq => parse_mcq(text),
            })
            .filter(|p| *p == ParsedAnswer::Unparsed)
            .count() as u64
    })
}

/// The `paper_tables` workload.
pub struct PaperTables {
    seed: u64,
    size: Size,
    store: SnapshotStore,
}

impl PaperTables {
    /// The workload at `size`, saving snapshots into `store`.
    pub fn new(seed: u64, size: Size, store: SnapshotStore) -> Self {
        PaperTables { seed, size, store }
    }
}

impl Workload for PaperTables {
    fn pass(&mut self, tracer: Option<&Arc<Tracer>>) -> Result<Pass, String> {
        let t = tracer.map(Arc::as_ref);
        let (seed, size) = (self.seed, self.size);

        let start = Instant::now();
        let taxonomies = generate_and_save(&self.store, seed, size.scale, t)?;
        let datasets = build_datasets(&taxonomies, seed, size, t)?;
        let zoo = ModelZoo::default_zoo();
        let model_ids = ModelId::ALL.to_vec();
        let models: Vec<Arc<SimulatedLlm>> = model_ids
            .iter()
            .map(|&id| zoo.get(id).expect("the zoo covers every model id"))
            .collect();
        let setup_s = start.elapsed().as_secs_f64();

        let start = Instant::now();
        let reports = match tracer {
            None => {
                let refs: Vec<&dyn LanguageModel> =
                    models.iter().map(|m| m as &dyn LanguageModel).collect();
                run_grid(&refs, &datasets, None)
            }
            Some(tr) => {
                let shims: Vec<_> = models
                    .iter()
                    .map(|m| Shim::new(Arc::clone(m), tr, Tier::Model).capturing())
                    .collect();
                let refs: Vec<&dyn LanguageModel> =
                    shims.iter().map(|m| m as &dyn LanguageModel).collect();
                run_grid(&refs, &datasets, t)
            }
        };
        let run_s = start.elapsed().as_secs_f64();

        let start = Instant::now();
        let rendered = render(&model_ids, &reports, size.scale, t);
        let report_s = start.elapsed().as_secs_f64();

        let ops: u64 = reports
            .iter()
            .flatten()
            .map(|r| r.overall.total() as u64)
            .sum();
        let failed: u64 = reports
            .iter()
            .flatten()
            .map(|r| r.overall.failed as u64)
            .sum();
        let questions: usize = datasets.iter().flatten().map(Dataset::len).sum();
        if ops != (questions * model_ids.len()) as u64 {
            return Err(format!(
                "grid scored {ops} queries, expected {questions} x {}",
                model_ids.len()
            ));
        }
        let digest = report_digest(&reports, &rendered);

        let mut layers = Layers::from([("core.failed_share", failed as f64 / ops.max(1) as f64)]);
        if let Some(tr) = tracer {
            replay_render(&datasets, models.len(), tr);
            let unparsed = replay_parse(&tr.take_captured(), tr);
            layers.insert("core.parse.unparsed", unparsed as f64);
            layers.insert("core.dataset.build.questions", questions as f64);
        }

        // Warm path: drop everything, then reload from the store this
        // pass filled and rebuild the datasets.
        let expected: Vec<u64> = taxonomies.iter().map(Taxonomy::content_digest).collect();
        drop((taxonomies, datasets, reports));
        let start = Instant::now();
        let (reloaded, bytes) = reload(&self.store, seed, size.scale, &expected, t)?;
        let rebuilt = build_datasets(&reloaded, seed, size, None)?;
        let reload_s = start.elapsed().as_secs_f64();
        let rebuilt_questions: usize = rebuilt.iter().flatten().map(Dataset::len).sum();
        if rebuilt_questions != questions {
            return Err(format!(
                "reload rebuilt {rebuilt_questions} questions, cold set-up built {questions}"
            ));
        }
        if tracer.is_some() {
            layers.insert("taxonomy.snapshot.load.bytes", bytes as f64);
        }

        Ok(Pass {
            setup_s,
            run_s,
            report_s,
            reload_s,
            ops,
            digest,
            layers,
        })
    }

    fn pinned_digest(&self, seed: u64) -> Option<u64> {
        (seed == 42 && self.size.scale == 1.0 && self.size.cap.is_none())
            .then_some(PINNED_DIGEST_SEED_42)
    }
}
