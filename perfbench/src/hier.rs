//! `hier_descent`: two-stage hierarchical classification
//! (`core::hier`) with `bench_hier`'s configuration — scale 0.1, router
//! level 1, top-k 3, four options per sibling question — on all ten
//! taxonomies, for GPT-4 and Llama-2-7B on two workers. Each instance
//! costs a chain of dependent single `answer` calls plus the flat
//! baseline, and the router's trigram scans dominate the time.

use crate::trace::{traced, Shim, Tier, Tracer};
use crate::{digest, generate_and_save, reload, Layers, Pass, Workload, THREADS};
use std::sync::Arc;
use std::time::Instant;
use taxoglimpse_core::domain::TaxonomyKind;
use taxoglimpse_core::hier::{DescentConfig, HierDataset, HierReport, HierWorkload, RouterConfig};
use taxoglimpse_core::model::LanguageModel;
use taxoglimpse_core::workload::{Workload as _, WorkloadContext, WorkloadRunner};
use taxoglimpse_llm::profile::ModelId;
use taxoglimpse_llm::simulate::SimulatedLlm;
use taxoglimpse_llm::zoo::ModelZoo;
use taxoglimpse_taxonomy::{SnapshotStore, Taxonomy};

/// Report digest of one pass at seed 42 and [`Size::DESCENT`].
pub const PINNED_DIGEST_SEED_42: u64 = 0x53f6_3b00_9a35_d0d3;

/// The two models: one strong, one weak.
pub const MODELS: [ModelId; 2] = [ModelId::Gpt4, ModelId::Llama2_7b];

/// Workload size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Size {
    /// Taxonomy scale.
    pub scale: f64,
    /// Instances sampled per taxonomy.
    pub cap: usize,
}

impl Size {
    /// The benchmark's size: about three seconds of descent per pass.
    pub const DESCENT: Size = Size {
        scale: 0.1,
        cap: 12,
    };
}

/// `bench_hier`'s workload configuration.
pub fn workload(size: Size) -> HierWorkload {
    HierWorkload::new()
        .with_router(RouterConfig::default().with_level(1).with_top_k(3))
        .with_descent(DescentConfig::default().with_max_options(4))
        .with_sample_cap(Some(size.cap))
}

/// Build every taxonomy's instances.
pub fn build(
    workload: &HierWorkload,
    taxonomies: &[Taxonomy],
    seed: u64,
    tracer: Option<&Tracer>,
) -> Result<Vec<HierDataset>, String> {
    TaxonomyKind::ALL
        .into_iter()
        .zip(taxonomies)
        .map(|(kind, t)| {
            traced(tracer, "core.hier.build", || {
                workload.build(&WorkloadContext::new(t, kind, seed))
            })
            .map_err(|e| format!("{} hier instances: {e}", kind.label()))
        })
        .collect()
}

/// Classify every taxonomy's instances with every model, taxonomy-major.
pub fn run(
    workload: &HierWorkload,
    models: &[&dyn LanguageModel],
    taxonomies: &[Taxonomy],
    data: &[HierDataset],
    seed: u64,
    tracer: Option<&Tracer>,
) -> Vec<HierReport> {
    let runner = WorkloadRunner::builder().with_threads(THREADS).build();
    let mut reports = Vec::new();
    for ((kind, t), data) in TaxonomyKind::ALL.into_iter().zip(taxonomies).zip(data) {
        let cx = WorkloadContext::new(t, kind, seed);
        for &model in models {
            reports.push(traced(tracer, "core.hier.run", || {
                workload.run(&runner, model, &cx, data)
            }));
        }
    }
    reports
}

/// Digest of every report's JSON.
pub fn report_digest(reports: &[HierReport]) -> u64 {
    let json: Vec<String> = reports
        .iter()
        .map(|r| taxoglimpse_json::to_string(r).expect("hier reports serialize"))
        .collect();
    digest(json.iter().map(String::as_str))
}

/// Deterministic outcome metrics of one pass's reports.
pub fn outcomes(reports: &[HierReport]) -> Layers {
    let sum = |f: fn(&HierReport) -> usize| reports.iter().map(f).sum::<usize>() as f64;
    let instances = sum(|r| r.metrics.instances);
    let queries = sum(|r| r.metrics.hier_queries);
    Layers::from([
        (
            "core.hier.queries_per_instance",
            queries / instances.max(1.0),
        ),
        (
            "core.hier.prompt_tokens_per_query",
            sum(|r| r.metrics.hier_prompt_tokens) / queries.max(1.0),
        ),
        ("core.hier.invalid", sum(|r| r.metrics.hier_invalid)),
        (
            "core.failed_share",
            sum(|r| r.metrics.hier_failed) / instances.max(1.0),
        ),
    ])
}

/// Time the router by replaying it once per instance and model, as the
/// descent calls it.
fn replay_route(
    workload: &HierWorkload,
    taxonomies: &[Taxonomy],
    data: &[HierDataset],
    tracer: &Tracer,
) {
    for _ in MODELS {
        for (t, data) in taxonomies.iter().zip(data) {
            for instance in &data.instances {
                std::hint::black_box(
                    tracer.span("core.hier.route", 0, || workload.route(t, &instance.name)),
                );
            }
        }
    }
}

/// The `hier_descent` workload.
pub struct HierDescent {
    seed: u64,
    size: Size,
    store: SnapshotStore,
}

impl HierDescent {
    /// The workload at `size`, saving snapshots into `store`.
    pub fn new(seed: u64, size: Size, store: SnapshotStore) -> Self {
        HierDescent { seed, size, store }
    }
}

impl Workload for HierDescent {
    fn pass(&mut self, tracer: Option<&Arc<Tracer>>) -> Result<Pass, String> {
        let t = tracer.map(Arc::as_ref);
        let (seed, size) = (self.seed, self.size);
        let workload = workload(size);

        let start = Instant::now();
        let taxonomies = generate_and_save(&self.store, seed, size.scale, t)?;
        let data = build(&workload, &taxonomies, seed, t)?;
        let zoo = ModelZoo::default_zoo();
        let models: Vec<Arc<SimulatedLlm>> = MODELS
            .iter()
            .map(|&id| zoo.get(id).expect("the zoo covers every model id"))
            .collect();
        let setup_s = start.elapsed().as_secs_f64();

        let start = Instant::now();
        let reports = match tracer {
            None => {
                let refs: Vec<&dyn LanguageModel> =
                    models.iter().map(|m| m as &dyn LanguageModel).collect();
                run(&workload, &refs, &taxonomies, &data, seed, None)
            }
            Some(tr) => {
                let shims: Vec<_> = models
                    .iter()
                    .map(|m| Shim::new(Arc::clone(m), tr, Tier::Model))
                    .collect();
                let refs: Vec<&dyn LanguageModel> =
                    shims.iter().map(|m| m as &dyn LanguageModel).collect();
                run(&workload, &refs, &taxonomies, &data, seed, t)
            }
        };
        let run_s = start.elapsed().as_secs_f64();

        let start = Instant::now();
        let (mut layers, digest) = traced(t, "report.compare", || {
            (outcomes(&reports), report_digest(&reports))
        });
        let report_s = start.elapsed().as_secs_f64();

        if layers["core.hier.invalid"] != 0.0 {
            return Err(format!(
                "hierarchical descent emitted {} invalid labels",
                layers["core.hier.invalid"]
            ));
        }
        let ops: u64 = reports.iter().map(|r| r.metrics.instances as u64).sum();
        if let Some(tr) = tracer {
            replay_route(&workload, &taxonomies, &data, tr);
        }

        let expected: Vec<u64> = taxonomies.iter().map(Taxonomy::content_digest).collect();
        let instances: Vec<_> = data.iter().map(|d| d.instances.clone()).collect();
        drop((taxonomies, data));
        let start = Instant::now();
        let (reloaded, bytes) = reload(&self.store, seed, size.scale, &expected, t)?;
        let rebuilt = build(&workload, &reloaded, seed, None)?;
        let reload_s = start.elapsed().as_secs_f64();
        if rebuilt.iter().map(|d| &d.instances).ne(instances.iter()) {
            return Err("reloaded taxonomies rebuilt different instances".to_owned());
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
        (seed == 42 && self.size == Size::DESCENT).then_some(PINNED_DIGEST_SEED_42)
    }
}
