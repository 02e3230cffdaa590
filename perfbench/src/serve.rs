//! `serve_fleet`: open-loop `run_serve` in virtual time. The mixed
//! tenant fleet (steady Poisson, bursty and abusive tenants) offers
//! load at 0.5, 0.9 and 1.3 of the lanes' aggregate capacity to four
//! lanes, each a `FaultInjector<CachedModel<SimulatedLlm>>` tower at a
//! 5% fault rate. Requests draw from the Hard pool of all ten
//! taxonomies at scale 0.1, cap 250 per level.

use crate::trace::{traced, Shim, Tier, Tracer};
use crate::{digest, generate_and_save, quantile, reload, Layers, Pass, Workload};
use std::sync::Arc;
use std::time::Instant;
use taxoglimpse_core::cache::CachedModel;
use taxoglimpse_core::dataset::{DatasetBuilder, QuestionDataset};
use taxoglimpse_core::domain::TaxonomyKind;
use taxoglimpse_core::model::LanguageModel;
use taxoglimpse_core::question::Question;
use taxoglimpse_core::resilience::{
    BackoffPolicy, BreakerPolicy, ResiliencePolicy, ResilienceStats,
};
use taxoglimpse_core::serve::{run_serve, ServeConfig, ServeReport, TrafficConfig};
use taxoglimpse_llm::faults::{FaultInjector, FaultPlan};
use taxoglimpse_llm::profile::ModelId;
use taxoglimpse_llm::simulate::SimulatedLlm;
use taxoglimpse_taxonomy::{SnapshotStore, Taxonomy};

/// Offered load as a share of aggregate lane capacity: comfortable,
/// near saturation, overloaded.
pub const RATE_FACTORS: [f64; 3] = [0.5, 0.9, 1.3];

/// The rate whose virtual latency is reported.
const LATENCY_RATE: usize = 1;

/// Virtual latency limit for `slo_attainment`.
pub const SLO_S: f64 = 0.25;

/// One lane per model.
pub const LANES: [ModelId; 4] = [
    ModelId::Gpt4,
    ModelId::Gpt35,
    ModelId::Llama2_7b,
    ModelId::FlanT5_3b,
];

/// Injected fault rate on every lane.
pub const FAULT_RATE: f64 = 0.05;

/// Workload size.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Taxonomy scale.
    pub scale: f64,
    /// Per-level sample cap of the Hard pool.
    pub cap: usize,
    /// Requests offered at each rate factor.
    pub requests_per_rate: usize,
}

impl Size {
    /// The benchmark's size: the grid pool of the other serving and
    /// grid benches, about two seconds of serving per pass.
    pub const FLEET: Size = Size {
        scale: 0.1,
        cap: 250,
        requests_per_rate: 600_000,
    };
}

/// The serving retry/breaker policy, scaled to millisecond service
/// times (the evaluator's defaults model interactive clients).
pub fn serving_policy() -> ResiliencePolicy {
    ResiliencePolicy::default()
        .with_backoff(
            BackoffPolicy::default()
                .with_base_s(0.01)
                .with_multiplier(2.0)
                .with_max_s(0.1),
        )
        .with_breaker(
            BreakerPolicy::default()
                .with_failure_threshold(5)
                .with_cooldown_s(0.5)
                .with_fast_fail_s(0.001),
        )
}

/// Serving configuration at `workers` prefetch threads.
pub fn config(workers: usize) -> ServeConfig {
    ServeConfig::default()
        .with_resilience(serving_policy())
        .with_batch_deadline_s(0.005)
        .with_workers(workers)
}

/// Traffic offered at `RATE_FACTORS[rate]`.
pub fn traffic(seed: u64, size: Size, rate: usize) -> TrafficConfig {
    let offered_qps = config(1).lane_capacity_qps() * LANES.len() as f64 * RATE_FACTORS[rate];
    TrafficConfig::mixed_fleet(
        seed,
        offered_qps,
        size.requests_per_rate as f64 / offered_qps,
    )
}

fn plan(seed: u64) -> FaultPlan {
    FaultPlan::uniform(seed, FAULT_RATE).with_retry_after_s(0.02)
}

/// An untraced lane tower.
pub fn lane(id: ModelId, seed: u64) -> FaultInjector<CachedModel<Arc<SimulatedLlm>>> {
    FaultInjector::new(
        CachedModel::new(Arc::new(SimulatedLlm::new(id))),
        plan(seed),
    )
}

/// A lane tower with a shim at every tier.
pub type TracedLane = Shim<FaultInjector<Shim<CachedModel<Shim<Arc<SimulatedLlm>>>>>>;

/// A traced lane tower.
pub fn traced_lane(id: ModelId, seed: u64, tracer: &Arc<Tracer>) -> TracedLane {
    let model = Shim::new(Arc::new(SimulatedLlm::new(id)), tracer, Tier::Model);
    let cache = Shim::new(CachedModel::new(model), tracer, Tier::Cache);
    Shim::new(FaultInjector::new(cache, plan(seed)), tracer, Tier::Faults)
}

/// Build the Hard request pool from the ten taxonomies.
pub fn build_pool(
    taxonomies: &[Taxonomy],
    seed: u64,
    size: Size,
    tracer: Option<&Tracer>,
) -> Result<Vec<Question>, String> {
    let mut pool = Vec::new();
    for (kind, t) in TaxonomyKind::ALL.into_iter().zip(taxonomies) {
        let dataset = traced(tracer, "core.dataset.build", || {
            DatasetBuilder::new(t, kind, seed)
                .sample_cap(Some(size.cap))
                .build(QuestionDataset::Hard)
        })
        .map_err(|e| format!("{} hard dataset: {e}", kind.label()))?;
        pool.extend(dataset.questions().cloned());
    }
    Ok(pool)
}

/// Serve every rate with fresh untraced towers.
pub fn serve_untraced(
    seed: u64,
    size: Size,
    pool: &[Question],
    workers: usize,
) -> Vec<ServeReport> {
    (0..RATE_FACTORS.len())
        .map(|rate| {
            let lanes: Vec<_> = LANES.iter().map(|&id| lane(id, seed)).collect();
            let refs: Vec<&dyn LanguageModel> =
                lanes.iter().map(|l| l as &dyn LanguageModel).collect();
            run_serve(&refs, pool, &traffic(seed, size, rate), &config(workers))
        })
        .collect()
}

/// Tower counters summed over the lanes of every rate.
#[derive(Debug, Default)]
pub struct TowerCounts {
    /// Response-cache hits.
    pub hits: u64,
    /// Response-cache misses.
    pub misses: u64,
    /// Entries left in the caches after each rate.
    pub entries: u64,
    /// Faults injected.
    pub injected: u64,
}

/// Serve every rate with fresh traced towers at one prefetch worker,
/// so every tier's span nests under its caller on one thread.
pub fn serve_traced(
    seed: u64,
    size: Size,
    pool: &[Question],
    tracer: &Arc<Tracer>,
) -> (Vec<ServeReport>, TowerCounts) {
    let mut counts = TowerCounts::default();
    let reports = (0..RATE_FACTORS.len())
        .map(|rate| {
            let lanes: Vec<TracedLane> = LANES
                .iter()
                .map(|&id| traced_lane(id, seed, tracer))
                .collect();
            let refs: Vec<&dyn LanguageModel> =
                lanes.iter().map(|l| l as &dyn LanguageModel).collect();
            let report = tracer.span("core.serve.run_serve", 0, || {
                run_serve(&refs, pool, &traffic(seed, size, rate), &config(1))
            });
            for lane in &lanes {
                let faults = lane.inner();
                let cache = faults.base().inner().cache();
                let stats = cache.stats();
                counts.hits += stats.hits;
                counts.misses += stats.misses;
                counts.entries += cache.len() as u64;
                counts.injected += faults.stats().injected;
            }
            report
        })
        .collect();
    (reports, counts)
}

/// Check the accounting identities of one serving report.
pub fn check_accounting(report: &ServeReport) -> Result<(), String> {
    if report.arrivals != report.admitted + report.shed.total() {
        return Err(format!(
            "arrivals {} != admitted {} + shed {}",
            report.arrivals,
            report.admitted,
            report.shed.total()
        ));
    }
    if report.admitted != report.completed + report.failed {
        return Err(format!(
            "admitted {} != completed {} + failed {}",
            report.admitted, report.completed, report.failed
        ));
    }
    if report.latencies.len() as u64 != report.completed {
        return Err(format!(
            "{} latencies for {} completed requests",
            report.latencies.len(),
            report.completed
        ));
    }
    Ok(())
}

/// Deterministic outcome metrics of one pass's reports.
pub fn outcomes(reports: &[ServeReport]) -> Layers {
    let at = &reports[LATENCY_RATE];
    let latencies_ms: Vec<f64> = at.latencies.iter().map(|s| s * 1e3).collect();
    let within = at.latencies.iter().filter(|&&s| s <= SLO_S).count();
    let offered: u64 = reports.iter().map(|r| r.arrivals).sum();
    let lost: u64 = reports.iter().map(|r| r.shed.total() + r.failed).sum();
    let resilience: ResilienceStats = reports.iter().map(ServeReport::resilience).sum();
    let batches: u64 = reports.iter().map(|r| r.batches).sum();
    let occupancy: u64 = reports.iter().map(|r| r.occupancy_sum).sum();
    Layers::from([
        ("core.serve.virtual_p50_ms", quantile(&latencies_ms, 0.5)),
        ("core.serve.virtual_p99_ms", quantile(&latencies_ms, 0.99)),
        (
            "core.serve.slo_attainment",
            within as f64 / at.arrivals.max(1) as f64,
        ),
        ("core.failed_share", lost as f64 / offered.max(1) as f64),
        ("core.resilience.deliveries", resilience.deliveries as f64),
        ("core.resilience.retries", resilience.retries as f64),
        ("core.resilience.amplification", resilience.amplification()),
        ("core.resilience.fast_failed", resilience.fast_failed as f64),
        (
            "core.serve.admission.shed_rate_limited",
            reports.iter().map(|r| r.shed.rate_limited).sum::<u64>() as f64,
        ),
        (
            "core.serve.admission.shed_overload",
            reports.iter().map(|r| r.shed.overload).sum::<u64>() as f64,
        ),
        (
            "core.serve.admission.shed_queue_full",
            reports.iter().map(|r| r.shed.queue_full).sum::<u64>() as f64,
        ),
        (
            "core.serve.trace_events",
            reports.iter().map(|r| r.trace_events).sum::<u64>() as f64,
        ),
        ("core.serve.batcher.batches", batches as f64),
        (
            "core.serve.batcher.mean_occupancy",
            occupancy as f64 / batches.max(1) as f64,
        ),
    ])
}

/// The `serve_fleet` workload.
pub struct ServeFleet {
    seed: u64,
    size: Size,
    store: SnapshotStore,
    /// The first pass's pool and reports; every later pass, and the
    /// two-worker run in `finish`, must reproduce them exactly.
    reference: Option<(Vec<Question>, Vec<ServeReport>)>,
}

impl ServeFleet {
    /// The workload at `size`, saving snapshots into `store`.
    pub fn new(seed: u64, size: Size, store: SnapshotStore) -> Self {
        ServeFleet {
            seed,
            size,
            store,
            reference: None,
        }
    }
}

impl Workload for ServeFleet {
    fn pass(&mut self, tracer: Option<&Arc<Tracer>>) -> Result<Pass, String> {
        let t = tracer.map(Arc::as_ref);
        let (seed, size) = (self.seed, self.size);

        let start = Instant::now();
        let taxonomies = generate_and_save(&self.store, seed, size.scale, t)?;
        let pool = build_pool(&taxonomies, seed, size, t)?;
        let setup_s = start.elapsed().as_secs_f64();

        let start = Instant::now();
        let (reports, counts) = match tracer {
            None => (serve_untraced(seed, size, &pool, 1), None),
            Some(tr) => {
                let (reports, counts) = serve_traced(seed, size, &pool, tr);
                (reports, Some(counts))
            }
        };
        let run_s = start.elapsed().as_secs_f64();

        let start = Instant::now();
        let mut layers = traced(t, "report.compare", || outcomes(&reports));
        let report_s = start.elapsed().as_secs_f64();

        for (rate, report) in RATE_FACTORS.iter().zip(&reports) {
            check_accounting(report).map_err(|e| format!("rate {rate}: {e}"))?;
        }
        match &self.reference {
            None => self.reference = Some((pool.clone(), reports.clone())),
            Some((ref_pool, ref_reports)) => {
                if *ref_pool != pool || *ref_reports != reports {
                    return Err("serving report differs from the first pass's".to_owned());
                }
            }
        }
        let ops: u64 = reports.iter().map(|r| r.arrivals).sum();
        let summary: Vec<String> = reports
            .iter()
            .map(|r| {
                format!(
                    "{:016x} {} {} {} {}",
                    r.trace_digest, r.arrivals, r.admitted, r.completed, r.failed
                )
            })
            .collect();
        let digest = digest(summary.iter().map(String::as_str));
        if let Some(counts) = counts {
            layers.insert("core.cache.hits", counts.hits as f64);
            layers.insert("core.cache.misses", counts.misses as f64);
            layers.insert(
                "core.cache.hit_rate",
                counts.hits as f64 / (counts.hits + counts.misses).max(1) as f64,
            );
            layers.insert("core.cache.entries", counts.entries as f64);
            layers.insert("llm.faults.injected", counts.injected as f64);
            layers.insert("core.dataset.build.questions", pool.len() as f64);
        }

        let expected: Vec<u64> = taxonomies.iter().map(Taxonomy::content_digest).collect();
        drop((taxonomies, pool));
        let start = Instant::now();
        let (reloaded, bytes) = reload(&self.store, seed, size.scale, &expected, t)?;
        let rebuilt = build_pool(&reloaded, seed, size, None)?;
        let reload_s = start.elapsed().as_secs_f64();
        if self.reference.as_ref().is_some_and(|(p, _)| *p != rebuilt) {
            return Err("reloaded request pool differs from the cold one".to_owned());
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

    fn finish(&mut self) -> Result<(), String> {
        let (pool, reports) = self.reference.as_ref().ok_or("no pass ran")?;
        if serve_untraced(self.seed, self.size, pool, 2) != *reports {
            return Err("serving report differs between one and two prefetch workers".to_owned());
        }
        Ok(())
    }

    fn pinned_digest(&self, _seed: u64) -> Option<u64> {
        // Deliberately unpinned: a serving-policy change may move
        // virtual latency without breaking anything.
        None
    }
}
