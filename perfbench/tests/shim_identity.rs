//! Tracing must never change an output: on a small instance of each
//! workload, the reports of a run through the timing shims are
//! byte-identical to those of a run without them. The correctness
//! checks must also reject perturbed reports, digests and accounting.

use std::path::PathBuf;
use std::sync::Arc;
use taxoglimpse_core::model::LanguageModel;
use taxoglimpse_llm::profile::ModelId;
use taxoglimpse_llm::zoo::ModelZoo;
use taxoglimpse_perfbench::run::{check_digests, Name, Options};
use taxoglimpse_perfbench::trace::{Shim, Tier, Tracer};
use taxoglimpse_perfbench::{generate_and_save, hier, paper, serve, StateDir, Workload};

const SEED: u64 = 7;

fn state(name: &str) -> StateDir {
    StateDir::create(
        &PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("shim-identity"),
        name,
    )
    .expect("test state directory")
}

fn json<T: taxoglimpse_json::ToJson>(reports: &[T]) -> Vec<String> {
    reports
        .iter()
        .map(|r| taxoglimpse_json::to_string(r).expect("reports serialize"))
        .collect()
}

#[test]
fn eval_reports_are_identical_through_the_shims() {
    let dir = state("paper");
    let size = paper::Size {
        scale: 0.05,
        cap: Some(6),
    };
    let taxonomies = generate_and_save(&dir.store(), SEED, size.scale, None).unwrap();
    let datasets = paper::build_datasets(&taxonomies, SEED, size, None).unwrap();
    let zoo = ModelZoo::default_zoo();
    let models: Vec<_> = ModelId::ALL
        .iter()
        .map(|&id| zoo.get(id).unwrap())
        .collect();

    let plain: Vec<&dyn LanguageModel> = models.iter().map(|m| m as &dyn LanguageModel).collect();
    let untraced = paper::run_grid(&plain, &datasets, None);

    let tracer = Tracer::new();
    let shims: Vec<_> = models
        .iter()
        .map(|m| Shim::new(Arc::clone(m), &tracer, Tier::Model).capturing())
        .collect();
    let shimmed: Vec<&dyn LanguageModel> = shims.iter().map(|m| m as &dyn LanguageModel).collect();
    let traced = paper::run_grid(&shimmed, &datasets, Some(&tracer));

    let (a, b): (Vec<_>, Vec<_>) = (untraced.concat(), traced.concat());
    assert_eq!(json(&a), json(&b));
    let spans = tracer.take();
    let queries: u64 = spans
        .iter()
        .filter(|s| s.name == "llm.answer_batch")
        .map(|s| s.queries)
        .sum();
    let total: usize = a.iter().map(|r| r.overall.total()).sum();
    assert_eq!(
        queries, total as u64,
        "the model tier saw every grid query once"
    );
    assert_eq!(
        tracer.take_captured().ends.len(),
        total,
        "every delivered response was captured"
    );
}

#[test]
fn hier_reports_are_identical_through_the_shims() {
    let dir = state("hier");
    let size = hier::Size {
        scale: 0.05,
        cap: 3,
    };
    let workload = hier::workload(size);
    let taxonomies = generate_and_save(&dir.store(), SEED, size.scale, None).unwrap();
    let data = hier::build(&workload, &taxonomies, SEED, None).unwrap();
    let zoo = ModelZoo::default_zoo();
    let models: Vec<_> = hier::MODELS
        .iter()
        .map(|&id| zoo.get(id).unwrap())
        .collect();

    let plain: Vec<&dyn LanguageModel> = models.iter().map(|m| m as &dyn LanguageModel).collect();
    let untraced = hier::run(&workload, &plain, &taxonomies, &data, SEED, None);

    let tracer = Tracer::new();
    let shims: Vec<_> = models
        .iter()
        .map(|m| Shim::new(Arc::clone(m), &tracer, Tier::Model))
        .collect();
    let shimmed: Vec<&dyn LanguageModel> = shims.iter().map(|m| m as &dyn LanguageModel).collect();
    let traced = hier::run(&workload, &shimmed, &taxonomies, &data, SEED, Some(&tracer));

    assert_eq!(json(&untraced), json(&traced));
    assert!(tracer.take().iter().any(|s| s.name == "llm.answer"));
}

#[test]
fn serve_reports_are_identical_through_the_shims_and_across_workers() {
    let dir = state("serve");
    let size = serve::Size {
        scale: 0.05,
        cap: 20,
        requests_per_rate: 4_000,
    };
    let taxonomies = generate_and_save(&dir.store(), SEED, size.scale, None).unwrap();
    let pool = serve::build_pool(&taxonomies, SEED, size, None).unwrap();

    let untraced = serve::serve_untraced(SEED, size, &pool, 1);
    let tracer = Tracer::new();
    let (traced, _) = serve::serve_traced(SEED, size, &pool, &tracer);
    assert_eq!(untraced, traced);
    assert_eq!(untraced, serve::serve_untraced(SEED, size, &pool, 2));
    for report in &untraced {
        serve::check_accounting(report).unwrap();
    }

    // Every tier's span nests directly under the tier outside it.
    let spans = tracer.take();
    let parent_name = |id: u64| spans.iter().find(|s| s.id == id).map(|s| s.name);
    for span in spans.iter().filter(|s| s.name.starts_with("llm.answer")) {
        assert!(parent_name(span.parent).is_some_and(|p| p.starts_with("core.cache.")));
    }
    for span in spans.iter().filter(|s| s.name.starts_with("core.cache.")) {
        assert!(parent_name(span.parent).is_some_and(|p| p.starts_with("llm.faults.")));
    }
}

#[test]
fn traced_and_untraced_passes_agree() {
    let dir = state("passes");
    let mut workloads: Vec<Box<dyn Workload>> = vec![
        Box::new(paper::PaperTables::new(
            SEED,
            paper::Size {
                scale: 0.05,
                cap: Some(4),
            },
            dir.store(),
        )),
        Box::new(serve::ServeFleet::new(
            SEED,
            serve::Size {
                scale: 0.05,
                cap: 10,
                requests_per_rate: 2_000,
            },
            dir.store(),
        )),
        Box::new(hier::HierDescent::new(
            SEED,
            hier::Size {
                scale: 0.05,
                cap: 2,
            },
            dir.store(),
        )),
    ];
    for workload in &mut workloads {
        let untraced = workload.pass(None).unwrap();
        let traced = workload.pass(Some(&Tracer::new())).unwrap();
        assert_eq!(untraced.digest, traced.digest);
        assert!(untraced
            .layers
            .keys()
            .all(|k| traced.layers.contains_key(k)));
        workload.finish().unwrap();
        assert!(untraced.ops > 0 && untraced.wall_s() > 0.0 && untraced.reload_s > 0.0);
    }
}

#[test]
fn perturbed_outputs_fail_the_checks() {
    let dir = state("perturbed");
    let size = serve::Size {
        scale: 0.05,
        cap: 10,
        requests_per_rate: 2_000,
    };
    let taxonomies = generate_and_save(&dir.store(), SEED, size.scale, None).unwrap();
    let pool = serve::build_pool(&taxonomies, SEED, size, None).unwrap();
    let report = serve::serve_untraced(SEED, size, &pool, 1).remove(0);
    serve::check_accounting(&report).unwrap();

    let mut shed_lost = report.clone();
    shed_lost.shed.queue_full += 1;
    assert!(serve::check_accounting(&shed_lost).is_err());
    let mut failure_lost = report.clone();
    failure_lost.failed += 1;
    assert!(serve::check_accounting(&failure_lost).is_err());
    let mut latency_lost = report;
    latency_lost.latencies.pop();
    assert!(serve::check_accounting(&latency_lost).is_err());

    assert!(check_digests(&[1, 1, 1], Some(1)).is_ok());
    assert!(check_digests(&[1, 1, 2], None).is_err());
    assert!(check_digests(&[1, 1], Some(2)).is_err());
    assert!(check_digests(&[], None).is_err());
}

#[test]
fn pinned_digests_apply_only_at_the_benchmark_size() {
    let dir = state("pinned");
    let paper = paper::PaperTables::new(42, paper::Size::PAPER, dir.store());
    assert_eq!(paper.pinned_digest(42), Some(paper::PINNED_DIGEST_SEED_42));
    assert_eq!(paper.pinned_digest(7), None);
    let small = paper::PaperTables::new(
        42,
        paper::Size {
            scale: 0.05,
            cap: Some(4),
        },
        dir.store(),
    );
    assert_eq!(small.pinned_digest(42), None);
    let hier = hier::HierDescent::new(42, hier::Size::DESCENT, dir.store());
    assert_eq!(hier.pinned_digest(42), Some(hier::PINNED_DIGEST_SEED_42));
}

#[test]
fn options_parse_the_command_line() {
    let parse = |args: &[&str]| Options::parse(args.iter().map(|s| s.to_string()));
    let opts = parse(&[
        "--workload",
        "serve_fleet",
        "--seed",
        "9",
        "--seconds",
        "3",
        "--trace",
        "1",
    ])
    .unwrap();
    assert_eq!(
        opts,
        Options {
            workload: Name::ServeFleet,
            seed: 9,
            seconds: 3.0,
            trace: true
        }
    );
    assert!(parse(&["--seed", "9"]).is_err());
    assert!(parse(&["--workload", "bogus"]).is_err());
    assert!(parse(&["--workload", "hier_descent", "--trace", "2"]).is_err());
    assert!(parse(&["--workload", "hier_descent", "--seconds"]).is_err());
}

#[test]
fn benchmark_json_lists_exactly_the_printed_metrics() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let doc = taxoglimpse_json::from_str_value(&text).expect("BENCHMARK.json parses");
    let listed = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(|v| v.as_arr())
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(|v| v.as_str())
                        .expect("name and unit")
                        .to_owned()
                };
                (field("name"), field("unit"))
            })
            .collect()
    };
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_owned(), u.to_owned()))
            .collect()
    };
    assert_eq!(
        listed("end_to_end"),
        own(&taxoglimpse_perfbench::run::END_TO_END)
    );
    assert_eq!(
        listed("per_layer"),
        own(&taxoglimpse_perfbench::run::PER_LAYER)
    );
}
