//! # taxoglimpse-perfbench
//!
//! One benchmark for the whole system: three workloads
//! ([`paper::PaperTables`], [`serve::ServeFleet`], [`hier::HierDescent`])
//! that each run one seeded process, time it end to end, check that its
//! outputs are correct, and — in a separate traced run — time each
//! layer from the outside through [`trace`] spans. See `README.md` for
//! why each workload exists and which layer metric should move which
//! end-to-end metric.

pub mod hier;
pub mod paper;
pub mod run;
pub mod serve;
pub mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use taxoglimpse_core::domain::TaxonomyKind;
use taxoglimpse_synth::rng::{hash_str, mix64};
use taxoglimpse_synth::{generate, GenOptions, SEQ_STREAM_VERSION};
use taxoglimpse_taxonomy::{SnapshotStore, Taxonomy};
use trace::{traced, Tracer};

/// Worker threads every workload runs on (the benchmark box has 2
/// cores; more would measure oversubscription, not scaling).
pub const THREADS: usize = 2;

/// Per-layer metrics of one traced pass, by name.
pub type Layers = BTreeMap<&'static str, f64>;

/// What one pass of a workload measured and produced.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Cold set-up: generation, snapshot save, input construction.
    pub setup_s: f64,
    /// The measured job itself.
    pub run_s: f64,
    /// Turning results into the final report.
    pub report_s: f64,
    /// Warm set-up: reload the snapshots this pass saved and rebuild
    /// the inputs.
    pub reload_s: f64,
    /// Workload operations the run phase completed.
    pub ops: u64,
    /// Digest of every report byte the pass produced.
    pub digest: u64,
    /// Outcome metrics of the reports, plus span timings and tower
    /// counters on traced passes.
    pub layers: Layers,
}

impl Pass {
    /// Data production until the final report.
    pub fn wall_s(&self) -> f64 {
        self.setup_s + self.run_s + self.report_s
    }
}

/// One benchmark workload.
pub trait Workload {
    /// Run one full pass: cold set-up, run, report, warm reload. A
    /// traced pass wraps layer calls in spans recorded by `tracer`.
    fn pass(&mut self, tracer: Option<&Arc<Tracer>>) -> Result<Pass, String>;

    /// Checks that need more than one pass, run once after the
    /// measured passes.
    fn finish(&mut self) -> Result<(), String> {
        Ok(())
    }

    /// The report digest pinned for `seed`, if any.
    fn pinned_digest(&self, seed: u64) -> Option<u64>;
}

/// Chained digest of report texts.
pub fn digest<'a>(parts: impl IntoIterator<Item = &'a str>) -> u64 {
    parts
        .into_iter()
        .fold(0xBA5E_11AE, |acc, part| mix64(acc ^ hash_str(0x5EED, part)))
}

/// A snapshot directory owned by one benchmark run: created empty, and
/// removed with everything in it when dropped.
#[derive(Debug)]
pub struct StateDir {
    path: PathBuf,
}

impl StateDir {
    /// Create `<root>/<name>-<pid>`, emptying any leftover first.
    pub fn create(root: &Path, name: &str) -> std::io::Result<StateDir> {
        let path = root.join(format!("{name}-{}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(StateDir { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A snapshot store rooted here.
    pub fn store(&self) -> SnapshotStore {
        SnapshotStore::new(&self.path)
    }
}

impl Drop for StateDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        if let Some(parent) = self.path.parent() {
            // Only succeeds once no other run uses the parent.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Snapshot key of one generated taxonomy.
pub fn snapshot_key(kind: TaxonomyKind, seed: u64, scale: f64) -> String {
    SnapshotStore::key(kind.label(), seed, scale, SEQ_STREAM_VERSION)
}

/// Generate all ten taxonomies at `scale` and save each to `store`,
/// the cold half of every workload's set-up.
pub fn generate_and_save(
    store: &SnapshotStore,
    seed: u64,
    scale: f64,
    tracer: Option<&Tracer>,
) -> Result<Vec<Taxonomy>, String> {
    TaxonomyKind::ALL
        .into_iter()
        .map(|kind| {
            let t = traced(tracer, "synth.generate", || {
                generate(kind, GenOptions { seed, scale })
            })
            .map_err(|e| format!("generate {}: {e}", kind.label()))?;
            traced(tracer, "taxonomy.snapshot.save", || {
                store.save(&snapshot_key(kind, seed, scale), &t)
            })
            .map_err(|e| format!("save {} snapshot: {e}", kind.label()))?;
            Ok(t)
        })
        .collect()
}

/// Reload all ten taxonomies from `store`, checking each against the
/// content digest of the taxonomy that was saved. Returns the
/// taxonomies and the snapshot bytes read.
pub fn reload(
    store: &SnapshotStore,
    seed: u64,
    scale: f64,
    expected: &[u64],
    tracer: Option<&Tracer>,
) -> Result<(Vec<Taxonomy>, u64), String> {
    let mut bytes = 0u64;
    let mut out = Vec::with_capacity(TaxonomyKind::ALL.len());
    for (kind, &want) in TaxonomyKind::ALL.into_iter().zip(expected) {
        let key = snapshot_key(kind, seed, scale);
        let t = traced(tracer, "taxonomy.snapshot.load", || store.load(&key))
            .ok_or_else(|| format!("{} snapshot did not reload", kind.label()))?;
        bytes += std::fs::metadata(store.path_for(&key))
            .map(|m| m.len())
            .unwrap_or(0);
        if t.content_digest() != want {
            return Err(format!(
                "{} snapshot reloaded different content",
                kind.label()
            ));
        }
        out.push(t);
    }
    Ok((out, bytes))
}

/// Median of `values` (0 for none).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `values` (0 for none).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn digest_depends_on_every_part_and_order() {
        assert_eq!(digest(["a", "b"]), digest(["a", "b"]));
        assert_ne!(digest(["a", "b"]), digest(["b", "a"]));
        assert_ne!(digest(["a", "b"]), digest(["a", "c"]));
    }

    #[test]
    fn state_dir_is_removed_on_drop() {
        let root = std::env::temp_dir().join(format!("perfbench-test-{}", std::process::id()));
        let dir = StateDir::create(&root, "t").unwrap();
        let path = dir.path().to_path_buf();
        std::fs::write(path.join("x"), b"1").unwrap();
        drop(dir);
        assert!(!path.exists());
        assert!(!root.exists());
    }
}
