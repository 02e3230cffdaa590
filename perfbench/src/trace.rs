//! Outside-in tracing: spans recorded by the benchmark around its calls
//! into each layer's public functions, and a [`Shim`] that records one
//! span per call at each tier of a model tower.
//!
//! Spans stay in memory until [`Tracer::take`]; the per-layer metrics
//! are computed from them once a traced pass ends. An untraced run
//! builds no tracer and no shim, so tracing cannot touch its timings.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use taxoglimpse_core::model::{LanguageModel, ModelError, Query, Response};
use taxoglimpse_core::question::QuestionKind;

/// One timed call: which layer, when, under which span, and how many
/// model queries it carried (0 for non-model layers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique within one tracer, starting at 1.
    pub id: u64,
    /// The enclosing span on the same thread, or 0 for none.
    pub parent: u64,
    /// Layer-qualified name, e.g. `llm.answer_batch`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Model queries carried by the call.
    pub queries: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

thread_local! {
    /// Open span ids on this thread, innermost last.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Model responses captured at the innermost tier, kept so the parse
/// layer can be timed by replaying them after a pass.
#[derive(Debug, Default)]
pub struct Captured {
    /// Question kind of each response, in capture order.
    pub kinds: Vec<QuestionKind>,
    /// End offset of each response in `text`.
    pub ends: Vec<usize>,
    /// All response texts, concatenated.
    pub text: String,
}

impl Captured {
    /// `(kind, response)` pairs in capture order.
    pub fn iter(&self) -> impl Iterator<Item = (QuestionKind, &str)> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        self.kinds
            .iter()
            .zip(starts.zip(&self.ends))
            .map(|(&kind, (start, &end))| (kind, &self.text[start..end]))
    }
}

/// In-memory span recorder shared by every thread of a traced pass.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    captured: Mutex<Captured>,
}

impl Tracer {
    /// A fresh recorder; its clock starts now.
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            captured: Mutex::new(Captured::default()),
        })
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, nested under the span that
    /// is open on this thread.
    pub fn span<R>(&self, name: &'static str, queries: u64, f: impl FnOnce() -> R) -> R {
        // Relaxed: the counter only hands out distinct ids.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.last().copied().unwrap_or(0);
            open.push(id);
            parent
        });
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        OPEN.with(|open| open.borrow_mut().pop());
        self.spans
            .lock()
            .expect("span lock poisoned by a panicking worker")
            .push(Span {
                id,
                parent,
                name,
                start_ns,
                end_ns,
                queries,
            });
        out
    }

    /// Remove and return every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("span lock poisoned by a panicking worker"),
        )
    }

    /// Remove and return the responses captured so far.
    pub fn take_captured(&self) -> Captured {
        std::mem::take(
            &mut *self
                .captured
                .lock()
                .expect("capture lock poisoned by a panicking worker"),
        )
    }

    fn capture<'a>(&self, pairs: impl Iterator<Item = (QuestionKind, &'a str)>) {
        let mut captured = self
            .captured
            .lock()
            .expect("capture lock poisoned by a panicking worker");
        for (kind, text) in pairs {
            captured.kinds.push(kind);
            captured.text.push_str(text);
            let end = captured.text.len();
            captured.ends.push(end);
        }
    }
}

/// Run `f` in a span when tracing, or just run it.
pub fn traced<R>(tracer: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match tracer {
        Some(t) => t.span(name, 0, f),
        None => f(),
    }
}

/// The tier of a model tower a [`Shim`] wraps; it names the shim's
/// spans, so a tier's self time is its spans minus their children.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Around `FaultInjector`, the outside of a serving lane.
    Faults,
    /// Between `FaultInjector` and `CachedModel`.
    Cache,
    /// Around the simulated model itself.
    Model,
}

impl Tier {
    /// Span name of a single `answer` call at this tier.
    pub fn answer_span(self) -> &'static str {
        match self {
            Tier::Faults => "llm.faults.answer",
            Tier::Cache => "core.cache.answer",
            Tier::Model => "llm.answer",
        }
    }

    /// Span name of an `answer_batch` call at this tier.
    pub fn batch_span(self) -> &'static str {
        match self {
            Tier::Faults => "llm.faults.answer_batch",
            Tier::Cache => "core.cache.answer_batch",
            Tier::Model => "llm.answer_batch",
        }
    }
}

/// A [`LanguageModel`] that forwards every call to `inner` and records
/// one span per call. It never changes an answer.
pub struct Shim<M> {
    inner: M,
    tracer: Arc<Tracer>,
    tier: Tier,
    capture: bool,
}

impl<M: LanguageModel> Shim<M> {
    /// Wrap `inner` at `tier`.
    pub fn new(inner: M, tracer: &Arc<Tracer>, tier: Tier) -> Self {
        Shim {
            inner,
            tracer: Arc::clone(tracer),
            tier,
            capture: false,
        }
    }

    /// Also keep every delivered response text for a parse replay.
    pub fn capturing(mut self) -> Self {
        self.capture = true;
        self
    }

    /// The wrapped model.
    pub fn inner(&self) -> &M {
        &self.inner
    }
}

impl<M: LanguageModel> LanguageModel for Shim<M> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn answer(&self, query: &Query<'_>) -> Result<Response, ModelError> {
        let out = self
            .tracer
            .span(self.tier.answer_span(), 1, || self.inner.answer(query));
        if self.capture {
            if let Ok(response) = &out {
                self.tracer.capture(std::iter::once((
                    query.question.kind(),
                    response.text.as_str(),
                )));
            }
        }
        out
    }

    fn answer_batch(&self, queries: &[Query<'_>]) -> Vec<Result<Response, ModelError>> {
        let out = self
            .tracer
            .span(self.tier.batch_span(), queries.len() as u64, || {
                self.inner.answer_batch(queries)
            });
        if self.capture {
            self.tracer
                .capture(queries.iter().zip(&out).filter_map(|(query, result)| {
                    result
                        .as_ref()
                        .ok()
                        .map(|r| (query.question.kind(), r.text.as_str()))
                }));
        }
        out
    }

    fn reset(&self) {
        self.inner.reset()
    }
}

/// Sum of the durations of spans named `name`.
pub fn busy_s(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::secs)
        .sum()
}

/// Number of spans named `name`, and the queries they carried.
pub fn calls(spans: &[Span], name: &str) -> (u64, u64) {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0, 0), |(n, q), s| (n + 1, q + s.queries))
}

/// Self time of the spans whose name starts with `outer`: their
/// durations minus those of their direct children named `inner*`.
/// Children run on the parent's thread, one after another, so their
/// durations never overlap.
pub fn self_s(spans: &[Span], outer: &str, inner: &str) -> f64 {
    let outer_ids: std::collections::HashSet<u64> = spans
        .iter()
        .filter(|s| s.name.starts_with(outer))
        .map(|s| s.id)
        .collect();
    spans
        .iter()
        .map(|s| {
            if s.name.starts_with(outer) {
                s.secs()
            } else if s.name.starts_with(inner) && outer_ids.contains(&s.parent) {
                -s.secs()
            } else {
                0.0
            }
        })
        .sum()
}

/// Self time of the spans named exactly `outer`: each one's duration
/// minus the part of it covered by the union of the outermost `inner*`
/// spans from any thread. Used where the layer fans work out to worker
/// threads, so its model spans have no parent link to it.
pub fn self_s_union(spans: &[Span], outer: &str, inner: &str) -> f64 {
    let by_id: std::collections::HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let nested_in_inner = |span: &Span| {
        let mut parent = span.parent;
        while let Some(p) = by_id.get(&parent) {
            if p.name.starts_with(inner) {
                return true;
            }
            parent = p.parent;
        }
        false
    };
    let mut intervals: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.name.starts_with(inner) && !nested_in_inner(s))
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    intervals.sort_unstable();
    spans
        .iter()
        .filter(|s| s.name == outer)
        .map(|o| {
            let mut covered = 0u64;
            let mut reach = o.start_ns;
            for &(start, end) in &intervals {
                let (start, end) = (start.max(reach), end.min(o.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            o.secs() - covered as f64 * 1e-9
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            queries: 1,
        }
    }

    #[test]
    fn nested_spans_record_their_parent() {
        let tracer = Tracer::new();
        tracer.span("outer", 0, || tracer.span("inner", 3, || ()));
        let spans = tracer.take();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.queries, 3);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        assert!(tracer.take().is_empty());
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let spans = [
            span(1, 0, "core.cache.answer_batch", 0, 1_000),
            span(2, 1, "llm.answer_batch", 100, 400),
            span(3, 0, "llm.answer_batch", 2_000, 9_000),
        ];
        let s = self_s(&spans, "core.cache.", "llm.answer");
        assert!((s - 700e-9).abs() < 1e-15);
    }

    #[test]
    fn union_self_time_merges_overlapping_threads() {
        let spans = [
            span(1, 0, "core.grid.run_cross", 0, 1_000),
            span(2, 0, "llm.answer_batch", 100, 500),
            span(3, 0, "llm.answer_batch", 300, 700),
            span(4, 0, "llm.answer_batch", 900, 1_500),
        ];
        let s = self_s_union(&spans, "core.grid.run_cross", "llm.answer");
        assert!((s - 300e-9).abs() < 1e-15);
    }
}
