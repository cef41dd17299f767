//! In-memory span recorder for the traced run.
//!
//! Every call the benchmark makes into a repository layer can be wrapped in a span: layer
//! (crate), name, the span that caused it, and a group id shared by the spans of one trial or
//! job. Spans stay in memory and are written out as NDJSON when the run ends. A layer's self
//! time is the duration of its spans minus the part covered by their child spans.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The repository layers spans are attributed to.
pub const GRAPH: &str = "cobra_graph";
pub const CORE: &str = "cobra_core";
pub const EXPERIMENTS: &str = "cobra_experiments";
pub const STATS: &str = "cobra_stats";
pub const LAYERS: [&str; 4] = [GRAPH, CORE, EXPERIMENTS, STATS];

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// `0` for a root span.
    pub parent: u64,
    /// Trial or job id shared by related spans.
    pub group: u64,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { epoch: Instant::now(), next_id: AtomicU64::new(1), spans: Mutex::new(Vec::new()) }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }

    /// Reserves a span id, so children can name their parent before it closes.
    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records an already-measured interval under a reserved `id`.
    #[allow(clippy::too_many_arguments)]
    pub fn interval(
        &self,
        id: u64,
        layer: &'static str,
        name: &'static str,
        group: u64,
        parent: u64,
        start: Instant,
        end: Instant,
    ) {
        let span =
            Span { id, parent, group, layer, name, start_ns: self.ns(start), end_ns: self.ns(end) };
        self.spans.lock().expect("span buffer poisoned").push(span);
    }

    /// Runs `f` inside a new span and returns its result; `f` receives the span's id.
    pub fn span<T>(
        &self,
        layer: &'static str,
        name: &'static str,
        group: u64,
        parent: u64,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        let id = self.id();
        let start = Instant::now();
        let out = f(id);
        self.interval(id, layer, name, group, parent, start, Instant::now());
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer poisoned").clone()
    }

    /// Durations in nanoseconds of every span called `name`, in recording order.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.lock().expect("span buffer poisoned");
        spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns() as f64).collect()
    }

    /// Self time per layer in seconds: span durations minus their children's durations.
    pub fn self_seconds_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans();
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for span in &spans {
            if span.parent != 0 {
                *child_ns.entry(span.parent).or_default() += span.duration_ns();
            }
        }
        let mut by_layer: BTreeMap<&'static str, f64> =
            LAYERS.iter().map(|&layer| (layer, 0.0)).collect();
        for span in &spans {
            let children = child_ns.get(&span.id).copied().unwrap_or(0);
            let own = span.duration_ns().saturating_sub(children);
            *by_layer.entry(span.layer).or_default() += own as f64 * 1e-9;
        }
        by_layer
    }

    /// Writes every span as one NDJSON line to `path`, creating its directory.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"group\":{},\"layer\":\"{}\",\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.group, s.layer, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let tracer = Tracer::new();
        tracer.span(EXPERIMENTS, "outer", 1, 0, |outer| {
            tracer.span(CORE, "inner", 1, outer, |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let by_layer = tracer.self_seconds_by_layer();
        assert!(by_layer[CORE] >= 0.02);
        assert!(by_layer[EXPERIMENTS] < 0.01, "{by_layer:?}");
        assert_eq!(tracer.durations_ns("inner").len(), 1);
    }
}
