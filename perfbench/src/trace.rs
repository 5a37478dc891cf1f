//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around calls into the library's public API from
//! the benchmark's own code, kept in memory, and written out once the
//! run ends. A span's name is the public call it times.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The public call timed, e.g. `Runtime::run_for`.
    pub name: &'static str,
    /// Shared id: the step (window interval) index inside the live
    /// phase, or the iteration index for set-up calls.
    pub id: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall time of the span in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Records spans against one monotonic origin.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(4096),
        }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span that [`Tracer::close`] finishes; returns its index,
    /// which child spans name as their parent.
    pub fn open(&mut self, name: &'static str, id: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Closes the span `index`, returning its wall time in seconds.
    pub fn close(&mut self, index: usize) -> f64 {
        let end_ns = self.now();
        let span = &mut self.spans[index];
        span.end_ns = end_ns;
        span.secs()
    }

    /// Times `f` as one span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let index = self.open(name, id, parent);
        let out = f();
        self.close(index);
        out
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total wall seconds per span name.
    pub fn busy_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut busy = BTreeMap::new();
        for span in &self.spans {
            *busy.entry(span.name).or_insert(0.0) += span.secs();
        }
        busy
    }

    /// The spans as tab-separated text, one per line:
    /// `index  parent  id  name  start_ns  end_ns`.
    pub fn render_tsv(&self) -> String {
        let mut out = String::from("index\tparent\tid\tname\tstart_ns\tend_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.id, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }

    /// The measured cost of recording one span (open plus close), in
    /// seconds: the median of several batches of empty spans timed on a
    /// scratch tracer.
    pub fn span_cost_secs() -> f64 {
        const BATCH: usize = 10_000;
        let mut per_span = Vec::new();
        for _ in 0..5 {
            let mut scratch = Tracer::new();
            let started = Instant::now();
            for i in 0..BATCH {
                let s = scratch.open("calibrate", i as u64, None);
                scratch.close(s);
            }
            per_span.push(started.elapsed().as_secs_f64() / BATCH as f64);
        }
        crate::stats::median(&per_span)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_sum_by_name() {
        let mut t = Tracer::new();
        let root = t.open("root", 0, None);
        let child = t.open("child", 0, Some(root));
        t.time("grandchild", 0, Some(child), || ());
        t.close(child);
        t.close(root);
        assert!(t.spans().iter().all(|s| s.end_ns >= s.start_ns));
        assert!(t.spans()[root].secs() >= t.spans()[child].secs());
        assert_eq!(t.busy_by_name().len(), 3);
        assert_eq!(t.render_tsv().lines().count(), 4);
        assert_eq!(
            t.render_tsv().lines().nth(2).unwrap().split('\t').nth(1),
            Some("0")
        );
    }
}
