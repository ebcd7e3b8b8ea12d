//! Spans and samples recorded by the benchmark around the program's
//! public calls, plus the order statistics the metrics are reported as.
//!
//! A span is `(name, start, end, parent, request)`; spans live in memory
//! until the run ends and are then written out as one tab-separated
//! file. Per-layer metrics are summaries of the spans (medians of their
//! durations) and of counters recorded at the same boundaries.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Nearest-rank percentile `q` in `(0, 100]` of `v` (sorted in place).
/// Zero for no samples: a layer a workload never enters reads 0.
pub fn percentile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// The median of `v` (sorted in place); the mean of the middle pair for
/// an even count.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `stat` over consecutive windows of `window` samples, then the
/// smallest across the windows: how the MPC workloads report
/// `request_p50_us`. The host slows a whole process by up to 1.8× in
/// phases of a fraction of a second to tens of seconds, and noise only
/// ever adds time; a median over the whole run moves with the share of
/// slow phases in it, its quietest window does not. Windows hold the
/// same operations, so they differ only by that noise. Tails and
/// throughputs are taken over the whole run instead, so that a cost
/// that hits only some operations shows. A trailing partial window
/// counts only when it is the only one.
pub fn quiet(samples: &[f64], window: usize, stat: impl Fn(&mut [f64]) -> f64) -> f64 {
    let window = window.max(1);
    samples
        .chunks(window)
        .filter(|c| c.len() == window || samples.len() < window)
        .map(|c| stat(&mut c.to_vec()))
        .fold(f64::INFINITY, f64::min)
}

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified name, e.g. `relal.trie.fetch`.
    pub name: &'static str,
    /// Start time.
    pub start: u64,
    /// End time.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request (or run) the span belongs to.
    pub request: u64,
}

/// The in-memory span recorder. When off, [`Tracer::time`] still runs
/// the closure but records nothing.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Span durations in nanoseconds, by span name.
    durations: BTreeMap<&'static str, Vec<f64>>,
}

impl Tracer {
    /// A recorder, recording iff `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            durations: BTreeMap::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Nanoseconds since the tracer started.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Record a span that ran from `start` to `end`; returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        start: u64,
        end: u64,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        if self.on {
            self.spans.push(Span {
                name,
                start,
                end,
                parent,
                request,
            });
            self.durations
                .entry(name)
                .or_default()
                .push(end.saturating_sub(start) as f64);
        }
        self.spans.len().saturating_sub(1)
    }

    /// Run `f` inside a span; returns its result and the span duration
    /// in nanoseconds (measured whether or not the tracer is on).
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.record(name, start, end, parent, request);
        (out, end - start)
    }

    /// Open a parent span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let now = self.now();
        if !self.on {
            return 0;
        }
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Close a span opened with [`Tracer::open`].
    pub fn close(&mut self, idx: usize) {
        if !self.on {
            return;
        }
        let now = self.now();
        let span = &mut self.spans[idx];
        span.end = now;
        let d = (span.end - span.start) as f64;
        self.durations.entry(span.name).or_default().push(d);
    }

    /// The median duration of spans named `name`, in nanoseconds (0 if
    /// none was recorded).
    pub fn median_ns(&mut self, name: &str) -> f64 {
        self.durations.get_mut(name).map_or(0.0, |v| median(v))
    }

    /// Number of spans recorded.
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Write every span as a tab-separated line
    /// `request name start_ns end_ns parent` (parent `-` for roots).
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "request\tname\tstart_ns\tend_ns\tparent")?;
        for s in &self.spans {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{}\t{}\t{}\t{}\t{}",
                s.request, s.name, s.start, s.end, parent
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let mut v = vec![5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&mut v), 3.0);
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut v), 2.5);
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 99.0), 99.0);
        assert_eq!(percentile(&mut v, 50.0), 50.0);
        assert_eq!(percentile(&mut [], 99.0), 0.0);
    }

    #[test]
    fn quiet_takes_the_quietest_window() {
        // Windows of two samples with means 3, 1, 2 and a trailing
        // partial window that does not count.
        let v = [3.0, 3.0, 1.0, 1.0, 2.0, 2.0, 0.5];
        assert_eq!(quiet(&v, 2, median), 1.0);
        // Slow phases in most windows do not move it.
        let v = [9.0, 9.0, 1.0, 1.0, 9.0, 9.0, 9.0, 9.0];
        assert_eq!(quiet(&v, 2, median), 1.0);
        assert_eq!(quiet(&[5.0], 4, median), 5.0);
    }

    #[test]
    fn spans_record_only_when_on() {
        let mut off = Tracer::new(false);
        let (x, _) = off.time("a", None, 0, || 7);
        assert_eq!(x, 7);
        assert_eq!(off.span_count(), 0);
        let mut on = Tracer::new(true);
        let root = on.open("root", None, 1);
        on.time("child", Some(root), 1, || ());
        on.close(root);
        assert_eq!(on.span_count(), 2);
        assert!(on.median_ns("root") >= on.median_ns("child"));
    }
}
