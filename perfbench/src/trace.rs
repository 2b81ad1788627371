//! Host-clock spans around the benchmark's calls into each layer.
//!
//! Spans are kept in memory and rendered once at exit as a
//! chrome://tracing document through [`gpu_sim::chrome_trace_envelope`].
//! A disabled tracer records nothing and only runs the wrapped call.

use gpu_sim::{chrome_trace_envelope, json_escape};
use std::cell::RefCell;
use std::time::Instant;

/// One recorded call: `parent` is the index of the enclosing span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified call name, e.g. `neighbors.kneighbors_prepared`.
    pub name: &'static str,
    /// Start, in microseconds since the tracer's origin.
    pub start_us: f64,
    /// End, in microseconds since the tracer's origin.
    pub end_us: f64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
}

/// Span recorder; `None` inside means tracing is off.
pub struct Tracer {
    inner: Option<RefCell<Recorder>>,
}

struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self { inner: None }
    }

    /// A recording tracer whose timestamps count from `origin`.
    pub fn on(origin: Instant) -> Self {
        Self {
            inner: Some(RefCell::new(Recorder {
                origin,
                spans: Vec::new(),
                open: Vec::new(),
            })),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let Some(rec) = &self.inner else {
            return f();
        };
        let id = {
            let mut r = rec.borrow_mut();
            let start_us = r.origin.elapsed().as_secs_f64() * 1e6;
            let parent = r.open.last().copied();
            r.spans.push(Span {
                name,
                start_us,
                end_us: start_us,
                parent,
            });
            let id = r.spans.len() - 1;
            r.open.push(id);
            id
        };
        let out = f();
        let mut r = rec.borrow_mut();
        r.spans[id].end_us = r.origin.elapsed().as_secs_f64() * 1e6;
        r.open.pop();
        out
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> Vec<Span> {
        self.inner
            .as_ref()
            .map(|r| r.borrow().spans.clone())
            .unwrap_or_default()
    }

    /// Summed duration, in seconds, of spans named `name` whose direct
    /// parent is named `parent`.
    pub fn total_under_s(&self, name: &str, parent: &str) -> f64 {
        let spans = self.spans();
        spans
            .iter()
            .filter(|s| s.name == name)
            .filter(|s| s.parent.is_some_and(|p| spans[p].name == parent))
            .map(|s| (s.end_us - s.start_us) * 1e-6)
            .sum()
    }
}

/// Self time of each span: its duration minus the part its children
/// cover (children never overlap, the recorder is single-threaded).
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(|s| s.end_us - s.start_us).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.end_us - s.start_us;
        }
    }
    own
}

/// Renders spans as chrome://tracing complete events on one thread,
/// with each span's parent and self time in `args`.
pub fn chrome_trace(process: &str, spans: &[Span]) -> String {
    let own = self_times_us(spans);
    let mut events = vec![format!(
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
         \"args\":{{\"name\":\"{}\"}}}}",
        json_escape(process)
    )];
    for (i, (s, self_us)) in spans.iter().zip(own).enumerate() {
        let parent = s.parent.map_or(-1, |p| p as i64);
        events.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"host\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":0,\"tid\":0,\"args\":{{\"id\":{i},\"parent\":{parent},\"self_us\":{:.3}}}}}",
            json_escape(s.name),
            s.start_us,
            (s.end_us - s.start_us).max(0.0),
            self_us.max(0.0),
        ));
    }
    chrome_trace_envelope(&events)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let t = Tracer::on(Instant::now());
        t.span("outer", || {
            t.span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        let own = self_times_us(&spans);
        assert!(own[0] < spans[0].end_us - spans[0].start_us);
        assert!(own[1] >= 2000.0);
        bench::validate_chrome_trace(&chrome_trace("test", &spans)).unwrap();
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let t = Tracer::off();
        assert_eq!(t.span("x", || 7), 7);
        assert!(t.spans().is_empty());
    }
}
