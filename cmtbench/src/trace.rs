//! Span recording for the replay run, and the artifacts made from it.
//!
//! Each rank thread owns one [`Recorder`] whose span buffer and parent
//! stack are allocated before the step loop; recording a span is a
//! clock read and a write into that buffer, never an allocation. The
//! recorder counts the heap allocations its own calls make (with
//! `cmt-perf/count-alloc` on), so tests can show that number is 0. A
//! recorder built with `on = false` records nothing, which is how the
//! replay measures its own overhead.

use std::fmt::Write as _;
use std::time::Instant;

/// Step id of spans recorded during set-up, before the first step.
pub const SETUP_STEP: u32 = u32::MAX;
/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the replay's epoch,
/// shared by all ranks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `core.deriv`.
    pub name: &'static str,
    /// Rank that recorded it.
    pub rank: u32,
    /// Timestep (CG iteration) it belongs to, or [`SETUP_STEP`].
    pub step: u32,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same rank's buffer, or
    /// [`NO_PARENT`].
    pub parent: u32,
}

impl Span {
    /// Duration in seconds.
    pub fn dur_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// A per-rank span buffer with a fixed capacity.
#[derive(Debug)]
pub struct Recorder {
    on: bool,
    rank: u32,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    /// Spans not recorded because the buffer was full.
    dropped: u64,
    /// Heap allocations made inside `enter`/`exit`.
    allocs: u64,
}

/// Deepest span nesting the replay produces (step > lb.migrate >
/// gs.setup, plus headroom).
const MAX_DEPTH: usize = 8;

impl Recorder {
    /// A recorder for `rank` holding up to `capacity` spans; allocates
    /// only when `on`.
    pub fn new(on: bool, rank: usize, capacity: usize, epoch: Instant) -> Recorder {
        Recorder {
            on,
            rank: rank as u32,
            epoch,
            spans: Vec::with_capacity(if on { capacity } else { 0 }),
            stack: Vec::with_capacity(if on { MAX_DEPTH } else { 0 }),
            dropped: 0,
            allocs: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span named `name` in step `step`, nested in the innermost
    /// open span.
    pub fn enter(&mut self, name: &'static str, step: u32) {
        if !self.on {
            return;
        }
        let a0 = thread_allocs();
        self.push(name, step);
        self.allocs += thread_allocs() - a0;
    }

    fn push(&mut self, name: &'static str, step: u32) {
        if self.spans.len() == self.spans.capacity() || self.stack.len() == MAX_DEPTH {
            self.dropped += 1;
            // Keep enter/exit balanced: a dropped span still occupies a
            // stack level, marked so `exit` skips it.
            if self.stack.len() < MAX_DEPTH {
                self.stack.push(NO_PARENT);
            }
            return;
        }
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let idx = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            rank: self.rank,
            step,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.stack.push(idx);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let a0 = thread_allocs();
        let end = self.now_ns();
        match self.stack.pop() {
            Some(NO_PARENT) | None => {}
            Some(idx) => self.spans[idx as usize].end_ns = end,
        }
        self.allocs += thread_allocs() - a0;
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans lost to a full buffer (0 when the capacity was sized right).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Heap allocations made by recording (0 unless built with
    /// `cmt-perf/count-alloc`, and 0 then too).
    pub fn allocs(&self) -> u64 {
        self.allocs
    }

    /// Take the recorded spans out.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

fn thread_allocs() -> u64 {
    cmt_perf::alloc::thread_counts().0
}

/// Self time of every span of one rank's buffer, seconds: its duration
/// minus the durations of its direct children.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut child = vec![0.0; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child[s.parent as usize] += s.dur_s();
        }
    }
    spans
        .iter()
        .zip(&child)
        .map(|(s, c)| (s.dur_s() - c).max(0.0))
        .collect()
}

/// Per-layer self-time table: `(layer, calls, self seconds)` summed over
/// all ranks, sorted by self time descending.
pub fn layer_table(ranks: &[Vec<Span>]) -> Vec<(&'static str, u64, f64)> {
    let mut rows: Vec<(&'static str, u64, f64)> = Vec::new();
    for spans in ranks {
        for (s, st) in spans.iter().zip(self_times(spans)) {
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += st;
                }
                None => rows.push((s.name, 1, st)),
            }
        }
    }
    rows.sort_by(|a, b| b.2.total_cmp(&a.2).then(a.0.cmp(b.0)));
    rows
}

/// Render the per-layer self-time table as text.
pub fn render_layer_table(ranks: &[Vec<Span>]) -> String {
    let rows = layer_table(ranks);
    let total: f64 = rows.iter().map(|r| r.2).sum();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<22} {:>8} {:>12} {:>7}",
        "layer", "calls", "self_ms", "share"
    );
    for (name, calls, s) in rows {
        let _ = writeln!(
            out,
            "{:<22} {:>8} {:>12.3} {:>6.1}%",
            name,
            calls,
            s * 1e3,
            100.0 * s / total.max(1e-12)
        );
    }
    out
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto) of all ranks'
/// spans: one complete event per span, thread id = rank, with the step
/// id and parent index as arguments.
pub fn chrome_trace_json(ranks: &[Vec<Span>]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let mut first = true;
    for spans in ranks {
        for s in spans {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let step = if s.step == SETUP_STEP {
                -1
            } else {
                s.step as i64
            };
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                s.parent as i64
            };
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"layer\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"step\":{},\"parent\":{}}}}}",
                s.name,
                s.rank,
                s.start_ns as f64 * 1e-3,
                (s.end_ns - s.start_ns) as f64 * 1e-3,
                step,
                parent
            );
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_gives_parents_and_self_time() {
        let mut r = Recorder::new(true, 0, 8, Instant::now());
        r.enter("outer", 0);
        r.enter("inner", 0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        r.exit();
        r.exit();
        let s = r.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].parent, NO_PARENT);
        assert_eq!(s[1].parent, 0);
        let st = self_times(s);
        assert!(st[1] >= 0.002);
        assert!(st[0] < s[0].dur_s());
    }

    #[test]
    fn full_buffer_drops_and_stays_balanced() {
        let mut r = Recorder::new(true, 0, 1, Instant::now());
        r.enter("a", 0);
        r.enter("b", 0);
        r.exit();
        r.exit();
        r.enter("c", 1);
        r.exit();
        assert_eq!(r.spans().len(), 1);
        assert_eq!(r.dropped(), 2);
        assert!(r.spans()[0].end_ns >= r.spans()[0].start_ns);
    }

    #[test]
    fn off_records_nothing() {
        let mut r = Recorder::new(false, 0, 16, Instant::now());
        r.enter("a", 0);
        r.exit();
        assert!(r.spans().is_empty());
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn chrome_json_is_well_formed() {
        let mut r = Recorder::new(true, 1, 4, Instant::now());
        r.enter("setup", SETUP_STEP);
        r.exit();
        let j = chrome_trace_json(&[r.into_spans()]);
        assert!(j.starts_with("{\"displayTimeUnit\""));
        assert!(j.contains("\"tid\":1"));
        assert!(j.contains("\"step\":-1"));
        assert!(j.trim_end().ends_with("]}"));
    }
}
