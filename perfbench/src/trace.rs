//! Spans for the traced run.
//!
//! The benchmark wraps a sampled share of its calls into each layer in spans
//! (name, start, end, parent, and the id of the client operation they belong
//! to).  Spans live in per-thread memory and are written out when the run
//! ends.  Each span's self time (its duration minus its children's) is also
//! summed per name as the span closes, so the per-layer summary covers every
//! sampled operation even when the kept span log is capped.  Nothing inside
//! the program is instrumented: spans open and close in the benchmark's own
//! code, around its calls (see `map::Spanned` for the calls the shard layer
//! makes into its strip trees).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    pub op: u64,
    pub id: u32,
    /// `u32::MAX` for a root span.
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Summed self time of one span name.
#[derive(Clone, Copy, Debug, Default)]
pub struct SelfTime {
    pub calls: u64,
    pub self_ns: u64,
}

/// What one thread recorded.
#[derive(Debug, Default)]
pub struct ThreadTrace {
    pub spans: Vec<Span>,
    pub totals: BTreeMap<&'static str, SelfTime>,
    /// Keys handled inside sampled spans, for layers priced per key.
    pub keys: BTreeMap<&'static str, u64>,
    /// Spans closed after the log was full (still in `totals`).
    pub unlogged: u64,
}

struct Frame {
    id: u32,
    name: &'static str,
    start: Instant,
    child_ns: u64,
}

struct Recorder {
    origin: Instant,
    cap: usize,
    op: Option<u64>,
    stack: Vec<Frame>,
    next_id: u32,
    out: ThreadTrace,
}

thread_local! {
    static REC: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts recording on this thread; `cap` bounds the kept span log.
pub fn install(origin: Instant, cap: usize) {
    REC.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            origin,
            cap,
            op: None,
            stack: Vec::with_capacity(8),
            next_id: 0,
            out: ThreadTrace { spans: Vec::with_capacity(cap), ..ThreadTrace::default() },
        })
    });
}

/// Stops recording on this thread and hands back what it recorded.
pub fn take() -> ThreadTrace {
    REC.with(|r| r.borrow_mut().take().map(|rec| rec.out).unwrap_or_default())
}

/// Credits `n` keys to span name `name`, if the current operation is sampled.
pub fn add_keys(name: &'static str, n: u64) {
    REC.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut().filter(|rec| rec.op.is_some()) {
            *rec.out.keys.entry(name).or_default() += n;
        }
    });
}

/// Closes a span when dropped; inert when the current operation is not sampled.
#[must_use]
pub struct SpanGuard {
    live: bool,
    root: bool,
}

fn open(name: &'static str) -> bool {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let Some(rec) = r.as_mut() else { return false };
        if rec.op.is_none() {
            return false;
        }
        let id = rec.next_id;
        rec.next_id = rec.next_id.wrapping_add(1);
        rec.stack.push(Frame { id, name, start: Instant::now(), child_ns: 0 });
        true
    })
}

/// Opens the root span of client operation `op`: spans opened until the
/// returned guard drops belong to it.
pub fn begin_op(op: u64) -> SpanGuard {
    let live = REC.with(|r| match r.borrow_mut().as_mut() {
        Some(rec) if rec.op.is_none() => {
            rec.op = Some(op);
            true
        }
        _ => false,
    });
    SpanGuard { live: live && open("op"), root: live }
}

/// Opens a span under the innermost open one (inert outside a sampled op).
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    SpanGuard { live: open(name), root: false }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.live && !self.root {
            return;
        }
        let end = Instant::now();
        REC.with(|r| {
            let mut r = r.borrow_mut();
            let Some(rec) = r.as_mut() else { return };
            if self.live {
                let f = rec.stack.pop().expect("span guards close in stack order");
                let dur = end.duration_since(f.start).as_nanos() as u64;
                let parent = match rec.stack.last_mut() {
                    Some(p) => {
                        p.child_ns += dur;
                        p.id
                    }
                    None => u32::MAX,
                };
                let t = rec.out.totals.entry(f.name).or_default();
                t.calls += 1;
                t.self_ns += dur.saturating_sub(f.child_ns);
                if rec.out.spans.len() < rec.cap {
                    rec.out.spans.push(Span {
                        op: rec.op.unwrap_or(u64::MAX),
                        id: f.id,
                        parent,
                        name: f.name,
                        start_ns: f.start.duration_since(rec.origin).as_nanos() as u64,
                        end_ns: end.duration_since(rec.origin).as_nanos() as u64,
                    });
                } else {
                    rec.out.unlogged += 1;
                }
            }
            if self.root {
                rec.op = None;
            }
        });
    }
}

impl ThreadTrace {
    /// Adds `other`'s spans, self times and key counts to this one.
    pub fn absorb(&mut self, other: ThreadTrace) {
        self.spans.extend(other.spans);
        self.unlogged += other.unlogged;
        for (name, s) in other.totals {
            let e = self.totals.entry(name).or_default();
            e.calls += s.calls;
            e.self_ns += s.self_ns;
        }
        for (name, n) in other.keys {
            *self.keys.entry(name).or_default() += n;
        }
    }
}

/// Per-name self times and key counts summed over threads (span logs are
/// left out).
pub fn merge(traces: &[ThreadTrace]) -> ThreadTrace {
    let mut all = ThreadTrace::default();
    for t in traces {
        all.absorb(ThreadTrace {
            totals: t.totals.clone(),
            keys: t.keys.clone(),
            ..ThreadTrace::default()
        });
    }
    all
}

/// Writes every kept span as one tab-separated line per span.
pub fn write_tsv(path: &Path, traces: &[ThreadTrace]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "thread\top\tspan\tparent\tname\tstart_ns\tend_ns")?;
    for (thread, t) in traces.iter().enumerate() {
        for s in &t.spans {
            let parent =
                if s.parent == u32::MAX { String::from("-") } else { s.parent.to_string() };
            writeln!(
                w,
                "{thread}\t{}\t{}\t{parent}\t{}\t{}\t{}",
                s.op, s.id, s.name, s.start_ns, s.end_ns
            )?;
        }
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_unsampled_spans_are_inert() {
        install(Instant::now(), 16);
        {
            let _s = span("outside"); // no op open: not recorded
        }
        {
            let _op = begin_op(7);
            let _a = span("a");
            {
                let _b = span("b");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        let t = take();
        assert!(!t.totals.contains_key("outside"));
        assert_eq!(t.spans.len(), 3);
        let a = t.totals["a"];
        let b = t.totals["b"];
        assert_eq!((a.calls, b.calls), (1, 1));
        assert!(b.self_ns >= 2_000_000 && a.self_ns < b.self_ns);
        let sb = t.spans.iter().find(|s| s.name == "b").unwrap();
        let sa = t.spans.iter().find(|s| s.name == "a").unwrap();
        assert_eq!(sb.parent, sa.id);
        assert!(t.spans.iter().all(|s| s.op == 7));
    }
}
