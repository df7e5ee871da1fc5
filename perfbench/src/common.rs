//! What every workload shares: the run context, the closed-loop window, the
//! latency probe, the teardown sweep, garbage draining and the metric sets.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ebr::{Reclaimer, ReclamationStats};

use crate::checks::Failures;
use crate::report::{median, Latency, Report};
use crate::trace::{self, SelfTime, SpanGuard, ThreadTrace};

/// Client threads: the closed loop's client count (this box has 2 CPUs).
pub const CLIENTS: usize = 2;
/// One operation in this many is timed for the latency percentiles.
pub const LATENCY_EVERY: u64 = 8;
/// One operation in this many is wrapped in spans by the traced run.
pub const TRACE_EVERY: u64 = 64;
/// Spans kept per thread for the written-out log.
pub const SPAN_LOG_CAP: usize = 100_000;
/// Live keys per `remove_range` window of a teardown sweep, and per timed
/// chunk of a refill or a verification scan.
pub const SWEEP_WINDOW: usize = 1000;
/// The window is cut into slices this long; each client metric is the
/// median over slices, so a burst of host interference moves one slice, not
/// the run.
pub const SLICE: Duration = Duration::from_millis(500);
/// How often the window's timer thread wakes (and the rebalancer steps).
pub const TICK: Duration = Duration::from_millis(10);

/// Command-line settings of one run.
#[derive(Clone, Debug)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Throughput of the untraced run of the same workload and seed, which
    /// `trace.overhead_pct` is priced against.
    pub baseline_mops: Option<f64>,
    pub trace_out: Option<PathBuf>,
    /// Process start, the origin of spans.
    pub origin: Instant,
}

/// `cpu_set_t`: 1024 CPU bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Pins the calling thread to the `tid`-th CPU it may run on (wrapping), so
/// the two clients hold one core each for the whole window instead of being
/// moved between cores, or onto one core, by the scheduler.  Returns the CPU,
/// or `None` if the affinity calls fail (the thread then stays unpinned).
pub fn pin_thread(tid: usize) -> Option<usize> {
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `allowed` is a writable `cpu_set_t`-sized buffer and its size
    // is passed; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) } != 0 {
        return None;
    }
    let cpus: Vec<usize> = (0..1024).filter(|&c| allowed[c / 64] >> (c % 64) & 1 == 1).collect();
    let cpu = *cpus.get(tid % cpus.len().max(1))?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above; `one` is a readable `cpu_set_t` naming one allowed CPU.
    (unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) } == 0).then_some(cpu)
}

/// Opens a span when `on` (the current operation is sampled).
#[inline]
pub fn sp(on: bool, name: &'static str) -> Option<SpanGuard> {
    on.then(|| trace::span(name))
}

/// Times every `LATENCY_EVERY`-th call it wraps.
#[derive(Debug, Default)]
pub struct Probe {
    n: u64,
    pub samples: Vec<u32>,
}

impl Probe {
    #[inline]
    pub fn call<T>(&mut self, f: impl FnOnce() -> T) -> T {
        self.n += 1;
        if !self.n.is_multiple_of(LATENCY_EVERY) {
            return f();
        }
        let t0 = Instant::now();
        let out = f();
        let ns = t0.elapsed().as_nanos().min(u32::MAX as u128) as u32;
        self.samples.push(ns);
        out
    }
}

/// Operation counts of one client, by kind.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    pub reads: u64,
    pub inserts: u64,
    pub insert_hits: u64,
    pub removes: u64,
    pub remove_hits: u64,
}

impl Counts {
    pub fn ops(&self) -> u64 {
        self.reads + self.inserts + self.removes
    }

    pub fn add(&mut self, o: &Counts) {
        self.reads += o.reads;
        self.inserts += o.inserts;
        self.insert_hits += o.insert_hits;
        self.removes += o.removes;
        self.remove_hits += o.remove_hits;
    }
}

/// What one client thread hands back when the window closes.
#[derive(Debug, Default)]
pub struct ClientOut<L> {
    pub counts: Counts,
    pub probe: Probe,
    pub fails: Failures,
    pub trace: ThreadTrace,
    pub elapsed: Duration,
    /// `(operations, latency samples)` at the start of each slice and at
    /// the end of the window.
    pub marks: Vec<(u64, usize)>,
    /// The workload's per-thread answer record (a ledger, or nothing).
    pub ledger: L,
}

/// Runs one closed-loop client: `op` is called back to back until `stop`
/// is raised; `op`'s flag says whether this call is sampled for spans.
pub fn client_loop<L: Default>(
    ctx: &Ctx,
    tid: usize,
    clock: &Clock,
    out: &mut ClientOut<L>,
    mut op: impl FnMut(&mut ClientOut<L>, bool),
) {
    pin_thread(tid);
    if ctx.traced {
        trace::install(ctx.origin, SPAN_LOG_CAP);
    }
    let start = Instant::now();
    let mut n = 0u64;
    let mut slice = clock.slice();
    out.marks.clear();
    out.marks.push((out.counts.ops(), out.probe.samples.len()));
    while !clock.stopped() {
        let now = clock.slice();
        while slice < now {
            out.marks.push((out.counts.ops(), out.probe.samples.len()));
            slice += 1;
        }
        n += 1;
        if ctx.traced && n.is_multiple_of(TRACE_EVERY) {
            let _root = trace::begin_op(((tid as u64) << 48) | n);
            op(out, true);
        } else {
            op(out, false);
        }
    }
    out.marks.push((out.counts.ops(), out.probe.samples.len()));
    out.elapsed += start.elapsed();
    if ctx.traced {
        out.trace.absorb(trace::take());
    }
}

/// The window's shared clock: the stop flag, the current slice, and the
/// instants at which the timer thread started each slice and stopped.
#[derive(Debug, Default)]
pub struct Clock {
    stop: AtomicBool,
    slice: AtomicUsize,
    times: Mutex<Vec<Instant>>,
}

impl Clock {
    #[inline]
    pub fn stopped(&self) -> bool {
        self.stop.load(Relaxed)
    }

    #[inline]
    pub fn slice(&self) -> usize {
        self.slice.load(Relaxed)
    }

    /// The timer thread's loop: wakes every `TICK` to call `tick`, starts a
    /// new slice every `SLICE`, and raises the stop flag after `seconds`.
    pub fn run(&self, seconds: f64, mut tick: impl FnMut()) {
        let start = Instant::now();
        let end = start + Duration::from_secs_f64(seconds);
        let mut times = vec![start];
        loop {
            let now = Instant::now();
            if now >= end {
                break;
            }
            std::thread::sleep(TICK.min(end - now));
            let next = *times.last().expect("non-empty") + SLICE;
            let now = Instant::now();
            if now >= next && now < end {
                times.push(now);
                self.slice.fetch_add(1, Relaxed);
            }
            tick();
        }
        times.push(Instant::now());
        self.stop.store(true, Relaxed);
        *self.times.lock().expect("clock lock") = times;
    }

    /// Slice boundaries: the start of each slice, then the stop instant.
    pub fn times(&self) -> Vec<Instant> {
        self.times.lock().expect("clock lock").clone()
    }
}

/// Runs `clients` threads of `client` while `main` runs on the calling
/// thread; `main` must stop the clock (`Clock::run` does).  Joins every
/// thread and returns the results with the slice boundaries.
pub fn window<T: Send>(
    clients: usize,
    client: impl Fn(usize, &Clock) -> T + Sync,
    main: impl FnOnce(&Clock),
) -> (Vec<T>, Vec<Instant>) {
    let clock = Clock::default();
    let (client, clock_ref) = (&client, &clock);
    let outs = std::thread::scope(|s| {
        let handles: Vec<_> =
            (0..clients).map(|tid| s.spawn(move || client(tid, clock_ref))).collect();
        main(clock_ref);
        clock_ref.stop.store(true, Relaxed);
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let times = clock.times();
    (outs, times)
}

/// Frees retired garbage until the bag stops shrinking.
pub fn drain_garbage() {
    loop {
        let pending = ebr::reclamation_stats().bag_depth();
        ebr::Ebr::collect();
        if ebr::reclamation_stats().bag_depth() >= pending {
            break;
        }
    }
}

/// One teardown sweep's outcome.
#[derive(Debug, Default)]
pub struct Sweep {
    pub removed: u64,
    pub calls: u64,
    /// Mkeys/s of each non-empty window.
    pub rates: Vec<f64>,
    pub fails: Failures,
}

/// The `[lo, hi)` windows of an ascending sweep over the present keys
/// `0..span`, each holding `SWEEP_WINDOW` of them (the last one fewer), with
/// the count each must remove.  `out` is cleared first and reused, so its
/// capacity can be reserved outside a footprint measurement.
pub fn sweep_windows(present: &[bool], out: &mut Vec<(u64, u64, usize)>) {
    out.clear();
    let span = present.len() as u64;
    let mut lo = 0u64;
    let mut n = 0usize;
    for (k, _) in present.iter().enumerate().filter(|(_, p)| **p) {
        if n == SWEEP_WINDOW {
            out.push((lo, k as u64, n));
            lo = k as u64;
            n = 0;
        }
        n += 1;
    }
    out.push((lo, span, n));
}

/// Clears a quiescent structure with one `remove_range(lo, hi)` call per
/// window; each call must remove exactly the window's present keys.  With a
/// span name (traced run) each window is one operation in that span.
pub fn sweep(
    windows: &[(u64, u64, usize)],
    span: Option<&'static str>,
    mut remove_range: impl FnMut(u64, u64) -> usize,
) -> Sweep {
    let mut out = Sweep { rates: Vec::with_capacity(windows.len()), ..Sweep::default() };
    for &(lo, hi, want) in windows {
        let _op = span.map(|_| trace::begin_op(lo));
        let _s = span.map(trace::span);
        let t0 = Instant::now();
        let got = remove_range(lo, hi);
        let dt = t0.elapsed();
        if let Some(name) = span {
            trace::add_keys(name, got as u64);
        }
        out.calls += 1;
        out.removed += got as u64;
        if got > 0 {
            out.rates.push(got as f64 / dt.as_secs_f64() / 1e6);
        }
        if got != want {
            out.fails.note(|| format!("remove_range({lo}..{hi}) removed {got}, expected {want}"));
        }
    }
    out
}

/// Runs `f` with this thread's span recorder on when the run is traced, and
/// keeps what it recorded in `keep`.
pub fn traced_here<T>(ctx: &Ctx, keep: &mut Vec<ThreadTrace>, f: impl FnOnce() -> T) -> T {
    if !ctx.traced {
        return f();
    }
    trace::install(ctx.origin, SPAN_LOG_CAP);
    let out = f();
    keep.push(trace::take());
    out
}

/// Times `items` calls of `f` in chunks of `SWEEP_WINDOW`, pushing each
/// full chunk's rate in Mkeys/s to `rates`.
pub fn chunked(items: usize, rates: &mut Vec<f64>, mut f: impl FnMut(usize)) {
    let mut t0 = Instant::now();
    for i in 0..items {
        f(i);
        if (i + 1) % SWEEP_WINDOW == 0 {
            let now = Instant::now();
            rates.push(SWEEP_WINDOW as f64 / now.duration_since(t0).as_secs_f64() / 1e6);
            t0 = now;
        }
    }
}

/// Writes the kept spans beside the build, if a path was given.
pub fn write_spans(ctx: &Ctx, traces: &[ThreadTrace]) {
    if let Some(path) = &ctx.trace_out {
        match trace::write_tsv(path, traces) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
        }
    }
}

/// One client's latency samples and its `ClientOut::marks`.
pub type ClientSamples = (Vec<u32>, Vec<(u64, usize)>);

/// Window totals over all clients.
#[derive(Debug, Default)]
pub struct Totals {
    pub counts: Counts,
    /// Each client's latency samples and slice marks.
    pub clients: Vec<ClientSamples>,
    pub fails: Failures,
    pub traces: Vec<ThreadTrace>,
    /// Mean client time in the window.
    pub seconds: f64,
}

impl Totals {
    pub fn absorb<L>(&mut self, outs: &mut [ClientOut<L>]) {
        let n = outs.len().max(1) as f64;
        for o in outs.iter_mut() {
            self.counts.add(&o.counts);
            self.clients.push((std::mem::take(&mut o.probe.samples), std::mem::take(&mut o.marks)));
            self.fails.absorb(std::mem::take(&mut o.fails));
            self.traces.push(std::mem::take(&mut o.trace));
            self.seconds += o.elapsed.as_secs_f64() / n;
        }
    }

    pub fn mops(&self) -> f64 {
        self.counts.ops() as f64 / self.seconds.max(1e-9) / 1e6
    }
}

/// The client-side end-to-end metrics of a window.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClientMetrics {
    pub mops: f64,
    pub p50_us: f64,
    pub p99_us: f64,
}

impl ClientMetrics {
    /// Computes each metric per slice of the window and reports the median
    /// over the slices; prints the whole window's figures beside them, with
    /// the latency sample count and its deepest honest percentile.
    pub fn of(t: &Totals, times: &[Instant]) -> Self {
        let slices = times.len().saturating_sub(1);
        let (mut mops, mut p50, mut p99) = (Vec::new(), Vec::new(), Vec::new());
        for k in 0..slices {
            let secs = times[k + 1].duration_since(times[k]).as_secs_f64();
            let mut ops = 0u64;
            let mut samples = Vec::new();
            for (lat, marks) in &t.clients {
                if let (Some(a), Some(b)) = (marks.get(k), marks.get(k + 1)) {
                    ops += b.0 - a.0;
                    samples.extend_from_slice(&lat[a.1..b.1]);
                }
            }
            // A slice cut short by the stop flag is too short to weigh.
            if secs < SLICE.as_secs_f64() / 2.0 || samples.is_empty() {
                continue;
            }
            let lat = Latency::new(samples);
            mops.push(ops as f64 / secs / 1e6);
            p50.push(lat.quantile_us(0.50));
            p99.push(lat.quantile_us(0.99));
        }
        let all = Latency::new(t.clients.iter().flat_map(|c| c.0.iter().copied()).collect());
        println!(
            "window: {:.4} Mops/s over {:.2} s; {} latency samples (1 op in {LATENCY_EVERY}): \
             p50 {:.3} us, p99 {:.3} us, deepest honest percentile p{:.4} = {:.3} us; \
             reported: medians over {} slices of {} ms",
            t.mops(),
            t.seconds,
            all.count(),
            all.quantile_us(0.50),
            all.quantile_us(0.99),
            all.deepest_percentile(),
            all.quantile_us(all.deepest_percentile() / 100.0),
            mops.len(),
            SLICE.as_millis()
        );
        ClientMetrics { mops: median(&mops), p50_us: median(&p50), p99_us: median(&p99) }
    }

    pub fn report(&self, report: &mut Report) {
        report.metric("throughput_mops", self.mops, "Mops/s");
        report.metric("op_p50_us", self.p50_us, "us");
        report.metric("op_p99_us", self.p99_us, "us");
    }
}

/// Set-up times of the repetitions, and refill and sweep rates of every
/// timed 1000-key chunk; each metric is the median of its samples.
#[derive(Debug, Default)]
pub struct Phases {
    pub setup_s: Vec<f64>,
    pub refill_mkeys: Vec<f64>,
    pub sweep_mkeys: Vec<f64>,
}

impl Phases {
    pub fn report(&self, report: &mut Report) {
        report.metric("setup_s", median(&self.setup_s), "s");
        report.metric("refill_mkeys", median(&self.refill_mkeys), "Mkeys/s");
        report.metric("sweep_mkeys", median(&self.sweep_mkeys), "Mkeys/s");
    }
}

/// Everything the per-layer metrics are computed from.
#[derive(Debug, Default)]
pub struct LayerInputs {
    /// Merged self times and per-key counts of the sampled spans.
    pub spans: ThreadTrace,
    pub counts: Counts,
    pub lfbst: cset::StatsSnapshot,
    pub ebr: ReclamationStats,
    pub height: usize,
    pub warmup_actions: f64,
    pub window_actions: f64,
    pub load_peak_over_mean: f64,
    pub mops: f64,
}

/// Mean self time of `name`, in ns per call (0 if never sampled).
fn per_call(selfs: &BTreeMap<&'static str, SelfTime>, name: &str) -> f64 {
    selfs.get(name).map_or(0.0, |s| s.self_ns as f64 / s.calls.max(1) as f64)
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Adds every per-layer metric, in `BENCHMARK.json` order.  A metric whose
/// layer this workload does not call reads 0.
pub fn layer_metrics(report: &mut Report, ctx: &Ctx, l: &LayerInputs) {
    let s = &l.spans.totals;
    let per_key = |name: &str| {
        let keys = l.spans.keys.get(name).copied().unwrap_or(0);
        ratio(s.get(name).map_or(0, |t| t.self_ns), keys)
    };
    let ops = l.lfbst.ops_total();
    report.metric("lfbst.contains_ns", per_call(s, "lfbst.contains"), "ns");
    report.metric("lfbst.links_per_op", ratio(l.lfbst.links_traversed, ops), "links");
    report.metric("lfbst.height", l.height as f64, "nodes");
    report.metric("lfbst.insert_ns", per_call(s, "lfbst.insert"), "ns");
    report.metric("lfbst.remove_ns", per_call(s, "lfbst.remove"), "ns");
    report.metric("lfbst.insert_hit_ratio", ratio(l.counts.insert_hits, l.counts.inserts), "ratio");
    report.metric("lfbst.remove_hit_ratio", ratio(l.counts.remove_hits, l.counts.removes), "ratio");
    report.metric("lfbst.cas_fail_per_op", ratio(l.lfbst.cas_failures, ops), "1/op");
    report.metric("lfbst.helps_per_op", ratio(l.lfbst.helps, ops), "1/op");
    report.metric("lfbst.restarts_per_op", ratio(l.lfbst.restarts, ops), "1/op");
    report.metric("lfbst.get_ns", per_call(s, "lfbst.get"), "ns");
    report.metric("lfbst.scan_ns_per_key", per_key("lfbst.scan"), "ns");
    report.metric("lfbst.remove_range_ns_per_key", per_key("lfbst.remove_range"), "ns");
    report.metric("ebr.pin_ns", per_call(s, "ebr.pin") * 2.0, "ns");
    let kops = l.counts.ops().max(1) as f64 / 1000.0;
    report.metric("ebr.retired_per_kop", l.ebr.nodes_retired as f64 / kops, "nodes/kop");
    report.metric("ebr.freed_per_kop", l.ebr.nodes_freed as f64 / kops, "nodes/kop");
    report.metric("ebr.bag_depth_hwm", l.ebr.bag_depth_hwm as f64, "nodes");
    report.metric("shard.get_ns", per_call(s, "shard.get"), "ns");
    report.metric("shard.upsert_ns", per_call(s, "shard.upsert"), "ns");
    report.metric("shard.remove_ns", per_call(s, "shard.remove"), "ns");
    report.metric("shard.scan_ns_per_key", per_key("shard.scan"), "ns");
    report.metric("shard.rebalance_step_us", per_call(s, "shard.rebalance_step") / 1000.0, "us");
    report.metric("shard.warmup_actions", l.warmup_actions, "actions");
    report.metric("shard.window_actions", l.window_actions, "actions");
    report.metric("shard.load_peak_over_mean", l.load_peak_over_mean, "ratio");
    report.metric("bench.keygen_ns", per_call(s, "bench.keygen"), "ns");
    report.metric("bench.check_ns", per_call(s, "bench.check"), "ns");
    let overhead = ctx.baseline_mops.map_or(0.0, |base| 100.0 * (base - l.mops) / base);
    report.metric("trace.overhead_pct", overhead, "%");
}
