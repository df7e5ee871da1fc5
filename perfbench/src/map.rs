//! `hot-range-map`: `ElasticMap<LfBst<u64, Vec<u8>>>`, 16 equal strips over
//! `[0, 2^20)`, driven through the `cset` map traits.
//!
//! 90% of keys fall uniformly in one strip-wide hot range that straddles
//! strips 5 and 6; 10% fall uniformly over the whole space.  The benchmark
//! calls `Rebalancer::step` on its own 10 ms timer with E18's split-only
//! policy, and each set-up runs the load until the strip layout is quiescent
//! (two action-free rounds), so the window measures the converged layout.
//!
//! The client mix has no scans: a `scan_entries` page beside the writers
//! failed its check now and then (see the README, F2), and a failure that
//! comes and goes cannot be counted the same way in every run.  The map's
//! scans are timed at quiescence instead, after every set-up and after the
//! window.

use std::ops::Bound;
use std::sync::{Arc, Mutex, Weak};
use std::time::{Duration, Instant};

use cset::{ConcurrentMap, EntryCursor, OrderedMap, StatsSnapshot};
use lfbst::{Config, LfBst};
use shard::{ElasticMap, RebalancePolicy, Rebalancer};

use crate::alloc;
use crate::checks::{presence, stamp, stamp_ok, Failures, Ledger, ScanCheck};
use crate::common::*;
use crate::report::{median, Report};
use crate::rng::Rng;
use crate::trace;

pub const RANGE: u64 = 1 << 20;
pub const STRIPS: usize = 16;
pub const STRIP: u64 = RANGE / STRIPS as u64;
/// The hot range: one strip wide, half in strip 5 and half in strip 6.
pub const HOT_LO: u64 = 5 * STRIP + STRIP / 2;
/// Percent of keys drawn from the hot range.
pub const HOT_PCT: u64 = 90;
/// Percent get / upsert; the rest are removes.
pub const MIX: [u64; 2] = [70, 15];
/// Timed full verification scans after the window (one more follows each
/// set-up).
const VERIFY_SCANS: usize = 3;
pub const REPS: usize = 8;
const ROUND: Duration = Duration::from_millis(250);
const MAX_WARMUP_ROUNDS: usize = 40;

pub type Payload = Vec<u8>;
pub type Tree = LfBst<u64, Payload>;

/// E18's split-only policy.
fn policy() -> RebalancePolicy {
    RebalancePolicy {
        hot_factor: 2.5,
        cold_factor: 0.05,
        min_shards: STRIPS,
        max_shards: 96,
        min_window_ops: 1024,
        interval: Duration::from_millis(10),
        ..RebalancePolicy::default()
    }
}

/// The prefill: half the range in E18's multiplicative-permutation order.
pub fn prefill_order() -> Vec<u64> {
    let mult = 0x9E37_79B9_7F4A_7C15u64 | 1;
    (0..RANGE / 2).map(|i| i.wrapping_mul(mult) & (RANGE - 1)).collect()
}

/// A strip tree for the traced run: every call the shard layer makes into
/// it is wrapped in an `lfbst.*` span, so the shard layer's self time is its
/// span minus these.  Trees register themselves so their heights can be read.
pub struct Spanned {
    tree: Arc<Tree>,
}

impl Spanned {
    pub fn new(config: Config, registry: &Mutex<Vec<Weak<Tree>>>) -> Self {
        let tree = Arc::new(Tree::with_config(config));
        registry.lock().expect("registry lock").push(Arc::downgrade(&tree));
        Spanned { tree }
    }
}

impl ConcurrentMap<u64, Payload> for Spanned {
    fn insert(&self, key: u64, value: Payload) -> bool {
        let _s = trace::span("lfbst.insert_entry");
        self.tree.insert_entry(key, value)
    }
    fn get(&self, key: &u64) -> Option<Payload> {
        let _s = trace::span("lfbst.get");
        self.tree.get(key)
    }
    fn upsert(&self, key: u64, value: Payload) -> Option<Payload> {
        let _s = trace::span("lfbst.upsert");
        self.tree.upsert(key, value)
    }
    fn remove(&self, key: &u64) -> Option<Payload> {
        let _s = trace::span("lfbst.remove");
        self.tree.remove_entry(key)
    }
    fn contains_key(&self, key: &u64) -> bool {
        let _s = trace::span("lfbst.contains");
        self.tree.contains(key)
    }
    fn len(&self) -> usize {
        self.tree.len()
    }
    fn name(&self) -> &'static str {
        "lfbst"
    }
    fn stats(&self) -> StatsSnapshot {
        self.tree.stats()
    }
}

impl OrderedMap<u64, Payload> for Spanned {
    fn entries_between(&self, lo: Bound<&u64>, hi: Bound<&u64>) -> Vec<(u64, Payload)> {
        let _s = trace::span("lfbst.scan");
        let out = self.tree.entries_between(lo, hi);
        trace::add_keys("lfbst.scan", out.len() as u64);
        out
    }
    fn entries_between_limited(
        &self,
        lo: Bound<&u64>,
        hi: Bound<&u64>,
        limit: usize,
    ) -> Vec<(u64, Payload)> {
        let _s = trace::span("lfbst.scan");
        let out = self.tree.entries_between_limited(lo, hi, limit);
        trace::add_keys("lfbst.scan", out.len() as u64);
        out
    }
    fn scan_entries<'a>(&'a self, lo: Bound<&u64>, hi: Bound<&u64>) -> EntryCursor<'a, u64, Payload>
    where
        Payload: 'a,
    {
        self.tree.scan_entries(lo, hi)
    }
    fn first_entry(&self) -> Option<(u64, Payload)> {
        self.tree.first_entry()
    }
    fn last_entry(&self) -> Option<(u64, Payload)> {
        self.tree.last_entry()
    }
    fn next_entry_after(&self, key: &u64) -> Option<(u64, Payload)> {
        self.tree.next_entry_after(key)
    }
    fn remove_range(&self, lo: Bound<&u64>, hi: Bound<&u64>) -> usize {
        let _s = trace::span("lfbst.remove_range");
        let n = OrderedMap::remove_range(&*self.tree, lo, hi);
        trace::add_keys("lfbst.remove_range", n as u64);
        n
    }
    fn retain_range(
        &self,
        lo: Bound<&u64>,
        hi: Bound<&u64>,
        keep: &(dyn Fn(&u64, &Payload) -> bool + Sync),
    ) -> usize {
        self.tree.retain_range(lo, hi, keep)
    }
}

/// The map face of `map` (`ElasticMap` implements it for every payload
/// type; this pins the payload).
fn face<M: OrderedMap<u64, Payload>>(map: &ElasticMap<M>) -> &(impl OrderedMap<u64, Payload> + '_) {
    map
}

/// One client's state, kept across warm-up rounds and the window.
struct Client {
    rng: Rng,
    out: ClientOut<Ledger>,
}

/// Runs one closed-loop round of every client for `seconds` while the
/// calling thread steps the rebalancer every 10 ms.  Returns the peak/mean
/// strip-load ratios seen before each step, and the slice boundaries.
fn round<M>(
    ctx: &Ctx,
    map: &ElasticMap<M>,
    balancer: &mut Rebalancer,
    clients: &[Mutex<Client>],
    seconds: f64,
) -> (Vec<f64>, Vec<Instant>)
where
    M: OrderedMap<u64, Payload>,
{
    let mut peaks = Vec::new();
    let mut step_id = 0u64;
    let (_, times) = window(
        clients.len(),
        |tid, clock| {
            let mut c = clients[tid].lock().expect("client lock");
            let Client { rng, out } = &mut *c;
            client_loop(ctx, tid, clock, out, |o, tr| op(map, rng, o, tr));
        },
        |clock| {
            if ctx.traced {
                trace::install(ctx.origin, SPAN_LOG_CAP);
            }
            clock.run(seconds, || {
                let loads = map.load_per_shard();
                let total: u64 = loads.iter().sum();
                if total >= policy().min_window_ops {
                    let peak = loads.iter().copied().max().unwrap_or(0);
                    peaks.push(peak as f64 * loads.len() as f64 / total as f64);
                }
                step_id += 1;
                let _op = ctx.traced.then(|| trace::begin_op(u64::MAX - step_id));
                let _s = sp(ctx.traced, "shard.rebalance_step");
                balancer.step::<M, Payload, ebr::Ebr>(map);
            });
        },
    );
    if ctx.traced {
        let mut c = clients[0].lock().expect("client lock");
        c.out.trace.absorb(trace::take());
    }
    (peaks, times)
}

/// One client operation against the map, with its answer checks.
#[inline]
fn op<M: OrderedMap<u64, Payload>>(
    map: &ElasticMap<M>,
    rng: &mut Rng,
    o: &mut ClientOut<Ledger>,
    tr: bool,
) {
    let map = face(map);
    let (k, r) = {
        let _s = sp(tr, "bench.keygen");
        let k = if rng.below(100) < HOT_PCT { HOT_LO + rng.below(STRIP) } else { rng.below(RANGE) };
        (k, rng.below(100))
    };
    let guard = tr.then(|| {
        let _s = trace::span("ebr.pin");
        ebr::pin()
    });
    let [g_pct, u_pct] = MIX;
    if r < g_pct {
        o.counts.reads += 1;
        let got = {
            let _s = sp(tr, "shard.get");
            o.probe.call(|| map.get(&k))
        };
        let _s = sp(tr, "bench.check");
        if let Some(v) = got {
            if !stamp_ok(k, &v) {
                o.fails.note(|| format!("get({k}) returned another key's value"));
            }
        }
    } else if r < g_pct + u_pct {
        o.counts.inserts += 1;
        let value = {
            let _s = sp(tr, "bench.keygen");
            stamp(k)
        };
        let old = {
            let _s = sp(tr, "shard.upsert");
            o.probe.call(|| map.upsert(k, value))
        };
        let _s = sp(tr, "bench.check");
        match old {
            None => {
                o.counts.insert_hits += 1;
                o.ledger.inserted(k);
            }
            Some(v) if !stamp_ok(k, &v) => {
                o.fails.note(|| format!("upsert({k}) displaced another key's value"))
            }
            Some(_) => {}
        }
    } else {
        o.counts.removes += 1;
        let old = {
            let _s = sp(tr, "shard.remove");
            o.probe.call(|| map.remove(&k))
        };
        let _s = sp(tr, "bench.check");
        if let Some(v) = old {
            o.counts.remove_hits += 1;
            o.ledger.removed(k);
            if !stamp_ok(k, &v) {
                o.fails.note(|| format!("remove({k}) returned another key's value"));
            }
        }
    }
    if let Some(g) = guard {
        let _s = trace::span("ebr.pin");
        drop(g);
    }
}

fn new_clients(ctx: &Ctx) -> Vec<Mutex<Client>> {
    (0..CLIENTS)
        .map(|tid| {
            Mutex::new(Client {
                rng: Rng::new(ctx.seed, 1 + tid as u64),
                out: ClientOut { ledger: Ledger::new(RANGE), ..ClientOut::default() },
            })
        })
        .collect()
}

/// A set-up: build, prefill and warm the map until its layout is quiescent.
struct Setup<M> {
    map: ElasticMap<M>,
    clients: Vec<Mutex<Client>>,
    balancer: Rebalancer,
    prefill: Vec<bool>,
    /// Prefill rates per 1000-key chunk.
    fill: Vec<f64>,
    /// Kept until the footprint is read: it was allocated before `base`.
    order: Vec<u64>,
    /// Rebalancer steps of the warm-up (traced run).
    warm_steps: Option<trace::SelfTime>,
    warmup_actions: u64,
    base: isize,
    attempted: u64,
    fails: Failures,
}

fn set_up<M>(ctx: &Ctx, make: &(impl Fn() -> M + Clone + Send + Sync + 'static)) -> Setup<M>
where
    M: OrderedMap<u64, Payload> + 'static,
{
    let order = prefill_order();
    let mut prefill = vec![false; RANGE as usize];
    order.iter().for_each(|&k| prefill[k as usize] = true);
    let base = alloc::live_bytes();
    let clients = new_clients(ctx);
    let map: ElasticMap<M> = ElasticMap::covering(STRIPS, RANGE, make.clone());
    let mut fails = Failures::default();
    let mut fill = Vec::with_capacity(order.len() / SWEEP_WINDOW);
    chunked(order.len(), &mut fill, |i| {
        let k = order[i];
        if face(&map).upsert(k, stamp(k)).is_some() {
            fails.note(|| format!("prefill upsert({k}) found the key present"));
        }
    });
    map.take_loads();
    let mut balancer = Rebalancer::new(policy());
    let (mut rounds, mut clean) = (0, 0);
    while clean < 2 && rounds < MAX_WARMUP_ROUNDS {
        let before = map.rebalances();
        round(ctx, &map, &mut balancer, &clients, ROUND.as_secs_f64());
        rounds += 1;
        clean = if map.rebalances() == before { clean + 1 } else { 0 };
    }
    drain_garbage();
    let warmup_actions = map.rebalances();
    println!(
        "set-up: {rounds} warm-up rounds, {warmup_actions} rebalances, {} strips",
        map.shard_count()
    );
    let mut attempted = order.len() as u64;
    let warm_steps = clients[0]
        .lock()
        .expect("client lock")
        .out
        .trace
        .totals
        .get("shard.rebalance_step")
        .copied();
    for c in &clients {
        let mut c = c.lock().expect("client lock");
        attempted += c.out.counts.ops();
        fails.absorb(std::mem::take(&mut c.out.fails));
        // Warm-up operations are checked but not measured.
        c.out.counts = Counts::default();
        c.out.probe = Probe::default();
        c.out.elapsed = Duration::ZERO;
        c.out.trace = trace::ThreadTrace::default();
    }
    Setup {
        map,
        clients,
        balancer,
        prefill,
        order,
        warm_steps,
        fill,
        warmup_actions,
        base,
        attempted,
        fails,
    }
}

fn ledger_presence(s: &Setup<impl Sized>) -> (Vec<bool>, u64) {
    let guards: Vec<_> = s.clients.iter().map(|c| c.lock().expect("client lock")).collect();
    presence(&s.prefill, &guards.iter().map(|g| &g.out.ledger).collect::<Vec<_>>())
}

pub fn run<M>(
    ctx: &Ctx,
    make: impl Fn() -> M + Clone + Send + Sync + 'static,
    height: impl Fn() -> usize,
) -> Report
where
    M: OrderedMap<u64, Payload> + 'static,
{
    let mut report = Report::default();
    let mut fails = Failures::default();
    let mut phases = Phases::default();
    let mut windows = Vec::with_capacity(RANGE as usize / SWEEP_WINDOW + 2);
    let mut scan_rates = Vec::with_capacity(REPS + VERIFY_SCANS);
    let mut attempted = 0u64;
    // Spans of the traced run's teardown sweeps, recorded on this thread.
    let mut main_traces = Vec::new();
    let sweep_map = |map: &ElasticMap<M>, windows: &[(u64, u64, usize)], span| {
        sweep(windows, span, |lo, hi| {
            face(map).remove_range(Bound::Included(&lo), Bound::Excluded(&hi))
        })
    };

    let mut kept = None;
    for rep in 0..REPS {
        let t0 = Instant::now();
        let mut s = set_up(ctx, &make);
        phases.setup_s.push(t0.elapsed().as_secs_f64());
        phases.refill_mkeys.extend(&s.fill);
        attempted += s.attempted;
        fails.absorb(std::mem::take(&mut s.fails));
        let (present, bad) = ledger_presence(&s);
        if bad > 0 {
            fails.note(|| format!("{bad} keys have a ledger presence other than 0 or 1"));
        }
        verify_scan(face(&s.map), &present, &mut scan_rates, &mut fails, false);
        attempted += 1;
        if rep + 1 < REPS {
            sweep_windows(&present, &mut windows);
            let sw = traced_here(ctx, &mut main_traces, || {
                sweep_map(&s.map, &windows, ctx.traced.then_some("shard.remove_range"))
            });
            attempted += sw.calls;
            phases.sweep_mkeys.extend(&sw.rates);
            fails.absorb(sw.fails);
        } else {
            kept = Some(s);
        }
    }
    let mut s = kept.expect("at least one set-up");

    // The measured window, with the rebalancer still stepping.
    let stats0 = face(&s.map).stats();
    <ebr::Ebr as ebr::Reclaimer>::reset_bag_depth_hwm();
    let rec0 = ebr::reclamation_stats();
    let actions0 = s.map.rebalances();
    let (peaks, times) = round(ctx, &s.map, &mut s.balancer, &s.clients, ctx.seconds);
    let window_actions = s.map.rebalances() - actions0;
    let rec = ebr::reclamation_stats().since(&rec0);
    let lfbst_stats = face(&s.map).stats().since(&stats0);
    let mut totals = Totals::default();
    {
        let mut guards: Vec<_> = s.clients.iter().map(|c| c.lock().expect("client lock")).collect();
        let mut outs: Vec<ClientOut<()>> = guards
            .iter_mut()
            .map(|g| ClientOut {
                counts: g.out.counts,
                probe: std::mem::take(&mut g.out.probe),
                fails: std::mem::take(&mut g.out.fails),
                trace: std::mem::take(&mut g.out.trace),
                elapsed: g.out.elapsed,
                marks: std::mem::take(&mut g.out.marks),
                ledger: (),
            })
            .collect();
        totals.absorb(&mut outs);
    }
    attempted += totals.counts.ops();

    // Quiescent checks.
    let (present, bad) = ledger_presence(&s);
    if bad > 0 {
        fails.note(|| format!("{bad} keys have a ledger presence other than 0 or 1"));
    }
    let expect_len = present.iter().filter(|p| **p).count();
    let m = face(&s.map);
    attempted += 2;
    if m.len() != expect_len {
        fails.note(|| format!("len() = {}, ledger says {expect_len}", m.len()));
    }
    if ctx.traced {
        trace::install(ctx.origin, SPAN_LOG_CAP);
    }
    for _ in 0..VERIFY_SCANS {
        verify_scan(m, &present, &mut scan_rates, &mut fails, ctx.traced);
    }
    attempted += VERIFY_SCANS as u64;
    if ctx.traced {
        totals.traces.push(trace::take());
        totals.traces.append(&mut main_traces);
    }
    let mut probe_rng = Rng::new(ctx.seed, 99);
    for _ in 0..1 << 16 {
        let k = probe_rng.below(RANGE);
        attempted += 1;
        let got = m.get(&k);
        if got.is_some() != present[k as usize] || got.is_some_and(|v| !stamp_ok(k, &v)) {
            fails.note(|| format!("get({k}) disagrees with the ledger or the stamp"));
        }
    }
    sweep_windows(&present, &mut windows);
    let client = ClientMetrics::of(&totals, &times);
    let counts = totals.counts;
    let spans = ctx.traced.then(|| {
        write_spans(ctx, &totals.traces);
        let mut spans = trace::merge(&totals.traces);
        // The step cost that matters is the warm-up's, where the splits are.
        match s.warm_steps {
            Some(t) => spans.totals.insert("shard.rebalance_step", t),
            None => spans.totals.remove("shard.rebalance_step"),
        };
        spans
    });
    fails.absorb(std::mem::take(&mut totals.fails));

    // Footprint: the clients' ledgers and samples go first.
    drop((totals, present, times));
    let Setup { map, clients, prefill, order, base, warmup_actions, .. } = s;
    drop(clients);
    drain_garbage();
    let m = face(&map);
    let bytes_per_key = (alloc::live_bytes() - base) as f64 / m.len().max(1) as f64;
    let tree_height = height();

    let sw = sweep_map(&map, &windows, None);
    attempted += sw.calls + 1;
    phases.sweep_mkeys.extend(&sw.rates);
    fails.absorb(sw.fails);
    if !m.is_empty() {
        fails.note(|| format!("{} keys left after the final sweep", m.len()));
    }
    drop((order, prefill));

    match spans {
        Some(spans) => {
            let layers = LayerInputs {
                spans,
                counts,
                lfbst: lfbst_stats,
                ebr: rec,
                height: tree_height,
                warmup_actions: warmup_actions as f64,
                window_actions: window_actions as f64,
                load_peak_over_mean: median(&peaks),
                mops: client.mops,
            };
            layer_metrics(&mut report, ctx, &layers);
        }
        None => {
            client.report(&mut report);
            phases.report(&mut report);
            report.metric("scan_mkeys", median(&scan_rates), "Mkeys/s");
            report.metric("bytes_per_key", bytes_per_key, "B");
        }
    }
    report.finish(attempted, fails);
    report
}

/// One full verification scan of a quiet map: strictly ascending, exactly
/// the `present` keys, every value stamped.  The cursor is drained in
/// 1000-entry pages, each checked outside the timing; the scan's rate, its
/// entries over the summed page times, goes to `rates` (on this workload
/// `scan_mkeys` is the median of these).  In the traced run each page is one
/// operation with a `shard.scan` span around its fetch.
fn verify_scan(
    map: &impl OrderedMap<u64, Payload>,
    present: &[bool],
    rates: &mut Vec<f64>,
    fails: &mut Failures,
    traced: bool,
) {
    let expect_len = present.iter().filter(|p| **p).count();
    let mut check = ScanCheck::new(0, RANGE, usize::MAX);
    let (mut wrong, mut stamps) = (0u64, 0u64);
    let mut entries = map.scan_entries(Bound::Unbounded, Bound::Unbounded);
    let mut fetching = Duration::ZERO;
    for n in 0.. {
        let _op = traced.then(|| trace::begin_op(u64::MAX - n));
        let t0 = Instant::now();
        let page: Vec<(u64, Payload)> = {
            let _s = sp(traced, "shard.scan");
            entries.by_ref().take(SWEEP_WINDOW).collect()
        };
        fetching += t0.elapsed();
        trace::add_keys("shard.scan", page.len() as u64);
        for (k, v) in &page {
            check.push(*k);
            wrong += !present.get(*k as usize).is_some_and(|p| *p) as u64;
            stamps += !stamp_ok(*k, v) as u64;
        }
        if page.len() < SWEEP_WINDOW {
            break;
        }
    }
    rates.push(check.seen() as f64 / fetching.as_secs_f64() / 1e6);
    if !check.ok() || wrong + stamps > 0 || check.seen() != expect_len {
        fails.note(|| {
            format!(
                "full scan: order/bounds ok = {}, {wrong} unexpected keys, {stamps} bad stamps, \
                 {} keys for {expect_len}",
                check.ok(),
                check.seen()
            )
        });
    }
}
