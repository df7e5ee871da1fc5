//! `read-mostly` and `write-heavy`: `LfBst<u64>` driven directly, no shard
//! layer in the path.
//!
//! Each run sets the set up `reps` times (prefill half the key range in a
//! seeded shuffled order) and clears each copy but the last with a teardown
//! sweep; the last copy takes the measured window, is checked key by key
//! against the ledgers, has its footprint measured, and is swept too.

use std::hint::black_box;
use std::ops::Bound;
use std::time::Instant;

use cset::OrderedSet;

use crate::alloc;
use crate::checks::{presence, Failures, Ledger, ScanCheck};
use crate::common::*;
use crate::report::{median, Report};
use crate::rng::Rng;
use crate::trace;

/// The shape of one set workload.
#[derive(Clone, Copy, Debug)]
pub struct SetSpec {
    pub range: u64,
    /// Percent contains / insert / remove.
    pub mix: [u64; 3],
    /// Set-ups per run (the median is reported).
    pub reps: usize,
}

pub const READ_MOSTLY: SetSpec = SetSpec { range: 1 << 22, mix: [90, 5, 5], reps: 3 };
/// 2^20, not the 2^16 of E3/E5/E15: at 2^16 two closed-loop clients abort
/// with the helper-recursion stack overflow in about two runs of five (see
/// the README), and an abort cannot be counted per operation.
pub const WRITE_HEAVY: SetSpec = SetSpec { range: 1 << 20, mix: [0, 50, 50], reps: 8 };
/// Timed full verification scans of the measured set, after its window (one
/// more follows each prefill, so the scans spread over the run).
const VERIFY_SCANS: usize = 3;

/// Quiescent tree height, for the structures that have one.
pub trait Height {
    fn height(&self) -> usize;
}

impl Height for lfbst::LfBst<u64> {
    fn height(&self) -> usize {
        lfbst::LfBst::height(self)
    }
}

/// The seeded prefill: which keys start present, and their insertion order.
pub fn prefill_keys(seed: u64, range: u64) -> (Vec<bool>, Vec<u64>) {
    let mut rng = Rng::new(seed, 0);
    let present: Vec<bool> = (0..range).map(|_| rng.next_u64() >> 63 == 1).collect();
    let mut order: Vec<u64> = (0..range).filter(|&k| present[k as usize]).collect();
    rng.shuffle(&mut order);
    (present, order)
}

pub fn run<S>(ctx: &Ctx, spec: SetSpec, make: impl Fn(bool) -> S) -> Report
where
    S: OrderedSet<u64> + Height,
{
    let mut report = Report::default();
    let mut fails = Failures::default();
    let mut phases = Phases::default();
    let mut windows = Vec::with_capacity(spec.range as usize / SWEEP_WINDOW + 2);
    let mut scan_rates =
        Vec::with_capacity((spec.reps + VERIFY_SCANS) * (spec.range as usize / SWEEP_WINDOW + 1));
    let mut attempted = 0u64;
    // Spans of the traced run's teardown sweeps, recorded on this thread.
    let mut main_traces = Vec::new();

    // Set-up repetitions; the last one's set is the one measured.
    let mut kept = None;
    for rep in 0..spec.reps {
        let t0 = Instant::now();
        let (present, order) = prefill_keys(ctx.seed, spec.range);
        let base = alloc::live_bytes();
        let set = make(ctx.traced);
        chunked(order.len(), &mut phases.refill_mkeys, |i| {
            if !set.insert(order[i]) {
                fails.note(|| format!("prefill insert({}) reported the key present", order[i]));
            }
        });
        phases.setup_s.push(t0.elapsed().as_secs_f64());
        attempted += order.len() as u64 + 1;
        verify_scan(&set, &present, &mut scan_rates, &mut fails);
        if rep + 1 < spec.reps {
            sweep_windows(&present, &mut windows);
            let sw = traced_here(ctx, &mut main_traces, || {
                sweep(&windows, ctx.traced.then_some("lfbst.remove_range"), |lo, hi| {
                    set.remove_range(Bound::Included(&lo), Bound::Excluded(&hi))
                })
            });
            attempted += sw.calls;
            phases.sweep_mkeys.extend(&sw.rates);
            fails.absorb(sw.fails);
        } else {
            kept = Some((set, present, order, base));
        }
    }
    let (set, prefill, order, base) = kept.expect("at least one set-up");

    // The measured window.
    let stats0 = set.stats();
    <ebr::Ebr as ebr::Reclaimer>::reset_bag_depth_hwm();
    let rec0 = ebr::reclamation_stats();
    let [c_pct, i_pct, _] = spec.mix;
    let (mut outs, times) = window(
        CLIENTS,
        |tid, clock| {
            let mut out = ClientOut { ledger: Ledger::new(spec.range), ..ClientOut::default() };
            let mut rng = Rng::new(ctx.seed, 1 + tid as u64);
            client_loop(ctx, tid, clock, &mut out, |o, tr| {
                let (k, r) = {
                    let _s = sp(tr, "bench.keygen");
                    (rng.below(spec.range), rng.below(100))
                };
                let guard = tr.then(|| {
                    let _s = trace::span("ebr.pin");
                    ebr::pin()
                });
                if r < c_pct {
                    o.counts.reads += 1;
                    let _s = sp(tr, "lfbst.contains");
                    black_box(o.probe.call(|| set.contains(&k)));
                } else if r < c_pct + i_pct {
                    o.counts.inserts += 1;
                    let hit = {
                        let _s = sp(tr, "lfbst.insert");
                        o.probe.call(|| set.insert(k))
                    };
                    let _s = sp(tr, "bench.check");
                    if hit {
                        o.counts.insert_hits += 1;
                        o.ledger.inserted(k);
                    }
                } else {
                    o.counts.removes += 1;
                    let hit = {
                        let _s = sp(tr, "lfbst.remove");
                        o.probe.call(|| set.remove(&k))
                    };
                    let _s = sp(tr, "bench.check");
                    if hit {
                        o.counts.remove_hits += 1;
                        o.ledger.removed(k);
                    }
                }
                if let Some(g) = guard {
                    let _s = trace::span("ebr.pin");
                    drop(g);
                }
            });
            out
        },
        |clock| clock.run(ctx.seconds, || {}),
    );
    let rec = ebr::reclamation_stats().since(&rec0);
    let lfbst_stats = set.stats().since(&stats0);
    let mut totals = Totals::default();
    totals.absorb(&mut outs);
    totals.traces.append(&mut main_traces);
    attempted += totals.counts.ops();

    // Quiescent checks: presence from the ledgers must match the set's
    // scans, `len()` and point reads.
    let (present, bad) = presence(&prefill, &outs.iter().map(|o| &o.ledger).collect::<Vec<_>>());
    if bad > 0 {
        fails.note(|| format!("{bad} keys have a ledger presence other than 0 or 1"));
    }
    let expect_len = present.iter().filter(|p| **p).count();
    attempted += 1;
    if set.len() != expect_len {
        fails.note(|| format!("len() = {}, ledger says {expect_len}", set.len()));
    }
    for _ in 0..VERIFY_SCANS {
        verify_scan(&set, &present, &mut scan_rates, &mut fails);
    }
    attempted += VERIFY_SCANS as u64;
    let mut probe_rng = Rng::new(ctx.seed, 99);
    for _ in 0..spec.range.min(1 << 16) {
        let k = probe_rng.below(spec.range);
        attempted += 1;
        if set.contains(&k) != present[k as usize] {
            fails.note(|| format!("contains({k}) disagrees with the ledger"));
        }
    }
    sweep_windows(&present, &mut windows);
    let client = ClientMetrics::of(&totals, &times);
    let layers = ctx.traced.then(|| {
        write_spans(ctx, &totals.traces);
        LayerInputs {
            spans: trace::merge(&totals.traces),
            counts: totals.counts,
            lfbst: lfbst_stats,
            ebr: rec,
            height: set.height(),
            mops: client.mops,
            ..LayerInputs::default()
        }
    });
    fails.absorb(std::mem::take(&mut totals.fails));

    // Footprint: every buffer the benchmark allocated since `base` is freed
    // first (`windows` and `scan_rates` were reserved before it).
    drop((totals, outs, present, times));
    drain_garbage();
    let bytes_per_key = (alloc::live_bytes() - base) as f64 / set.len().max(1) as f64;

    let sw = sweep(&windows, None, |lo, hi| {
        set.remove_range(Bound::Included(&lo), Bound::Excluded(&hi))
    });
    attempted += sw.calls + 1;
    phases.sweep_mkeys.extend(&sw.rates);
    fails.absorb(sw.fails);
    if !set.is_empty() {
        fails.note(|| format!("{} keys left after the final sweep", set.len()));
    }
    drop((order, prefill));

    match layers {
        Some(layers) => layer_metrics(&mut report, ctx, &layers),
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

/// One full verification scan of a quiet set: strictly ascending, and exactly
/// the `present` keys.  Timed per 1000-key chunk into `rates`: on the set
/// workloads `scan_mkeys` is this scan's rate.
fn verify_scan<S: OrderedSet<u64>>(
    set: &S,
    present: &[bool],
    rates: &mut Vec<f64>,
    fails: &mut Failures,
) {
    let expect_len = present.iter().filter(|p| **p).count();
    let mut check = ScanCheck::new(0, present.len() as u64, usize::MAX);
    let mut wrong = 0u64;
    let mut keys = set.scan_keys(Bound::Unbounded, Bound::Unbounded);
    chunked(expect_len, rates, |_| {
        if let Some(k) = keys.next() {
            check.push(k);
            wrong += !present.get(k as usize).is_some_and(|p| *p) as u64;
        }
    });
    keys.for_each(|k| {
        check.push(k);
        wrong += 1;
    });
    if !check.ok() || wrong > 0 || check.seen() != expect_len {
        fails.note(|| {
            format!(
                "full scan: order/bounds ok = {}, {wrong} unexpected keys, {} keys for {expect_len}",
                check.ok(),
                check.seen()
            )
        });
    }
}
