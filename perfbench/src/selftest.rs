//! The checks' own tests: every workload's checks run against deliberately
//! faulty wrappers of the real structures and must report failures, and
//! against an honest wrapper and must report none.

use std::time::Instant;

use lfbst::{Config, LfBst};

use crate::checks::faulty::{Fault, Faulty};
use crate::common::Ctx;
use crate::sets::{Height, SetSpec};
use crate::{map, sets};

fn ctx() -> Ctx {
    Ctx {
        seed: 7,
        seconds: 0.3,
        traced: false,
        baseline_mops: None,
        trace_out: None,
        origin: Instant::now(),
    }
}

impl<S: Height> Height for Faulty<S> {
    fn height(&self) -> usize {
        self.inner.height()
    }
}

/// 2^18 keys: smaller ranges under two writers run into the helper-recursion
/// stack overflow (see the README), which aborts the test binary.
const SMALL_SET: SetSpec = SetSpec { range: 1 << 18, mix: [20, 40, 40], reps: 2 };

fn set_failures(fault: Fault) -> u64 {
    sets::run(&ctx(), SMALL_SET, |_| Faulty::new(LfBst::<u64>::new(), fault)).failed
}

fn map_failures(fault: Fault) -> u64 {
    map::run(&ctx(), move || Faulty::new(map::Tree::with_config(Config::new()), fault), || 0).failed
}

#[test]
fn set_checks_catch_dropped_writes_and_swapped_scans() {
    assert_eq!(set_failures(Fault::None), 0);
    assert!(set_failures(Fault::DropWrite(97)) > 0, "ledger check missed dropped writes");
    assert!(set_failures(Fault::SwapScan) > 0, "scan check missed swapped entries");
}

#[test]
fn map_checks_catch_dropped_writes() {
    assert_eq!(map_failures(Fault::None), 0);
    assert!(map_failures(Fault::DropWrite(97)) > 0, "ledger check missed dropped writes");
}

#[test]
fn map_checks_catch_corrupt_stamps_and_swapped_scans() {
    assert!(map_failures(Fault::CorruptStamp) > 0, "stamp check missed corrupted values");
    assert!(map_failures(Fault::SwapScan) > 0, "scan check missed swapped entries");
}
