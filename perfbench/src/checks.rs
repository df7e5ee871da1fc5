//! Answer checks, computed apart from the program.
//!
//! * A per-thread [`Ledger`] records each successful insert and remove.
//!   Summed with the prefill at quiescence it gives every key a presence of
//!   0 or 1, which the structure's scans, point reads and `len()` must match.
//! * Every stored value is a [`stamp`] of its key; every returned value must
//!   carry its key's stamp.
//! * Every scan must be strictly ascending, inside its bounds and no longer
//!   than its limit ([`ScanCheck`]).

/// Bytes per map payload.
pub const PAYLOAD: usize = 64;

/// The payload stored under `key`: its little-endian bytes, repeated.
pub fn stamp(key: u64) -> Vec<u8> {
    let mut v = Vec::with_capacity(PAYLOAD);
    for _ in 0..PAYLOAD / 8 {
        v.extend_from_slice(&key.to_le_bytes());
    }
    v
}

/// Whether `value` is exactly `key`'s stamp.
pub fn stamp_ok(key: u64, value: &[u8]) -> bool {
    value.len() == PAYLOAD && value.chunks_exact(8).all(|c| c == key.to_le_bytes())
}

/// Net successful inserts minus removes per key, for one thread.  Wrapping
/// `i16` arithmetic: a presence off by a multiple of 65536 would go unseen,
/// which no run comes near.
#[derive(Clone, Debug, Default)]
pub struct Ledger(Vec<i16>);

impl Ledger {
    pub fn new(range: u64) -> Self {
        Ledger(vec![0; range as usize])
    }

    #[inline]
    pub fn inserted(&mut self, key: u64) {
        let c = &mut self.0[key as usize];
        *c = c.wrapping_add(1);
    }

    #[inline]
    pub fn removed(&mut self, key: u64) {
        let c = &mut self.0[key as usize];
        *c = c.wrapping_sub(1);
    }
}

/// The expected presence of every key: the prefill plus every ledger.
/// Returns the presence map and the number of keys whose sum is neither 0
/// nor 1 (a write the structure acknowledged but lost, or applied twice).
pub fn presence(prefill: &[bool], ledgers: &[&Ledger]) -> (Vec<bool>, u64) {
    let mut bad = 0u64;
    let present = (0..prefill.len())
        .map(|k| {
            let sum = ledgers.iter().fold(prefill[k] as i16, |s, l| s.wrapping_add(l.0[k]));
            if sum != 0 && sum != 1 {
                bad += 1;
            }
            sum == 1
        })
        .collect();
    (present, bad)
}

/// Checks one scan as its entries stream by: strictly ascending, inside
/// `[lo, hi)`, and at most `limit` long.
#[derive(Debug)]
pub struct ScanCheck {
    lo: u64,
    hi: u64,
    limit: usize,
    last: Option<u64>,
    seen: usize,
    ok: bool,
}

impl ScanCheck {
    pub fn new(lo: u64, hi: u64, limit: usize) -> Self {
        ScanCheck { lo, hi, limit, last: None, seen: 0, ok: true }
    }

    #[inline]
    pub fn push(&mut self, key: u64) {
        self.ok &= key >= self.lo && key < self.hi && self.last.is_none_or(|l| key > l);
        self.last = Some(key);
        self.seen += 1;
        self.ok &= self.seen <= self.limit;
    }

    pub fn ok(&self) -> bool {
        self.ok
    }

    pub fn seen(&self) -> usize {
        self.seen
    }
}

/// Failure tally of one thread or phase: the count, and the first few
/// descriptions for the log.
#[derive(Debug, Default)]
pub struct Failures {
    pub count: u64,
    pub first: Vec<String>,
}

impl Failures {
    #[cold]
    pub fn note(&mut self, what: impl FnOnce() -> String) {
        self.count += 1;
        if self.first.len() < 5 {
            self.first.push(what());
        }
    }

    pub fn absorb(&mut self, other: Failures) {
        self.count += other.count;
        for f in other.first {
            if self.first.len() < 5 {
                self.first.push(f);
            }
        }
    }
}

#[cfg(test)]
pub mod faulty {
    //! Deliberately faulty wrappers for the checks' own tests.

    use std::ops::Bound;
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

    use cset::{ConcurrentMap, ConcurrentSet, EntryCursor, KeyCursor, OrderedMap, OrderedSet};

    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum Fault {
        /// Acknowledge one write in N without applying it.
        DropWrite(u64),
        /// Flip one byte of every returned value.
        CorruptStamp,
        /// Swap the first two entries of every scan.
        SwapScan,
        /// Acknowledge every write truthfully (the control).
        None,
    }

    pub struct Faulty<S> {
        pub inner: S,
        pub fault: Fault,
        writes: AtomicU64,
    }

    impl<S> Faulty<S> {
        pub fn new(inner: S, fault: Fault) -> Self {
            Faulty { inner, fault, writes: AtomicU64::new(0) }
        }

        fn drop_this_write(&self) -> bool {
            match self.fault {
                Fault::DropWrite(n) => self.writes.fetch_add(1, Relaxed) % n == n - 1,
                _ => false,
            }
        }

        fn corrupt(&self, v: Option<Vec<u8>>) -> Option<Vec<u8>> {
            v.map(|mut v| {
                if self.fault == Fault::CorruptStamp {
                    v[3] ^= 0x40;
                }
                v
            })
        }
    }

    fn swapped<T: 'static>(fault: Fault, it: Box<dyn Iterator<Item = T> + '_>) -> Vec<T> {
        let mut v: Vec<T> = it.collect();
        if fault == Fault::SwapScan && v.len() >= 2 {
            v.swap(0, 1);
        }
        v
    }

    impl<S: ConcurrentSet<u64>> ConcurrentSet<u64> for Faulty<S> {
        fn insert(&self, key: u64) -> bool {
            if self.drop_this_write() {
                return !self.inner.contains(&key);
            }
            self.inner.insert(key)
        }
        fn remove(&self, key: &u64) -> bool {
            if self.drop_this_write() {
                return self.inner.contains(key);
            }
            self.inner.remove(key)
        }
        fn contains(&self, key: &u64) -> bool {
            self.inner.contains(key)
        }
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn name(&self) -> &'static str {
            "faulty"
        }
    }

    impl<S: OrderedSet<u64>> OrderedSet<u64> for Faulty<S> {
        fn scan_keys<'a>(&'a self, lo: Bound<&u64>, hi: Bound<&u64>) -> KeyCursor<'a, u64>
        where
            u64: 'a,
        {
            Box::new(swapped(self.fault, self.inner.scan_keys(lo, hi)).into_iter())
        }
        fn remove_range(&self, lo: Bound<&u64>, hi: Bound<&u64>) -> usize {
            self.inner.remove_range(lo, hi)
        }
    }

    type Payload = Vec<u8>;

    impl<M: OrderedMap<u64, Payload>> ConcurrentMap<u64, Payload> for Faulty<M> {
        fn insert(&self, key: u64, value: Payload) -> bool {
            if self.drop_this_write() {
                return !self.inner.contains_key(&key);
            }
            self.inner.insert(key, value)
        }
        fn get(&self, key: &u64) -> Option<Payload> {
            self.corrupt(self.inner.get(key))
        }
        fn upsert(&self, key: u64, value: Payload) -> Option<Payload> {
            if self.drop_this_write() {
                return self.corrupt(self.inner.get(&key));
            }
            self.corrupt(self.inner.upsert(key, value))
        }
        fn remove(&self, key: &u64) -> Option<Payload> {
            if self.drop_this_write() {
                return self.corrupt(self.inner.get(key));
            }
            self.corrupt(self.inner.remove(key))
        }
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn name(&self) -> &'static str {
            "faulty"
        }
    }

    impl<M: OrderedMap<u64, Payload>> OrderedMap<u64, Payload> for Faulty<M> {
        fn scan_entries<'a>(
            &'a self,
            lo: Bound<&u64>,
            hi: Bound<&u64>,
        ) -> EntryCursor<'a, u64, Payload>
        where
            u64: 'a,
            Payload: 'a,
        {
            let v = swapped(self.fault, self.inner.scan_entries(lo, hi));
            Box::new(v.into_iter().map(|(k, v)| (k, self.corrupt(Some(v)).expect("some"))))
        }
        fn remove_range(&self, lo: Bound<&u64>, hi: Bound<&u64>) -> usize {
            self.inner.remove_range(lo, hi)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamps_round_trip_and_reject_other_keys() {
        let v = stamp(0xDEAD_BEEF);
        assert!(stamp_ok(0xDEAD_BEEF, &v));
        assert!(!stamp_ok(0xDEAD_BEEE, &v));
        let mut w = v.clone();
        w[63] ^= 1;
        assert!(!stamp_ok(0xDEAD_BEEF, &w));
        assert!(!stamp_ok(0xDEAD_BEEF, &v[..56]));
    }

    #[test]
    fn scan_check_flags_order_bounds_and_limit() {
        let run = |keys: &[u64], limit| {
            let mut c = ScanCheck::new(10, 20, limit);
            keys.iter().for_each(|&k| c.push(k));
            c.ok()
        };
        assert!(run(&[10, 12, 19], 3));
        assert!(!run(&[12, 11], 3), "descending");
        assert!(!run(&[12, 12], 3), "repeated");
        assert!(!run(&[9, 12], 3), "below lo");
        assert!(!run(&[12, 20], 3), "at hi");
        assert!(!run(&[10, 11, 12, 13], 3), "over limit");
    }

    #[test]
    fn presence_flags_double_counted_keys() {
        let prefill = [true, false, false, true];
        let mut a = Ledger::new(4);
        let mut b = Ledger::new(4);
        a.inserted(1); // 0 -> 1
        a.removed(3); // 1 -> 0
        b.inserted(2);
        b.inserted(2); // 0 -> 2: an insert acknowledged twice
        let (present, bad) = presence(&prefill, &[&a, &b]);
        assert_eq!(present, vec![true, true, false, false]);
        assert_eq!(bad, 1);
    }
}
