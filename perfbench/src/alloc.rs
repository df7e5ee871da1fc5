//! A counting global allocator: live heap bytes, read by `bytes_per_key`.
//!
//! Counts are kept in 16 cache-padded slots, one picked per thread in
//! round-robin order, so two client threads allocating on every operation do
//! not bounce one shared counter line between their cores.  A slot may go
//! negative (a thread can free what another allocated); only the sum means
//! anything.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering::Relaxed};

const SLOTS: usize = 16;

#[repr(align(128))]
struct Slot(AtomicIsize);

static LIVE: [Slot; SLOTS] = [const { Slot(AtomicIsize::new(0)) }; SLOTS];
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static MY_SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn slot() -> &'static AtomicIsize {
    let i = MY_SLOT
        .try_with(|s| {
            if s.get() == usize::MAX {
                s.set(NEXT_SLOT.fetch_add(1, Relaxed) % SLOTS);
            }
            s.get()
        })
        .unwrap_or(0);
    &LIVE[i].0
}

/// The system allocator, counting requested bytes.
pub struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counting touches no
// memory the allocation hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            slot().fetch_add(layout.size() as isize, Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            slot().fetch_add(layout.size() as isize, Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        slot().fetch_sub(layout.size() as isize, Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            slot().fetch_add(new_size as isize - layout.size() as isize, Relaxed);
        }
        p
    }
}

/// Live heap bytes allocated through this allocator, process-wide.
pub fn live_bytes() -> isize {
    LIVE.iter().map(|s| s.0.load(Relaxed)).sum()
}
