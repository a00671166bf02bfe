//! A netlist costs a constant number of allocations however many nodes it
//! has: raising an AIG to a netlist fills flat tables sized once, and a
//! clone copies those tables, not one fanin list or name per node.
//!
//! The counting allocator serves the whole test binary, so the binary holds
//! a single test: no other test thread allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use refined_bmc::circuit::{Aig, AigLit, LatchInit};

/// The system allocator, counting every allocation and reallocation (the
/// default `alloc_zeroed` goes through `alloc`).
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to `System` unchanged; the counter is the
// only addition.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f`, returning its value and the allocations it made.
fn allocations_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let value = f();
    (value, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

/// An AIG with `ands` AND nodes, and a tenth as many inputs and as many
/// latches: one chain of ANDs, each conjoining the previous one with an
/// input or a latch, so strashing and folding keep every AND. Each latch
/// takes the chain's end as its next state; the end is an output and a
/// bad-state property.
fn chain_aig(ands: usize) -> Aig {
    let mut aig = Aig::new();
    let inputs: Vec<AigLit> = (0..ands / 10).map(|_| aig.add_input()).collect();
    let latches: Vec<AigLit> = (0..ands / 10)
        .map(|_| aig.add_latch(LatchInit::Zero))
        .collect();
    let mut chain = inputs[0];
    for i in 0..ands {
        let leaf = if i % 2 == 0 {
            latches[i / 2 % latches.len()]
        } else {
            !inputs[i / 2 % inputs.len()]
        };
        chain = aig.and2(chain, leaf);
    }
    for &latch in &latches {
        aig.set_next(latch, chain);
    }
    aig.add_output("end", chain);
    aig.add_bad("end", chain);
    assert_eq!(aig.num_ands(), ands);
    aig
}

#[test]
fn raising_and_cloning_a_netlist_take_a_constant_number_of_allocations() {
    let (small, large) = (chain_aig(1_000), chain_aig(10_000));

    let (small_raised, small_raise) = allocations_during(|| small.to_netlist());
    let (large_raised, large_raise) = allocations_during(|| large.to_netlist());
    let (small_copy, small_clone) = allocations_during(|| small_raised.netlist.clone());
    let (large_copy, large_clone) = allocations_during(|| large_raised.netlist.clone());
    assert_eq!(small_copy.num_nodes(), small_raised.netlist.num_nodes());
    assert_eq!(large_copy.num_nodes(), 1 + 2 * 1_000 + 10_000);

    // Ten times the nodes may cost at most a few allocations more (none,
    // today), where one per gate or per name would cost thousands.
    const SLACK: usize = 4;
    assert!(
        large_raise <= small_raise + SLACK,
        "to_netlist: {small_raise} allocations for 1,000 ANDs, {large_raise} for 10,000"
    );
    assert!(
        large_clone <= small_clone + SLACK,
        "Netlist::clone: {small_clone} allocations for 1,000 ANDs, {large_clone} for 10,000"
    );
}
