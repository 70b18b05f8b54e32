//! Regression test for the allocation-free training contract: once the
//! persistent `TrainWorkspace` has reached its steady-state shape, a
//! `train_step` (including target-network syncs) and a batched per-tick
//! selection must perform **zero** heap allocations.
//!
//! Lives in an integration test because the `rl` lib forbids unsafe code —
//! a counting `GlobalAlloc` needs it, and each integration test is its own
//! crate. The file holds exactly one `#[test]` so no concurrent test thread
//! can pollute the counter.

use rl::{DdqnAgent, DdqnConfig, Transition};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_train_and_select_allocate_nothing() {
    // ACC-shaped agent: 12 state features, {40,40} hidden, 20 actions.
    let mut cfg = DdqnConfig::default();
    cfg.target_sync_every = 5; // ensure the measured window includes syncs
    let mut agent = DdqnAgent::new(12, 20, cfg, 42);
    for i in 0..256u32 {
        let s: Vec<f32> = (0..12).map(|d| ((i + d) % 9) as f32 * 0.1).collect();
        agent.observe(Transition {
            state: s.clone(),
            action: (i % 20) as usize,
            reward: (i % 7) as f32 * 0.2 - 0.5,
            next_state: s,
            done: i % 31 == 0,
        });
    }

    // Warm up: shapes the workspace, lazily builds the gradient buffers,
    // and crosses at least one target sync.
    for _ in 0..12 {
        assert!(agent.train_step().is_some());
    }
    let states: Vec<f32> = (0..8 * 12).map(|i| (i % 11) as f32 * 0.05).collect();
    let mut decisions = Vec::new();
    agent.decide_batch(&states, 8, true, &mut decisions);

    // Steady state: 20 train steps (4 target syncs) + batched selections.
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..20 {
        let loss = agent.train_step();
        assert!(loss.is_some());
    }
    for _ in 0..20 {
        agent.decide_batch(&states, 8, true, &mut decisions);
        assert_eq!(decisions.len(), 8);
    }
    let delta = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(
        delta, 0,
        "steady-state training/selection performed {delta} heap allocations"
    );
}
