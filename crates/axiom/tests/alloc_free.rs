//! Proves the streaming allocation bound: the steady-state candidate
//! walk performs **zero heap allocation per candidate**, both for a bare
//! visitor and with a compiled `.cat` plan judging every candidate.
//!
//! A counting global allocator wraps the system allocator and counts
//! per thread, so allocations made by other test threads of this binary
//! never land in the enumerating thread's count. After the enumeration
//! scratch has warmed, the counter is read inside the visitor at the
//! first and at the last visit: every inter-visit step (overlay
//! rewrites, skeleton refills for later trace combinations, rf/co
//! advancement, plan evaluation) lies between those two reads, so their
//! equality is exactly the claim. The measurement harness is shared by
//! both tests.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::ops::ControlFlow;

struct Counting;

thread_local! {
    /// Allocations made by the current thread. `const`-initialised, so
    /// reading it from inside the allocator never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the slot may already be gone during thread teardown.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: delegates directly to the system allocator; the counter has
// no effect on allocation behaviour.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

use weakgpu_axiom::enumerate::{for_each_execution, EnumConfig};
use weakgpu_axiom::model::sc_model;
use weakgpu_axiom::plan::EvalContext;
use weakgpu_litmus::{corpus, ThreadScope};

/// The shared measurement harness: `enumerate` must invoke the passed
/// hook once per visited candidate. Returns the visit count and the
/// allocations observed between the first and the last visit — zero is
/// the steady-state claim both tests assert.
fn allocs_across_visits(enumerate: impl FnOnce(&mut dyn FnMut())) -> (usize, u64) {
    let mut visits = 0usize;
    let mut at_first = 0u64;
    let mut at_last = 0u64;
    enumerate(&mut || {
        let now = ALLOCS.with(Cell::get);
        if visits == 0 {
            at_first = now;
        }
        at_last = now;
        visits += 1;
    });
    (visits, at_last - at_first)
}

#[test]
fn steady_state_visitor_loop_is_allocation_free() {
    let cfg = EnumConfig::default();
    for test in [
        corpus::corr(),
        corpus::mp(ThreadScope::InterCta, None),
        corpus::sb(ThreadScope::IntraCta, None),
        corpus::dlb_lb(false),
    ] {
        // Warm the thread-local enumeration scratch and the symbolic
        // layer's buffers for this test's shapes.
        for _ in 0..2 {
            for_each_execution(&test, &cfg, |_| ControlFlow::<()>::Continue(())).unwrap();
        }

        let (candidates, allocs) = allocs_across_visits(|visit| {
            for_each_execution(&test, &cfg, |_| {
                visit();
                ControlFlow::<()>::Continue(())
            })
            .unwrap();
        });

        assert!(
            candidates > 1,
            "{} must have several candidates",
            test.name()
        );
        assert_eq!(
            allocs,
            0,
            "{}: {allocs} heap allocations across {candidates} candidates \
             in the steady-state visitor loop",
            test.name()
        );
    }
}

#[test]
fn steady_state_judged_walk_is_allocation_free() {
    // The verdict loop every sweep and serve miss runs: the compiled SC
    // plan judges each candidate view in the reused evaluation context.
    let cfg = EnumConfig::default();
    let model = sc_model();
    let mut ctx = EvalContext::new();
    for test in [
        corpus::corr(),
        corpus::mp(ThreadScope::InterCta, None),
        corpus::sb(ThreadScope::IntraCta, None),
        corpus::dlb_lb(false),
    ] {
        let mut judge = |visit: &mut dyn FnMut()| {
            let mut allowed = 0usize;
            for_each_execution(&test, &cfg, |view| {
                allowed += usize::from(model.allows_view(&mut ctx, view));
                visit();
                ControlFlow::<()>::Continue(())
            })
            .unwrap();
            allowed
        };
        // Warm the enumeration scratch and the context's registers.
        for _ in 0..2 {
            judge(&mut || {});
        }

        let (candidates, allocs) = allocs_across_visits(|visit| {
            judge(visit);
        });

        assert!(
            candidates > 1,
            "{} must have several candidates",
            test.name()
        );
        assert_eq!(
            allocs,
            0,
            "{}: {allocs} heap allocations across {candidates} judged \
             candidates in the steady-state walk",
            test.name()
        );
    }
}
