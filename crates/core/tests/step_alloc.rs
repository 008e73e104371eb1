//! Zero-allocation gate for group steps.
//!
//! A counting global allocator (per-thread counter, so the harness's other
//! threads cannot interfere) wraps the system allocator.  After one
//! warm-up step, every `SelfSimilarSystem::apply_group_step_with` call
//! below, with the same `StepScratch`, must leave the counter where it
//! found it: on a contiguous run (stepped in place) and on a gathered
//! group (stepped in the scratch's gather buffer), with the step's value
//! window open (the group's values span fewer values than it has members)
//! and closed (they span more, so every write searches the delta).

#![allow(
    unsafe_code,
    reason = "a counting `GlobalAlloc` must implement the unsafe trait; each method forwards to `System`"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use selfsim_core::{
    ConsensusFunction, GroupStates, GroupStep, SelfSimilarSystem, StepScratch, SummationObjective,
};
use selfsim_env::{AgentId, FairnessSpec, Topology};
use selfsim_multiset::Multiset;

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the slot may already be gone while the thread exits.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so this
// allocator upholds `GlobalAlloc`'s contract exactly as `System` does.  The
// counter is a const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f`, returning its result and the heap allocations it made on
/// this thread.
fn allocations_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// The partial-descent rule of `selfsim-algorithms`, without its
/// strict-descent fallback: every member above the group minimum draws a
/// value between the minimum and its own, after asking for a value window
/// over the group's range.  `opened` records whether the last step's
/// window opened.
struct PartialDescent {
    opened: Rc<Cell<bool>>,
}

impl GroupStep<i64> for PartialDescent {
    fn step(&self, states: &[i64], rng: &mut dyn rand::RngCore) -> Vec<i64> {
        let mut out = states.to_vec();
        let mut delta = Default::default();
        self.step_in_place(&mut GroupStates::new(&mut out, &mut delta), rng);
        out
    }

    fn step_in_place(&self, group: &mut GroupStates<'_, i64>, rng: &mut dyn rand::RngCore) {
        let min = group.as_slice().iter().copied().min().unwrap_or(0);
        let max = group.as_slice().iter().copied().max().unwrap_or(0);
        self.opened.set(group.open_window(min, max));
        for k in 0..group.len() {
            if let Some(&x) = group.as_slice().get(k) {
                if x > min {
                    group.set_windowed(k, rng.gen_range(min..=x));
                }
            }
        }
    }
}

const N: usize = 20_000;
const MEMBERS: usize = 10_000;

/// A partial-descent system over `values`, and its step's `opened` flag.
fn system(values: Vec<i64>) -> (SelfSimilarSystem<i64>, Rc<Cell<bool>>) {
    let opened = Rc::new(Cell::new(false));
    let step = PartialDescent {
        opened: Rc::clone(&opened),
    };
    let system = SelfSimilarSystem::new(
        "minimum",
        ConsensusFunction::new("min", |s: &Multiset<i64>| {
            s.min_value().copied().unwrap_or(0)
        }),
        SummationObjective::new("sum", |v: &i64| *v as f64),
        step,
        values,
        FairnessSpec::for_graph(&Topology::ring(N)),
    );
    (system, opened)
}

/// Values 1..=199, as the ring benchmark draws them: any 10⁴ members span
/// far fewer values than they number, so the window opens.
fn narrow() -> Vec<i64> {
    (0..N as i64).map(|i| (i * 37 + 11) % 199 + 1).collect()
}

/// Distinct values a thousand apart: the window would need more slots
/// than the group has members, so it stays closed.
fn wide() -> Vec<i64> {
    (0..N as i64)
        .map(|i| (i * 7_919) % N as i64 * 1_000)
        .collect()
}

/// Steps `group` once to warm `scratch` up, then several more times,
/// asserting that no step after the warm-up allocates and that the window
/// opened (or not) as `window` says.
fn check_steps_allocate_nothing(values: Vec<i64>, group: &[AgentId], window: bool) {
    let (system, opened) = system(values);
    let mut state = system.initial_state().clone();
    let mut scratch = StepScratch::new();
    let mut rng = StdRng::seed_from_u64(7);
    system.apply_group_step_with(&mut state, group, &mut rng, &mut scratch, None);
    assert_eq!(opened.get(), window, "warm-up step");
    for round in 1..=8 {
        let (outcome, allocations) = allocations_in(|| {
            system.apply_group_step_with(&mut state, group, &mut rng, &mut scratch, None)
        });
        assert_eq!(allocations, 0, "step {round} allocated");
        assert!(outcome.multiset_changed, "step {round} changed nothing");
        assert_eq!(opened.get(), window, "step {round}");
    }
}

fn contiguous() -> Vec<AgentId> {
    (0..MEMBERS).map(AgentId).collect()
}

fn gathered() -> Vec<AgentId> {
    (0..MEMBERS).map(|i| AgentId(2 * i)).collect()
}

#[test]
fn contiguous_group_with_window_allocates_nothing() {
    check_steps_allocate_nothing(narrow(), &contiguous(), true);
}

#[test]
fn contiguous_group_without_window_allocates_nothing() {
    check_steps_allocate_nothing(wide(), &contiguous(), false);
}

#[test]
fn gathered_group_with_window_allocates_nothing() {
    check_steps_allocate_nothing(narrow(), &gathered(), true);
}

#[test]
fn gathered_group_without_window_allocates_nothing() {
    check_steps_allocate_nothing(wide(), &gathered(), false);
}
