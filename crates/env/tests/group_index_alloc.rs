//! Zero-allocation gate for `GroupIndex` updates.
//!
//! A counting global allocator (per-thread counter, so the harness's other
//! threads cannot interfere) wraps the system allocator.  Every
//! `apply_changes`, `reset_from_state` and `reset_all_enabled` call below
//! must leave the counter where it found it, on either path of
//! `apply_changes`: a delta that flips no agent and downs at most one edge
//! takes the per-flip path (the probe for a lone edge down, a merge per
//! edge up), and every other delta takes the full union-find pass.  The
//! index sizes all of its buffers in `GroupIndex::new`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rand::rngs::StdRng;
use rand::SeedableRng;
use selfsim_env::{
    AgentId, Edge, EnvChanges, EnvDelta, Environment, GroupIndex, RandomChurnEnv, Topology,
};

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

/// Heap allocations `f` makes on this thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// Replays `deltas` into `index`, asserting that no delta allocates
/// inside the index.
fn replay(index: &mut GroupIndex, deltas: &[EnvDelta]) {
    for (i, delta) in deltas.iter().enumerate() {
        let allocations = allocations_in(|| match delta {
            EnvDelta::Unchanged => {}
            EnvDelta::AllEnabled => index.reset_all_enabled(),
            EnvDelta::Full(state) => index.reset_from_state(state),
            EnvDelta::Changes(changes) => index.apply_changes(changes),
        });
        assert_eq!(allocations, 0, "delta {i}: {delta:?}");
    }
}

#[test]
fn churn_ring_8_stream_never_allocates() {
    // The campaign's `churn` cell: an 8-agent ring under
    // `RandomChurnEnv(0.5, 0.9)`.
    let topo = Topology::ring(8);
    let mut env = RandomChurnEnv::new(topo.clone(), 0.5, 0.9);
    let mut rng = StdRng::seed_from_u64(7);
    let deltas: Vec<EnvDelta> = (0..10_000).map(|_| env.step_delta(&mut rng)).collect();
    let changes = deltas
        .iter()
        .filter(|d| matches!(d, EnvDelta::Changes(c) if !c.is_empty()))
        .count();
    assert!(
        changes > 9_000,
        "the stream must be mostly incremental: {changes}"
    );
    let mut index = GroupIndex::new(&topo);
    replay(&mut index, &deltas);
}

#[test]
fn ring_10k_split_heal_never_allocates() {
    let n = 10_000;
    let topo = Topology::ring(n);
    let edge = |i: usize| Edge::new(AgentId(i), AgentId((i + 1) % n));
    let cross = vec![edge(n - 1), edge(n / 2 - 1)];
    let batch = |down: bool, edges: Vec<Edge>| {
        EnvDelta::Changes(if down {
            EnvChanges {
                edges_down: edges,
                ..EnvChanges::default()
            }
        } else {
            EnvChanges {
                edges_up: edges,
                ..EnvChanges::default()
            }
        })
    };
    let mut deltas = vec![EnvDelta::AllEnabled];
    for k in 0..200 {
        // A two-edge split of the two halves (the pass) and its heal (two
        // merges).
        deltas.push(batch(true, cross.clone()));
        deltas.push(batch(false, cross.clone()));
        // A lone cut (the probe); a second cut that splits off one agent
        // plus the first cut's repair, which merges it back; ups only.
        let (cut, next) = (edge(k % n), edge((k + 1) % n));
        deltas.push(batch(true, vec![cut]));
        deltas.push(EnvDelta::Changes(EnvChanges {
            edges_down: vec![next],
            edges_up: vec![cut],
            ..EnvChanges::default()
        }));
        deltas.push(batch(false, vec![next]));
        // An agent leaving and rejoining (the pass, both times).
        let a = AgentId((k * 7) % n);
        deltas.push(EnvDelta::Changes(EnvChanges {
            agents_down: vec![a],
            ..EnvChanges::default()
        }));
        deltas.push(EnvDelta::Changes(EnvChanges {
            agents_up: vec![a],
            ..EnvChanges::default()
        }));
    }
    // Every third edge down (the pass), then up again (merges).
    let thirds: Vec<Edge> = (0..n).step_by(3).map(edge).collect();
    deltas.push(batch(true, thirds.clone()));
    deltas.push(batch(false, thirds));
    let mut index = GroupIndex::new(&topo);
    replay(&mut index, &deltas);
    assert_eq!(index.group_count(), 1);
}
