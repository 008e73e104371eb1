//! Integration tests of the delivery-semantics subsystem: the regression
//! pinning the cross-fragment stall (ROADMAP "Async-mode fairness", the
//! E13 caveat), the dominance property of the window-aware rule, and the
//! determinism contract for every rule.

use proptest::prelude::*;
use selfsim_algorithms::minimum;
use selfsim_env::{PeriodicPartitionEnv, RandomChurnEnv, Topology};
use selfsim_runtime::{AsyncConfig, AsyncKnobs, AsyncSimulator, DeliveryRule, SimulationReport};

/// Minimum over a complete graph of 8 split into two blocks that merge for
/// a single tick every 8 ticks — the environment whose connectivity
/// windows are shorter than the message latency.
fn partitioned_run(rule: DeliveryRule, seed: u64, max_ticks: usize) -> SimulationReport<i64> {
    let topo = Topology::complete(8);
    let sys = minimum::system(&[80, 70, 60, 50, 40, 30, 20, 1], topo.clone());
    let mut env = PeriodicPartitionEnv::new(topo, 2, 8);
    AsyncSimulator::new(AsyncConfig {
        max_ticks,
        knobs: AsyncKnobs::default().with_delivery(rule),
        seed,
    })
    .run(&sys, &mut env)
}

/// The regression the DeliveryRule subsystem exists to fix: with
/// single-tick merges and latency ≥ 1, every cross-block rendezvous is due
/// in a partitioned phase, so the historical valid-at-delivery rule
/// discards all of them and the global minimum never leaves its block —
/// while the *same seed* under valid-at-send (or a window-aware grace)
/// converges.  The paper's §4.5 claim ("easily implemented by asynchronous
/// message passing") only survives the translation under the fixed rules.
#[test]
fn valid_at_delivery_stalls_where_valid_at_send_converges() {
    for seed in [0, 1, 2] {
        let stalled = partitioned_run(DeliveryRule::ValidAtDelivery, seed, 5_000);
        assert!(
            !stalled.converged(),
            "seed {seed}: cross-fragment progress must stall under valid-at-delivery"
        );
        assert_eq!(stalled.metrics.rounds_executed, 5_000, "budget exhausted");

        let sent = partitioned_run(DeliveryRule::ValidAtSend, seed, 5_000);
        assert!(
            sent.converged(),
            "seed {seed}: valid-at-send restores convergence"
        );
        let windowed = partitioned_run(DeliveryRule::any_overlap(), seed, 5_000);
        assert!(
            windowed.converged(),
            "seed {seed}: a grace window spanning the merge period restores convergence"
        );
    }
}

/// A grace window shorter than the partition period cannot bridge the
/// merges, so `AnyOverlap` degrades gracefully toward the historical rule
/// instead of silently fixing the stall.
#[test]
fn too_small_a_grace_window_still_stalls() {
    let report = partitioned_run(DeliveryRule::AnyOverlap { grace: 2 }, 0, 2_000);
    assert!(
        !report.converged(),
        "grace 2 < period 8 cannot bridge merges"
    );
}

/// Each rule is deterministic for a given seed — the property the
/// campaign's byte-identity contract (threads, shards) is built on.
#[test]
fn every_rule_is_seed_deterministic() {
    for rule in DeliveryRule::all() {
        let run = || {
            let topo = Topology::ring(6);
            let sys = minimum::system(&[9, 2, 7, 5, 8, 4], topo.clone());
            let mut env = RandomChurnEnv::new(Topology::ring(6), 0.4, 0.9);
            AsyncSimulator::new(AsyncConfig {
                max_ticks: 20_000,
                knobs: AsyncKnobs::new(0.5, 3, 0.2, rule).expect("valid knobs"),
                seed: 11,
            })
            .run(&sys, &mut env)
        };
        let a = run();
        let b = run();
        assert_eq!(a.metrics, b.metrics, "{}", rule.label());
        assert_eq!(a.final_state, b.final_state, "{}", rule.label());
    }
}

proptest! {
    /// For identical seeds, the window-aware rule delivers a superset of
    /// what valid-at-delivery delivers (the adopt-min step never touches
    /// the RNG, so the two runs see the same environment and the same
    /// sends) — and extra min-adoptions can only speed descent up.  So
    /// whenever valid-at-delivery converges, any-overlap converges no
    /// later.
    #[test]
    fn any_overlap_converges_no_slower_than_valid_at_delivery(seed in 0u64..200) {
        let run = |rule: DeliveryRule| {
            let topo = Topology::ring(8);
            let sys = minimum::system(&[43, 17, 91, 5, 66, 28, 74, 52], topo.clone());
            let mut env = RandomChurnEnv::new(Topology::ring(8), 0.3, 0.9);
            AsyncSimulator::new(AsyncConfig {
                max_ticks: 50_000,
                knobs: AsyncKnobs::default().with_delivery(rule),
                seed,
            })
            .run(&sys, &mut env)
        };
        let strict = run(DeliveryRule::ValidAtDelivery);
        let windowed = run(DeliveryRule::any_overlap());
        if let Some(strict_ticks) = strict.rounds_to_convergence() {
            let windowed_ticks = windowed.rounds_to_convergence();
            prop_assert!(
                windowed_ticks.is_some_and(|t| t <= strict_ticks),
                "any-overlap took {windowed_ticks:?} ticks vs {strict_ticks} under valid-at-delivery"
            );
        }
    }
}
