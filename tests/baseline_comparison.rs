//! Integration tests comparing the self-similar minimum algorithm against
//! the snapshot and flooding baselines under identical environments — the
//! quantitative form of the paper's §5 argument that classical approaches
//! "work well in systems that are relatively static but are inefficient in
//! dynamic systems".

use self_similar::algorithms::minimum;
use self_similar::baselines::{FloodingAggregator, SnapshotAggregator};
use self_similar::env::{AdversarialEnv, PeriodicPartitionEnv, StaticEnv, Topology};
use self_similar::runtime::ExecutionMode;
use self_similar::trace::EventLog;

const VALUES: [i64; 6] = [6, 5, 4, 3, 2, 1];

fn self_similar_rounds(
    env_builder: impl Fn() -> Box<dyn self_similar::env::Environment>,
) -> Option<usize> {
    let topology = Topology::complete(VALUES.len());
    let system = minimum::system(&VALUES, topology);
    let mut env = env_builder();
    let report = ExecutionMode::sync().run(&system, env.as_mut(), 1, 5_000);
    report.rounds_to_convergence()
}

#[test]
fn all_three_strategies_agree_on_a_static_network() {
    let topology = Topology::complete(VALUES.len());
    let rounds = self_similar_rounds(|| Box::new(StaticEnv::new(Topology::complete(VALUES.len()))));
    assert_eq!(rounds, Some(1));

    let (snap_metrics, snap) = SnapshotAggregator::new(VALUES.to_vec(), 100).run(
        &mut StaticEnv::new(topology.clone()),
        1,
        ExecutionMode::sync(),
        i64::min,
        &mut EventLog::disabled(),
    );
    assert_eq!(snap, Some(1));
    assert_eq!(snap_metrics.rounds_to_convergence, Some(1));

    let (flood_metrics, flood) = FloodingAggregator::new(VALUES.to_vec(), 100).run(
        &mut StaticEnv::new(topology),
        1,
        ExecutionMode::sync(),
        i64::min,
        &mut EventLog::disabled(),
    );
    assert_eq!(flood, Some(1));
    assert!(flood_metrics.converged());
}

#[test]
fn snapshot_fails_under_the_adversary_while_self_similar_succeeds() {
    // The adversary enables one edge at a time: a global snapshot is never
    // possible, yet the self-similar algorithm converges.
    let make_env = || -> Box<dyn self_similar::env::Environment> {
        Box::new(AdversarialEnv::new(Topology::complete(VALUES.len()), 0))
    };
    let ss = self_similar_rounds(make_env);
    assert!(ss.is_some(), "self-similar minimum should converge");

    let mut env = AdversarialEnv::new(Topology::complete(VALUES.len()), 0);
    let (_, snap) = SnapshotAggregator::new(VALUES.to_vec(), 5_000).run(
        &mut env,
        1,
        ExecutionMode::sync(),
        i64::min,
        &mut EventLog::disabled(),
    );
    assert_eq!(
        snap, None,
        "a global snapshot is impossible under the adversary"
    );
}

#[test]
fn self_similar_beats_snapshot_under_periodic_partitions() {
    // Under periodic partitions the snapshot can do nothing at all until the
    // full-merge round; the self-similar algorithm is never slower and makes
    // measurable progress *inside* each partition while waiting.
    let blocks = 2;
    let period = 12;
    let topology = Topology::complete(VALUES.len());
    let system = minimum::system(&VALUES, topology.clone());
    let mut env = PeriodicPartitionEnv::new(topology.clone(), blocks, period);
    let ss_report = ExecutionMode::sync().run(&system, &mut env, 1, 5_000);
    let ss = ss_report
        .rounds_to_convergence()
        .expect("self-similar converges");

    let mut env = PeriodicPartitionEnv::new(topology, blocks, period);
    let (snap_metrics, snap) = SnapshotAggregator::new(VALUES.to_vec(), 1_000).run(
        &mut env,
        1,
        ExecutionMode::sync(),
        i64::min,
        &mut EventLog::disabled(),
    );
    assert_eq!(snap, Some(1));
    let snapshot_rounds = snap_metrics
        .rounds_to_convergence
        .expect("the snapshot run converges");
    assert!(
        ss <= snapshot_rounds,
        "self-similar ({ss}) should never be slower than the snapshot ({snapshot_rounds})"
    );
    // Partial progress inside the partitions, before any merge round: the
    // global objective has already dropped from its initial value.  The
    // snapshot baseline, by construction, has achieved nothing at that point.
    let before_merge = ss_report.metrics.objective_trajectory[period - 2];
    let initial = ss_report.metrics.objective_trajectory[0];
    assert!(
        before_merge < initial,
        "expected in-partition progress: {before_merge} vs {initial}"
    );
}

#[test]
fn flooding_converges_under_partitions_but_costs_more_messages() {
    let topology = Topology::complete(VALUES.len());
    let system = minimum::system(&VALUES, topology.clone());
    let mut env = PeriodicPartitionEnv::new(topology.clone(), 2, 6);
    let ss_report = ExecutionMode::sync().run(&system, &mut env, 2, 5_000);
    assert!(ss_report.converged());

    let mut env = PeriodicPartitionEnv::new(topology, 2, 6);
    let (flood_metrics, flood) = FloodingAggregator::new(VALUES.to_vec(), 5_000).run(
        &mut env,
        2,
        ExecutionMode::sync(),
        i64::min,
        &mut EventLog::disabled(),
    );
    assert_eq!(flood, Some(1));
    // Flooding sends whole knowledge sets along every live edge each round.
    assert!(flood_metrics.messages > ss_report.metrics.messages / 2);
}
