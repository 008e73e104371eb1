//! Cross-crate integration tests: every algorithm of §4 converges to the
//! right answer under every environment family, and satisfies the paper's
//! temporal specification along the way.

use self_similar::algorithms::{
    boolean, convex_hull, k_smallest, maximum, minimum, second_smallest, set_union, sorting, sum,
};
use self_similar::core::SelfSimilarSystem;
use self_similar::env::{
    AdversarialEnv, CrashRestartEnv, Environment, MarkovLinkEnv, PeriodicPartitionEnv,
    RandomChurnEnv, StaticEnv, Topology,
};
use self_similar::geometry::Point;
use self_similar::runtime::ExecutionMode;

fn run<S: Ord + Clone + std::fmt::Debug>(
    system: &SelfSimilarSystem<S>,
    env: &mut dyn Environment,
    seed: u64,
) -> self_similar::runtime::SimulationReport<S> {
    ExecutionMode::sync().run(system, env, seed, 500_000)
}

fn environments(topology: &Topology) -> Vec<Box<dyn Environment>> {
    vec![
        Box::new(StaticEnv::new(topology.clone())),
        Box::new(RandomChurnEnv::new(topology.clone(), 0.35, 0.9)),
        Box::new(MarkovLinkEnv::new(topology.clone(), 0.3, 0.3)),
        Box::new(PeriodicPartitionEnv::new(topology.clone(), 2, 6)),
        Box::new(CrashRestartEnv::new(topology.clone(), 0.1, 0.4)),
        Box::new(AdversarialEnv::new(topology.clone(), 2)),
    ]
}

#[test]
fn minimum_converges_under_every_environment_family() {
    let values = [9i64, 4, 7, 1, 5, 14, 3, 8];
    let topology = Topology::ring(values.len());
    let system = minimum::system(&values, topology.clone());
    for (i, mut env) in environments(&topology).into_iter().enumerate() {
        let report = run(&system, env.as_mut(), 100 + i as u64);
        assert!(report.converged(), "environment #{i} did not converge");
        assert_eq!(
            report.final_state,
            vec![1; values.len()],
            "environment #{i}"
        );
        assert!(report.metrics.objective_is_monotone(1e-9));
    }
}

#[test]
fn maximum_converges_under_churn_and_partitions() {
    let values = [9i64, 4, 7, 1, 5, 14, 3, 8];
    let topology = Topology::grid(2, 4);
    let system = maximum::system(&values, topology.clone());
    for (i, mut env) in environments(&topology).into_iter().enumerate() {
        let report = run(&system, env.as_mut(), 200 + i as u64);
        assert!(report.converged(), "environment #{i}");
        assert_eq!(report.final_state, vec![14; values.len()]);
    }
}

#[test]
fn sum_concentrates_the_total_under_complete_graph_fairness() {
    let values = [3i64, 5, 3, 7, 11, 2];
    let topology = Topology::complete(values.len());
    let system = sum::system(&values, topology.clone());
    let total: i64 = values.iter().sum();
    for (i, mut env) in environments(&topology).into_iter().enumerate() {
        let report = run(&system, env.as_mut(), 300 + i as u64);
        assert!(report.converged(), "environment #{i}");
        assert_eq!(report.final_state.iter().sum::<i64>(), total);
        assert_eq!(report.final_state.iter().filter(|v| **v != 0).count(), 1);
    }
}

#[test]
fn second_smallest_pairs_converge_and_answer_matches_the_naive_definition() {
    let values = [9i64, 4, 7, 4, 5, 14];
    let topology = Topology::line(values.len());
    let system = second_smallest::system(&values, topology.clone());
    let mut env = RandomChurnEnv::new(topology, 0.4, 0.9);
    let report = run(&system, &mut env, 17);
    assert!(report.converged());
    // The paper's definition: smallest value different from the minimum.
    assert_eq!(
        second_smallest::extract_answer(&report.final_state),
        Some(5)
    );
    assert!(report.final_state.iter().all(|p| *p == (4, 5)));
}

#[test]
fn sorting_sorts_on_a_churning_line() {
    let values: Vec<i64> = vec![12, 3, 9, 1, 14, 7, 5, 11, 2, 8];
    let system = sorting::system(&values);
    let topology = Topology::line(values.len());
    for (i, mut env) in environments(&topology).into_iter().enumerate() {
        let report = run(&system, env.as_mut(), 400 + i as u64);
        assert!(report.converged(), "environment #{i}");
        let mut by_index = report.final_state.clone();
        by_index.sort_by_key(|(idx, _)| *idx);
        let vals: Vec<i64> = by_index.iter().map(|(_, x)| *x).collect();
        let mut expected = values.clone();
        expected.sort_unstable();
        assert_eq!(vals, expected);
    }
}

#[test]
fn convex_hull_reaches_the_global_hull_and_circle() {
    let sites: Vec<Point> = vec![
        Point::new(0.0, 0.0),
        Point::new(8.0, 0.0),
        Point::new(8.0, 6.0),
        Point::new(0.0, 6.0),
        Point::new(4.0, 3.0),
        Point::new(2.0, 5.0),
    ];
    let topology = Topology::ring(sites.len());
    let system = convex_hull::system(&sites, topology.clone());
    let mut env = PeriodicPartitionEnv::new(topology, 3, 5);
    let report = run(&system, &mut env, 5);
    assert!(report.converged());
    let circle = convex_hull::circumscribing_circle(&report.final_state[0]);
    let direct = self_similar::geometry::smallest_enclosing_circle(&sites);
    assert!((circle.radius - direct.radius).abs() < 1e-9);
}

#[test]
fn extension_algorithms_converge() {
    let topology = Topology::ring(6);

    let or = boolean::or_system(&[false, false, true, false, false, false], topology.clone());
    let mut env = RandomChurnEnv::new(topology.clone(), 0.4, 0.9);
    let report = run(&or, &mut env, 61);
    assert!(report.converged());
    assert_eq!(report.final_state, vec![true; 6]);

    let union = set_union::system(
        &[
            [1i64].into_iter().collect(),
            [2].into_iter().collect(),
            [3].into_iter().collect(),
            [1, 4].into_iter().collect(),
            [5].into_iter().collect(),
            [6].into_iter().collect(),
        ],
        topology.clone(),
    );
    let mut env = CrashRestartEnv::new(topology.clone(), 0.1, 0.5);
    let report = run(&union, &mut env, 62);
    assert!(report.converged());
    let full: std::collections::BTreeSet<i64> = (1..=6).collect();
    assert!(report.final_state.iter().all(|s| *s == full));

    let ksys = k_smallest::system(&[9, 4, 7, 1, 5, 14], 3, topology.clone());
    let mut env = AdversarialEnv::new(topology, 1);
    let report = run(&ksys, &mut env, 63);
    assert!(report.converged());
    assert!(report.final_state.iter().all(|s| *s == vec![1, 4, 5]));
}
