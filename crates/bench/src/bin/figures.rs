//! Regenerates every figure of the paper (Figures 1–3).
//!
//! ```text
//! cargo run -p selfsim-bench --bin figures
//! ```
//!
//! Each figure checks the claim it illustrates and prints its conclusion
//! only when the claim holds; otherwise the process names the figure and
//! exits 1.

use std::process::ExitCode;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use selfsim_algorithms::{circumscribing, convex_hull, sorting};
use selfsim_core::super_idempotence::check_super_idempotent_single_element;
use selfsim_core::{ObjectiveFunction, RelationD};
use selfsim_geometry::Point;
use selfsim_multiset::Multiset;
use selfsim_trace::Table;

fn figure1() -> Result<(), String> {
    println!("────────────────────────────────────────────────────────────────");
    println!("Figure 1 — \"number of out-of-order pairs\" and the local-to-global property");
    println!();
    let (b_before, b_after, u_before, u_after) = sorting::figure1_counterexample();
    let reported = sorting::FIGURE1_REPORTED;

    let mut table = Table::new(
        "Figure 1: S=[7,5,6,4,3,2,1], B={1,3,4,5,6,7}, C={2}, S'=[6,5,7,3,4,1,2]",
        &["quantity", "paper (printed)", "computed (textual def.)"],
    );
    table.add_row(vec![
        "h(S_B)".into(),
        format!("{}", reported.0),
        format!("{b_before}"),
    ]);
    table.add_row(vec![
        "h(S'_B)".into(),
        format!("{}", reported.1),
        format!("{b_after}"),
    ]);
    table.add_row(vec![
        "h(S_B∪C)".into(),
        format!("{}", reported.2),
        format!("{u_before}"),
    ]);
    table.add_row(vec![
        "h(S'_B∪C)".into(),
        format!("{}", reported.3),
        format!("{u_after}"),
    ]);
    println!("{table}");
    println!(
        "reproduction note: under the textual definition |{{(a,b) | i_a<i_b ∧ x_b ≺ x_a}}| the\n\
         computed values differ from the printed ones and the union also improves, so this\n\
         particular instance does not witness a violation.  The qualitative claim (a\n\
         non-summation objective can violate obligation (10)) is witnessed below."
    );
    println!();

    // Mechanical witness with the max-displacement objective.
    let d = RelationD::new(sorting::function(), sorting::max_displacement_objective());
    let b_before_ms: Multiset<sorting::State> = [(1, 2), (2, 1)].into();
    let b_after_ms: Multiset<sorting::State> = [(1, 1), (2, 2)].into();
    let c_ms: Multiset<sorting::State> = [(3, 9), (9, 3)].into();
    let union_before = b_before_ms.union(&c_ms);
    let union_after = b_after_ms.union(&c_ms);
    let witness = (
        d.relates(&b_before_ms, &b_after_ms),
        d.relates(&c_ms, &c_ms),
        d.relates(&union_before, &union_after),
    );
    if witness != (true, true, false) {
        return Err(format!(
            "D relates (group B, group C, union) as {witness:?}, not (true, true, false)"
        ));
    }
    let summation_accepts = RelationD::new(
        sorting::function(),
        sorting::displacement_objective(&[(1, 2), (2, 1), (3, 9), (9, 3)]),
    )
    .relates(&union_before, &union_after);
    if !summation_accepts {
        return Err("the summation objective rejects the union step".into());
    }
    let h = sorting::max_displacement_objective();
    println!(
        "witness (max-displacement objective): group B improves ({} -> {}), C idles,",
        h.eval(&b_before_ms),
        h.eval(&b_after_ms),
    );
    println!(
        "but the union does not strictly improve ({} -> {}): D relates the group steps yet not the union.",
        h.eval(&union_before),
        h.eval(&union_after),
    );
    println!("the paper's squared-displacement objective (summation form) accepts the union step.");
    println!();
    Ok(())
}

fn figure2() -> Result<(), String> {
    println!("────────────────────────────────────────────────────────────────");
    println!("Figure 2 — the circumscribing-circle function is NOT super-idempotent");
    println!();
    let (direct, via_f) = circumscribing::figure2_counterexample();
    let mut table = Table::new(
        "Figure 2: B = three triangle vertices, C = one outside point",
        &["quantity", "radius"],
    );
    table.add_row(vec![
        "f(S_B ∪ S_C)   (direct)".into(),
        format!("{direct:.6}"),
    ]);
    table.add_row(vec![
        "f(f(S_B) ∪ S_C) (via f)".into(),
        format!("{via_f:.6}"),
    ]);
    let difference = (via_f - direct).abs();
    table.add_row(vec!["difference".into(), format!("{difference:.6}")]);
    println!("{table}");
    if difference <= 1e-9 * direct.abs().max(1.0) {
        return Err(format!(
            "the two radii agree up to float noise ({direct} vs {via_f})"
        ));
    }
    println!("the two circles differ, so f(X ⊎ Y) ≠ f(f(X) ⊎ Y): not super-idempotent.\n");
    Ok(())
}

fn figure3() -> Result<(), String> {
    println!("────────────────────────────────────────────────────────────────");
    println!("Figure 3 — the convex-hull function IS super-idempotent");
    println!();
    // Check the single-element criterion (6) on many random point sets.
    let mut rng = StdRng::seed_from_u64(33);
    let mut trials = 0usize;
    let mut failures = 0usize;
    let f = convex_hull::function();
    for _ in 0..200 {
        let n = rng.gen_range(1..=10);
        let sites: Vec<Point> = (0..n)
            .map(|_| {
                Point::new(
                    rng.gen_range(-10..=10) as f64,
                    rng.gen_range(-10..=10) as f64,
                )
            })
            .collect();
        let sample: Multiset<convex_hull::State> = sites
            .iter()
            .map(|p| convex_hull::initial_state(*p))
            .collect();
        let extra = convex_hull::initial_state(Point::new(
            rng.gen_range(-10..=10) as f64,
            rng.gen_range(-10..=10) as f64,
        ));
        trials += 1;
        if check_super_idempotent_single_element(&f, &[sample], &[extra]).is_err() {
            failures += 1;
        }
    }
    let mut table = Table::new(
        "Figure 3: super-idempotence criterion (6) on random point sets",
        &["random trials", "violations"],
    );
    table.add_row(vec![trials.to_string(), failures.to_string()]);
    println!("{table}");
    if failures != 0 {
        return Err(format!(
            "criterion (6) fails on {failures} of {trials} trials"
        ));
    }
    println!("hull(hull(X) ∪ {{v}}) = hull(X ∪ {{v}}) on every trial: super-idempotent.\n");

    // And show the concrete picture of Figure 3: a hull plus one new point.
    let sites = [
        Point::new(0.0, 0.0),
        Point::new(6.0, 0.0),
        Point::new(6.0, 4.0),
        Point::new(0.0, 4.0),
        Point::new(3.0, 2.0),
    ];
    let extra = Point::new(8.0, 2.0);
    let hull_all = selfsim_geometry::convex_hull(&[&sites[..], &[extra]].concat());
    let hull_of_hull = selfsim_geometry::convex_hull(
        &[selfsim_geometry::convex_hull(&sites), vec![extra]].concat(),
    );
    let mut a = hull_all.clone();
    let mut b = hull_of_hull.clone();
    a.sort();
    b.sort();
    if a != b {
        return Err("hull(sites ∪ {p}) differs from hull(hull(sites) ∪ {p})".into());
    }
    println!(
        "concrete instance: hull(sites ∪ {{p}}) has {} vertices and equals hull(hull(sites) ∪ {{p}}).",
        hull_all.len(),
    );
    println!();
    Ok(())
}

fn main() -> ExitCode {
    println!("Reproduction of the figures of Chandy & Charpentier, ICDCS 2007.");
    println!();
    let results = [
        ("Figure 1", figure1()),
        ("Figure 2", figure2()),
        ("Figure 3", figure3()),
    ];
    let mut failed = false;
    for (name, result) in results {
        if let Err(why) = result {
            eprintln!("{name} does not hold: {why}");
            failed = true;
        }
    }
    println!("────────────────────────────────────────────────────────────────");
    if failed {
        return ExitCode::FAILURE;
    }
    println!("done.");
    ExitCode::SUCCESS
}
