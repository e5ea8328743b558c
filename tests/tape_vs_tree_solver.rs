//! Differential test: the compiled-tape solver is observationally identical
//! to the tree-walking reference on the *actual* queries the pipeline issues
//! — the same query classes exercised by `solver_vs_simulation.rs` and
//! `cross_crate_consistency.rs`.
//!
//! "Identical" is strict: the same verdict, the same witness box bit for
//! bit, and the same search statistics (boxes explored / pruned /
//! bisections), i.e. both evaluators walk the same box tree.  The
//! derivative-guided Newton/monotonicity cuts are pinned off for the
//! bit-identity half (they change the search tree by design) and covered
//! separately by verdict-equivalence assertions.

use nncps_barrier::{ClosedLoopSystem, QuadraticTemplate, QueryBuilder, SafetySpec};
use nncps_deltasat::{Constraint, DeltaSolver, Formula, SatResult};
use nncps_dubins::{reference_controller, ErrorDynamics};
use nncps_expr::Expr;
use nncps_interval::IntervalBox;

fn paper_spec() -> SafetySpec {
    let eps = 0.01;
    let pi = std::f64::consts::PI;
    SafetySpec::rectangular(
        IntervalBox::from_bounds(&[(-1.0, 1.0), (-pi / 16.0, pi / 16.0)]),
        IntervalBox::from_bounds(&[(-5.0, 5.0), (-(pi / 2.0 - eps), pi / 2.0 - eps)]),
    )
}

fn assert_identical(what: &str, formula: &Formula, domain: &IntervalBox, solver: DeltaSolver) {
    let fast = solver.clone().with_newton_cuts(false);
    let reference = solver.clone().with_tree_evaluator();
    let (fast_result, fast_stats) = fast.solve_with_stats(formula, domain);
    let (ref_result, ref_stats) = reference.solve_with_stats(formula, domain);
    assert_eq!(fast_stats, ref_stats, "{what}: stats diverge");
    match (&fast_result, &ref_result) {
        (SatResult::DeltaSat(a), SatResult::DeltaSat(b)) => {
            assert_eq!(a, b, "{what}: witness boxes diverge");
        }
        (SatResult::Unsat, SatResult::Unsat) => {}
        (SatResult::Unknown(a), SatResult::Unknown(b)) => {
            assert_eq!(a, b, "{what}: unknown reasons diverge");
        }
        (a, b) => panic!("{what}: verdicts diverge: {a} vs {b}"),
    }
    // The derivative-guided default must reach the same verdict without
    // growing the sequential search, and its witnesses must stay valid
    // domain points.
    let (cut_result, cut_stats) = solver.solve_with_stats(formula, domain);
    assert_eq!(
        cut_result.is_unsat(),
        ref_result.is_unsat(),
        "{what}: newton cuts flip unsat"
    );
    assert_eq!(
        cut_result.is_delta_sat(),
        ref_result.is_delta_sat(),
        "{what}: newton cuts flip delta-sat"
    );
    assert!(
        cut_stats.boxes_explored <= ref_stats.boxes_explored,
        "{what}: newton cuts grew the search ({} vs {})",
        cut_stats.boxes_explored,
        ref_stats.boxes_explored
    );
    if let SatResult::DeltaSat(region) = &cut_result {
        assert!(
            domain.contains_box(region),
            "{what}: newton witness escaped the domain"
        );
    }
}

#[test]
fn decrease_queries_explore_identical_box_trees() {
    // The paper's query (5) over the symbolically exported NN controller,
    // both for a sound candidate (UNSAT path: the full search tree must
    // match) and an upside-down candidate (δ-SAT path: the witness and the
    // path to it must match).
    let spec = paper_spec();
    let dynamics = ErrorDynamics::new(reference_controller(10), 1.0);
    let system = ClosedLoopSystem::new(dynamics.symbolic_vector_field(), spec);
    let queries = QueryBuilder::new(&system, 1e-6);
    let template = QuadraticTemplate::new(2);

    let plausible = template.instantiate(&[0.02, 0.01, 0.13, 0.0, 0.0, 0.0]);
    let (formula, domain) = queries.decrease_query(&plausible);
    assert_identical(
        "decrease/plausible",
        &formula,
        &domain,
        DeltaSolver::new(1e-4),
    );

    let upside_down = template.instantiate(&[-1.0, 0.0, -1.0, 0.0, 0.0, 0.0]);
    let (formula, domain) = queries.decrease_query(&upside_down);
    assert_identical(
        "decrease/upside-down",
        &formula,
        &domain,
        DeltaSolver::new(1e-4),
    );
}

#[test]
fn level_set_queries_explore_identical_box_trees() {
    // Queries (6) and (7) at bracketing levels, matching the level-set
    // bisection the pipeline runs.
    let spec = paper_spec();
    let dynamics = ErrorDynamics::new(reference_controller(10), 1.0);
    let system = ClosedLoopSystem::new(dynamics.symbolic_vector_field(), spec);
    let queries = QueryBuilder::new(&system, 1e-6);
    let w = QuadraticTemplate::new(2).instantiate(&[1.0, 0.0, 1.0, 0.0, 0.0, 0.0]);

    for level in [0.3, 1.2, 9.0] {
        let (q6, x0_domain) = queries.initial_containment_query(&w, level);
        assert_identical(
            "initial containment",
            &q6,
            &x0_domain,
            DeltaSolver::new(1e-4),
        );
        if let Some((q7, unsafe_domain)) = queries.unsafe_disjointness_query(&w, level) {
            assert_identical(
                "unsafe disjointness",
                &q7,
                &unsafe_domain,
                DeltaSolver::new(1e-4),
            );
        }
    }
}

#[test]
fn nn_output_bound_query_explores_identical_box_tree() {
    // The cross-crate suite's bounded-activation query over a symbolically
    // exported controller.
    let controller = reference_controller(5);
    let symbolic = controller.forward_symbolic(&[Expr::var(0), Expr::var(1)])[0].clone();
    let query = Formula::atom(Constraint::ge(symbolic, 1.0001));
    let domain = IntervalBox::from_bounds(&[(-5.0, 5.0), (-2.0, 2.0)]);
    assert_identical("nn bound", &query, &domain, DeltaSolver::new(1e-4));
}

fn x() -> Expr {
    Expr::var(0)
}

fn y() -> Expr {
    Expr::var(1)
}

fn square_domain(half: f64) -> IntervalBox {
    IntervalBox::from_bounds(&[(-half, half), (-half, half)])
}

#[test]
fn controller_shaped_queries_explore_identical_box_trees() {
    // `min`/`max`/`abs` choice sites.
    let choosy = (x() * 3.0)
        .sin()
        .abs()
        .max((y() * 2.0).cos())
        .min(x() + y());
    assert_identical(
        "choosy",
        &Formula::atom(Constraint::eq(choosy, 0.25)),
        &square_domain(3.0),
        DeltaSolver::new(1e-4),
    );

    // A 24-layer ReLU ladder, the shape of a compiled NN controller.
    let mut ladder = x() * 0.9 + y() * 0.1;
    for i in 0..24 {
        let w = 1.0 + 0.01 * (i % 5) as f64;
        let b = 0.01 * (i % 3) as f64;
        ladder = (ladder * w + b).max(Expr::constant(0.0)) - 0.01;
    }
    assert_identical(
        "deep relu ladder",
        &Formula::atom(Constraint::ge(ladder, 0.4)),
        &square_domain(1.5),
        DeltaSolver::new(1e-4),
    );

    // A clipped controller term.
    assert_identical(
        "clipped controller",
        &Formula::atom(Constraint::ge(
            (x().tanh() * 2.0 + (y() * 0.5).sigmoid()).min(x() + y()),
            0.75,
        )),
        &square_domain(3.0),
        DeltaSolver::new(1e-4),
    );

    // A disjunction across partial-domain operators (sqrt/exp).
    assert_identical(
        "disjunction",
        &Formula::any_of([
            Constraint::le((x() * 3.0).sin() + y().powi(3), -4.0),
            Constraint::ge(x().abs().sqrt() - y().exp(), 1.0),
        ]),
        &square_domain(1.5),
        DeltaSolver::new(1e-4),
    );

    // A hard query under a tiny box budget: the Unknown fires after the
    // same boxes on both evaluators.
    assert_identical(
        "box budget exhaustion",
        &Formula::atom(Constraint::le(
            (x() * 37.0).sin() * (y() * 53.0).cos(),
            -0.999_999,
        )),
        &square_domain(10.0),
        DeltaSolver::new(1e-9).with_max_boxes(20),
    );
}
