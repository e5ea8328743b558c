//! A second learning-enabled CPS: an inverted pendulum stabilized by a tanh
//! neural controller.
//!
//! The paper's procedure is not tied to the Dubins car — any closed loop of
//! the form `ẋ = f_p(x, h(g(x)))` with a smooth neural controller `h` can be
//! verified.  The pendulum problem (torque-limited plant, 2-16-1 tanh PD-like
//! controller, safe band `|θ| < 0.8 rad`, `|ω| < 2.0 rad/s`) is registered in
//! the scenario registry as `pendulum-tanh-16`, so this example is a lookup
//! plus a run — and it also reruns the sibling `pendulum-logsig-16` variant,
//! whose controller realises the same control law through logistic-sigmoid
//! activations (`tanh(z) = 2σ(2z) − 1`).
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example pendulum
//! ```

use nncps_barrier::Budget;
use nncps_scenarios::{run_scenario, Registry};

fn main() {
    let registry = Registry::builtin();
    for name in ["pendulum-tanh-16", "pendulum-logsig-16"] {
        let scenario = registry.get(name).expect("pendulum scenarios are built in");
        println!("scenario : {name}");
        println!("           {}", scenario.description());

        let result = run_scenario(scenario, None, &Budget::unlimited());
        match result.verdict.as_str() {
            "certified" => {
                println!("PENDULUM IS SAFE");
                println!("  invariant level  : {:.6}", result.level.unwrap());
                println!("  generator coeffs : {:?}", result.generator_coefficients);
            }
            _ => println!(
                "verification inconclusive: {}",
                result.reason.as_deref().unwrap_or("(no reason)")
            ),
        }
        println!(
            "  iterations {}, counterexamples {}, {} delta-SAT boxes, {:.3}s total",
            result.stats.generator_iterations,
            result.stats.counterexamples,
            result.stats.boxes_explored,
            result.wall_time_s + result.build_time_s,
        );
        println!();
    }
}
