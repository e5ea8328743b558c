//! The traced re-enactment of Figure 1 for one cold member.
//!
//! The pipeline times its stages internally and exposes only
//! coarse totals, so the traced run replays the same procedure from the
//! benchmark's side, through public calls only, with one span per call.
//! The result must be bit-identical to the untraced
//! `VerificationSession::verify` of the same member; the caller checks
//! that (the equivalence guard), so a drift between this file and the
//! pipeline fails the run instead of skewing the split.
//!
//! Only bit-relevant configuration is passed on: knobs that the pipeline
//! documents as bit-invisible (batched sibling evaluation, simulation
//! threads) keep the callee's defaults.

use nncps::barrier::{
    BarrierCertificate, CandidateSynthesizer, ClosedLoopSystem, LevelSetResult, LevelSetSelector,
    QueryBuilder, VerificationConfig, VerificationOutcome, VerificationStats,
};
use nncps::deltasat::{DeltaSolver, SatResult};
use nncps::sim::{Integrator, Simulator, Trace};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::spans::Tracer;

/// Work counters gathered at the layer boundaries of the re-enactment.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerCounts {
    pub sim_calls: usize,
    pub rk4_steps: usize,
    pub lp_solves: usize,
    pub lp_rows_max: usize,
    pub lp_rows_sum: usize,
    pub lp_tableau_bytes_max: f64,
    pub compile_calls: usize,
    pub smt_checks: usize,
    pub smt_boxes: usize,
    pub smt_pruned: usize,
    pub smt_instructions: usize,
    pub counterexamples: usize,
    pub level_iterations: usize,
    pub level_boxes: usize,
}

/// Re-enacts the cold pipeline for `system` under `config`, recording every
/// layer call as a child of the span `parent`.
pub fn reenact(
    system: &ClosedLoopSystem,
    config: &VerificationConfig,
    tracer: &mut Tracer,
    member: usize,
    parent: usize,
    counts: &mut LayerCounts,
) -> VerificationOutcome {
    let inconclusive = |reason: &str| VerificationOutcome::Inconclusive {
        reason: reason.to_string(),
        stats: VerificationStats::default(),
    };
    let spec = system.spec().clone();
    let domain = spec.domain().clone();
    let dynamics = system.dynamics();
    let simulator = Simulator::new(Integrator::RungeKutta4, config.sim_dt, config.sim_duration);
    let solver = DeltaSolver::new(config.delta)
        .with_max_boxes(config.max_smt_boxes)
        .with_threads(config.smt_threads);
    let queries = QueryBuilder::new(system, config.gamma);
    let mut synthesizer = CandidateSynthesizer::with_options(spec.clone(), config.synthesis);
    let leaves_domain = |_: f64, state: &[f64]| !domain.contains_point(state);

    // Seed traces Φs from ChaCha8-drawn initial states.
    let seed_traces: Vec<Trace> = tracer.time("sim.seed_traces", member, parent, || {
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        let initial_states: Vec<Vec<f64>> = (0..config.num_seed_traces)
            .map(|_| {
                let unit: Vec<f64> = (0..domain.dim()).map(|_| rng.gen::<f64>()).collect();
                domain.lerp_point(&unit)
            })
            .collect();
        let raw = simulator.simulate_until_batch(&dynamics, &initial_states, leaves_domain, 0);
        counts.rk4_steps += raw.iter().map(|t| t.len().saturating_sub(1)).sum::<usize>();
        raw.iter()
            .map(|t| t.downsampled(config.max_samples_per_trace))
            .collect()
    });
    counts.sim_calls += 1;
    tracer.time("lp.add_trace", member, parent, || {
        for trace in &seed_traces {
            synthesizer.add_trace(trace);
        }
    });

    // Candidate loop: LP, compilation, decrease check (5), refinement.
    let mut generator = None;
    for _ in 0..config.max_candidate_iterations {
        let candidate = tracer.time("lp.synthesize", member, parent, || synthesizer.synthesize());
        let rows = lp_rows(&synthesizer);
        counts.lp_solves += 1;
        counts.lp_rows_max = counts.lp_rows_max.max(rows);
        counts.lp_rows_sum += rows;
        counts.lp_tableau_bytes_max = counts.lp_tableau_bytes_max.max(tableau_bytes(&synthesizer));
        let Ok(candidate) = candidate else {
            return inconclusive("candidate synthesis failed");
        };
        let (query, query_domain) = tracer.time("compile.decrease_query", member, parent, || {
            queries.compiled_decrease_query(&candidate)
        });
        counts.compile_calls += 1;
        let (result, stats) = tracer.time("smt.decrease_check", member, parent, || {
            solver.solve_compiled_with_stats(&query, &query_domain)
        });
        counts.smt_checks += 1;
        counts.smt_boxes += stats.boxes_explored;
        counts.smt_pruned += stats.boxes_pruned;
        counts.smt_instructions += stats.instructions_executed;
        match result {
            SatResult::Unsat => {
                generator = Some(candidate);
                break;
            }
            SatResult::DeltaSat(witness_box) => {
                counts.counterexamples += 1;
                let witness = witness_box.midpoint();
                let derivative = tracer.time("sim.derivative", member, parent, || {
                    system.derivative(&witness)
                });
                tracer.time("lp.add_counterexample", member, parent, || {
                    synthesizer.add_counterexample(&witness, &derivative, config.gamma.max(1e-9));
                });
                let trace = tracer.time("sim.witness_trace", member, parent, || {
                    let raw = simulator.simulate_until(&dynamics, &witness, leaves_domain);
                    counts.rk4_steps += raw.len().saturating_sub(1);
                    raw.downsampled(config.max_samples_per_trace)
                });
                counts.sim_calls += 1;
                tracer.time("lp.add_trace", member, parent, || {
                    synthesizer.add_trace(&trace)
                });
            }
            SatResult::Unknown(_) => return inconclusive("decrease check inconclusive"),
        }
    }
    let Some(generator) = generator else {
        return inconclusive("no generator passed the decrease check");
    };

    // Level set: queries (6) and (7).
    let (level, stats) = tracer.time("level.select", member, parent, || {
        LevelSetSelector::new(config.max_level_iterations)
            .select_with_cache(&generator, &spec, &queries, &solver, None)
    });
    counts.level_boxes += stats.boxes_explored;
    match level {
        LevelSetResult::Found { level, iterations } => {
            counts.level_iterations += iterations;
            VerificationOutcome::Certified {
                certificate: BarrierCertificate::new(generator, level),
                stats: VerificationStats::default(),
            }
        }
        LevelSetResult::NotFound { iterations, .. } => {
            counts.level_iterations += iterations;
            inconclusive("level-set selection failed")
        }
    }
}

/// Rows of the LP that `CandidateSynthesizer::synthesize` builds: the
/// trace and counterexample rows plus its structural rows (margin bounds,
/// coefficient bounds, diagonal floors, diagonal-dominance pairs, and the
/// normalization row).
fn lp_rows(synthesizer: &CandidateSynthesizer) -> usize {
    let dim = synthesizer.template().dim();
    let coefficients = synthesizer.template().num_coefficients();
    synthesizer.num_constraints() + 2 + 2 * coefficients + dim + 2 * dim * (dim - 1) + 1
}

/// Computed size of the dense two-phase simplex tableau for the current
/// LP: rows × (2·vars + slacks + artificials) × 8 bytes.  Every trace and
/// counterexample row carries an artificial column (after sign
/// normalization each is a `>=` row), as do the margin floor, the diagonal
/// floors and the normalization row; every row except the equality has a
/// slack column.  This is an estimate from the documented LP shape, not a
/// measurement.
fn tableau_bytes(synthesizer: &CandidateSynthesizer) -> f64 {
    let rows = lp_rows(synthesizer);
    let dim = synthesizer.template().dim();
    let vars = synthesizer.template().num_coefficients() + 1;
    let artificials = synthesizer.num_constraints() + 1 + dim + 1;
    (rows * (2 * vars + (rows - 1) + artificials) * 8) as f64
}
