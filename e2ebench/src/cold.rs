//! The cold workloads: `registry_cold` and `table1_wide`.
//!
//! Both are a closed loop with one caller: every member is verified by a
//! fresh `VerificationSession` with a `.cold()` request, one after another,
//! in registry (or width) order.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use nncps::barrier::{
    ClosedLoopSystem, VerificationConfig, VerificationOutcome, VerificationRequest,
    VerificationSession,
};
use nncps::scenarios::json::Json;
use nncps::scenarios::scenario::PlantSpec;
use nncps::scenarios::{ExpectedVerdict, Registry, Scenario, ScenarioResult};

use crate::reenact::{reenact, LayerCounts};
use crate::report::{Metrics, Tally};
use crate::spans::Tracer;
use crate::stats::{median, samples_beyond, MemberTimes};
use crate::{Args, Workload, PINNED_SEED};

/// Controller widths of the Table 1 sweep (quick mode keeps the first).
const TABLE1_WIDTHS: [usize; 4] = [100, 300, 500, 1000];

/// A member ready to verify: its scenario and the built closed loop.
struct Member {
    scenario: Scenario,
    system: ClosedLoopSystem,
}

/// The members of a cold workload, with `VerificationConfig::seed` set to
/// the workload seed.
fn scenarios(args: &Args) -> Vec<Scenario> {
    let registry = Registry::builtin();
    let member =
        |name: String, base: &Scenario, plant, mut config: VerificationConfig, expected| {
            config.seed = args.workload_seed;
            Scenario::new(
                name,
                base.description(),
                plant,
                base.spec().clone(),
                config,
                expected,
            )
        };
    match args.workload {
        Workload::RegistryCold => registry
            .iter()
            .filter(|s| !args.quick || s.name() == "linear-unstable-canary")
            .map(|s| {
                let name = s.name().to_string();
                member(name, s, s.plant().clone(), s.config().clone(), s.expected())
            })
            .collect(),
        Workload::Table1Wide => {
            let paper = registry
                .get("dubins-paper")
                .expect("the registry has dubins-paper");
            let widths = if args.quick {
                &TABLE1_WIDTHS[..1]
            } else {
                &TABLE1_WIDTHS[..]
            };
            widths
                .iter()
                .map(|&width| {
                    let plant = PlantSpec::Dubins {
                        hidden_neurons: width,
                        speed: 1.0,
                    };
                    let config = nncps_bench::fast_config();
                    let expected = ExpectedVerdict::Certified;
                    member(format!("table1-w{width}"), paper, plant, config, expected)
                })
                .collect()
        }
        Workload::FamilyServe => unreachable!("family_serve is not a cold workload"),
    }
}

/// Set-up: build every member's closed loop (the NN expands symbolically).
/// Returns the members and the seconds spent building systems alone.
fn setup(args: &Args) -> (Vec<Member>, f64) {
    let scenarios = scenarios(args);
    let start = Instant::now();
    let members = scenarios
        .into_iter()
        .map(|scenario| Member {
            system: scenario.build_system(),
            scenario,
        })
        .collect();
    (members, start.elapsed().as_secs_f64())
}

/// `SCENARIOS_expected.json` as name → fingerprint.
fn load_pins(path: &Path) -> Result<BTreeMap<String, String>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let json = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let entries = json
        .get("scenarios")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{} has no `scenarios` list", path.display()))?;
    Ok(entries
        .iter()
        .filter_map(|e| {
            let name = e.get("name").and_then(Json::as_str)?;
            let fingerprint = e.get("fingerprint").and_then(Json::as_str)?;
            Some((name.to_string(), fingerprint.to_string()))
        })
        .collect())
}

/// The verdict checks every member run must pass: the expected verdict, the
/// pinned fingerprint (registry members at the pinned seed), and bit
/// equality with the first run of the same member in this process.
struct Checker {
    pins: Option<BTreeMap<String, String>>,
    first: BTreeMap<String, String>,
}

impl Checker {
    fn new(args: &Args) -> Result<Self, String> {
        let pinned = args.workload == Workload::RegistryCold && args.workload_seed == PINNED_SEED;
        Ok(Checker {
            pins: if pinned {
                Some(load_pins(Path::new("SCENARIOS_expected.json"))?)
            } else {
                None
            },
            first: BTreeMap::new(),
        })
    }

    fn check(
        &mut self,
        member: &Member,
        outcome: &VerificationOutcome,
        what: &str,
        tally: &mut Tally,
    ) {
        let result = ScenarioResult::from_outcome(&member.scenario, outcome, 0.0, 0.0);
        let name = &result.name;
        let fingerprint = result.fingerprint();
        let mut problems = Vec::new();
        if !result.matches_expected {
            problems.push(format!(
                "verdict {} but {} expected",
                result.verdict, result.expected
            ));
        }
        if let Some(pins) = &self.pins {
            match pins.get(name) {
                Some(pin) if *pin == fingerprint => {}
                Some(pin) => {
                    problems.push(format!("fingerprint {fingerprint} drifted from pin {pin}"))
                }
                None => problems.push("no pin in SCENARIOS_expected.json".to_string()),
            }
        }
        let first = self
            .first
            .entry(name.clone())
            .or_insert_with(|| fingerprint.clone());
        if *first != fingerprint {
            problems.push(format!(
                "fingerprint {fingerprint} differs from this run's first {first}"
            ));
        }
        tally.attempt(
            problems
                .into_iter()
                .map(|p| format!("{what} `{name}`: {p}")),
        );
    }
}

/// Verifies `member` cold and returns the outcome and the seconds spent in
/// `VerificationSession::verify`.
fn verify_cold(member: &Member) -> (VerificationOutcome, f64) {
    let session = VerificationSession::new();
    let request = VerificationRequest::over(&member.system)
        .with_config(member.scenario.config().clone())
        .cold();
    let start = Instant::now();
    let outcome = session.verify(&request);
    (outcome, start.elapsed().as_secs_f64())
}

/// One untraced pass: returns the pass wall time and the member outcomes.
fn cold_pass(
    members: &[Member],
    checker: &mut Checker,
    tally: &mut Tally,
    samples: &mut MemberTimes,
) -> (f64, Vec<Option<VerificationOutcome>>) {
    let mut outcomes: Vec<Option<VerificationOutcome>> = vec![None; members.len()];
    let start = Instant::now();
    for (i, (member, slot)) in members.iter().zip(&mut outcomes).enumerate() {
        let (outcome, seconds) = verify_cold(member);
        samples.push(i, seconds);
        checker.check(member, &outcome, "cold", tally);
        *slot = Some(outcome);
    }
    (start.elapsed().as_secs_f64(), outcomes)
}

/// Fixed tail percentile and the minimum pass count that leaves at least
/// ten samples beyond it.  The percentile is fixed per workload so that
/// runs of different lengths report the same statistic.
fn tail_plan(members: usize, quick: bool) -> (f64, usize) {
    if quick {
        return (75.0, 1);
    }
    let percent = 75.0;
    let passes = (1..)
        .find(|p| samples_beyond(p * members, percent) >= 10)
        .unwrap_or(1);
    (percent, passes)
}

/// The end-to-end run (`--trace 0`).
pub fn run(args: &Args, tally: &mut Tally) -> Result<Metrics, String> {
    let mut setup_times = Vec::new();
    let members = timed_setups(args, 1, &mut setup_times, &mut Vec::new());
    let mut checker = Checker::new(args)?;
    let (tail_percent, min_passes) = tail_plan(members.len(), args.quick);
    let start = Instant::now();
    let mut samples = MemberTimes::default();
    let mut throughput = Vec::new();
    while throughput.len() < min_passes || start.elapsed().as_secs_f64() < args.seconds {
        let (wall, _) = cold_pass(&members, &mut checker, tally, &mut samples);
        throughput.push(members.len() as f64 / wall);
        timed_setups(
            args,
            crate::setup_reps(args),
            &mut setup_times,
            &mut Vec::new(),
        );
    }
    println!("verdicts_per_s by pass: {throughput:.4?}");
    println!(
        "{}: {} members x {} cold passes; verdict_s_tail = p{tail_percent} of {} samples ({} beyond)",
        args.workload.name(),
        members.len(),
        throughput.len(),
        samples.count(),
        samples_beyond(samples.count(), tail_percent)
    );
    let mut metrics = Metrics::default();
    metrics.push("verdicts_per_s", median(&throughput), "1/s");
    metrics.push("verdict_s_p50", samples.p50(), "s");
    metrics.push("verdict_s_tail", samples.percentile(tail_percent), "s");
    metrics.push("setup_s", median(&setup_times), "s");
    Ok(metrics)
}

/// Runs the set-up `reps` times, appending its wall time and its
/// system-building time, and returns the last result.  Set-ups run between
/// passes, so that their median spans the whole run rather than its first
/// milliseconds.
fn timed_setups(
    args: &Args,
    reps: usize,
    setup_times: &mut Vec<f64>,
    build_times: &mut Vec<f64>,
) -> Vec<Member> {
    let mut members = Vec::new();
    for _ in 0..reps {
        let start = Instant::now();
        let (built, build_s) = setup(args);
        setup_times.push(start.elapsed().as_secs_f64());
        build_times.push(build_s);
        members = built;
    }
    members
}

/// The traced run (`--trace 1`): untraced and re-enacted passes alternate;
/// every re-enacted member must match the untraced outcome bit for bit.
pub fn run_traced(args: &Args, tally: &mut Tally) -> Result<(Metrics, Tracer), String> {
    let mut build_times = Vec::new();
    let members = timed_setups(args, 1, &mut Vec::new(), &mut build_times);
    let mut checker = Checker::new(args)?;
    let mut tracer = Tracer::new();
    let mut counts = LayerCounts::default();
    let mut untraced_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut samples = MemberTimes::default();
    let start = Instant::now();
    while traced_walls.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let (wall, reference) = cold_pass(&members, &mut checker, tally, &mut samples);
        untraced_walls.push(wall);
        let pass_start = Instant::now();
        for (i, member) in members.iter().enumerate() {
            let root = tracer.begin("member", i, None);
            let outcome = reenact(
                &member.system,
                member.scenario.config(),
                &mut tracer,
                i,
                root,
                &mut counts,
            );
            tracer.end(root);
            let expected = reference[i]
                .as_ref()
                .expect("the untraced pass ran every member");
            tally.attempt(equivalence_problem(&member.scenario, &outcome, expected));
        }
        traced_walls.push(pass_start.elapsed().as_secs_f64());
        timed_setups(
            args,
            crate::setup_reps(args),
            &mut Vec::new(),
            &mut build_times,
        );
    }

    let passes = traced_walls.len() as f64;
    let (self_times, member_total) = tracer.layer_self_times("member");
    let mut busy: BTreeMap<&str, f64> = BTreeMap::new();
    for span in tracer.spans().iter().filter(|s| s.parent.is_some()) {
        *busy.entry(span.layer()).or_insert(0.0) += span.end - span.start;
    }
    let share = |layer: &str| self_times.get(layer).copied().unwrap_or(0.0) / member_total;
    let busy_s = |layer: &str| busy.get(layer).copied().unwrap_or(0.0) / passes;
    let per_pass = |count: usize| count as f64 / passes;
    let c = counts;

    let mut m = Metrics::default();
    m.push("sim.busy_s", busy_s("sim"), "s");
    m.push("sim.self_share", share("sim"), "frac");
    m.push("sim.calls", per_pass(c.sim_calls), "count");
    m.push("sim.rk4_steps", per_pass(c.rk4_steps), "count");
    m.push("lp.busy_s", busy_s("lp"), "s");
    m.push("lp.self_share", share("lp"), "frac");
    m.push("lp.solves", per_pass(c.lp_solves), "count");
    m.push("lp.rows_max", c.lp_rows_max as f64, "count");
    m.push("lp.rows_sum", per_pass(c.lp_rows_sum), "count");
    m.push(
        "lp.tableau_mb_computed",
        c.lp_tableau_bytes_max / (1024.0 * 1024.0),
        "MB",
    );
    m.push("compile.busy_s", busy_s("compile"), "s");
    m.push("compile.self_share", share("compile"), "frac");
    m.push("compile.calls", per_pass(c.compile_calls), "count");
    m.push("smt.busy_s", busy_s("smt"), "s");
    m.push("smt.self_share", share("smt"), "frac");
    m.push("smt.checks", per_pass(c.smt_checks), "count");
    m.push("smt.boxes", per_pass(c.smt_boxes), "count");
    m.push(
        "smt.pruned_ratio",
        c.smt_pruned as f64 / c.smt_boxes.max(1) as f64,
        "frac",
    );
    m.push("smt.instructions", per_pass(c.smt_instructions), "count");
    m.push("smt.counterexamples", per_pass(c.counterexamples), "count");
    m.push("level.busy_s", busy_s("level"), "s");
    m.push("level.self_share", share("level"), "frac");
    m.push("level.iterations", per_pass(c.level_iterations), "count");
    m.push("level.boxes", per_pass(c.level_boxes), "count");
    m.push("build.busy_s", median(&build_times), "s");
    let untraced: f64 = untraced_walls.iter().sum::<f64>() / untraced_walls.len() as f64;
    let traced: f64 = traced_walls.iter().sum::<f64>() / passes;
    m.push("trace.overhead_frac", traced / untraced - 1.0, "frac");
    m.push("trace.unaccounted_frac", share("member"), "frac");
    Ok((m, tracer))
}

/// `None` when the re-enacted outcome has the untraced verdict, generator
/// coefficient bits and level bits; otherwise the mismatch.
fn equivalence_problem(
    scenario: &Scenario,
    traced: &VerificationOutcome,
    untraced: &VerificationOutcome,
) -> Option<String> {
    let a = ScenarioResult::from_outcome(scenario, traced, 0.0, 0.0);
    let b = ScenarioResult::from_outcome(scenario, untraced, 0.0, 0.0);
    let bits = |r: &ScenarioResult| {
        let coefficients: Vec<u64> = r
            .generator_coefficients
            .iter()
            .map(|x| x.to_bits())
            .collect();
        (r.verdict.clone(), coefficients, r.level.map(f64::to_bits))
    };
    (bits(&a) != bits(&b)).then(|| {
        format!(
            "trace equivalence `{}`: re-enacted {} differs from the untraced {}",
            a.name, a.verdict, b.verdict
        )
    })
}
