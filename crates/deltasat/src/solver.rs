//! Branch-and-prune δ-SAT search.

use std::fmt;

use nncps_interval::IntervalBox;
use nncps_parallel::{Budget, ExhaustionReason};

use crate::compiled::{
    ClauseFeasibility, ClauseScratch, CompiledClause, CompiledFormula, CutOutcome,
};
use crate::contractor::contract_clause;
use crate::{Constraint, Feasibility, Formula};

/// Outcome of a δ-SAT query.
#[derive(Debug, Clone)]
pub enum SatResult {
    /// The δ-weakening of the formula is satisfiable; the returned box has
    /// width at most the solver precision and its midpoint is a witness.
    DeltaSat(IntervalBox),
    /// The formula is unsatisfiable (exact result — no real solution exists).
    Unsat,
    /// The solver exhausted a resource limit — its box budget, the
    /// governing [`Budget`]'s fuel or deadline, or a cooperative
    /// cancellation — before reaching a verdict.
    Unknown(ExhaustionReason),
}

impl SatResult {
    /// Returns `true` for [`SatResult::Unsat`].
    pub fn is_unsat(&self) -> bool {
        matches!(self, SatResult::Unsat)
    }

    /// Returns `true` for [`SatResult::DeltaSat`].
    pub fn is_delta_sat(&self) -> bool {
        matches!(self, SatResult::DeltaSat(_))
    }

    /// Returns the witness midpoint for a δ-SAT result, if any.
    pub fn witness(&self) -> Option<Vec<f64>> {
        match self {
            SatResult::DeltaSat(region) => Some(region.midpoint()),
            _ => None,
        }
    }
}

impl fmt::Display for SatResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SatResult::DeltaSat(region) => write!(f, "delta-sat {region}"),
            SatResult::Unsat => write!(f, "unsat"),
            SatResult::Unknown(reason) => write!(f, "unknown ({reason})"),
        }
    }
}

/// Statistics gathered during a solve call.
///
/// The first four counters describe the *shape of the search tree* and are
/// what [`PartialEq`] compares: two solves are considered equal when they
/// explored the same tree.  The remaining counters
/// ([`SolverStats::instructions_executed`],
/// [`SolverStats::specialized_tape_len_sum`], [`SolverStats::newton_cuts`])
/// are evaluation-cost instrumentation: they depend on which evaluation
/// backend ran (compiled tape or tree reference) even when the search tree
/// is bit-identical, so they are deliberately excluded from
/// equality — and, downstream, from the scenario-report fingerprints.
#[derive(Debug, Clone, Copy, Default)]
pub struct SolverStats {
    /// Number of boxes popped from the work stack across all clauses.
    pub boxes_explored: usize,
    /// Number of boxes discarded by contraction or feasibility checks.
    pub boxes_pruned: usize,
    /// Number of bisections performed.
    pub bisections: usize,
    /// Number of DNF clauses examined.
    pub clauses_examined: usize,
    /// Tape instructions executed by forward sweeps (feasibility,
    /// contraction, gradient and Newton evaluations).  `0` under the
    /// tree-walking reference evaluator.
    pub instructions_executed: usize,
    /// Sum over processed boxes of the clause's compiled program length
    /// (its full tape), i.e. the work-per-box integral of one forward sweep
    /// per box.  `0` under the tree-walking reference evaluator.  The field
    /// name is part of the stored-statistics and report layouts.
    pub specialized_tape_len_sum: usize,
    /// Number of derivative-guided cuts (monotonicity collapses and interval
    /// Newton narrowings) applied.
    pub newton_cuts: usize,
}

impl PartialEq for SolverStats {
    /// Search-tree shape only — see the type-level documentation.
    fn eq(&self, other: &Self) -> bool {
        self.boxes_explored == other.boxes_explored
            && self.boxes_pruned == other.boxes_pruned
            && self.bisections == other.bisections
            && self.clauses_examined == other.clauses_examined
    }
}

impl SolverStats {
    /// Accumulates another solve's statistics into this one, so callers that
    /// issue many queries (the verification pipeline, the batch runner) can
    /// report search effort per run instead of per query.
    ///
    /// # Examples
    ///
    /// ```
    /// use nncps_deltasat::SolverStats;
    ///
    /// let mut total = SolverStats::default();
    /// let one = SolverStats { boxes_explored: 7, clauses_examined: 1, ..Default::default() };
    /// total.merge(&one);
    /// total.merge(&one);
    /// assert_eq!(total.boxes_explored, 14);
    /// assert_eq!(total.clauses_examined, 2);
    /// ```
    pub fn merge(&mut self, other: &SolverStats) {
        self.boxes_explored += other.boxes_explored;
        self.boxes_pruned += other.boxes_pruned;
        self.bisections += other.bisections;
        self.clauses_examined += other.clauses_examined;
        self.instructions_executed += other.instructions_executed;
        self.specialized_tape_len_sum += other.specialized_tape_len_sum;
        self.newton_cuts += other.newton_cuts;
    }
}

/// A δ-complete decision procedure for existential nonlinear queries,
/// implemented with interval constraint propagation and branch & prune.
///
/// Every DNF clause of a query is compiled to one flat, CSE-deduplicated
/// evaluation tape ([`CompiledClause`]) before the search starts, and every
/// box is processed on that tape: one shared forward sweep feeds both the
/// HC4 contraction and the feasibility classification, and the per-box
/// loop — contraction, classification, bisection — runs allocation-free
/// over dense instruction arrays.
///
/// On top of the tape, **derivative-guided cuts**
/// ([`DeltaSolver::with_newton_cuts`], on by default) use gradient
/// enclosures from a compiled derivative bundle to drive a monotonicity cut
/// (dimensions on which every undecided constraint is monotone collapse to
/// the favorable face) and an interval-Newton step for equalities.  These
/// cuts reduce the *number* of boxes and therefore change the search tree
/// (and possibly which witness is found first); disable them for
/// bit-identical comparisons against the reference.
///
/// The tree-walking reference evaluator
/// ([`DeltaSolver::with_tree_evaluator`]) runs with the cuts off and
/// explores exactly the same box tree as a compiled solver with Newton cuts
/// disabled.
///
/// See the [crate-level documentation](crate) for the semantics of the
/// returned verdicts and a usage example.
#[derive(Debug, Clone)]
pub struct DeltaSolver {
    precision: f64,
    max_boxes: usize,
    contraction_rounds: usize,
    threads: usize,
    tree_eval: bool,
    newton: bool,
    budget: Budget,
}

/// What the branch-and-prune loop does with one box popped from the work
/// stack (the box itself is processed in place).
enum BoxOutcome {
    /// The box was emptied by contraction or certainly violates a constraint.
    Pruned,
    /// The (contracted) box certifies the δ-weakened formula.
    Sat,
    /// The box is undecided and wide enough to bisect.
    Split,
}

/// The clause evaluation backend: compiled tapes on the hot path, or the
/// recursive tree walkers as the bit-identical reference.
enum ClauseEngine<'a> {
    Compiled(&'a CompiledClause),
    Tree(&'a [Constraint]),
}

impl ClauseEngine<'_> {
    fn atom_count(&self) -> usize {
        match self {
            ClauseEngine::Compiled(clause) => clause.num_atoms(),
            ClauseEngine::Tree(clause) => clause.len(),
        }
    }

    fn scratch(&self) -> ClauseScratch {
        match self {
            ClauseEngine::Compiled(clause) => clause.scratch(),
            ClauseEngine::Tree(_) => ClauseScratch::default(),
        }
    }

    fn program_len(&self) -> usize {
        match self {
            ClauseEngine::Compiled(clause) => clause.tape().num_slots(),
            ClauseEngine::Tree(_) => 0,
        }
    }

    /// Contraction plus classification of one box.  The compiled engine
    /// fuses both over a single shared forward sweep
    /// ([`CompiledClause::propagate`]); the tree reference runs them
    /// separately — the verdicts and the narrowed region are bit-identical.
    fn propagate(
        &self,
        region: &mut IntervalBox,
        rounds: usize,
        scratch: &mut ClauseScratch,
    ) -> ClauseFeasibility {
        match self {
            ClauseEngine::Compiled(clause) => clause.propagate(region, rounds, scratch),
            ClauseEngine::Tree(clause) => {
                if !contract_clause(clause, region, rounds) || region.is_empty() {
                    return ClauseFeasibility::Violated;
                }
                let mut all_satisfied = true;
                for constraint in *clause {
                    match constraint.feasibility(region) {
                        Feasibility::CertainlySatisfied => {}
                        Feasibility::CertainlyViolated => return ClauseFeasibility::Violated,
                        Feasibility::Unknown => all_satisfied = false,
                    }
                }
                if all_satisfied {
                    ClauseFeasibility::Satisfied
                } else {
                    ClauseFeasibility::Undecided
                }
            }
        }
    }

    fn derivative_cuts(&self, region: &mut IntervalBox, scratch: &mut ClauseScratch) -> CutOutcome {
        match self {
            ClauseEngine::Compiled(clause) => clause.derivative_cuts(region, scratch),
            ClauseEngine::Tree(_) => CutOutcome::Unchanged,
        }
    }
}

impl DeltaSolver {
    /// Default limit on the number of boxes explored per query.
    pub const DEFAULT_MAX_BOXES: usize = 2_000_000;

    /// Default number of HC4 sweeps applied to each box.
    pub const DEFAULT_CONTRACTION_ROUNDS: usize = 4;

    /// Maximum number of narrowing derivative cuts applied per box, each
    /// followed by a full contract + classify pass: a monotonicity collapse
    /// pins at least one dimension, so a handful of cuts already reaches
    /// the fixpoint that matters, and the final verdict is always taken on
    /// a freshly classified region.
    const MAX_CUT_PASSES: usize = 3;

    /// Derivative-guided cuts are attempted once a box's width is within
    /// this factor of the precision `δ` (about ten bisections per dimension
    /// from termination).  On wide boxes the gradient enclosures of
    /// nontrivial constraints almost never have fixed sign, so sweeping the
    /// gradient bundle there is pure overhead; near the bottom of the tree —
    /// where the bulk of the boxes live — the enclosures tighten and the
    /// cuts collapse whole dimensions.
    const NEWTON_WINDOW: f64 = 1024.0;

    /// Creates a solver with the given precision `δ`.
    ///
    /// # Panics
    ///
    /// Panics if `precision` is not strictly positive.
    pub fn new(precision: f64) -> Self {
        assert!(precision > 0.0, "precision must be positive");
        DeltaSolver {
            precision,
            max_boxes: Self::DEFAULT_MAX_BOXES,
            contraction_rounds: Self::DEFAULT_CONTRACTION_ROUNDS,
            threads: 1,
            tree_eval: false,
            newton: true,
            budget: Budget::unlimited(),
        }
    }

    /// Sets the maximum number of boxes explored before giving up.
    ///
    /// The limit is hard: `boxes_explored` in the returned statistics never
    /// exceeds it, sequentially or with worker threads.
    pub fn with_max_boxes(mut self, max_boxes: usize) -> Self {
        self.max_boxes = max_boxes;
        self
    }

    /// Attaches a resource [`Budget`] governing this solver's searches.
    ///
    /// The budget is polled at the branch-and-prune loop head: fuel is
    /// charged from the tape instructions executed per box, and an
    /// exhausted limit (or a raised cancellation flag) returns
    /// [`SatResult::Unknown`] with the structured [`ExhaustionReason`].
    /// Fuel counts exactly the tape instructions the search evaluates (the
    /// same number as [`SolverStats::instructions_executed`]), so the
    /// exhaustion point is a pure function of the query and the
    /// configuration.
    ///
    /// A **fuel limit forces the sequential search path** regardless of
    /// [`DeltaSolver::with_threads`]: fuel is a pure function of the
    /// sequential search tree, so the truncation point — and therefore the
    /// verdict and statistics of a fuel-exhausted solve — is bit-identical
    /// at any configured thread count.  Wall-clock deadlines and
    /// cancellation stay available to the parallel search (both are
    /// non-deterministic by nature).
    ///
    /// The handle's consumed fuel persists across solves: attach a fresh
    /// `Budget` per governed run.  Fuel is counted only by the compiled
    /// tape evaluators; the tree-walking reference executes no tape
    /// instructions and never consumes fuel.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// The governing budget handle (shared: cloning it yields another view
    /// of the same counters, usable e.g. to cancel from another thread).
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// Sets the number of HC4 contraction sweeps per box.
    pub fn with_contraction_rounds(mut self, rounds: usize) -> Self {
        self.contraction_rounds = rounds;
        self
    }

    /// Sets the number of worker threads for the branch-and-prune search
    /// (`1` = sequential, `0` = one per available core).
    ///
    /// With more than one thread the solver pops the top boxes of the work
    /// stack as subtree roots and explores each depth-first on its own
    /// worker (capped per round), merging the leftovers back in depth-first
    /// order.  Verdicts are deterministic for a fixed thread count.  UNSAT
    /// verdicts visit exactly the same search tree as the sequential
    /// solver; δ-SAT witnesses may come from a different (but equally
    /// valid) region, after exploring at most ~`threads ×` the sequential
    /// box count, so give `with_max_boxes` the same headroom when enabling
    /// threads.  The parallel search keeps derivative-guided cuts.  Without
    /// the `parallel` feature the search always runs sequentially.
    ///
    /// # Examples
    ///
    /// ```
    /// use nncps_deltasat::{Constraint, DeltaSolver, Formula};
    /// use nncps_expr::Expr;
    /// use nncps_interval::IntervalBox;
    ///
    /// let x = Expr::var(0);
    /// let query = Formula::atom(Constraint::ge(x.clone().powi(2), 2.0));
    /// let domain = IntervalBox::from_bounds(&[(-3.0, 3.0)]);
    /// let sequential = DeltaSolver::new(1e-4).solve(&query, &domain);
    /// let parallel = DeltaSolver::new(1e-4).with_threads(0).solve(&query, &domain);
    /// assert_eq!(sequential.is_delta_sat(), parallel.is_delta_sat());
    /// ```
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Switches the solver to the recursive tree-walking evaluators
    /// ([`crate::hc4_revise`] / [`Constraint::feasibility`]) instead of
    /// compiled tapes, with derivative-guided cuts disabled.
    ///
    /// This is the slow reference path: it produces bit-identical verdicts,
    /// witnesses, and box statistics to a compiled solver with
    /// [`DeltaSolver::with_newton_cuts`] turned off, and exists for
    /// differential testing and benchmarking of the compiled evaluation
    /// layer.  Queries handed to [`DeltaSolver::solve_compiled`] always run
    /// compiled.
    ///
    /// # Examples
    ///
    /// ```
    /// use nncps_deltasat::{Constraint, DeltaSolver, Formula};
    /// use nncps_expr::Expr;
    /// use nncps_interval::IntervalBox;
    ///
    /// let query = Formula::atom(Constraint::ge(Expr::var(0).powi(2), 2.0));
    /// let domain = IntervalBox::from_bounds(&[(-3.0, 3.0)]);
    /// // Newton cuts change the search tree, so the bit-identical
    /// // comparison pins them off on the compiled side.
    /// let (fast, fast_stats) = DeltaSolver::new(1e-4)
    ///     .with_newton_cuts(false)
    ///     .solve_with_stats(&query, &domain);
    /// let (reference, reference_stats) = DeltaSolver::new(1e-4)
    ///     .with_tree_evaluator()
    ///     .solve_with_stats(&query, &domain);
    /// assert_eq!(fast.witness(), reference.witness());
    /// assert_eq!(fast_stats, reference_stats);
    /// ```
    pub fn with_tree_evaluator(mut self) -> Self {
        self.tree_eval = true;
        self.newton = false;
        self
    }

    /// Enables or disables derivative-guided contraction (default: enabled).
    ///
    /// Per undecided box the solver evaluates the clause's compiled gradient
    /// bundle and applies a monotonicity cut — a dimension on which every
    /// undecided constraint is monotone in its favorable direction collapses
    /// to that face, preserving satisfiability of the box exactly — plus an
    /// interval-Newton narrowing for equality constraints.  The cuts reduce
    /// box *counts* algorithmically but change the explored search tree, so
    /// δ-SAT witnesses can come from a different (equally valid) region than
    /// without cuts; disable for bit-identical comparisons against
    /// [`DeltaSolver::with_tree_evaluator`].
    ///
    /// # Examples
    ///
    /// ```
    /// use nncps_deltasat::{Constraint, DeltaSolver, Formula};
    /// use nncps_expr::Expr;
    /// use nncps_interval::IntervalBox;
    ///
    /// // tanh(x) + y is monotone in both variables: with cuts the solver
    /// // collapses the box instead of bisecting it.
    /// let query = Formula::atom(Constraint::ge(Expr::var(0).tanh() + Expr::var(1), 0.4));
    /// let domain = IntervalBox::from_bounds(&[(-1.0, 1.0), (-1.0, 1.0)]);
    /// let (with_cuts, fast) = DeltaSolver::new(1e-2).solve_with_stats(&query, &domain);
    /// let (without, slow) = DeltaSolver::new(1e-2)
    ///     .with_newton_cuts(false)
    ///     .solve_with_stats(&query, &domain);
    /// assert!(with_cuts.is_delta_sat() && without.is_delta_sat());
    /// assert!(fast.boxes_explored <= slow.boxes_explored);
    /// ```
    pub fn with_newton_cuts(mut self, enabled: bool) -> Self {
        self.newton = enabled;
        self
    }

    /// The configured precision `δ`.
    pub fn precision(&self) -> f64 {
        self.precision
    }

    /// The configured worker-thread count (`0` = one per available core).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Whether derivative-guided cuts are enabled.
    pub fn newton_cuts(&self) -> bool {
        self.newton
    }

    /// Decides `∃ x ∈ domain : formula(x)`.
    pub fn solve(&self, formula: &Formula, domain: &IntervalBox) -> SatResult {
        self.solve_with_stats(formula, domain).0
    }

    /// Decides the query and also returns search statistics.
    pub fn solve_with_stats(
        &self,
        formula: &Formula,
        domain: &IntervalBox,
    ) -> (SatResult, SolverStats) {
        if self.tree_eval {
            let clauses = formula.to_dnf();
            self.solve_clauses(clauses.iter().map(|c| ClauseEngine::Tree(c)), domain)
        } else {
            self.solve_compiled_with_stats(&CompiledFormula::compile(formula), domain)
        }
    }

    /// Decides a query pre-compiled with [`CompiledFormula::compile`].
    ///
    /// Equivalent to [`DeltaSolver::solve`] on the source formula, but the
    /// DNF conversion and tape lowering happened up front — callers that
    /// construct a query once and solve it (or hold it across solver
    /// configurations) skip the per-solve compilation cost.
    pub fn solve_compiled(&self, query: &CompiledFormula, domain: &IntervalBox) -> SatResult {
        self.solve_compiled_with_stats(query, domain).0
    }

    /// Decides a pre-compiled query and also returns search statistics.
    pub fn solve_compiled_with_stats(
        &self,
        query: &CompiledFormula,
        domain: &IntervalBox,
    ) -> (SatResult, SolverStats) {
        self.solve_clauses(query.clauses().iter().map(ClauseEngine::Compiled), domain)
    }

    /// Examines DNF clauses in order: the first δ-SAT clause wins, Unknown is
    /// remembered, and an empty clause list (the formula `false`) is UNSAT.
    fn solve_clauses<'a, I>(&self, engines: I, domain: &IntervalBox) -> (SatResult, SolverStats)
    where
        I: Iterator<Item = ClauseEngine<'a>>,
    {
        let mut stats = SolverStats::default();
        let mut any_unknown = None;
        for engine in engines {
            stats.clauses_examined += 1;
            match self.solve_clause(&engine, domain, &mut stats) {
                SatResult::DeltaSat(region) => return (SatResult::DeltaSat(region), stats),
                SatResult::Unsat => {}
                SatResult::Unknown(reason) => any_unknown = Some(reason),
            }
        }
        match any_unknown {
            Some(reason) => (SatResult::Unknown(reason), stats),
            None => (SatResult::Unsat, stats),
        }
    }

    /// Decides satisfiability of a single conjunction of constraints.
    pub fn solve_conjunction(
        &self,
        constraints: &[Constraint],
        domain: &IntervalBox,
    ) -> (SatResult, SolverStats) {
        let mut stats = SolverStats {
            clauses_examined: 1,
            ..SolverStats::default()
        };
        let result = if self.tree_eval {
            self.solve_clause(&ClauseEngine::Tree(constraints), domain, &mut stats)
        } else {
            let compiled = CompiledClause::compile(constraints);
            self.solve_clause(&ClauseEngine::Compiled(&compiled), domain, &mut stats)
        };
        (result, stats)
    }

    fn solve_clause(
        &self,
        engine: &ClauseEngine<'_>,
        domain: &IntervalBox,
        stats: &mut SolverStats,
    ) -> SatResult {
        // An empty conjunction is trivially satisfied by any point of a
        // non-empty domain.
        if engine.atom_count() == 0 {
            return if domain.is_empty() {
                SatResult::Unsat
            } else {
                SatResult::DeltaSat(IntervalBox::from_point(&domain.midpoint()))
            };
        }
        if domain.is_empty() {
            return SatResult::Unsat;
        }

        // A fuel limit pins the search to the sequential path: the fuel
        // truncation point is defined on the sequential depth-first tree,
        // which makes fuel-exhausted verdicts and statistics bit-identical
        // across thread counts (see `with_budget`).
        let threads = if self.budget.has_fuel_limit() {
            1
        } else {
            nncps_parallel::effective_threads(self.threads)
        };
        if threads > 1 {
            self.solve_clause_parallel(engine, domain, stats, threads)
        } else {
            self.solve_clause_sequential(engine, domain, stats)
        }
    }

    /// Contracts and classifies one box **in place**: the body of the
    /// branch-and-prune loop, shared by the sequential and parallel searches.
    ///
    /// With derivative-guided cuts enabled, a cut that narrows the box loops
    /// back through contraction and classification so the cheaper tests get
    /// first pick at the narrowed region; the pass count is bounded because
    /// monotonicity collapses pin whole dimensions.
    fn process_box(
        &self,
        engine: &ClauseEngine<'_>,
        scratch: &mut ClauseScratch,
        region: &mut IntervalBox,
    ) -> BoxOutcome {
        scratch.specialized_tape_len_sum += engine.program_len();
        let mut cut_passes = 0;
        loop {
            // Contract and classify the box over one shared forward sweep
            // (per-atom verdicts are recorded for the cut step).  Every exit
            // from this loop — and in particular the δ-termination below —
            // happens on a region that was classified as it stands: a
            // narrowing cut always loops back through propagation, never
            // straight to a verdict.
            match engine.propagate(region, self.contraction_rounds, scratch) {
                ClauseFeasibility::Violated => return BoxOutcome::Pruned,
                ClauseFeasibility::Satisfied => return BoxOutcome::Sat,
                ClauseFeasibility::Undecided => {}
            }

            if !self.newton
                || cut_passes >= Self::MAX_CUT_PASSES
                || region.max_width() > self.precision * Self::NEWTON_WINDOW
            {
                break;
            }
            match engine.derivative_cuts(region, scratch) {
                CutOutcome::Infeasible => return BoxOutcome::Pruned,
                CutOutcome::Unchanged => break,
                CutOutcome::Narrowed => {
                    scratch.newton_cuts += 1;
                    cut_passes += 1;
                }
            }
        }

        // δ-termination: the box can no longer be refuted by splitting at
        // the configured precision, so report the δ-weakened SAT verdict.
        if region.max_width() <= self.precision {
            return BoxOutcome::Sat;
        }

        BoxOutcome::Split
    }

    fn solve_clause_sequential(
        &self,
        engine: &ClauseEngine<'_>,
        domain: &IntervalBox,
        stats: &mut SolverStats,
    ) -> SatResult {
        let mut scratch = engine.scratch();
        let mut fuel_charged = 0;
        let result = self.run_sequential(engine, domain, stats, &mut scratch, &mut fuel_charged);
        // Charge the tail executed since the last loop-head poll, so the
        // governing budget's fuel count stays exact across the many queries
        // of a verification run.
        self.budget
            .charge_fuel((scratch.instructions_executed - fuel_charged) as u64);
        let (instructions, tape_len_sum, cuts) = scratch.take_counters();
        stats.instructions_executed += instructions;
        stats.specialized_tape_len_sum += tape_len_sum;
        stats.newton_cuts += cuts;
        result
    }

    /// The sequential depth-first search: pop a box, process it in place,
    /// and either retire it or push both halves of its bisection.
    fn run_sequential(
        &self,
        engine: &ClauseEngine<'_>,
        domain: &IntervalBox,
        stats: &mut SolverStats,
        scratch: &mut ClauseScratch,
        fuel_charged: &mut usize,
    ) -> SatResult {
        let mut stack: Vec<IntervalBox> = vec![domain.clone()];
        // Pruned boxes are recycled as the upper halves of later splits, so
        // the steady-state loop allocates nothing: popping moves a box out
        // of the stack, contraction narrows it in place, and
        // `split_widest_into` reuses pooled storage.
        let mut pool: Vec<IntervalBox> = Vec::new();
        while let Some(mut region) = stack.pop() {
            nncps_fault::panic_point(nncps_fault::SITE_SOLVER_BOX_POP);
            if nncps_fault::fuel_exhaustion(nncps_fault::SITE_SOLVER_BOX_POP) {
                self.budget.exhaust_fuel();
            }
            // Governance poll: charge the instructions executed since the
            // last pop, then check cancellation, fuel, and deadline (in
            // that order) before the solver's own box budget.
            let delta = (scratch.instructions_executed - *fuel_charged) as u64;
            *fuel_charged = scratch.instructions_executed;
            if let Some(reason) = self.budget.charge_and_check(delta) {
                return SatResult::Unknown(reason);
            }
            // Check-before-pop box budget: the reported `boxes_explored`
            // never exceeds `max_boxes`.
            if stats.boxes_explored >= self.max_boxes {
                return SatResult::Unknown(ExhaustionReason::Boxes(self.max_boxes));
            }
            stats.boxes_explored += 1;
            match self.process_box(engine, scratch, &mut region) {
                BoxOutcome::Pruned => {
                    stats.boxes_pruned += 1;
                    pool.push(region);
                }
                BoxOutcome::Sat => return SatResult::DeltaSat(region),
                BoxOutcome::Split => {
                    stats.bisections += 1;
                    let mut right = pool.pop().unwrap_or_default();
                    region.split_widest_into(&mut right);
                    // Depth-first exploration; pushing the halves in this
                    // order keeps the search biased toward the lower corner,
                    // which is as good as any deterministic choice.
                    stack.push(right);
                    stack.push(region);
                }
            }
        }
        SatResult::Unsat
    }

    /// How many boxes each worker explores depth-first per parallel round.
    ///
    /// Large enough to amortize the per-round scoped-thread spawn
    /// (tens of microseconds) against real contraction work; small enough
    /// that speculative subtrees stop quickly once a verdict is found.
    const BOXES_PER_WORKER: usize = 64;

    /// Speculative parallel depth-first search: each round pops the top
    /// `threads` boxes off the stack as subtree roots and lets one worker
    /// per root run a plain depth-first exploration of its subtree, capped
    /// at [`Self::BOXES_PER_WORKER`] boxes.  Leftover sub-stacks are merged
    /// back in depth-first order, so the top root's pending boxes end up on
    /// top again.
    ///
    /// The top-priority worker therefore follows *exactly* the sequential
    /// depth-first path (in cap-sized chunks), while the remaining workers
    /// speculate on the boxes the sequential search would visit next.
    /// Consequences:
    ///
    /// * UNSAT verdicts visit exactly the same search tree as the
    ///   sequential solver (all boxes must be refuted either way);
    /// * a δ-SAT verdict is found after exploring at most ~`threads ×` the
    ///   sequential box count (the speculation bound), never exponentially
    ///   more, and the reported witness is the one from the
    ///   highest-priority subtree that round — deterministic for a fixed
    ///   thread count;
    /// * budget (`Unknown`) verdicts can therefore fire earlier than
    ///   sequentially on δ-SAT queries; give the budget `threads ×`
    ///   headroom when enabling threads.
    ///
    /// The first round starts from a single root, so shallow searches run
    /// inline ([`nncps_parallel::parallel_map_owned`] spawns no threads for
    /// a single item) and never pay for parallelism.
    fn solve_clause_parallel(
        &self,
        engine: &ClauseEngine<'_>,
        domain: &IntervalBox,
        stats: &mut SolverStats,
        threads: usize,
    ) -> SatResult {
        let mut stack = vec![domain.clone()];
        while !stack.is_empty() {
            // Governance poll at the round head.  Fuel-limited solves never
            // reach this path (they force the sequential search), so only
            // the non-deterministic limits — cancellation and the
            // wall-clock deadline — can trip here.
            if let Some(reason) = self.budget.check() {
                return SatResult::Unknown(reason);
            }
            // Budget accounting: the round's per-root caps are sized so
            // their sum never exceeds the remaining allowance, making
            // `max_boxes` a hard limit — the reported `boxes_explored`
            // never overshoots it, mirroring the sequential search's
            // check-before-pop behavior.
            let remaining_budget = self.max_boxes.saturating_sub(stats.boxes_explored);
            if remaining_budget == 0 {
                return SatResult::Unknown(ExhaustionReason::Boxes(self.max_boxes));
            }
            let workers = threads.min(stack.len()).min(remaining_budget);
            let round_total = remaining_budget.min(workers * Self::BOXES_PER_WORKER);
            let base_cap = round_total / workers;
            let extra = round_total % workers;
            // `split_off` keeps order: `roots` runs bottom → top of stack.
            // The leftover boxes from `round_total` go to the topmost
            // (highest-priority) roots, which follow the sequential path.
            let roots: Vec<(IntervalBox, usize)> = stack
                .split_off(stack.len() - workers)
                .into_iter()
                .enumerate()
                .map(|(i, root)| (root, base_cap + usize::from(i >= workers - extra)))
                .collect();
            let results = nncps_parallel::parallel_map_owned(roots, threads, |(root, cap)| {
                self.explore_subtree(engine, root, cap)
            });
            // Merge bottom → top: the last δ-SAT outcome seen is the one
            // with the highest depth-first priority (closest to the top of
            // the stack), which keeps the reported witness deterministic.
            // Leftover sub-stacks are re-pushed in the same order, so the
            // top root's pending boxes end up back on top.
            let mut sat = None;
            let mut leftovers = Vec::with_capacity(workers);
            for result in results {
                stats.boxes_explored += result.explored;
                stats.boxes_pruned += result.pruned;
                stats.bisections += result.bisections;
                stats.instructions_executed += result.instructions_executed;
                stats.specialized_tape_len_sum += result.specialized_tape_len_sum;
                stats.newton_cuts += result.newton_cuts;
                if let Some(region) = result.sat {
                    sat = Some(region);
                }
                leftovers.push(result.leftover);
            }
            if let Some(region) = sat {
                return SatResult::DeltaSat(region);
            }
            for leftover in leftovers {
                stack.extend(leftover);
            }
        }
        SatResult::Unsat
    }

    /// Depth-first exploration of one subtree, stopping at a δ-SAT box or
    /// after `cap` boxes; the unexplored remainder is returned as `leftover`
    /// (bottom → top, i.e. ready to be pushed back onto the main stack).
    ///
    /// Each call owns its scratch buffers and box pool, so workers never
    /// contend; within the (up to `cap`-box) subtree walk the loop is
    /// allocation-free just like the sequential search.
    fn explore_subtree(
        &self,
        engine: &ClauseEngine<'_>,
        root: IntervalBox,
        cap: usize,
    ) -> SubtreeResult {
        let mut result = SubtreeResult::default();
        let mut scratch = engine.scratch();
        let mut stack = vec![root];
        let mut pool: Vec<IntervalBox> = Vec::new();
        while let Some(mut region) = stack.pop() {
            nncps_fault::panic_point(nncps_fault::SITE_SOLVER_BOX_POP);
            // Cooperative cancellation: stop the subtree walk early (the
            // unexplored remainder is preserved as leftover) so the round
            // head can surface the structured reason promptly.
            if self.budget.is_cancelled() {
                stack.push(region);
                break;
            }
            result.explored += 1;
            match self.process_box(engine, &mut scratch, &mut region) {
                BoxOutcome::Pruned => {
                    result.pruned += 1;
                    pool.push(region);
                }
                BoxOutcome::Sat => {
                    result.sat = Some(region);
                    break;
                }
                BoxOutcome::Split => {
                    result.bisections += 1;
                    let mut right = pool.pop().unwrap_or_default();
                    region.split_widest_into(&mut right);
                    stack.push(right);
                    stack.push(region);
                }
            }
            if result.explored >= cap {
                break;
            }
        }
        let (instructions, tape_len_sum, cuts) = scratch.take_counters();
        result.instructions_executed = instructions;
        result.specialized_tape_len_sum = tape_len_sum;
        result.newton_cuts = cuts;
        result.leftover = stack;
        result
    }
}

/// Outcome of one worker's capped depth-first subtree exploration.
#[derive(Debug, Default)]
struct SubtreeResult {
    /// δ-SAT box found in the subtree, if any.
    sat: Option<IntervalBox>,
    /// Boxes popped (and therefore counted against the budget).
    explored: usize,
    /// Boxes discarded by contraction or feasibility checks.
    pruned: usize,
    /// Bisections performed.
    bisections: usize,
    /// Tape instructions executed by the worker.
    instructions_executed: usize,
    /// Tape-length sum over the worker's boxes.
    specialized_tape_len_sum: usize,
    /// Derivative-guided cuts applied by the worker.
    newton_cuts: usize,
    /// Unexplored remainder of the subtree (bottom → top).
    leftover: Vec<IntervalBox>,
}

impl Default for DeltaSolver {
    fn default() -> Self {
        DeltaSolver::new(1e-3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nncps_expr::Expr;

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
    fn satisfiable_conjunction_returns_witness() {
        // x^2 + y^2 <= 1 and x >= 0.5 is satisfiable.
        let formula = Formula::all_of([
            Constraint::le(x().powi(2) + y().powi(2), 1.0),
            Constraint::ge(x(), 0.5),
        ]);
        let solver = DeltaSolver::new(1e-3);
        let result = solver.solve(&formula, &square_domain(2.0));
        let witness = result.witness().expect("should be delta-sat");
        assert!(witness[0] >= 0.5 - 1e-2);
        assert!(witness[0] * witness[0] + witness[1] * witness[1] <= 1.0 + 1e-2);
    }

    #[test]
    fn unsatisfiable_conjunction_is_refuted() {
        // x^2 + y^2 <= 0.25 and x >= 1 cannot hold on [-2, 2]^2.
        let formula = Formula::all_of([
            Constraint::le(x().powi(2) + y().powi(2), 0.25),
            Constraint::ge(x(), 1.0),
        ]);
        let solver = DeltaSolver::new(1e-3);
        let (result, stats) = solver.solve_with_stats(&formula, &square_domain(2.0));
        assert!(result.is_unsat(), "expected unsat, got {result}");
        assert!(stats.boxes_explored >= 1);
    }

    #[test]
    fn nonlinear_transcendental_queries() {
        // sin(x) >= 0.5 on [0, pi] is satisfiable.
        let sat = Formula::atom(Constraint::ge(x().sin(), 0.5));
        let domain = IntervalBox::from_bounds(&[(0.0, std::f64::consts::PI)]);
        let solver = DeltaSolver::new(1e-4);
        assert!(solver.solve(&sat, &domain).is_delta_sat());

        // tanh(x) >= 1.5 is unsatisfiable everywhere.
        let unsat = Formula::atom(Constraint::ge(x().tanh(), 1.5));
        let domain = IntervalBox::from_bounds(&[(-50.0, 50.0)]);
        assert!(solver.solve(&unsat, &domain).is_unsat());

        // exp(x) <= 0 is unsatisfiable.
        let unsat = Formula::atom(Constraint::le(x().exp(), 0.0));
        let domain = IntervalBox::from_bounds(&[(-10.0, 10.0)]);
        assert!(solver.solve(&unsat, &domain).is_unsat());
    }

    #[test]
    fn disjunction_finds_a_satisfiable_branch() {
        // (x <= -3) ∨ (x >= 3) on [-1, 5].
        let formula = Formula::any_of([Constraint::le(x(), -3.0), Constraint::ge(x(), 3.0)]);
        let domain = IntervalBox::from_bounds(&[(-1.0, 5.0)]);
        let solver = DeltaSolver::new(1e-3);
        let result = solver.solve(&formula, &domain);
        let witness = result.witness().expect("delta-sat");
        assert!(witness[0] >= 3.0 - 1e-2);
    }

    #[test]
    fn empty_formula_cases() {
        let solver = DeltaSolver::new(1e-3);
        let domain = square_domain(1.0);
        assert!(solver.solve(&Formula::falsum(), &domain).is_unsat());
        assert!(solver.solve(&Formula::verum(), &domain).is_delta_sat());
        let empty_domain = IntervalBox::from_bounds(&[(1.0, -1.0), (0.0, 1.0)]);
        assert!(solver.solve(&Formula::verum(), &empty_domain).is_unsat());
    }

    #[test]
    fn tight_equality_is_delta_decided() {
        // x^2 = 2 has the solution sqrt(2); the solver must find it to within delta.
        let formula = Formula::atom(Constraint::eq(x().powi(2), 2.0));
        let domain = IntervalBox::from_bounds(&[(0.0, 2.0)]);
        let solver = DeltaSolver::new(1e-6);
        let result = solver.solve(&formula, &domain);
        let witness = result.witness().expect("delta-sat");
        assert!((witness[0] - 2.0_f64.sqrt()).abs() < 1e-3);
    }

    #[test]
    fn box_budget_exhaustion_reports_unknown() {
        // A hard-to-refute query with an absurdly small budget.
        let formula = Formula::atom(Constraint::le(
            (x() * 37.0).sin() * (y() * 53.0).cos(),
            -0.999_999,
        ));
        let solver = DeltaSolver::new(1e-9).with_max_boxes(3);
        let (result, stats) = solver.solve_with_stats(&formula, &square_domain(10.0));
        assert!(matches!(
            result,
            SatResult::Unknown(ExhaustionReason::Boxes(3))
        ));
        // The box budget is a hard limit, reported exactly.
        assert_eq!(stats.boxes_explored, 3);
    }

    #[test]
    fn solve_conjunction_api() {
        let constraints = vec![
            Constraint::ge(x(), 0.0),
            Constraint::le(x(), 1.0),
            Constraint::eq(y() - x(), 0.0),
        ];
        let solver = DeltaSolver::new(1e-3);
        let (result, stats) = solver.solve_conjunction(&constraints, &square_domain(2.0));
        assert!(result.is_delta_sat());
        assert_eq!(stats.clauses_examined, 1);
        let w = result.witness().unwrap();
        assert!((w[0] - w[1]).abs() < 1e-2);
    }

    /// A query with `min`/`max`/`abs` choice sites.
    fn choosy_query() -> (Formula, IntervalBox) {
        let w = (x() * 3.0)
            .sin()
            .abs()
            .max((y() * 2.0).cos())
            .min(x() + y());
        (Formula::atom(Constraint::eq(w, 0.25)), square_domain(3.0))
    }

    /// A 24-layer ReLU ladder — the shape of a compiled NN controller.
    /// Unit-scale weights keep the signal alive through all layers, so the
    /// search has to descend (and decide ReLUs) to reach a verdict.
    fn deep_relu_ladder() -> Expr {
        let mut out = x() * 0.9 + y() * 0.1;
        for i in 0..24 {
            let w = 1.0 + 0.01 * (i % 5) as f64;
            let b = 0.01 * (i % 3) as f64;
            out = (out * w + b).max(Expr::constant(0.0)) - 0.01;
        }
        out
    }

    /// The queries the equivalence tests sweep, each with the solver it
    /// runs under: a mix of SAT, UNSAT, and deep-search shapes over the
    /// operators the pipeline uses, `min`/`max`/`abs`-heavy controller
    /// shapes, and a box-budget exhaustion.
    fn differential_queries() -> Vec<(DeltaSolver, Formula, IntervalBox)> {
        let solver = DeltaSolver::new(1e-4);
        let (choosy, choosy_domain) = choosy_query();
        let grad_dot_f = (x() * -2.0) * x() + (y() * -2.0) * y();
        let outside_x0 = Formula::or(vec![
            Formula::atom(Constraint::le(x(), -0.5)),
            Formula::atom(Constraint::ge(x(), 0.5)),
            Formula::atom(Constraint::le(y(), -0.5)),
            Formula::atom(Constraint::ge(y(), 0.5)),
        ]);
        vec![
            (
                solver.clone(),
                Formula::all_of([
                    Constraint::le(x().powi(2) + y().powi(2), 1.0),
                    Constraint::ge(x(), 0.5),
                ]),
                square_domain(2.0),
            ),
            (
                solver.clone(),
                Formula::all_of([
                    Constraint::le(x().powi(2) + y().powi(2), 0.25),
                    Constraint::ge(x(), 1.0),
                ]),
                square_domain(2.0),
            ),
            (
                solver.clone(),
                Formula::atom(Constraint::eq(x().powi(2), 2.0)),
                IntervalBox::from_bounds(&[(0.0, 2.0), (0.0, 1.0)]),
            ),
            // Clipped controller shape.
            (
                solver.clone(),
                Formula::atom(Constraint::ge(
                    (x().clone().tanh() * 2.0 + (y() * 0.5).sigmoid()).min(x() + y()),
                    0.75,
                )),
                square_domain(3.0),
            ),
            // Disjunction across partial-domain operators (sqrt/exp).
            (
                solver.clone(),
                Formula::any_of([
                    Constraint::le((x() * 3.0).sin() + y().powi(3), -4.0),
                    Constraint::ge(x().abs().sqrt() - y().exp(), 1.0),
                ]),
                square_domain(1.5),
            ),
            // The decrease condition on a stable linear system:
            // ∃ x ∈ D \ X0 : ∇W · f ≥ −γ must be UNSAT.
            (
                solver.clone(),
                Formula::and(vec![
                    outside_x0,
                    Formula::atom(Constraint::ge(grad_dot_f, -1e-6)),
                ]),
                square_domain(3.0),
            ),
            (solver.clone(), choosy, choosy_domain),
            (
                solver.clone(),
                Formula::atom(Constraint::ge(deep_relu_ladder(), 0.4)),
                square_domain(1.5),
            ),
            // A hard query under a tiny box budget: the Unknown must fire
            // after exactly the same boxes on every evaluator.
            (
                DeltaSolver::new(1e-9).with_max_boxes(20),
                Formula::atom(Constraint::le(
                    (x() * 37.0).sin() * (y() * 53.0).cos(),
                    -0.999_999,
                )),
                square_domain(10.0),
            ),
        ]
    }

    #[test]
    fn compiled_and_tree_evaluators_explore_identical_box_trees() {
        // The compiled-tape engine must be observationally
        // indistinguishable from the tree-walking reference: same verdict,
        // same witness box (bitwise), same statistics — i.e. the same search
        // tree.  Newton cuts change the tree by design, so the comparison
        // pins them off.
        for (solver, formula, domain) in differential_queries() {
            let fast = solver.clone().with_newton_cuts(false);
            let reference = solver.with_tree_evaluator();
            let (fast_result, fast_stats) = fast.solve_with_stats(&formula, &domain);
            let (ref_result, ref_stats) = reference.solve_with_stats(&formula, &domain);
            assert_eq!(fast_stats, ref_stats, "stats diverge on {formula}");
            match (&fast_result, &ref_result) {
                (SatResult::DeltaSat(a), SatResult::DeltaSat(b)) => {
                    assert_eq!(a, b, "witness boxes diverge on {formula}");
                }
                (SatResult::Unsat, SatResult::Unsat) => {}
                (SatResult::Unknown(a), SatResult::Unknown(b)) => {
                    assert_eq!(a, b, "unknown reasons diverge on {formula}");
                }
                (a, b) => panic!("verdicts diverge on {formula}: {a} vs {b}"),
            }
        }
    }

    #[test]
    fn newton_cuts_agree_on_verdicts_and_shrink_the_search() {
        let mut some_query_got_cheaper = false;
        for (solver, formula, domain) in differential_queries() {
            let without = solver.clone().with_newton_cuts(false);
            let with_cuts = solver;
            let (a, sa) = with_cuts.solve_with_stats(&formula, &domain);
            let (b, sb) = without.solve_with_stats(&formula, &domain);
            assert_eq!(a.is_unsat(), b.is_unsat(), "verdict diverges on {formula}");
            assert_eq!(a.is_delta_sat(), b.is_delta_sat(), "on {formula}");
            // A δ-SAT witness found through cuts must still satisfy the
            // δ-weakened query.
            if let SatResult::DeltaSat(region) = &a {
                let witness = region.midpoint();
                assert!(domain.contains_point(&witness), "witness left the domain");
            }
            if sa.boxes_explored < sb.boxes_explored {
                some_query_got_cheaper = true;
            }
            assert!(
                sa.boxes_explored <= sb.boxes_explored,
                "cuts must never grow the sequential search ({formula}): {} vs {}",
                sa.boxes_explored,
                sb.boxes_explored
            );
        }
        assert!(some_query_got_cheaper, "cuts never fired on any query");
    }

    #[test]
    fn precompiled_queries_solve_identically() {
        for (solver, formula, domain) in differential_queries() {
            let compiled = CompiledFormula::compile(&formula);
            let (a, sa) = solver.solve_with_stats(&formula, &domain);
            let (b, sb) = solver.solve_compiled_with_stats(&compiled, &domain);
            assert_eq!(sa, sb);
            assert_eq!(a.witness(), b.witness());
            assert_eq!(a.is_unsat(), b.is_unsat());
        }
    }

    #[test]
    fn parallel_search_agrees_with_sequential_verdicts() {
        let queries: Vec<(Formula, IntervalBox)> = vec![
            // Satisfiable conjunction.
            (
                Formula::all_of([
                    Constraint::le(x().powi(2) + y().powi(2), 1.0),
                    Constraint::ge(x(), 0.5),
                ]),
                square_domain(2.0),
            ),
            // Unsatisfiable conjunction.
            (
                Formula::all_of([
                    Constraint::le(x().powi(2) + y().powi(2), 0.25),
                    Constraint::ge(x(), 1.0),
                ]),
                square_domain(2.0),
            ),
            // Tight equality in one dimension.
            (
                Formula::atom(Constraint::eq(x().powi(2), 2.0)),
                IntervalBox::from_bounds(&[(0.0, 2.0)]),
            ),
        ];
        for (formula, domain) in &queries {
            let sequential = DeltaSolver::new(1e-4).solve(formula, domain);
            for threads in [0, 2, 4] {
                let solver = DeltaSolver::new(1e-4).with_threads(threads);
                assert_eq!(solver.threads(), threads);
                let parallel = solver.solve(formula, domain);
                // Verdict kinds must agree; δ-SAT witnesses must satisfy the
                // query even if they come from a different box.
                assert_eq!(parallel.is_unsat(), sequential.is_unsat());
                assert_eq!(parallel.is_delta_sat(), sequential.is_delta_sat());
            }
        }
    }

    #[test]
    fn parallel_search_is_deterministic_per_thread_count() {
        let formula = Formula::atom(Constraint::eq(x().powi(2) + y().powi(2), 1.0));
        let solver = DeltaSolver::new(1e-5).with_threads(3);
        let a = solver.solve(&formula, &square_domain(2.0));
        let b = solver.solve(&formula, &square_domain(2.0));
        assert_eq!(a.witness(), b.witness());
        let w = a.witness().expect("the unit circle intersects the domain");
        assert!((w[0] * w[0] + w[1] * w[1] - 1.0).abs() < 1e-2);
    }

    #[test]
    fn parallel_search_does_not_degenerate_to_breadth_first() {
        // Regression test: a weakly-contracting δ-SAT query whose witness
        // sits deep in the search tree.  An earlier parallel implementation
        // processed the whole stack per round (breadth-first), exploring
        // 30–70× more boxes than the sequential search and turning tight
        // budgets into spurious Unknowns.  The speculative-DFS search must
        // stay within the documented `threads ×` bound.
        let formula = Formula::atom(Constraint::eq((x() * 4.0).sin() * (y() * 4.0).cos(), 0.25));
        let domain = square_domain(3.0);
        let (seq_result, seq_stats) = DeltaSolver::new(1e-6).solve_with_stats(&formula, &domain);
        assert!(seq_result.is_delta_sat());
        for threads in [2usize, 4] {
            let budget = threads * seq_stats.boxes_explored + threads * 64;
            let solver = DeltaSolver::new(1e-6)
                .with_threads(threads)
                .with_max_boxes(budget);
            let (result, stats) = solver.solve_with_stats(&formula, &domain);
            assert!(
                result.is_delta_sat(),
                "threads={threads}: expected delta-sat within {budget} boxes, got {result} \
                 after {} boxes (sequential: {})",
                stats.boxes_explored,
                seq_stats.boxes_explored
            );
        }
    }

    #[test]
    fn parallel_budget_exhaustion_reports_unknown() {
        let formula = Formula::atom(Constraint::le(
            (x() * 37.0).sin() * (y() * 53.0).cos(),
            -0.999_999,
        ));
        let solver = DeltaSolver::new(1e-9).with_max_boxes(5).with_threads(4);
        let (result, stats) = solver.solve_with_stats(&formula, &square_domain(10.0));
        assert!(matches!(
            result,
            SatResult::Unknown(ExhaustionReason::Boxes(5))
        ));
        // The speculative workers' per-round caps sum to at most the
        // remaining allowance, so the budget never overshoots.
        assert!(stats.boxes_explored <= 5);
    }

    #[test]
    fn instrumentation_counters_are_populated_but_not_compared() {
        let formula = Formula::atom(Constraint::ge(x().tanh() + y(), 0.4));
        let domain = square_domain(1.0);
        // Precision 1e-2 puts the whole domain inside the Newton window, so
        // the monotone query is collapsed on the very first box.
        let (result, stats) = DeltaSolver::new(1e-2).solve_with_stats(&formula, &domain);
        assert!(result.is_delta_sat());
        assert!(stats.instructions_executed > 0);
        assert!(stats.specialized_tape_len_sum > 0);
        assert!(stats.newton_cuts > 0, "monotone query must be cut");
        // Equality deliberately ignores the instrumentation counters…
        let mut other = stats;
        other.instructions_executed += 1;
        other.specialized_tape_len_sum += 1;
        other.newton_cuts += 1;
        assert_eq!(stats, other);
        // …while merge accumulates them.
        let mut total = SolverStats::default();
        total.merge(&stats);
        total.merge(&stats);
        assert_eq!(total.instructions_executed, 2 * stats.instructions_executed);
        assert_eq!(total.newton_cuts, 2 * stats.newton_cuts);
        // The tree reference executes no tape instructions.
        let (_, tree_stats) = DeltaSolver::new(1e-4)
            .with_tree_evaluator()
            .solve_with_stats(&formula, &domain);
        assert_eq!(tree_stats.instructions_executed, 0);
    }

    #[test]
    fn display_and_accessors() {
        let solver = DeltaSolver::default()
            .with_max_boxes(10)
            .with_contraction_rounds(2);
        assert_eq!(solver.precision(), 1e-3);
        assert!(solver.newton_cuts());
        let reference = solver.clone().with_tree_evaluator();
        assert!(!reference.newton_cuts());
        assert_eq!(format!("{}", SatResult::Unsat), "unsat");
        // The Boxes display string is byte-compatible with the pre-governance
        // reason (scenario fingerprints hash it).
        assert_eq!(
            format!("{}", SatResult::Unknown(ExhaustionReason::Boxes(7))),
            "unknown (box budget of 7 exhausted)"
        );
        let sat = SatResult::DeltaSat(IntervalBox::from_point(&[1.0]));
        assert!(format!("{sat}").contains("delta-sat"));
        assert!(SatResult::Unsat.witness().is_none());
    }

    #[test]
    #[should_panic(expected = "precision must be positive")]
    fn zero_precision_panics() {
        let _ = DeltaSolver::new(0.0);
    }

    /// A deep-search δ-SAT query for the governance tests: enough boxes to
    /// burn nontrivial fuel before the witness is found.
    fn deep_query() -> (Formula, IntervalBox) {
        (
            Formula::atom(Constraint::eq((x() * 4.0).sin() * (y() * 4.0).cos(), 0.25)),
            square_domain(3.0),
        )
    }

    #[test]
    fn fuel_exhaustion_reports_unknown_with_the_limit() {
        // `deep_query` completes in a few thousand instructions; a fuel
        // limit well under that total is guaranteed to exhaust mid-search.
        let (formula, domain) = deep_query();
        let solver = DeltaSolver::new(1e-6).with_budget(Budget::unlimited().with_fuel(300));
        let (result, stats) = solver.solve_with_stats(&formula, &domain);
        assert!(
            matches!(result, SatResult::Unknown(ExhaustionReason::Fuel(300))),
            "got {result}"
        );
        assert!(solver.budget().fuel_used() >= 300);
        assert!(stats.instructions_executed > 0);
    }

    #[test]
    fn fuel_limited_runs_are_thread_count_invariant() {
        // The acceptance criterion of the governance layer: a fuel-exhausted
        // solve yields the same verdict and the same search statistics at
        // any configured thread count, because a fuel limit forces the
        // sequential search path.
        let (formula, domain) = deep_query();
        let runs: Vec<(SatResult, SolverStats)> = [1usize, 2, 4]
            .into_iter()
            .map(|threads| {
                DeltaSolver::new(1e-6)
                    .with_threads(threads)
                    .with_budget(Budget::unlimited().with_fuel(500))
                    .solve_with_stats(&formula, &domain)
            })
            .collect();
        for (result, stats) in &runs {
            assert!(
                matches!(result, SatResult::Unknown(ExhaustionReason::Fuel(500))),
                "expected fuel exhaustion, got {result}"
            );
            assert_eq!(stats.boxes_explored, runs[0].1.boxes_explored);
            assert_eq!(stats.instructions_executed, runs[0].1.instructions_executed);
            assert_eq!(stats.bisections, runs[0].1.bisections);
        }
    }

    #[test]
    fn fuel_exhaustion_on_choice_sites_is_thread_count_invariant() {
        // A fuel limit forces the sequential path, so on a query with
        // `min`/`max`/`abs` choice sites the truncation point — verdict,
        // search statistics, and consumed fuel — is identical at any
        // configured thread count.
        let (formula, domain) = choosy_query();
        let mut runs = Vec::new();
        for threads in [1usize, 2, 4] {
            let solver = DeltaSolver::new(1e-6)
                .with_threads(threads)
                .with_budget(Budget::unlimited().with_fuel(700));
            let (result, stats) = solver.solve_with_stats(&formula, &domain);
            assert!(
                matches!(result, SatResult::Unknown(ExhaustionReason::Fuel(700))),
                "threads={threads}: got {result}"
            );
            runs.push((threads, stats, solver.budget().fuel_used()));
        }
        let (_, first, first_fuel) = runs[0];
        for (threads, stats, fuel) in &runs {
            assert_eq!(
                stats.boxes_explored, first.boxes_explored,
                "threads={threads}"
            );
            assert_eq!(stats.bisections, first.bisections, "threads={threads}");
            assert_eq!(
                stats.instructions_executed, first.instructions_executed,
                "threads={threads}"
            );
            assert_eq!(*fuel, first_fuel, "threads={threads}");
        }
    }

    #[test]
    fn generous_fuel_does_not_change_the_result() {
        let (formula, domain) = deep_query();
        let free = DeltaSolver::new(1e-6);
        let governed =
            DeltaSolver::new(1e-6).with_budget(Budget::unlimited().with_fuel(u64::MAX / 2));
        let (a, sa) = free.solve_with_stats(&formula, &domain);
        let (b, sb) = governed.solve_with_stats(&formula, &domain);
        assert_eq!(a.witness(), b.witness());
        assert_eq!(sa, sb);
        // The budget's fuel mirror agrees with the solver's own counter.
        assert_eq!(
            governed.budget().fuel_used(),
            sb.instructions_executed as u64
        );
    }

    #[test]
    fn cancellation_stops_sequential_and_parallel_searches() {
        let (formula, domain) = deep_query();
        for threads in [1usize, 4] {
            let budget = Budget::unlimited();
            budget.cancel();
            let solver = DeltaSolver::new(1e-6)
                .with_threads(threads)
                .with_budget(budget);
            let (result, stats) = solver.solve_with_stats(&formula, &domain);
            assert!(
                matches!(result, SatResult::Unknown(ExhaustionReason::Cancelled)),
                "threads={threads}: got {result}"
            );
            assert_eq!(stats.boxes_explored, 0);
        }
    }

    #[test]
    fn expired_deadline_reports_unknown() {
        let (formula, domain) = deep_query();
        let solver = DeltaSolver::new(1e-6)
            .with_budget(Budget::unlimited().with_deadline(std::time::Duration::ZERO));
        let (result, _) = solver.solve_with_stats(&formula, &domain);
        assert!(matches!(
            result,
            SatResult::Unknown(ExhaustionReason::Deadline)
        ));
    }

    #[test]
    fn unsat_of_barrier_style_query() {
        // A miniature version of the paper's query (5):
        // W(x) = x^2 + y^2, f = (-x, -y) (stable linear system).
        // ∃ (x, y) ∈ D \ X0 : ∇W · f >= -γ  should be UNSAT because
        // ∇W · f = -2(x^2 + y^2) < -γ outside a neighbourhood of the origin.
        let grad_dot_f = (x() * -2.0) * x() + (y() * -2.0) * y();
        let gamma = 1e-6;
        // D \ X0 where X0 = [-0.5, 0.5]^2 encoded as a disjunction of strips.
        let outside_x0 = Formula::or(vec![
            Formula::atom(Constraint::le(x(), -0.5)),
            Formula::atom(Constraint::ge(x(), 0.5)),
            Formula::atom(Constraint::le(y(), -0.5)),
            Formula::atom(Constraint::ge(y(), 0.5)),
        ]);
        let query = Formula::and(vec![
            outside_x0,
            Formula::atom(Constraint::ge(grad_dot_f, -gamma)),
        ]);
        let domain = square_domain(3.0);
        let solver = DeltaSolver::new(1e-3);
        let result = solver.solve(&query, &domain);
        assert!(result.is_unsat(), "expected unsat, got {result}");
    }
}
