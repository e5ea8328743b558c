//! Compiled δ-SAT queries: clauses lowered to evaluation tapes.
//!
//! The branch-and-prune loop touches every constraint of a clause at every
//! box — once inside the HC4 contractor and once for feasibility
//! classification.  [`CompiledClause`] lowers all constraint expressions of
//! one conjunction into a single [`Tape`] (sharing common subexpressions
//! across constraints), and runs both operations on it:
//!
//! * **feasibility** performs *one* forward tape sweep and classifies every
//!   constraint from its root slot, so subexpressions shared between
//!   constraints are evaluated once per box instead of once per constraint;
//! * **contraction** is the classic HC4 forward/backward scheme: the forward
//!   sweep records every slot's enclosure in a reusable buffer, and the
//!   backward pass walks the program once per occurrence using those
//!   recorded values — O(n) per revise instead of the O(n²) of re-evaluating
//!   subtrees at every node.
//!
//! On top of the value tape, a clause can lazily compile a **gradient
//! bundle** — the partial derivatives of every constraint expression,
//! produced by [`Expr::differentiate`] and lowered through the same CSE tape
//! compiler — which powers the solver's derivative-guided contraction
//! ([`CompiledClause::derivative_cuts`]): monotonicity cuts collapse
//! dimensions on which every undecided constraint is monotone, and an
//! interval-Newton step narrows equality constraints.
//!
//! All scratch state lives in a caller-owned [`ClauseScratch`], so the
//! steady-state per-box loop performs **zero heap allocations**.
//!
//! # Determinism
//!
//! Plain evaluation is bit-identical to the tree-walking reference: the
//! same verdicts, the same narrowed domains, in the same visit order as
//! [`hc4_revise`](crate::hc4_revise) /
//! [`contract_clause`](crate::contract_clause) and
//! [`Constraint::feasibility`].  The solver exploits this to offer a
//! differential-testing mode
//! ([`DeltaSolver::with_tree_evaluator`](crate::DeltaSolver::with_tree_evaluator))
//! that explores exactly the same box tree.  Derivative-guided cuts *do*
//! change the search tree (that is their point — fewer boxes); they are a
//! solver-level option with a bit-identical opt-out
//! ([`DeltaSolver::with_newton_cuts`](crate::DeltaSolver::with_newton_cuts)).

use std::sync::OnceLock;

use nncps_expr::{Expr, Tape, TapeInstr};
use nncps_interval::{Interval, IntervalBox};

use crate::contractor::{invert_binary, invert_powi, invert_unary, total_width};
use crate::{Constraint, Feasibility, Formula, Relation};

/// One constraint of a compiled clause: the tape slot of its expression plus
/// the data needed for classification and contraction.
#[derive(Debug, Clone)]
struct CompiledAtom {
    root: usize,
    admissible: Interval,
    source: Constraint,
}

/// Joint feasibility of a clause (a conjunction of constraints) over a box.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClauseFeasibility {
    /// Every constraint holds at every point of the box.
    Satisfied,
    /// Some constraint holds at no point of the box.
    Violated,
    /// Interval reasoning cannot decide the box.
    Undecided,
}

/// Outcome of one derivative-guided contraction attempt
/// ([`CompiledClause::derivative_cuts`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CutOutcome {
    /// No cut applied; the box (and all recorded scratch state) is unchanged.
    Unchanged,
    /// At least one dimension was narrowed or collapsed.
    Narrowed,
    /// A Newton step proved an equality constraint has no solution in the
    /// box.
    Infeasible,
}

/// Reusable scratch buffers for evaluating, contracting, and cutting a
/// compiled clause.
///
/// Create one per worker with [`CompiledClause::scratch`] and pass it to
/// every call; the buffers grow to a high-water mark on first use and are
/// reused allocation-free afterwards.
#[derive(Debug, Default, Clone)]
pub struct ClauseScratch {
    /// Forward interval value of every tape slot.
    slots: Vec<Interval>,
    /// How many leading `slots` are valid for the *current* region bits —
    /// the forward-sweep cache: revises and the final classification of one
    /// propagation pass share a single incrementally grown sweep, reset
    /// whenever any variable domain changes.
    valid: usize,
    /// Backward work stack of `(slot, required)` pairs.
    stack: Vec<(usize, Interval)>,
    /// Per-atom verdict recorded by the last feasibility sweep.
    atom_status: Vec<Feasibility>,
    /// Forward values of the gradient-bundle tape.
    grad_slots: Vec<Interval>,
    /// Forward values of the value tape at the box midpoint (Newton step).
    point_slots: Vec<Interval>,
    /// The box midpoint (Newton step).
    mid: Vec<f64>,
    /// Degenerate box at the midpoint (Newton step).
    point_box: IntervalBox,
    /// Instrumentation: tape instructions executed through this scratch.
    pub(crate) instructions_executed: usize,
    /// Instrumentation: Σ of tape lengths over processed boxes.
    pub(crate) specialized_tape_len_sum: usize,
    /// Instrumentation: derivative-guided cuts applied.
    pub(crate) newton_cuts: usize,
}

impl ClauseScratch {
    /// Moves the instrumentation counters out of the scratch (resetting
    /// them), so the solver can fold them into its statistics.
    pub(crate) fn take_counters(&mut self) -> (usize, usize, usize) {
        let counters = (
            self.instructions_executed,
            self.specialized_tape_len_sum,
            self.newton_cuts,
        );
        self.instructions_executed = 0;
        self.specialized_tape_len_sum = 0;
        self.newton_cuts = 0;
        counters
    }
}

/// Whether a tape instruction cannot clip variable domains: only `sqrt`
/// and `ln` have HC4 inversions that narrow their operand even when the
/// requirement envelops the recorded value (they clip to the function's
/// domain), so a slot is clip-free iff it is not one of those and all of its
/// operands are.
fn instr_clip_free(instr: TapeInstr, flags: &[bool]) -> bool {
    match instr {
        TapeInstr::Const(..) | TapeInstr::Var(_) => true,
        TapeInstr::Unary(op, a) => {
            !matches!(op, nncps_expr::UnaryOp::Sqrt | nncps_expr::UnaryOp::Ln) && flags[a]
        }
        TapeInstr::Binary(_, a, b) => flags[a] && flags[b],
        TapeInstr::Powi(a, _) => flags[a],
    }
}

/// What one backward revise did to the variable domains.
enum Revised {
    /// Some domain became empty: the constraint is infeasible on the box.
    Infeasible,
    /// At least one domain bound changed (bit-wise).
    Narrowed,
    /// No domain bit changed — the forward-sweep cache stays valid.
    Unchanged,
}

/// The gradient bundle of a clause: one tape holding every
/// `∂(constraint k)/∂x_i`, compiled with shared CSE slots.
#[derive(Debug, Clone)]
struct GradientBundle {
    tape: Tape,
    /// Variables differentiated against (`tape.num_vars()` of the value
    /// tape); gradients with respect to later dimensions are identically 0.
    num_vars: usize,
}

impl GradientBundle {
    /// The gradient root index of `(atom, var)`.
    fn root(&self, atom: usize, var: usize) -> usize {
        self.tape.root_slot(atom * self.num_vars + var)
    }
}

/// A conjunction of constraints compiled to one shared evaluation tape.
///
/// # Examples
///
/// ```
/// use nncps_deltasat::{CompiledClause, ClauseFeasibility, Constraint};
/// use nncps_expr::Expr;
/// use nncps_interval::IntervalBox;
///
/// let x = Expr::var(0);
/// let clause = CompiledClause::compile(&[
///     Constraint::le(x.clone().powi(2), 4.0),
///     Constraint::ge(x, 0.0),
/// ]);
/// let mut scratch = clause.scratch();
///
/// // One shared sweep decides both constraints.
/// let inside = IntervalBox::from_bounds(&[(0.5, 1.5)]);
/// assert_eq!(clause.feasibility(&inside, &mut scratch), ClauseFeasibility::Satisfied);
///
/// // Contraction narrows x to [0, 2] (same fixpoint as the tree contractor).
/// let mut region = IntervalBox::from_bounds(&[(-10.0, 10.0)]);
/// assert!(clause.contract(&mut region, 4, &mut scratch));
/// assert!(region[0].lo() >= -1e-9 && region[0].hi() <= 2.0 + 1e-6);
/// ```
#[derive(Debug, Clone)]
pub struct CompiledClause {
    tape: Tape,
    atoms: Vec<CompiledAtom>,
    /// Per-slot flag: the slot's dependency cone contains no `sqrt`/`ln`.
    /// Those are the only operators whose HC4 inversion can clip variable
    /// domains even when the requirement envelops the recorded value, so a
    /// clip-free subtree whose requirement does not bite is provably a
    /// backward no-op and the walk skips it wholesale.
    clip_free: Vec<bool>,
    /// Lazily compiled gradient bundle (symbolic differentiation + tape
    /// lowering happen on first use, or eagerly via
    /// [`CompiledClause::ensure_gradients`]).
    grad: OnceLock<GradientBundle>,
}

impl CompiledClause {
    /// Compiles a conjunction of constraints into one shared tape.
    pub fn compile(clause: &[Constraint]) -> Self {
        let exprs: Vec<Expr> = clause.iter().map(|c| c.expr().clone()).collect();
        let tape = Tape::compile_many(&exprs);
        let atoms = clause
            .iter()
            .enumerate()
            .map(|(k, c)| CompiledAtom {
                root: tape.root_slot(k),
                admissible: c.admissible_interval(),
                source: c.clone(),
            })
            .collect();
        let mut clip_free = Vec::with_capacity(tape.num_slots());
        for i in 0..tape.num_slots() {
            let flag = instr_clip_free(tape.instr(i), &clip_free);
            clip_free.push(flag);
        }
        CompiledClause {
            tape,
            atoms,
            clip_free,
            grad: OnceLock::new(),
        }
    }

    /// Number of constraints in the clause.
    pub fn num_atoms(&self) -> usize {
        self.atoms.len()
    }

    /// The constraints the clause was compiled from, in order.
    pub fn constraints(&self) -> impl Iterator<Item = &Constraint> {
        self.atoms.iter().map(|a| &a.source)
    }

    /// The shared evaluation tape.
    pub fn tape(&self) -> &Tape {
        &self.tape
    }

    /// Creates a scratch buffer sized for this clause.
    pub fn scratch(&self) -> ClauseScratch {
        ClauseScratch {
            slots: Vec::with_capacity(self.tape.num_slots()),
            stack: Vec::with_capacity(16),
            atom_status: Vec::with_capacity(self.atoms.len()),
            ..ClauseScratch::default()
        }
    }

    /// Compiles the gradient bundle now instead of lazily on the first
    /// derivative-guided cut, so callers can keep symbolic differentiation
    /// and tape lowering out of timed solver sections.
    ///
    /// # Examples
    ///
    /// ```
    /// use nncps_deltasat::{CompiledClause, Constraint};
    /// use nncps_expr::Expr;
    ///
    /// let clause = CompiledClause::compile(&[Constraint::ge(Expr::var(0).tanh(), 0.5)]);
    /// clause.ensure_gradients(); // d tanh(x)/dx compiled here, not mid-search
    /// ```
    pub fn ensure_gradients(&self) {
        let _ = self.gradient_bundle();
    }

    fn gradient_bundle(&self) -> &GradientBundle {
        self.grad.get_or_init(|| {
            let num_vars = self.tape.num_vars();
            let mut roots = Vec::with_capacity(self.atoms.len() * num_vars);
            for atom in &self.atoms {
                for var in 0..num_vars {
                    roots.push(atom.source.expr().differentiate(var).simplified());
                }
            }
            GradientBundle {
                tape: Tape::compile_many(&roots),
                num_vars,
            }
        })
    }

    /// Classifies the whole clause over a box with **one** forward tape
    /// sweep, deciding every constraint from its root slot.
    ///
    /// Bit-identical to calling [`Constraint::feasibility`] per constraint
    /// (first certain violation wins), but shared subexpressions are
    /// evaluated once instead of once per constraint.
    pub fn feasibility(
        &self,
        region: &IntervalBox,
        scratch: &mut ClauseScratch,
    ) -> ClauseFeasibility {
        // Standalone entry point: the caller may have changed the region
        // since the last call, so the sweep cache starts cold.
        scratch.valid = 0;
        self.classify(region, scratch)
    }

    /// Classification body shared by [`CompiledClause::feasibility`] and
    /// [`CompiledClause::propagate`]; reuses whatever prefix of the forward
    /// sweep is still valid for the current region bits.
    fn classify(&self, region: &IntervalBox, scratch: &mut ClauseScratch) -> ClauseFeasibility {
        self.ensure_prefix(region, scratch, self.tape.num_slots());
        scratch.atom_status.clear();
        scratch
            .atom_status
            .resize(self.atoms.len(), Feasibility::CertainlySatisfied);
        let mut all_satisfied = true;
        for (k, atom) in self.atoms.iter().enumerate() {
            match atom.source.feasibility_of_value(scratch.slots[atom.root]) {
                Feasibility::CertainlySatisfied => {}
                Feasibility::CertainlyViolated => return ClauseFeasibility::Violated,
                Feasibility::Unknown => {
                    scratch.atom_status[k] = Feasibility::Unknown;
                    all_satisfied = false;
                }
            }
        }
        if all_satisfied {
            ClauseFeasibility::Satisfied
        } else {
            ClauseFeasibility::Undecided
        }
    }

    /// Grows the shared forward sweep to cover at least `count` slots of the
    /// tape, evaluating only the missing suffix.  `scratch.valid` tracks how
    /// much of the sweep matches the current region bits; callers reset it
    /// to `0` whenever the region may have changed.  Reused values are
    /// bit-identical by construction — they were computed on identical
    /// inputs.  Only freshly evaluated slots are charged to
    /// `instructions_executed` (and therefore to fuel).
    fn ensure_prefix(&self, region: &IntervalBox, scratch: &mut ClauseScratch, count: usize) {
        if count > scratch.valid {
            let mut slots = std::mem::take(&mut scratch.slots);
            slots.truncate(scratch.valid);
            self.tape
                .eval_interval_extend_into(region, &mut slots, count);
            scratch.slots = slots;
            scratch.instructions_executed += count - scratch.valid;
            scratch.valid = count;
        }
    }

    /// Applies HC4-revise for every constraint repeatedly, up to `rounds`
    /// sweeps or until a fixpoint is (approximately) reached — the compiled
    /// counterpart of [`contract_clause`](crate::contract_clause), reaching
    /// bit-identical fixpoints.
    ///
    /// Returns `false` as soon as any constraint is proven infeasible.
    pub fn contract(
        &self,
        region: &mut IntervalBox,
        rounds: usize,
        scratch: &mut ClauseScratch,
    ) -> bool {
        scratch.valid = 0;
        self.contract_inner(region, rounds, scratch)
    }

    /// One full propagation of the clause over a box: contraction to the
    /// (approximate) fixpoint followed by feasibility classification, all
    /// sharing a single incrementally grown forward sweep — a revise that
    /// changes no domain bit leaves the sweep valid for the next revise and
    /// for the classification, so fixpointed boxes cost one sweep instead of
    /// one per revise plus one for classification.
    ///
    /// Returns [`ClauseFeasibility::Violated`] both when classification
    /// certainly refutes the box and when contraction empties it; results
    /// (narrowed region, verdict, recorded per-atom statuses) are
    /// bit-identical to [`CompiledClause::contract`] followed by
    /// [`CompiledClause::feasibility`].
    pub fn propagate(
        &self,
        region: &mut IntervalBox,
        rounds: usize,
        scratch: &mut ClauseScratch,
    ) -> ClauseFeasibility {
        scratch.valid = 0;
        if !self.contract_inner(region, rounds, scratch) || region.is_empty() {
            return ClauseFeasibility::Violated;
        }
        self.classify(region, scratch)
    }

    fn contract_inner(
        &self,
        region: &mut IntervalBox,
        rounds: usize,
        scratch: &mut ClauseScratch,
    ) -> bool {
        for _ in 0..rounds {
            let before = total_width(region);
            for atom in &self.atoms {
                // Roots are emitted in atom order, so the shared sweep only
                // ever grows within a pass; after a fixpointed pass every
                // revise runs on cached forward values.
                self.ensure_prefix(region, scratch, atom.root + 1);
                match self.revise_backward(atom.root, atom.admissible, region, scratch) {
                    Revised::Infeasible => return false,
                    Revised::Narrowed => scratch.valid = 0,
                    Revised::Unchanged => {}
                }
            }
            let after = total_width(region);
            // Stop iterating once a sweep no longer makes meaningful progress.
            if before - after <= 1e-12 * before.max(1.0) {
                break;
            }
        }
        true
    }

    /// The backward half of one HC4-revise: a non-recursive walk from the
    /// constraint's root using the recorded forward values (the caller
    /// guarantees the shared sweep covers the root's dependency-cone prefix
    /// — topological slot order makes that the prefix `0..=root`).
    ///
    /// The walk visits shared slots once per *occurrence* (once per
    /// incoming edge in the expression DAG), exactly mirroring the
    /// tree-walking reference; requirements depend only on the recorded
    /// forward values, so the accumulated variable narrowing is identical.
    /// Domain updates that change no bit are skipped, which both reports
    /// `Unchanged` exactly and leaves the region bit-for-bit as the
    /// always-assigning reference would.
    fn revise_backward(
        &self,
        root: usize,
        admissible: Interval,
        region: &mut IntervalBox,
        scratch: &mut ClauseScratch,
    ) -> Revised {
        let mut narrowed_any = false;
        scratch.stack.clear();
        scratch.stack.push((root, admissible));
        while let Some((slot, required)) = scratch.stack.pop() {
            let narrowed = scratch.slots[slot].intersect(&required);
            if narrowed.is_empty() {
                return Revised::Infeasible;
            }
            // When the requirement does not bite (the recorded value
            // survives bit-for-bit) and the slot's cone is free of the
            // domain-clipping `sqrt`/`ln` inversions, every inversion below
            // produces a requirement enveloping its recorded value, so the
            // whole subtree walk is a proven no-op — skip it.  Fixpointed
            // contraction rounds collapse from full DAG walks to the thin
            // spine where requirements still cut.
            if self.clip_free[slot]
                && narrowed.lo().to_bits() == scratch.slots[slot].lo().to_bits()
                && narrowed.hi().to_bits() == scratch.slots[slot].hi().to_bits()
            {
                continue;
            }
            match self.tape.instr(slot) {
                // Variable-free slots (literal or folded constants) carry no
                // domains to narrow.
                TapeInstr::Const(..) => {}
                TapeInstr::Var(i) => {
                    let dom = region[i].intersect(&narrowed);
                    if dom.is_empty() {
                        return Revised::Infeasible;
                    }
                    if dom.lo().to_bits() != region[i].lo().to_bits()
                        || dom.hi().to_bits() != region[i].hi().to_bits()
                    {
                        region[i] = dom;
                        narrowed_any = true;
                    }
                }
                TapeInstr::Unary(op, a) => {
                    let a_req = invert_unary(op, narrowed, scratch.slots[a]);
                    scratch.stack.push((a, a_req));
                }
                TapeInstr::Binary(op, a, b) => {
                    let (a_req, b_req) =
                        invert_binary(op, narrowed, scratch.slots[a], scratch.slots[b]);
                    // LIFO order makes the walk a depth-first pre-order:
                    // push the right operand first so the left is processed
                    // first, matching the recursive reference.
                    scratch.stack.push((b, b_req));
                    scratch.stack.push((a, a_req));
                }
                TapeInstr::Powi(a, n) => {
                    let a_req = invert_powi(n, narrowed, scratch.slots[a]);
                    scratch.stack.push((a, a_req));
                }
            }
        }
        if narrowed_any {
            Revised::Narrowed
        } else {
            Revised::Unchanged
        }
    }

    /// Derivative-guided contraction of one box: a **monotonicity cut**
    /// collapses every dimension on which each undecided constraint is
    /// monotone in its favorable direction (satisfiability over the box is
    /// then equivalent to satisfiability over the face, so the search loses
    /// no solutions and skips the subdivision of that dimension entirely),
    /// and an **interval-Newton step** narrows equality constraints through
    /// the mean-value form `g(x) ∈ g(m) + Σ ∂g·(x − m)`.
    ///
    /// Gradients come from the lazily compiled bundle
    /// ([`CompiledClause::ensure_gradients`]); enclosures that straddle zero
    /// or are undefined (kinks of `abs`/`min`/`max`, division by a range
    /// containing zero) safely disable the cut for that dimension.
    ///
    /// Uses the per-atom verdicts recorded by the last feasibility sweep;
    /// call only after a sweep returned
    /// [`ClauseFeasibility::Undecided`].
    pub fn derivative_cuts(
        &self,
        region: &mut IntervalBox,
        scratch: &mut ClauseScratch,
    ) -> CutOutcome {
        debug_assert_eq!(scratch.atom_status.len(), self.atoms.len());
        let grads = self.gradient_bundle();
        let dim = region.dim();
        let mut grad_slots = std::mem::take(&mut scratch.grad_slots);
        grads.tape.eval_interval_into(region, &mut grad_slots);
        scratch.grad_slots = grad_slots;
        scratch.instructions_executed += grads.tape.num_slots();
        let grad = |atom: usize, var: usize| -> Interval {
            if var < grads.num_vars {
                scratch.grad_slots[grads.root(atom, var)]
            } else {
                // The value tape never reads this dimension.
                Interval::singleton(0.0)
            }
        };

        let mut changed = false;

        // --- monotonicity cuts ------------------------------------------
        for i in 0..dim {
            if region[i].is_singleton() {
                continue;
            }
            let mut up_ok = true;
            let mut down_ok = true;
            for (k, atom) in self.atoms.iter().enumerate() {
                if scratch.atom_status[k] != Feasibility::Unknown {
                    continue;
                }
                let d = grad(k, i);
                if d.is_empty() {
                    up_ok = false;
                    down_ok = false;
                    break;
                }
                match atom.source.relation() {
                    Relation::Ge | Relation::Gt => {
                        up_ok &= d.lo() >= 0.0;
                        down_ok &= d.hi() <= 0.0;
                    }
                    Relation::Le | Relation::Lt => {
                        up_ok &= d.hi() <= 0.0;
                        down_ok &= d.lo() >= 0.0;
                    }
                    // An equality only tolerates a collapse when it provably
                    // does not depend on the dimension at all.
                    Relation::Eq => {
                        let independent = d.lo() == 0.0 && d.hi() == 0.0;
                        up_ok &= independent;
                        down_ok &= independent;
                    }
                }
                if !up_ok && !down_ok {
                    break;
                }
            }
            if up_ok {
                region[i] = Interval::singleton(region[i].hi());
                changed = true;
            } else if down_ok {
                region[i] = Interval::singleton(region[i].lo());
                changed = true;
            }
        }

        // --- interval Newton on equality constraints --------------------
        let has_eq = self
            .atoms
            .iter()
            .zip(&scratch.atom_status)
            .any(|(a, &s)| a.source.relation() == Relation::Eq && s == Feasibility::Unknown);
        if has_eq {
            scratch.mid.clear();
            for i in 0..dim {
                scratch.mid.push(region[i].midpoint());
            }
            scratch.point_box.clone_from(region);
            for i in 0..dim {
                scratch.point_box[i] = Interval::singleton(scratch.mid[i]);
            }
            scratch.point_slots.clear();
            for (k, atom) in self.atoms.iter().enumerate() {
                if atom.source.relation() != Relation::Eq
                    || scratch.atom_status[k] != Feasibility::Unknown
                {
                    continue;
                }
                // Enclosure of g at the midpoint (a point box keeps the
                // evaluation outward-rounded, hence sound).  Atom roots
                // ascend, so one midpoint sweep grows incrementally across
                // the clause's equality atoms.
                let mut point_slots = std::mem::take(&mut scratch.point_slots);
                let already = point_slots.len();
                self.tape.eval_interval_extend_into(
                    &scratch.point_box,
                    &mut point_slots,
                    (atom.root + 1).max(already),
                );
                let g_mid = point_slots[atom.root];
                scratch.instructions_executed += point_slots.len() - already;
                scratch.point_slots = point_slots;
                if g_mid.is_empty() {
                    continue;
                }
                for i in 0..dim.min(grads.num_vars) {
                    if region[i].is_singleton() {
                        continue;
                    }
                    let d_i = grad(k, i);
                    if d_i.is_empty() || d_i.contains(0.0) {
                        continue;
                    }
                    // rest = Σ_{j≠i} ∂g/∂x_j · (X_j − m_j)
                    let mut rest = Interval::singleton(0.0);
                    let mut sound = true;
                    for j in 0..dim {
                        if j == i {
                            continue;
                        }
                        let d_j = grad(k, j);
                        if d_j.is_empty() {
                            sound = false;
                            break;
                        }
                        rest = rest + d_j * (region[j] - Interval::singleton(scratch.mid[j]));
                    }
                    if !sound {
                        continue;
                    }
                    let newton = Interval::singleton(scratch.mid[i])
                        + (atom.admissible - g_mid - rest) / d_i;
                    let narrowed = region[i].intersect(&newton);
                    if narrowed.is_empty() {
                        return CutOutcome::Infeasible;
                    }
                    if narrowed != region[i] {
                        region[i] = narrowed;
                        changed = true;
                    }
                }
            }
        }

        if changed {
            CutOutcome::Narrowed
        } else {
            CutOutcome::Unchanged
        }
    }
}

/// A formula compiled once — DNF conversion plus per-clause tape lowering —
/// for repeated solving.
///
/// Build with [`CompiledFormula::compile`] and hand to
/// [`DeltaSolver::solve_compiled`](crate::DeltaSolver::solve_compiled); the
/// verification pipeline compiles each query up front so no per-solve
/// lowering happens inside timed sections.
///
/// # Examples
///
/// ```
/// use nncps_deltasat::{CompiledFormula, Constraint, DeltaSolver, Formula};
/// use nncps_expr::Expr;
/// use nncps_interval::IntervalBox;
///
/// let x = Expr::var(0);
/// let query = CompiledFormula::compile(&Formula::atom(Constraint::ge(x.powi(2), 2.0)));
/// let solver = DeltaSolver::new(1e-4);
/// let domain = IntervalBox::from_bounds(&[(-3.0, 3.0)]);
/// assert!(solver.solve_compiled(&query, &domain).is_delta_sat());
/// ```
#[derive(Debug, Clone)]
pub struct CompiledFormula {
    clauses: Vec<CompiledClause>,
}

impl CompiledFormula {
    /// Converts the formula to DNF and compiles each clause.
    pub fn compile(formula: &Formula) -> Self {
        CompiledFormula {
            clauses: formula
                .to_dnf()
                .iter()
                .map(|c| CompiledClause::compile(c))
                .collect(),
        }
    }

    /// The compiled DNF clauses, in solver examination order.
    pub fn clauses(&self) -> &[CompiledClause] {
        &self.clauses
    }

    /// Eagerly compiles every clause's gradient bundle (see
    /// [`CompiledClause::ensure_gradients`]), so derivative-guided solving
    /// pays no symbolic differentiation inside timed sections.
    pub fn ensure_gradients(&self) {
        for clause in &self.clauses {
            clause.ensure_gradients();
        }
    }
}

impl From<&Formula> for CompiledFormula {
    fn from(formula: &Formula) -> Self {
        CompiledFormula::compile(formula)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{contract_clause, hc4_revise};
    use nncps_expr::Expr;

    fn x() -> Expr {
        Expr::var(0)
    }

    fn y() -> Expr {
        Expr::var(1)
    }

    fn assert_boxes_bit_equal(a: &IntervalBox, b: &IntervalBox) {
        assert_eq!(a.dim(), b.dim());
        for k in 0..a.dim() {
            assert_eq!(a[k].lo().to_bits(), b[k].lo().to_bits(), "dimension {k} lo");
            assert_eq!(a[k].hi().to_bits(), b[k].hi().to_bits(), "dimension {k} hi");
        }
    }

    #[test]
    fn single_revise_matches_tree_reference_bitwise() {
        let constraints = [
            Constraint::le(x() + y(), 1.0),
            Constraint::eq(Expr::constant(2.0) * x(), 6.0),
            Constraint::ge(x().tanh() + y().powi(2), 0.5),
            Constraint::le((x() * y()).exp() - y().sqrt(), 2.0),
            Constraint::ge(x().abs().min(y().max(Expr::constant(0.5))), 0.25),
        ];
        for c in &constraints {
            let clause = CompiledClause::compile(std::slice::from_ref(c));
            let mut scratch = clause.scratch();
            let mut tree_region = IntervalBox::from_bounds(&[(-4.0, 10.0), (0.0, 10.0)]);
            let mut tape_region = tree_region.clone();
            let tree_ok = hc4_revise(c, &mut tree_region);
            // One round over a single atom is exactly one revise.
            let tape_ok = clause.contract(&mut tape_region, 1, &mut scratch);
            assert_eq!(tree_ok, tape_ok, "constraint {c}");
            if tree_ok {
                assert_boxes_bit_equal(&tree_region, &tape_region);
            }
        }
    }

    #[test]
    fn clause_contraction_matches_tree_reference_bitwise() {
        let clause_src = vec![
            Constraint::eq(x() + y(), 4.0),
            Constraint::eq(y(), 1.0),
            Constraint::le(x() * y(), 10.0),
        ];
        let compiled = CompiledClause::compile(&clause_src);
        let mut scratch = compiled.scratch();
        for rounds in [1usize, 2, 10] {
            let mut tree_region = IntervalBox::from_bounds(&[(-100.0, 100.0), (-100.0, 100.0)]);
            let mut tape_region = tree_region.clone();
            let tree_ok = contract_clause(&clause_src, &mut tree_region, rounds);
            let tape_ok = compiled.contract(&mut tape_region, rounds, &mut scratch);
            assert_eq!(tree_ok, tape_ok);
            assert_boxes_bit_equal(&tree_region, &tape_region);
        }
    }

    #[test]
    fn shared_subexpressions_are_deduplicated_across_atoms() {
        let shared = (x() * 2.0 + y()).tanh();
        let clause = vec![
            Constraint::le(shared.clone() + y(), 1.0),
            Constraint::ge(shared.clone() * x(), -1.0),
            Constraint::eq(shared, 0.25),
        ];
        let compiled = CompiledClause::compile(&clause);
        let separate: usize = clause.iter().map(|c| c.expr().node_count()).sum();
        assert!(compiled.tape().num_slots() < separate);
        assert_eq!(compiled.num_atoms(), 3);
        assert_eq!(compiled.constraints().count(), 3);
    }

    #[test]
    fn clause_feasibility_matches_per_constraint_classification() {
        let clause = vec![
            Constraint::le(x().powi(2) + y().powi(2), 1.0),
            Constraint::ge(x(), 0.5),
        ];
        let compiled = CompiledClause::compile(&clause);
        let mut scratch = compiled.scratch();
        let boxes = [
            IntervalBox::from_bounds(&[(0.55, 0.6), (0.0, 0.1)]),
            IntervalBox::from_bounds(&[(2.0, 3.0), (0.0, 0.1)]),
            IntervalBox::from_bounds(&[(0.0, 0.6), (0.0, 0.1)]),
        ];
        for region in &boxes {
            let mut all = true;
            let mut reference = ClauseFeasibility::Undecided;
            let mut decided = false;
            for c in &clause {
                match c.feasibility(region) {
                    Feasibility::CertainlySatisfied => {}
                    Feasibility::CertainlyViolated => {
                        reference = ClauseFeasibility::Violated;
                        decided = true;
                        break;
                    }
                    Feasibility::Unknown => all = false,
                }
            }
            if !decided {
                reference = if all {
                    ClauseFeasibility::Satisfied
                } else {
                    ClauseFeasibility::Undecided
                };
            }
            assert_eq!(
                compiled.feasibility(region, &mut scratch),
                reference,
                "{region}"
            );
        }
    }

    #[test]
    fn propagate_matches_contract_then_feasibility_bitwise() {
        // The solver's fused pass must narrow to the same bits and reach the
        // same verdict as the two standalone operations, on boxes that end
        // up satisfied, violated, and undecided.
        let clause = vec![
            Constraint::le(y().sin() * 0.25 - 10.0, 0.0),
            Constraint::ge(x().tanh() + y() * 0.5, 0.4),
            Constraint::ge(x().abs().min(y().max(Expr::constant(0.5))), 0.25),
        ];
        let compiled = CompiledClause::compile(&clause);
        let mut fused = compiled.scratch();
        let mut split = compiled.scratch();
        for bounds in [
            [(-1.0, 1.0), (-1.0, 1.0)],
            [(0.5, 1.0), (0.5, 1.0)],
            [(-1.0, -0.5), (-1.0, -0.9)],
        ] {
            let mut fused_region = IntervalBox::from_bounds(&bounds);
            let mut split_region = fused_region.clone();
            let verdict = compiled.propagate(&mut fused_region, 4, &mut fused);
            let reference = if !compiled.contract(&mut split_region, 4, &mut split)
                || split_region.is_empty()
            {
                ClauseFeasibility::Violated
            } else {
                compiled.feasibility(&split_region, &mut split)
            };
            assert_eq!(verdict, reference, "{bounds:?}");
            if verdict != ClauseFeasibility::Violated {
                assert_boxes_bit_equal(&fused_region, &split_region);
            }
        }
    }

    #[test]
    fn monotone_collapse_pins_decided_dimensions() {
        // g = tanh(x) + y is strictly increasing in both variables; for
        // `g >= 0.4` both dimensions collapse to their upper faces.
        let clause = vec![Constraint::ge(x().tanh() + y(), 0.4)];
        let compiled = CompiledClause::compile(&clause);
        let mut scratch = compiled.scratch();
        let mut region = IntervalBox::from_bounds(&[(-1.0, 1.0), (-1.0, 1.0)]);
        assert_eq!(
            compiled.feasibility(&region, &mut scratch),
            ClauseFeasibility::Undecided
        );
        assert_eq!(
            compiled.derivative_cuts(&mut region, &mut scratch),
            CutOutcome::Narrowed
        );
        assert!(region[0].is_singleton());
        assert_eq!(region[0].lo(), 1.0);
        assert!(region[1].is_singleton());
        assert_eq!(region[1].lo(), 1.0);
    }

    #[test]
    fn monotone_collapse_respects_relation_direction() {
        // `x + y <= c` prefers the lower faces.
        let clause = vec![Constraint::le(x() + y(), 0.0)];
        let compiled = CompiledClause::compile(&clause);
        let mut scratch = compiled.scratch();
        let mut region = IntervalBox::from_bounds(&[(-1.0, 1.0), (-1.0, 1.0)]);
        assert_eq!(
            compiled.feasibility(&region, &mut scratch),
            ClauseFeasibility::Undecided
        );
        assert_eq!(
            compiled.derivative_cuts(&mut region, &mut scratch),
            CutOutcome::Narrowed
        );
        assert_eq!(region[0].lo(), -1.0);
        assert!(region[0].is_singleton());
        assert_eq!(region[1].lo(), -1.0);
        assert!(region[1].is_singleton());
    }

    #[test]
    fn conflicting_monotonicity_blocks_the_collapse() {
        // Two undecided constraints pulling x in opposite directions.
        let clause = vec![
            Constraint::ge(x() + y(), 0.0),
            Constraint::le(x() - y(), 0.0),
        ];
        let compiled = CompiledClause::compile(&clause);
        let mut scratch = compiled.scratch();
        let mut region = IntervalBox::from_bounds(&[(-1.0, 1.0), (-4.0, 4.0)]);
        assert_eq!(
            compiled.feasibility(&region, &mut scratch),
            ClauseFeasibility::Undecided
        );
        // x cannot collapse (conflict); y CAN: up helps `x + y >= 0` and
        // also helps `x - y <= 0`.
        let outcome = compiled.derivative_cuts(&mut region, &mut scratch);
        assert_eq!(outcome, CutOutcome::Narrowed);
        assert!(!region[0].is_singleton(), "conflicted dimension untouched");
        assert!(region[1].is_singleton());
        assert_eq!(region[1].lo(), 4.0);
    }

    #[test]
    fn newton_step_narrows_equalities() {
        // x² = 2 on [1, 2]: the derivative 2x ∈ [2, 4] has fixed sign, so a
        // single Newton step contracts hard around √2.
        let clause = vec![Constraint::eq(x().powi(2), 2.0)];
        let compiled = CompiledClause::compile(&clause);
        let mut scratch = compiled.scratch();
        let mut region = IntervalBox::from_bounds(&[(1.0, 2.0)]);
        assert_eq!(
            compiled.feasibility(&region, &mut scratch),
            ClauseFeasibility::Undecided
        );
        assert_eq!(
            compiled.derivative_cuts(&mut region, &mut scratch),
            CutOutcome::Narrowed
        );
        assert!(region[0].contains(2.0_f64.sqrt()), "root kept: {region}");
        assert!(region[0].width() < 0.5, "meaningful contraction: {region}");
    }

    #[test]
    fn newton_step_proves_infeasibility_the_direct_sweep_misses() {
        // g = x − x·x = 0.3 on [0.7, 0.9]: interval dependency widens the
        // direct enclosure to [−0.11, 0.41] ∋ 0.3 (undecided), but the true
        // range [0.09, 0.21] misses 0.3 — the mean-value form sees it.
        let clause = vec![Constraint::eq(x() - x() * x(), 0.3)];
        let compiled = CompiledClause::compile(&clause);
        let mut scratch = compiled.scratch();
        let mut region = IntervalBox::from_bounds(&[(0.7, 0.9)]);
        assert_eq!(
            compiled.feasibility(&region, &mut scratch),
            ClauseFeasibility::Undecided
        );
        assert_eq!(
            compiled.derivative_cuts(&mut region, &mut scratch),
            CutOutcome::Infeasible
        );
    }

    #[test]
    fn unusable_gradients_leave_the_box_unchanged() {
        // |x| has a kink at 0: over a straddling box the derivative
        // enclosure is unusable, so no cut may fire.
        let clause = vec![Constraint::ge(x().abs(), 0.5)];
        let compiled = CompiledClause::compile(&clause);
        let mut scratch = compiled.scratch();
        let mut region = IntervalBox::from_bounds(&[(-1.0, 1.0)]);
        assert_eq!(
            compiled.feasibility(&region, &mut scratch),
            ClauseFeasibility::Undecided
        );
        assert_eq!(
            compiled.derivative_cuts(&mut region, &mut scratch),
            CutOutcome::Unchanged
        );
        assert_eq!(region[0], Interval::new(-1.0, 1.0));
    }

    #[test]
    fn dimensions_beyond_the_tape_collapse_for_free() {
        // The clause only mentions x0; x1 is unconstrained and collapses.
        let clause = vec![Constraint::ge(x().powi(2), 0.5)];
        let compiled = CompiledClause::compile(&clause);
        let mut scratch = compiled.scratch();
        let mut region = IntervalBox::from_bounds(&[(-1.0, 1.0), (-7.0, 7.0)]);
        assert_eq!(
            compiled.feasibility(&region, &mut scratch),
            ClauseFeasibility::Undecided
        );
        assert_eq!(
            compiled.derivative_cuts(&mut region, &mut scratch),
            CutOutcome::Narrowed
        );
        assert!(region[1].is_singleton());
    }

    #[test]
    fn compiled_formula_exposes_dnf_clauses() {
        let f = Formula::and(vec![
            Formula::atom(Constraint::le(x(), 1.0)),
            Formula::or(vec![
                Formula::atom(Constraint::ge(y(), 2.0)),
                Formula::atom(Constraint::le(y(), -2.0)),
            ]),
        ]);
        let compiled = CompiledFormula::compile(&f);
        assert_eq!(compiled.clauses().len(), 2);
        assert!(compiled.clauses().iter().all(|c| c.num_atoms() == 2));
        compiled.ensure_gradients();
        let via_from: CompiledFormula = (&f).into();
        assert_eq!(via_from.clauses().len(), 2);
        assert!(CompiledFormula::compile(&Formula::falsum())
            .clauses()
            .is_empty());
    }
}
