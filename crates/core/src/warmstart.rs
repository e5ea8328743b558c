//! Warm-start state shared across a scenario-family sweep.
//!
//! Running a family of related verification problems as N independent cold
//! runs repeats three expensive, *deterministic* computations:
//!
//! 1. **query compilation** — DNF conversion, CSE tape lowering, and
//!    symbolic differentiation of every δ-SAT query (family members sharing
//!    dynamics re-derive structurally identical queries),
//! 2. **seed-trace simulation** — members sharing dynamics, initial set,
//!    seed, and simulation parameters integrate exactly the same
//!    trajectories,
//! 3. **candidate synthesis** — the LP over identical constraint rows has
//!    one solution, re-solved per member.
//!
//! A [`WarmStart`] memoizes all three behind 128-bit structural identity
//! keys ([`Fingerprint`]).  Every entry is a pure function of its key, so a
//! hit returns *bit-identical* data to recomputation: verdicts, witnesses,
//! certificates, solver statistics, and therefore whole batch reports are
//! byte-identical with warm start on or off, at any thread count.  (The
//! differential tests in `tests/family_warm_start.rs` assert this.)
//!
//! The struct is `Sync`: a sweep shares one instance across its scenario
//! workers (entries are published under short-lived mutexes and read through
//! `Arc`s).
//!
//! Every layer lives in memory only; what outlives the process is the
//! whole-outcome store of [`VerificationSession`](crate::VerificationSession),
//! which makes the inner layers moot for a repeated request.
//!
//! A warm start is also the *only* way the pipeline runs: a cold request
//! (and a scenario run without a sweep cache) uses a fresh, empty,
//! throwaway instance, so every lookup misses and calls the same builder a
//! shared instance would call.  A builder may fail — the seed-trace batch
//! is governed by the request's budget — and a failed build publishes
//! nothing, so a tripped budget can never leave a truncated bundle behind
//! for a later request to reuse.
//!
//! # Examples
//!
//! ```
//! use nncps_barrier::{
//!     ClosedLoopSystem, SafetySpec, VerificationRequest, VerificationSession,
//! };
//! use nncps_expr::Expr;
//! use nncps_interval::IntervalBox;
//! use nncps_sim::ExprDynamics;
//!
//! let plant = ExprDynamics::new(vec![-Expr::var(0), -Expr::var(1)]);
//! let spec = SafetySpec::rectangular(
//!     IntervalBox::from_bounds(&[(-0.5, 0.5), (-0.5, 0.5)]),
//!     IntervalBox::from_bounds(&[(-3.0, 3.0), (-3.0, 3.0)]),
//! );
//! let system = ClosedLoopSystem::from_dynamics(&plant, spec);
//! let session = VerificationSession::new();
//! let cold = session.verify(&VerificationRequest::over(&system).cold());
//! let first = session.verify(&VerificationRequest::over(&system));
//! // A second request differing only in δ-SAT precision still shares the
//! // seed-trace bundle and the first LP candidate through the warm layers.
//! let config = nncps_barrier::VerificationConfig {
//!     delta: 2e-4,
//!     ..nncps_barrier::VerificationConfig::default()
//! };
//! let varied = session.verify(&VerificationRequest::over(&system).with_config(config));
//! assert!(cold.is_certified() && first.is_certified() && varied.is_certified());
//! assert!(session.stats().warm.trace_hits >= 1);
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use nncps_deltasat::CompilationCache;
use nncps_expr::Fingerprint;
use nncps_sim::Trace;

use crate::{GeneratorFunction, SynthesisError};

/// Hit/miss counters of every warm-start layer (reporting only — the
/// counters never influence results).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WarmStartStats {
    /// δ-SAT queries served from the compilation cache.
    pub formula_hits: usize,
    /// δ-SAT queries compiled (cache misses).
    pub formula_misses: usize,
    /// Simulation bundles (seed-trace sets, counterexample traces) reused.
    pub trace_hits: usize,
    /// Simulation bundles computed and published (a failed build counts
    /// in neither counter).
    pub trace_misses: usize,
    /// LP candidates served from the synthesis memo.
    pub candidate_hits: usize,
    /// LP candidates solved.
    pub candidate_misses: usize,
}

/// Shared memoization state for a family sweep (see the [module
/// docs](self)).
#[derive(Debug, Default)]
pub struct WarmStart {
    compilation: CompilationCache,
    traces: Mutex<HashMap<Fingerprint, Arc<Vec<Trace>>>>,
    candidates: Mutex<HashMap<Fingerprint, Arc<Result<GeneratorFunction, SynthesisError>>>>,
    trace_hits: AtomicUsize,
    trace_misses: AtomicUsize,
    candidate_hits: AtomicUsize,
    candidate_misses: AtomicUsize,
}

impl WarmStart {
    /// Creates empty warm-start state.
    pub fn new() -> Self {
        WarmStart::default()
    }

    /// The δ-SAT query compilation cache.
    pub fn compilation(&self) -> &CompilationCache {
        &self.compilation
    }

    /// Returns the memoized simulation bundle for `key`, computing and
    /// publishing it with `build` on a miss.  A failed build publishes
    /// nothing and hands its error back, so the next request for `key`
    /// builds again.
    ///
    /// The caller owns the key discipline: `key` must cover every input of
    /// `build` (dynamics structure, initial data, integrator parameters), so
    /// that a hit is bit-identical to recomputing.
    pub fn traces_or_insert<E>(
        &self,
        key: Fingerprint,
        build: impl FnOnce() -> Result<Vec<Trace>, E>,
    ) -> Result<Arc<Vec<Trace>>, E> {
        // Poisoned locks are recovered, not propagated: every entry is a
        // pure function of its key built *outside* the lock, so a sweep
        // member that panicked while holding the map cannot leave a torn
        // entry behind — a crashed member must not poison its siblings.
        if let Some(found) = self
            .traces
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
        {
            self.trace_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(found));
        }
        // Build outside the lock: simulation can be slow and other workers
        // should not serialize behind it.  A racing duplicate is dropped —
        // both builds are bit-identical by the key discipline.
        let built = Arc::new(build()?);
        self.trace_misses.fetch_add(1, Ordering::Relaxed);
        nncps_fault::panic_point(nncps_fault::SITE_WARMSTART_INSERT);
        let mut map = self.traces.lock().unwrap_or_else(PoisonError::into_inner);
        Ok(Arc::clone(
            map.entry(key).or_insert_with(|| Arc::clone(&built)),
        ))
    }

    /// Returns the memoized candidate-synthesis result for `key`, solving
    /// and publishing it with `build` on a miss.  Same key discipline as
    /// [`WarmStart::traces_or_insert`]; the natural key is
    /// [`CandidateSynthesizer::fingerprint`](crate::CandidateSynthesizer::fingerprint).
    pub fn candidate_or_insert(
        &self,
        key: Fingerprint,
        build: impl FnOnce() -> Result<GeneratorFunction, SynthesisError>,
    ) -> Arc<Result<GeneratorFunction, SynthesisError>> {
        if let Some(found) = self
            .candidates
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
        {
            self.candidate_hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(found);
        }
        let built = Arc::new(build());
        self.candidate_misses.fetch_add(1, Ordering::Relaxed);
        nncps_fault::panic_point(nncps_fault::SITE_WARMSTART_INSERT);
        let mut map = self
            .candidates
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        Arc::clone(map.entry(key).or_insert_with(|| Arc::clone(&built)))
    }

    /// Snapshot of the hit/miss counters across all layers.
    pub fn stats(&self) -> WarmStartStats {
        WarmStartStats {
            formula_hits: self.compilation.hits(),
            formula_misses: self.compilation.misses(),
            trace_hits: self.trace_hits.load(Ordering::Relaxed),
            trace_misses: self.trace_misses.load(Ordering::Relaxed),
            candidate_hits: self.candidate_hits.load(Ordering::Relaxed),
            candidate_misses: self.candidate_misses.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::convert::Infallible;

    #[test]
    fn trace_memo_hits_on_identical_keys() {
        let warm = WarmStart::new();
        let key = Fingerprint(1, 2);
        let mut builds = 0;
        let mut build = || {
            builds += 1;
            Ok::<_, Infallible>(vec![Trace::new(2)])
        };
        let Ok(a) = warm.traces_or_insert(key, &mut build);
        let Ok(b) = warm.traces_or_insert(key, &mut build);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(builds, 1);
        let Ok(other) =
            warm.traces_or_insert(Fingerprint(1, 3), || Ok::<_, Infallible>(Vec::new()));
        assert!(other.is_empty());
        let stats = warm.stats();
        assert_eq!((stats.trace_hits, stats.trace_misses), (1, 2));
    }

    #[test]
    fn failed_trace_builds_publish_nothing() {
        let warm = WarmStart::new();
        let key = Fingerprint(4, 4);
        assert_eq!(
            warm.traces_or_insert(key, || Err("tripped")),
            Err("tripped")
        );
        assert_eq!(warm.stats(), WarmStartStats::default());
        // The next lookup misses and builds: nothing was left behind.
        let built = warm.traces_or_insert(key, || Ok::<_, &str>(vec![Trace::new(1)]));
        assert_eq!(built.map(|traces| traces.len()), Ok(1));
        assert_eq!((warm.stats().trace_hits, warm.stats().trace_misses), (0, 1));
    }

    #[test]
    fn candidate_memo_stores_errors_too() {
        let warm = WarmStart::new();
        let key = Fingerprint(7, 7);
        let first = warm.candidate_or_insert(key, || Err(SynthesisError::NoTraceData));
        let second = warm.candidate_or_insert(key, || panic!("must not re-run"));
        assert!(Arc::ptr_eq(&first, &second));
        assert!(matches!(*second, Err(SynthesisError::NoTraceData)));
        assert_eq!(warm.stats().candidate_hits, 1);
        assert_eq!(warm.stats().candidate_misses, 1);
    }
}
