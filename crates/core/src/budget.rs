//! Solve budgets: iteration caps, stall cutoffs, and wall-clock deadlines.
//!
//! The anytime solvers (tabu, simulated annealing, and the racing
//! portfolio) need an explicit notion of *how long to keep improving*.
//! [`Budget`] is the plain-data answer — it lives inside
//! [`crate::solver::SolverConfig`], participates in `PartialEq`, and is
//! folded into [`crate::hash::config_hash`] so the serve cache keys
//! per-budget.
//!
//! Wall-clock time is read through the injectable [`Clock`] trait: the
//! registry solvers use [`SystemClock`], tests use [`ManualClock`] to
//! drive deadlines without sleeping. Determinism contract: with
//! `deadline_ms = None` a solve is a pure function of (instance, config)
//! — iteration and stall cutoffs fire at exact iteration counts. A
//! wall-clock deadline is a best-effort *extra* cutoff whose firing point
//! depends on machine speed; fix the iteration budget when byte-identical
//! reruns matter.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// How much work an anytime solver may spend improving its incumbent.
///
/// All three cutoffs compose: the solve stops at whichever fires first.
/// `max_iterations` and `stall_iterations` are deterministic;
/// `deadline_ms` depends on the machine (see the module docs).
#[derive(Clone, Debug, PartialEq)]
pub struct Budget {
    /// Total local-search iterations across the whole solve: every move
    /// evaluation ticks once, and the tick that reaches this cap returns
    /// `false`, so a solve makes at most `max_iterations − 1` moves. The
    /// primary, deterministic cutoff.
    pub max_iterations: u64,
    /// Optional wall-clock deadline in milliseconds, measured from solve
    /// start on the solver's [`Clock`].
    pub deadline_ms: Option<u64>,
    /// Stop after this many consecutive iterations without improving the
    /// incumbent schedule; `0` disables the stall cutoff.
    pub stall_iterations: u64,
}

impl Budget {
    /// The default budget: 20k iterations, no deadline, no stall cutoff —
    /// small enough that test-sized instances solve in milliseconds,
    /// large enough that the local searches converge on them.
    pub fn new() -> Self {
        Budget {
            max_iterations: 20_000,
            deadline_ms: None,
            stall_iterations: 0,
        }
    }

    /// Sets the iteration cap.
    pub fn max_iterations(mut self, iters: u64) -> Self {
        self.max_iterations = iters;
        self
    }

    /// Sets the wall-clock deadline in milliseconds.
    pub fn deadline_ms(mut self, ms: u64) -> Self {
        self.deadline_ms = Some(ms);
        self
    }

    /// Sets the stall cutoff (`0` disables it).
    pub fn stall_iterations(mut self, iters: u64) -> Self {
        self.stall_iterations = iters;
        self
    }
}

impl Default for Budget {
    fn default() -> Self {
        Self::new()
    }
}

/// A monotone millisecond clock the anytime solvers read deadlines from.
///
/// Injectable so tests can drive wall-clock cutoffs deterministically
/// ([`ManualClock`]) while production uses [`SystemClock`].
pub trait Clock: Send + Sync {
    /// Milliseconds elapsed since some fixed per-clock origin.
    fn now_ms(&self) -> u64;
}

/// The real monotonic clock (`std::time::Instant` under the hood).
#[derive(Debug)]
pub struct SystemClock {
    origin: Instant,
}

impl SystemClock {
    /// A clock whose origin is the moment of construction.
    pub fn new() -> Self {
        SystemClock {
            origin: Instant::now(),
        }
    }
}

impl Default for SystemClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for SystemClock {
    fn now_ms(&self) -> u64 {
        self.origin.elapsed().as_millis() as u64
    }
}

/// A hand-advanced clock for deadline tests: time moves only when
/// [`ManualClock::advance`] is called.
#[derive(Debug, Default)]
pub struct ManualClock {
    now: AtomicU64,
}

impl ManualClock {
    /// A manual clock at time 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances the clock by `ms` milliseconds.
    pub fn advance(&self, ms: u64) {
        self.now.fetch_add(ms, Ordering::SeqCst);
    }
}

impl Clock for ManualClock {
    fn now_ms(&self) -> u64 {
        self.now.load(Ordering::SeqCst)
    }
}

/// Tracks one solve's spend against a [`Budget`].
///
/// Usage: call [`BudgetMeter::tick`] once per local-search iteration and
/// stop when it returns `false`; call [`BudgetMeter::note_improvement`]
/// whenever the incumbent improves (resets the stall counter).
pub struct BudgetMeter<'a> {
    budget: &'a Budget,
    clock: &'a dyn Clock,
    start_ms: u64,
    iterations: u64,
    since_improvement: u64,
    stopped: bool,
}

/// How often (in iterations) the meter re-reads the clock; a power of two
/// so the check compiles to a mask.
const DEADLINE_CHECK_EVERY: u64 = 64;

impl<'a> BudgetMeter<'a> {
    /// A fresh meter; reads the clock once to anchor the deadline.
    pub fn new(budget: &'a Budget, clock: &'a dyn Clock) -> Self {
        BudgetMeter {
            budget,
            clock,
            start_ms: clock.now_ms(),
            iterations: 0,
            since_improvement: 0,
            stopped: false,
        }
    }

    /// Consumes one iteration. Returns `true` while the solve may keep
    /// going, `false` once any cutoff has fired (sticky thereafter).
    pub fn tick(&mut self) -> bool {
        if self.stopped {
            return false;
        }
        self.iterations += 1;
        self.since_improvement += 1;
        if self.iterations >= self.budget.max_iterations {
            self.stopped = true;
        }
        if self.budget.stall_iterations > 0
            && self.since_improvement >= self.budget.stall_iterations
        {
            self.stopped = true;
        }
        if let Some(deadline) = self.budget.deadline_ms {
            // Re-read the clock only every few iterations — and always on
            // the first — so deadline checks stay off the hot path.
            if self.iterations % DEADLINE_CHECK_EVERY == 1
                && self.clock.now_ms().saturating_sub(self.start_ms) >= deadline
            {
                self.stopped = true;
            }
        }
        !self.stopped
    }

    /// Resets the stall counter; call when the incumbent improves.
    pub fn note_improvement(&mut self) {
        self.since_improvement = 0;
    }

    /// Whether any cutoff has fired.
    pub fn exhausted(&self) -> bool {
        self.stopped
    }

    /// Iterations consumed so far.
    pub fn iterations(&self) -> u64 {
        self.iterations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iteration_cap_fires_exactly() {
        let budget = Budget::new().max_iterations(3);
        let clock = ManualClock::new();
        let mut m = BudgetMeter::new(&budget, &clock);
        assert!(m.tick());
        assert!(m.tick());
        assert!(!m.tick()); // the third tick reaches the cap: two moves ran
        assert!(!m.tick()); // sticky
        assert_eq!(m.iterations(), 3);
        assert!(m.exhausted());
    }

    #[test]
    fn stall_cutoff_resets_on_improvement() {
        let budget = Budget::new().max_iterations(1000).stall_iterations(3);
        let clock = ManualClock::new();
        let mut m = BudgetMeter::new(&budget, &clock);
        assert!(m.tick());
        assert!(m.tick());
        m.note_improvement();
        assert!(m.tick());
        assert!(m.tick());
        assert!(!m.tick()); // 3 ticks since the improvement
    }

    #[test]
    fn zero_stall_disables_the_cutoff() {
        let budget = Budget::new().max_iterations(100).stall_iterations(0);
        let clock = ManualClock::new();
        let mut m = BudgetMeter::new(&budget, &clock);
        for _ in 0..99 {
            assert!(m.tick());
        }
        assert!(!m.tick());
    }

    #[test]
    fn manual_clock_drives_the_deadline() {
        let budget = Budget::new().max_iterations(u64::MAX).deadline_ms(10);
        let clock = ManualClock::new();
        let mut m = BudgetMeter::new(&budget, &clock);
        assert!(m.tick()); // t=0: first tick checks the clock, inside deadline
        clock.advance(11);
        assert!(!m.tick_until_deadline_check());
        assert!(m.exhausted());
    }

    impl BudgetMeter<'_> {
        /// Ticks until the next clock re-read happens, returning its result.
        fn tick_until_deadline_check(&mut self) -> bool {
            loop {
                let before = self.iterations;
                let alive = self.tick();
                if !alive || (before + 1) % DEADLINE_CHECK_EVERY == 1 {
                    return alive;
                }
            }
        }
    }

    #[test]
    fn budget_builder_sets_every_field() {
        let b = Budget::new()
            .max_iterations(7)
            .deadline_ms(5)
            .stall_iterations(2);
        assert_eq!(
            b,
            Budget {
                max_iterations: 7,
                deadline_ms: Some(5),
                stall_iterations: 2,
            }
        );
        assert_eq!(Budget::new(), Budget::default());
    }
}
