//! Hierarchical span timers.
//!
//! A span is an RAII guard: entering pushes its name onto a thread-local
//! stack (so nested spans compose into `parent/child` paths) and drop
//! records elapsed wall time into the global registry's span aggregates.
//! When telemetry is disabled (no sink attached — the default), entering
//! a span is a single relaxed atomic increment and drop is free; the
//! instrumented hot paths cost nothing measurable. The benchmark harness
//! in `benchmark/` times those paths end to end with no sink attached.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Whether spans time themselves (flipped by [`crate::set_enabled`]).
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Spans elided while disabled — the promised "no-op counter bump".
static SPANS_ELIDED: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Names of the spans currently open on this thread, outermost first.
    static STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// Enables or disables span timing process-wide. Binaries flip this on
/// when a sink is attached (`--trace`, `--json`); libraries never touch
/// it.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether span timing is currently on.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// How many span entries were elided while disabled (process lifetime;
/// not cleared by registry resets).
pub fn spans_elided() -> u64 {
    SPANS_ELIDED.load(Ordering::Relaxed)
}

/// An open span; created by [`crate::span!`] or [`Span::enter`]. Closing
/// (drop) records into [`crate::global`]. Guards must drop in LIFO order
/// (the natural order of `let` bindings); an out-of-order drop would
/// misattribute the path of spans opened in between.
#[must_use = "a span records on drop; binding it to `_` drops immediately"]
pub struct Span {
    /// `None` when telemetry is disabled (the no-op fast path).
    active: Option<(Instant, String)>,
}

impl Span {
    /// Opens a span named `name` nested under this thread's open spans.
    pub fn enter(name: &'static str) -> Span {
        if !enabled() {
            SPANS_ELIDED.fetch_add(1, Ordering::Relaxed);
            return Span { active: None };
        }
        let path = STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            stack.push(name);
            stack.join("/")
        });
        Span {
            active: Some((Instant::now(), path)),
        }
    }

    /// The full `a/b/c` path, when active.
    pub fn path(&self) -> Option<&str> {
        self.active.as_ref().map(|(_, p)| p.as_str())
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((start, path)) = self.active.take() {
            let elapsed_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            STACK.with(|stack| {
                stack.borrow_mut().pop();
            });
            crate::global().record_span(&path, elapsed_ns);
        }
    }
}

/// Opens a [`Span`] named by the argument; bind the result to keep it
/// open for the enclosing scope:
///
/// ```
/// domatic_telemetry::set_enabled(true);
/// {
///     let _span = domatic_telemetry::span!("doc.outer");
///     let _inner = domatic_telemetry::span!("doc.inner");
/// }
/// let snap = domatic_telemetry::global().snapshot();
/// assert_eq!(snap.spans["doc.outer/doc.inner"].count, 1);
/// domatic_telemetry::set_enabled(false);
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::Span::enter($name)
    };
}

/// Bumps the named global counter (handle cached per call-site, so the
/// steady-state cost is one relaxed atomic add).
#[macro_export]
macro_rules! count {
    ($name:expr, $delta:expr) => {{
        static HANDLE: ::std::sync::OnceLock<$crate::registry::Counter> =
            ::std::sync::OnceLock::new();
        HANDLE
            .get_or_init(|| $crate::global().counter($name))
            .add($delta);
    }};
    ($name:expr) => {
        $crate::count!($name, 1)
    };
}
