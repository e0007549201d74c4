//! In-memory span recorder and the timing wrapper around a policy.
//!
//! Everything here measures the system from outside: spans are opened
//! and closed around calls into each layer's public functions, and the
//! only hook inside a run is [`TimedScheduler`], which wraps a policy's
//! `on_quantum` — the decide step — without touching what it decides.

use dike_experiments::PolicyHandle;
use dike_machine::{PartitionPlan, SimTime, ThreadId, VCoreId};
use dike_sched_core::{Actions, Scheduler, SystemView};
use dike_scheduler::Dike;
use dike_util::json::{Num, Value};
use std::time::Instant;

/// One recorded span: a layer boundary crossed by the benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `fleet.dispatch`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Spans, kept in memory until the benchmark writes them out.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace::new()
    }
}

impl Trace {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a span that ran from `start` to `end`; returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
        });
        self.spans.len() - 1
    }

    /// Run `f` inside a span; `f` gets the span's index to parent its
    /// own spans. Returns `f`'s value and the span's index.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce(&mut Trace, usize) -> T,
    ) -> (T, usize) {
        let now = Instant::now();
        let id = self.record(name, parent, now, now);
        let out = f(self, id);
        self.spans[id].end_ns = self.ns(Instant::now());
        (out, id)
    }

    /// The span at `id`.
    pub fn span(&self, id: usize) -> &Span {
        &self.spans[id]
    }

    /// Every span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations, in seconds, of the spans called `name` under `parent`.
    pub fn durations(&self, name: &str, parent: Option<usize>) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.parent == parent)
            .map(Span::secs)
            .collect()
    }

    /// The spans as a JSON array of `{name, start_ns, end_ns, parent}`.
    pub fn to_json(&self) -> Value {
        Value::Array(
            self.spans
                .iter()
                .map(|s| {
                    Value::Object(vec![
                        ("name".into(), Value::Str(s.name.into())),
                        ("start_ns".into(), Value::Num(Num::U(s.start_ns))),
                        ("end_ns".into(), Value::Num(Num::U(s.end_ns))),
                        (
                            "parent".into(),
                            s.parent
                                .map_or(Value::Null, |p| Value::Num(Num::U(p as u64))),
                        ),
                    ])
                })
                .collect(),
        )
    }
}

/// What a policy asked for at one quantum boundary: enough to replay the
/// run's actuation against a fresh machine (see [`crate::replay`]).
#[derive(Debug, Clone, PartialEq)]
pub struct QuantumLog {
    /// Migrations, in the order the driver applies them.
    pub migrations: Vec<(ThreadId, VCoreId)>,
    /// The LLC partition plan, if any.
    pub partition: Option<PartitionPlan>,
    /// The new quantum length, if the policy changed it.
    pub set_quantum: Option<SimTime>,
}

/// A policy the benchmark can wrap: it exposes the scheduler the drivers
/// take and, when there is one, the Dike pipeline inside it.
pub trait Policy {
    /// The scheduler to drive.
    fn scheduler(&mut self) -> &mut dyn Scheduler;
    /// The same scheduler, for the driver's read-only calls.
    fn scheduler_ref(&self) -> &dyn Scheduler;
    /// The Dike pipeline inside, for its statistics.
    fn dike(&self) -> Option<&Dike>;
}

impl Policy for PolicyHandle {
    fn scheduler(&mut self) -> &mut dyn Scheduler {
        self.as_scheduler()
    }

    fn scheduler_ref(&self) -> &dyn Scheduler {
        match self {
            PolicyHandle::Null(s) => s,
            PolicyHandle::Cfs(s) => s,
            PolicyHandle::Dio(s) => s,
            PolicyHandle::Random(s) => s,
            PolicyHandle::SortOnce(s) => s,
            PolicyHandle::Dike(s) => s,
            PolicyHandle::Lfoc(s) => s,
            PolicyHandle::DikeLfoc(s) => s,
        }
    }

    fn dike(&self) -> Option<&Dike> {
        PolicyHandle::dike(self)
    }
}

impl Policy for Dike {
    fn scheduler(&mut self) -> &mut dyn Scheduler {
        self
    }

    fn scheduler_ref(&self) -> &dyn Scheduler {
        self
    }

    fn dike(&self) -> Option<&Dike> {
        Some(self)
    }
}

/// Times every `on_quantum` call of the wrapped policy and, when asked,
/// logs the actions it returned. The wrapped policy sees the same views
/// and returns the same actions, so a run through the wrapper equals the
/// run without it.
pub struct TimedScheduler<P> {
    inner: P,
    decide_ns: Vec<u64>,
    log: Option<Vec<QuantumLog>>,
}

impl<P: Policy> TimedScheduler<P> {
    /// Wrap `inner`, timing each decide step.
    pub fn new(inner: P) -> Self {
        TimedScheduler {
            inner,
            decide_ns: Vec::new(),
            log: None,
        }
    }

    /// Wrap `inner`, timing each decide step and logging its actions.
    pub fn logging(inner: P) -> Self {
        TimedScheduler {
            log: Some(Vec::new()),
            ..TimedScheduler::new(inner)
        }
    }

    /// The wrapped policy.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Nanoseconds spent in each `on_quantum` call, in call order.
    pub fn decide_ns(&self) -> &[u64] {
        &self.decide_ns
    }

    /// The action log (empty unless built with [`TimedScheduler::logging`]).
    pub fn log(&self) -> &[QuantumLog] {
        self.log.as_deref().unwrap_or(&[])
    }
}

impl<P: Policy> Scheduler for TimedScheduler<P> {
    fn name(&self) -> &str {
        self.inner.scheduler_ref().name()
    }

    fn initial_quantum(&self) -> SimTime {
        self.inner.scheduler_ref().initial_quantum()
    }

    fn on_quantum(&mut self, view: &SystemView, actions: &mut Actions) {
        let start = Instant::now();
        self.inner.scheduler().on_quantum(view, actions);
        self.decide_ns.push(start.elapsed().as_nanos() as u64);
        if let Some(log) = &mut self.log {
            log.push(QuantumLog {
                migrations: actions.migrations.clone(),
                partition: actions.partition.clone(),
                set_quantum: actions.set_quantum,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dike_machine::{presets, Machine};
    use dike_sched_core::run_with;
    use dike_scheduler::SchedConfig;
    use dike_workloads::{paper, Placement};

    #[test]
    fn timed_run_equals_the_unwrapped_run() {
        let cfg = presets::paper_machine(5);
        let wl = paper::workload(1);
        let fresh = || {
            let mut m = Machine::new(cfg.clone());
            wl.spawn(&mut m, Placement::Interleaved, 0.05);
            m
        };
        let deadline = SimTime::from_secs_f64(120.0);
        let plain = run_with(
            &mut fresh(),
            &mut Dike::fixed(SchedConfig::DEFAULT),
            deadline,
            |_| {},
        );
        let mut timed = TimedScheduler::logging(Dike::fixed(SchedConfig::DEFAULT));
        let traced = run_with(&mut fresh(), &mut timed, deadline, |_| {});
        assert_eq!(traced, plain);
        assert_eq!(timed.decide_ns().len() as u64, timed.log().len() as u64);
        assert!(plain.swaps > 0, "the policy must act for the test to bite");
    }

    #[test]
    fn spans_nest_and_total() {
        let mut t = Trace::new();
        let (_, outer) = t.time("outer", None, |t, id| {
            t.time("inner", Some(id), |_, _| ());
            t.time("inner", Some(id), |_, _| ());
        });
        assert_eq!(t.durations("inner", Some(outer)).len(), 2);
        let inner: f64 = t.durations("inner", Some(outer)).iter().sum();
        assert!(inner <= t.span(outer).secs());
        let json = t.to_json().render();
        assert!(json.contains("\"name\":\"inner\",") && json.contains("\"parent\":0"));
    }
}
