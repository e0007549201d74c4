//! Deterministic open-system arrival traces.
//!
//! A closed workload spawns every thread at time zero; an *open* system
//! receives applications mid-run. [`ArrivalTrace`] is the description
//! of such a run: a list of `(time, app, nthreads)` events, either
//! hand-written or drawn from the seeded Poisson-like generator
//! ([`ArrivalTrace::poisson`]). Traces are plain data — the driver decides
//! what to do when a slot is not free — and a run regenerates its traces
//! from their seeds.

use crate::apps::{AppKind, ProgramTable};
use dike_machine::{AppId, BarrierId, SimTime, ThreadSpec};
use dike_util::{Pcg32, SliceRandom};

/// One arrival: `nthreads` threads of `app` become runnable at `at_ms`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrivalEvent {
    /// Arrival instant in milliseconds of machine time.
    pub at_ms: u64,
    /// Application to spawn.
    pub app: AppKind,
    /// Number of threads the application arrives with.
    pub nthreads: u32,
}

/// A deterministic schedule of mid-run arrivals, a pure function of its
/// generator's seed.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalTrace {
    /// Trace name (reported in experiment output).
    pub name: String,
    /// Arrival events in the order they were generated. Not necessarily
    /// sorted; consumers sort by time (stably) before injecting.
    pub events: Vec<ArrivalEvent>,
}

/// One event of a multi-tenant merged stream: tenant `tenant`'s event
/// number `event` (an index into that tenant's [`ArrivalTrace::events`])
/// is due at `at_ms`. Produced by [`ArrivalTrace::merge_order`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergedArrival {
    /// Arrival instant in milliseconds of machine time.
    pub at_ms: u64,
    /// Index of the owning trace in the merged set.
    pub tenant: u32,
    /// Index into the owning trace's event list.
    pub event: u32,
}

/// Shape parameters for the Poisson-like generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrivalConfig {
    /// Mean inter-arrival time in milliseconds (the offered-load knob:
    /// smaller mean = higher arrival rate).
    pub mean_interarrival_ms: f64,
    /// Events past this horizon are discarded; the run itself keeps going
    /// until the last admitted thread finishes.
    pub horizon_ms: u64,
    /// Inclusive range of threads per arriving application.
    pub threads_min: u32,
    /// See `threads_min`.
    pub threads_max: u32,
}

impl Default for ArrivalConfig {
    fn default() -> Self {
        ArrivalConfig {
            mean_interarrival_ms: 2_000.0,
            horizon_ms: 30_000,
            threads_min: 2,
            threads_max: 4,
        }
    }
}

impl ArrivalConfig {
    /// Check the config draws a well-formed trace: a finite mean
    /// inter-arrival above zero, and `1 <= threads_min <= threads_max`.
    pub fn validate(&self) -> Result<(), String> {
        // NaN fails the comparison, so the check rejects it.
        if !(self.mean_interarrival_ms > 0.0 && self.mean_interarrival_ms.is_finite()) {
            return Err(format!(
                "mean_interarrival_ms must be finite and > 0, got {}",
                self.mean_interarrival_ms
            ));
        }
        if !(self.threads_min >= 1 && self.threads_min <= self.threads_max) {
            return Err(format!(
                "thread range must satisfy 1 <= threads_min <= threads_max, got {}..={}",
                self.threads_min, self.threads_max
            ));
        }
        Ok(())
    }
}

impl ArrivalTrace {
    /// Draw a trace with exponential inter-arrival times of the configured
    /// mean (a Poisson arrival process sampled on the millisecond grid),
    /// apps chosen uniformly from `apps`, and uniform thread counts.
    /// Deterministic in `(apps, cfg, seed)`.
    ///
    /// # Panics
    /// Panics if `apps` is empty or the config fails
    /// [`ArrivalConfig::validate`].
    pub fn poisson(
        name: impl Into<String>,
        apps: &[AppKind],
        cfg: &ArrivalConfig,
        seed: u64,
    ) -> ArrivalTrace {
        assert!(!apps.is_empty(), "need at least one app to draw from");
        cfg.validate().expect("invalid arrival config");
        let mut rng = Pcg32::seed_from_u64(seed);
        let mut events = Vec::new();
        let mut t = 0.0f64;
        loop {
            // Inverse-CDF exponential sample; gen_f64 is in [0, 1), so the
            // argument to ln is in (0, 1] and the draw is finite.
            let u = rng.gen_f64();
            t += -(1.0 - u).ln() * cfg.mean_interarrival_ms;
            let at_ms = t.ceil() as u64;
            if at_ms > cfg.horizon_ms {
                break;
            }
            let app = *apps.choose(&mut rng).expect("non-empty app pool");
            let nthreads = rng.gen_range(cfg.threads_min..=cfg.threads_max);
            events.push(ArrivalEvent {
                at_ms,
                app,
                nthreads,
            });
        }
        ArrivalTrace {
            name: name.into(),
            events,
        }
    }

    /// Total number of threads across all events.
    pub fn num_threads(&self) -> usize {
        self.events.iter().map(|e| e.nthreads as usize).sum()
    }

    /// Merge several tenants' traces into one globally time-ordered event
    /// stream — the input a fleet dispatcher walks. Ties are broken by
    /// `(tenant, event)` so the order is a pure function of the traces:
    /// two tenants arriving in the same millisecond dispatch in tenant
    /// order, and a tenant's own events keep their generation order
    /// (within one trace times are already non-decreasing).
    pub fn merge_order(traces: &[ArrivalTrace]) -> Vec<MergedArrival> {
        let mut merged: Vec<MergedArrival> = traces
            .iter()
            .enumerate()
            .flat_map(|(t, trace)| {
                trace
                    .events
                    .iter()
                    .enumerate()
                    .map(move |(e, ev)| MergedArrival {
                        at_ms: ev.at_ms,
                        tenant: t as u32,
                        event: e as u32,
                    })
            })
            .collect();
        merged.sort_by_key(|m| (m.at_ms, m.tenant, m.event));
        merged
    }

    /// The trace as one `(arrival time, spec, thread count)` entry per
    /// event, in event order. Each event becomes one application
    /// instance: a fresh dense `AppId` (the event index) and a matching
    /// barrier group, so two arrivals of the same `AppKind` stay distinct
    /// applications, and its threads all spawn from the one spec. Every
    /// spec of one kind shares that kind's program ([`ProgramTable`]).
    pub fn spawn_plan(&self, scale: f64) -> Vec<(SimTime, ThreadSpec, u32)> {
        let programs = ProgramTable::new(scale);
        self.events
            .iter()
            .enumerate()
            .map(|(i, ev)| {
                let spec = programs.spec(ev.app, AppId(i as u32), BarrierId(i as u32));
                (SimTime::from_ms(ev.at_ms), spec, ev.nthreads)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> Vec<AppKind> {
        vec![AppKind::Jacobi, AppKind::LavaMd, AppKind::Kmeans]
    }

    #[test]
    fn poisson_is_deterministic_per_seed() {
        let cfg = ArrivalConfig::default();
        let a = ArrivalTrace::poisson("t", &pool(), &cfg, 7);
        let b = ArrivalTrace::poisson("t", &pool(), &cfg, 7);
        assert_eq!(a, b);
        let c = ArrivalTrace::poisson("t", &pool(), &cfg, 8);
        assert_ne!(a.events, c.events);
    }

    #[test]
    fn poisson_respects_horizon_and_thread_range() {
        let cfg = ArrivalConfig {
            mean_interarrival_ms: 100.0,
            horizon_ms: 10_000,
            threads_min: 1,
            threads_max: 3,
        };
        let t = ArrivalTrace::poisson("t", &pool(), &cfg, 1);
        assert!(!t.events.is_empty());
        for e in &t.events {
            assert!(e.at_ms <= cfg.horizon_ms);
            assert!((1..=3).contains(&e.nthreads));
        }
        // Times are non-decreasing (inter-arrival deltas are positive).
        assert!(t.events.windows(2).all(|w| w[0].at_ms <= w[1].at_ms));
    }

    #[test]
    fn mean_interarrival_tracks_the_configured_rate() {
        let cfg = ArrivalConfig {
            mean_interarrival_ms: 200.0,
            horizon_ms: 200_000,
            threads_min: 1,
            threads_max: 1,
        };
        let t = ArrivalTrace::poisson("t", &pool(), &cfg, 3);
        // ~1000 events expected; the sample mean of an exponential with
        // mean 200 should land well within [150, 250].
        let n = t.events.len() as f64;
        let mean = t.events.last().unwrap().at_ms as f64 / n;
        assert!(n > 500.0, "only {n} events");
        assert!((150.0..250.0).contains(&mean), "sample mean {mean}");
    }

    #[test]
    fn merge_order_is_time_sorted_with_stable_tenant_ties() {
        let t0 = ArrivalTrace {
            name: "a".into(),
            events: vec![
                ArrivalEvent {
                    at_ms: 100,
                    app: AppKind::Jacobi,
                    nthreads: 1,
                },
                ArrivalEvent {
                    at_ms: 300,
                    app: AppKind::Jacobi,
                    nthreads: 1,
                },
            ],
        };
        let t1 = ArrivalTrace {
            name: "b".into(),
            events: vec![
                ArrivalEvent {
                    at_ms: 100,
                    app: AppKind::Kmeans,
                    nthreads: 2,
                },
                ArrivalEvent {
                    at_ms: 200,
                    app: AppKind::Kmeans,
                    nthreads: 2,
                },
            ],
        };
        let merged = ArrivalTrace::merge_order(&[t0.clone(), t1.clone()]);
        // Every (tenant, event) appears exactly once.
        assert_eq!(merged.len(), 4);
        // Time-ordered; the 100ms tie dispatches tenant 0 first.
        let order: Vec<(u64, u32, u32)> = merged
            .iter()
            .map(|m| (m.at_ms, m.tenant, m.event))
            .collect();
        assert_eq!(
            order,
            vec![(100, 0, 0), (100, 1, 0), (200, 1, 1), (300, 0, 1)]
        );
        // Deterministic: a second merge is identical.
        assert_eq!(merged, ArrivalTrace::merge_order(&[t0, t1]));
    }

    #[test]
    fn merge_order_of_poisson_tenants_covers_every_event_once() {
        let cfg = ArrivalConfig {
            mean_interarrival_ms: 150.0,
            horizon_ms: 5_000,
            threads_min: 1,
            threads_max: 2,
        };
        let traces: Vec<ArrivalTrace> = (0..4)
            .map(|t| ArrivalTrace::poisson(format!("t{t}"), &pool(), &cfg, t))
            .collect();
        let merged = ArrivalTrace::merge_order(&traces);
        let total: usize = traces.iter().map(|t| t.events.len()).sum();
        assert_eq!(merged.len(), total);
        let mut seen: Vec<(u32, u32)> = merged.iter().map(|m| (m.tenant, m.event)).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), total, "an event was duplicated or dropped");
        assert!(merged.windows(2).all(|w| w[0].at_ms <= w[1].at_ms));
        for m in &merged {
            assert_eq!(
                traces[m.tenant as usize].events[m.event as usize].at_ms,
                m.at_ms
            );
        }
    }

    #[test]
    fn spawn_plan_expands_events_into_distinct_apps() {
        let trace = ArrivalTrace {
            name: "hand".into(),
            events: vec![
                ArrivalEvent {
                    at_ms: 100,
                    app: AppKind::Kmeans,
                    nthreads: 2,
                },
                ArrivalEvent {
                    at_ms: 300,
                    app: AppKind::Kmeans,
                    nthreads: 1,
                },
            ],
        };
        let plan = trace.spawn_plan(0.1);
        assert_eq!(plan.len(), 2);
        assert_eq!((plan[0].0, plan[0].2), (SimTime::from_ms(100), 2));
        assert_eq!((plan[1].0, plan[1].2), (SimTime::from_ms(300), 1));
        // Same kind, different arrivals: distinct app ids and barrier
        // groups, so the instances do not synchronise with each other.
        assert_eq!(plan[0].1.app, AppId(0));
        assert_eq!(plan[1].1.app, AppId(1));
        assert_ne!(
            plan[0].1.barrier.unwrap().group,
            plan[1].1.barrier.unwrap().group
        );
        for (_, spec, _) in &plan {
            spec.validate().expect("valid spec");
        }
    }
}
