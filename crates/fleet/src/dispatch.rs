//! Open-loop arrival dispatch: the blind router that picks a machine for
//! every tenant arrival from the dispatch history alone.
//!
//! A feedback dispatcher (route by each machine's observed queue) would
//! force the fleet to simulate in lockstep — machine `i`'s state at time
//! `t` would depend on every other machine's state at `t`, serialising
//! the whole fleet and destroying worker-count invariance. Instead the
//! router keeps its own load estimate per machine — an exponentially
//! decayed count of dispatched threads, normalised by the machine's
//! vcore count so a 2-domain NUMA box absorbs twice the share of a
//! single-socket one. Each event goes to the machine with the lowest
//! effective load, where a tenant's *home* machine (a seeded hash of the
//! tenant id) competes with a configurable discount — the
//! least-loaded-with-affinity rule, ties broken toward the lowest
//! machine index. The answer depends only on the merged arrival stream,
//! never on machine state, so the fleet's epoch loop
//! ([`crate::failover`]) can route each epoch's arrivals at its barrier
//! and fan the machines out with no cross-machine communication. A
//! one-shot [`FleetRunner::run`](crate::FleetRunner::run) is one epoch, so
//! every arrival is routed before any machine simulates a tick;
//! [`dispatch`] is that routing as one pass, without the simulation.
//!
//! An arrival event is dispatched *whole*: all of its threads land on
//! one machine. Splitting would strand barrier siblings (KMEANS phases
//! synchronise within an arrival instance) on machines that never
//! exchange messages.
//!
//! Scoring every machine per event costs O(events × machines); the
//! `LoadRouter` below finds the same machine in O(log machines) per
//! event (its docs say why the answer is identical).

use crate::config::{DispatchConfig, FleetConfig};
use dike_util::rng::splitmix64;
use dike_workloads::{ArrivalTrace, MergedArrival};

/// Where every arrival goes under the blind router.
#[derive(Debug, Clone, PartialEq)]
pub struct DispatchPlan {
    /// The merged, time-ordered event stream (one entry per arrival
    /// event across all tenants).
    pub merged: Vec<MergedArrival>,
    /// Machine index chosen for each merged event, parallel to `merged`.
    pub assignment: Vec<u32>,
}

/// Materialise every tenant's arrival trace, in tenant order.
pub fn tenant_traces(cfg: &FleetConfig) -> Vec<ArrivalTrace> {
    cfg.tenants
        .iter()
        .map(|t| ArrivalTrace::poisson(t.name.clone(), &t.apps, &t.arrivals, t.seed))
        .collect()
}

/// A tenant's home machine: a SplitMix64 hash of the tenant index,
/// reduced mod the fleet size. Independent of load, so it never changes
/// mid-run, and spread uniformly so homes do not pile onto machine 0.
pub fn home_machine(tenant: u32, n_machines: usize) -> u32 {
    let mut s = 0xD1CE_F1EE_7000_0000u64 ^ u64::from(tenant);
    (splitmix64(&mut s) % n_machines as u64) as u32
}

/// Every machine's vcore count, in machine order: the load normaliser.
pub(crate) fn fleet_vcores(cfg: &FleetConfig) -> Vec<f64> {
    cfg.machines
        .iter()
        .map(|mc| mc.topology.num_vcores() as f64)
        .collect()
}

/// Events whose `at_ms / τ` exceeds this many decay constants are routed
/// by the linear scan. Below it every decay factor is at least `e^-300`
/// and every non-zero score stays far inside the normal `f64` range, so
/// the scan's scores order exactly as the keys do; past it a score could
/// round to a subnormal or to zero and tie where the keys do not.
const INDEX_MAX_DECAYS: f64 = 300.0;

/// Machines whose key lies within this of the best non-home key are
/// re-scored with the scan's formula. Keys and scores each carry a
/// relative rounding error near 1e-13 below [`INDEX_MAX_DECAYS`], so a
/// key gap above this margin always survives into the scores.
const NEAR_TIE: f64 = 1e-9;

/// The dispatcher's decayed least-loaded-with-affinity scorer and its
/// load state, with an index that finds the winner in O(log M).
///
/// Machine `i` holds a load `L_i` last touched at `last_i`. At time `t`
/// its score is `L_i · exp(−(t − last_i)/τ) / vcores_i`, less the
/// affinity bonus on the tenant's home machine; the lowest score wins,
/// ties to the lowest index. [`LoadRouter::pick_scan`] evaluates that
/// rule over every machine and stays as the oracle and the fallback.
///
/// **Routing index.** The log of a non-home score is
/// `key_i − t/τ` with `key_i = ln L_i + last_i/τ − ln vcores_i`. The
/// `t/τ` term is the same for every machine, so the order of the keys
/// is the order of the scores at any `t`, and it only changes when an
/// event lands: then the routed machine's key moves and no other. A
/// tournament tree over the keys (winner per node: lowest key, then
/// lowest index) therefore yields the best non-home machine with the
/// home leaf masked out, and an update costs one leaf-to-root walk. An
/// idle machine (`L_i = 0`) scores exactly 0 and keys to `−∞`, so idle
/// machines tie among themselves and the tree's lowest-index tie-break
/// is the scan's. For the rest the tree is trusted only up to rounding:
/// every non-home machine within [`NEAR_TIE`] of the best key, plus the
/// home machine with its bonus, is re-scored with the scan's own
/// formula in index order. Events past [`INDEX_MAX_DECAYS`] use the scan.
#[derive(Debug)]
pub(crate) struct LoadRouter {
    vcores: Vec<f64>,
    ln_vcores: Vec<f64>,
    tau: f64,
    bonus: f64,
    /// Decayed dispatched-thread count per machine, as of `last_ms`.
    /// Decay is applied lazily at read time, so the estimate is a pure
    /// function of the dispatch history.
    load: Vec<f64>,
    last_ms: Vec<u64>,
    /// `key_i` per leaf; leaves past the fleet hold `+∞` and never win.
    key: Vec<f64>,
    /// Node `n`'s winning leaf; the children of `n` are `2n` and `2n+1`,
    /// and leaf `i` is node `cap + i`.
    win: Vec<u32>,
    /// Leaves: the fleet size rounded up to a power of two.
    cap: usize,
    /// Scratch: the near-tie machines of the current event.
    near: Vec<u32>,
}

impl LoadRouter {
    /// An idle fleet of machines with `vcores`, scored under `dispatch`.
    pub(crate) fn new(vcores: Vec<f64>, dispatch: &DispatchConfig) -> LoadRouter {
        let m = vcores.len();
        let cap = m.next_power_of_two();
        let mut key = vec![f64::INFINITY; cap];
        key[..m].fill(f64::NEG_INFINITY);
        let mut win = vec![0u32; 2 * cap];
        for i in 0..cap {
            win[cap + i] = i as u32;
        }
        let mut router = LoadRouter {
            ln_vcores: vcores.iter().map(|v| v.ln()).collect(),
            vcores,
            tau: dispatch.decay_tau_ms,
            bonus: dispatch.affinity_bonus,
            load: vec![0.0; m],
            last_ms: vec![0; m],
            key,
            win,
            cap,
            near: Vec::new(),
        };
        for n in (1..cap).rev() {
            router.win[n] = router.better(router.win[2 * n], router.win[2 * n + 1]);
        }
        router
    }

    /// Route one event of `nthreads` threads arriving at `at_ms` for a
    /// tenant homed on `home`: pick the machine and charge it the load.
    pub(crate) fn route(&mut self, at_ms: u64, home: u32, nthreads: u32) -> usize {
        let best = self.pick(at_ms, home);
        self.charge(best, at_ms, nthreads);
        best
    }

    /// Machine `i`'s load decayed to `at_ms`.
    fn decayed(&self, i: usize, at_ms: u64) -> f64 {
        self.load[i] * (-((at_ms - self.last_ms[i]) as f64) / self.tau).exp()
    }

    /// Machine `i`'s score at `at_ms` — the one formula both the scan and
    /// the near-tie re-scoring evaluate.
    fn score(&self, i: usize, at_ms: u64, home: u32) -> f64 {
        let eff = self.decayed(i, at_ms) / self.vcores[i];
        if i as u32 == home {
            eff - self.bonus
        } else {
            eff
        }
    }

    /// The first of `machines` with the lowest score, or machine 0 if
    /// none scores below `+∞`.
    fn best_of(&self, machines: impl Iterator<Item = usize>, at_ms: u64, home: u32) -> usize {
        let mut best = 0usize;
        let mut best_eff = f64::INFINITY;
        for i in machines {
            let eff = self.score(i, at_ms, home);
            if eff < best_eff {
                best_eff = eff;
                best = i;
            }
        }
        best
    }

    /// The winner by scoring every machine in index order.
    fn pick_scan(&self, at_ms: u64, home: u32) -> usize {
        self.best_of(0..self.load.len(), at_ms, home)
    }

    /// The winner through the index: the scan's answer for every event.
    fn pick(&mut self, at_ms: u64, home: u32) -> usize {
        if at_ms as f64 / self.tau > INDEX_MAX_DECAYS {
            return self.pick_scan(at_ms, home);
        }
        let mut near = std::mem::take(&mut self.near);
        near.clear();
        if let Some(first) = self.best_except(home as usize) {
            let floor = self.key[first];
            if floor == f64::NEG_INFINITY {
                // Idle machines all score exactly 0, so the scan can pick
                // only the lowest; visiting every idle leaf would cost
                // O(M) per event on a mostly idle fleet.
                near.push(first as u32);
            } else {
                self.collect_near(1, floor + NEAR_TIE, &mut near);
            }
        }
        if let Err(at) = near.binary_search(&home) {
            near.insert(at, home);
        }
        let best = self.best_of(near.iter().map(|&i| i as usize), at_ms, home);
        self.near = near;
        best
    }

    /// Charge machine `i` an event of `nthreads` threads at `at_ms`.
    fn charge(&mut self, i: usize, at_ms: u64, nthreads: u32) {
        self.load[i] = self.decayed(i, at_ms) + f64::from(nthreads);
        self.last_ms[i] = at_ms;
        self.key[i] = self.load[i].ln() + at_ms as f64 / self.tau - self.ln_vcores[i];
        let mut n = (self.cap + i) / 2;
        while n >= 1 {
            self.win[n] = self.better(self.win[2 * n], self.win[2 * n + 1]);
            n /= 2;
        }
    }

    /// The leaf with the lower key, the lower index on a tie.
    fn better(&self, a: u32, b: u32) -> u32 {
        let (ka, kb) = (self.key[a as usize], self.key[b as usize]);
        if kb < ka || (kb == ka && b < a) {
            b
        } else {
            a
        }
    }

    /// The best machine other than `skip`: the winners of the siblings
    /// along `skip`'s leaf-to-root path cover every other leaf. `None` in
    /// a one-machine fleet.
    fn best_except(&self, skip: usize) -> Option<usize> {
        let mut node = self.cap + skip;
        let mut best: Option<u32> = None;
        while node > 1 {
            let w = self.win[node ^ 1];
            best = Some(best.map_or(w, |b| self.better(b, w)));
            node /= 2;
        }
        best.map(|b| b as usize)
    }

    /// Push, in index order, every leaf under `node` whose key is at most
    /// `limit`. A subtree whose winner is above `limit` holds no such leaf.
    fn collect_near(&self, node: usize, limit: f64, out: &mut Vec<u32>) {
        let w = self.win[node];
        if self.key[w as usize] > limit {
            return;
        }
        if node >= self.cap {
            out.push(w);
            return;
        }
        self.collect_near(2 * node, limit, out);
        self.collect_near(2 * node + 1, limit, out);
    }
}

/// Route every arrival in `traces` over the fleet's machines with the
/// blind router, in merged order: the routing a one-shot
/// [`FleetRunner::run`](crate::FleetRunner::run) does at its single
/// barrier.
pub fn dispatch(cfg: &FleetConfig, traces: &[ArrivalTrace]) -> DispatchPlan {
    let m = cfg.machines.len();
    assert!(m > 0, "cannot dispatch over an empty fleet");
    assert_eq!(traces.len(), cfg.tenants.len(), "one trace per tenant");
    let homes: Vec<u32> = (0..traces.len() as u32)
        .map(|t| home_machine(t, m))
        .collect();

    let merged = ArrivalTrace::merge_order(traces);
    let event_of = |ev: &MergedArrival| &traces[ev.tenant as usize].events[ev.event as usize];
    let mut router = LoadRouter::new(fleet_vcores(cfg), &cfg.dispatch);
    let assignment: Vec<u32> = merged
        .iter()
        .map(|ev| router.route(ev.at_ms, homes[ev.tenant as usize], event_of(ev).nthreads) as u32)
        .collect();
    DispatchPlan { merged, assignment }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dike_util::check::check;
    use dike_workloads::ArrivalConfig;

    /// The index routes every event to the scan's machine. Fleets of one
    /// and of 1–200 machines with mixed vcores (1:2 ratios make keys tie
    /// up to rounding), affinity bonus 0, negative, default and 1e9, and
    /// decay constants from 0.25 ms (most events past the fallback bound)
    /// to 1e6 ms (loads barely decay), each routed at exactly its
    /// configured τ; half the events share an instant with
    /// their predecessor, and some carry no threads.
    #[test]
    fn index_routes_every_event_like_the_scan() {
        const VCORES: [f64; 5] = [1.0, 20.0, 40.0, 80.0, 1040.0];
        const BONUS: [f64; 4] = [0.0, -0.3, 0.05, 1e9];
        const TAU_MS: [f64; 5] = [0.25, 1.0, 7.0, 2_000.0, 1e6];
        let (mut indexed, mut scanned) = (0u64, 0u64);
        check("index_routes_every_event_like_the_scan", 400, |rng| {
            let m = if rng.gen_range(0u32..8) == 0 {
                1
            } else {
                rng.gen_range(1usize..201)
            };
            let vcores: Vec<f64> = (0..m)
                .map(|_| VCORES[rng.gen_range(0..VCORES.len())])
                .collect();
            let dispatch = DispatchConfig {
                affinity_bonus: BONUS[rng.gen_range(0..BONUS.len())],
                decay_tau_ms: TAU_MS[rng.gen_range(0..TAU_MS.len())],
            };
            let mut router = LoadRouter::new(vcores, &dispatch);
            assert_eq!(router.tau, dispatch.decay_tau_ms, "τ is the validated one");
            let tenants = rng.gen_range(1u32..40);
            let mut at_ms = 0u64;
            for e in 0..rng.gen_range(1usize..800) {
                if rng.gen_bool() {
                    at_ms += rng.gen_range(0u64..50);
                }
                let home = home_machine(rng.gen_range(0..tenants), m);
                let expected = router.pick_scan(at_ms, home);
                let got = router.route(at_ms, home, rng.gen_range(0u32..13));
                assert_eq!(
                    got, expected,
                    "event {e} at {at_ms} ms, home {home}, {m} machines, {dispatch:?}"
                );
                if at_ms as f64 / dispatch.decay_tau_ms > INDEX_MAX_DECAYS {
                    scanned += 1;
                } else {
                    indexed += 1;
                }
            }
        });
        assert!(
            indexed > 0 && scanned > 0,
            "{indexed} indexed, {scanned} scanned"
        );
    }

    fn fleet(machines: usize, tenants: usize) -> FleetConfig {
        FleetConfig::uniform(
            machines,
            tenants,
            ArrivalConfig {
                mean_interarrival_ms: 500.0,
                horizon_ms: 10_000,
                threads_min: 1,
                threads_max: 3,
            },
            7,
        )
    }

    #[test]
    fn homes_are_stable_and_spread() {
        let homes: Vec<u32> = (0..64).map(|t| home_machine(t, 16)).collect();
        assert_eq!(
            homes,
            (0..64).map(|t| home_machine(t, 16)).collect::<Vec<_>>()
        );
        let mut used = homes.clone();
        used.sort_unstable();
        used.dedup();
        assert!(used.len() > 8, "64 tenants over 16 machines should spread");
        assert!(homes.iter().all(|&h| h < 16));
    }

    #[test]
    fn load_balances_away_from_a_hot_machine() {
        // With affinity off, a burst of simultaneous arrivals must not
        // all land on machine 0: each dispatch raises that machine's
        // load, pushing the next arrival elsewhere.
        let mut cfg = fleet(4, 8);
        cfg.dispatch.affinity_bonus = 0.0;
        let traces = tenant_traces(&cfg);
        let plan = dispatch(&cfg, &traces);
        let mut used: Vec<u32> = plan.assignment.clone();
        used.sort_unstable();
        used.dedup();
        assert!(
            used.len() == 4,
            "every machine should receive work, got {used:?}"
        );
    }

    #[test]
    fn affinity_pins_a_lone_tenant_home() {
        // One tenant, overwhelming bonus: every event lands on the home
        // machine regardless of the load it accumulates there.
        let mut cfg = fleet(4, 1);
        cfg.dispatch.affinity_bonus = 1e9;
        let traces = tenant_traces(&cfg);
        let plan = dispatch(&cfg, &traces);
        let home = home_machine(0, 4);
        assert!(!plan.assignment.is_empty());
        assert!(plan.assignment.iter().all(|&a| a == home));
    }

    #[test]
    fn zero_tenant_fleet_dispatches_to_an_empty_plan() {
        // `FleetConfig::uniform` refuses zero tenants, but a hand-built
        // config (e.g. a fleet spun up before its tenants onboard) is
        // legal and must dispatch to an all-idle plan and run to an idle
        // fleet, not panic.
        let cfg = FleetConfig {
            machines: fleet(2, 1).machines,
            tenants: Vec::new(),
            dispatch: Default::default(),
            scale: 0.02,
            deadline_s: 10.0,
        };
        let plan = dispatch(&cfg, &[]);
        assert!(plan.merged.is_empty());
        assert!(plan.assignment.is_empty());
        let r = crate::FleetRunner::new(cfg).run(&dike_util::Pool::new(1));
        assert_eq!(r.total_arrivals, 0);
        assert!(r.completed());
        assert!(r.machines.iter().all(|m| m.quanta == 0));
    }

    #[test]
    fn all_empty_traces_dispatch_to_an_empty_plan() {
        // Tenants exist but every trace drew zero events (a horizon
        // shorter than any plausible inter-arrival draw): same empty
        // plan, nothing routed.
        let mut cfg = fleet(3, 2);
        for t in &mut cfg.tenants {
            t.arrivals.horizon_ms = 0;
        }
        let traces = tenant_traces(&cfg);
        assert!(traces.iter().all(|t| t.events.is_empty()));
        assert_eq!(traces.len(), 2);
        let plan = dispatch(&cfg, &traces);
        assert!(plan.merged.is_empty());
        assert!(plan.assignment.is_empty());
    }

    #[test]
    fn numa_machines_absorb_more_by_vcore_normalisation() {
        // Machine 7 (every 8th) has twice the vcores. Under uniform load
        // with affinity off it should receive noticeably more threads
        // than the single-socket average.
        let mut cfg = fleet(8, 16);
        cfg.dispatch.affinity_bonus = 0.0;
        let traces = tenant_traces(&cfg);
        let plan = dispatch(&cfg, &traces);
        let mut counts = [0u32; 8];
        for (ev, &i) in plan.merged.iter().zip(&plan.assignment) {
            counts[i as usize] += traces[ev.tenant as usize].events[ev.event as usize].nthreads;
        }
        let single_avg = f64::from(counts[..7].iter().sum::<u32>()) / 7.0;
        assert!(
            f64::from(counts[7]) > single_avg,
            "NUMA box got {} vs single-socket average {single_avg:.1}",
            counts[7]
        );
    }
}
