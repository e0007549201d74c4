//! The fleet's one loop: epochs, with machine-fault tolerance.
//!
//! A fleet run is a sequence of *epochs*: simulate every machine up to an
//! epoch barrier, observe per-machine health (alive/brownout/down state,
//! queue depth, running count), route the next epoch's arrivals,
//! re-dispatch orphaned work from crashed machines to healthy peers
//! under a bounded per-arrival retry budget with linear backoff, and
//! re-admit recovered machines with decayed trust that warms back up over
//! epochs. The health-aware router quarantines failed machines; the blind
//! one is the decayed-load router of [`crate::dispatch`]. A one-shot
//! [`FleetRunner::run`] is the loop's simplest case: one epoch that ends
//! at the deadline, blind routing and no machine faults. The deadline
//! bounds every run: the loop runs `⌈deadline/epoch⌉` epochs at most.
//!
//! [`crate::dispatch`]: mod@crate::dispatch
//!
//! Machine faults come from [`MachineFaultConfig`] — the same seeded
//! stateless hashing as the per-thread channels, drawn once per
//! `(machine, epoch)` at the barrier, so the whole run stays a pure
//! function of its config and is byte-identical at any worker count
//! (health is only ever observed at barriers; machines never communicate
//! inside an epoch).
//!
//! ## Failure semantics
//!
//! * **Crash**: the machine freezes at the barrier — it stops accepting
//!   and stops draining. Its *queued* (never-spawned) arrivals are
//!   orphaned for re-dispatch (whole events only: an event with some
//!   threads already admitted keeps its queued remainder, because
//!   barrier siblings must never split across machines); its admitted
//!   threads are stranded in flight until recovery. On recovery every
//!   alive thread is stalled by exactly the outage length, so no work
//!   progresses while the box is down, and the machine re-enters routing
//!   with `readmit_trust` that recovers toward 1 per epoch.
//! * **Brownout**: the machine keeps its queue and keeps (slowly)
//!   draining — every alive thread stalls `brownout_stall_ms` per epoch
//!   — but the health-aware scorer stops routing new work to it.
//! * **Lost, never dropped**: an arrival whose retry budget is exhausted
//!   (or that cannot be routed because no machine is healthy) is counted
//!   in the [`ConservationLedger`]; `dispatched = drained + in_flight +
//!   lost` holds at every fault level.
//!
//! With `failover: false` the blind router scores *all* machines:
//! arrivals routed into a dead machine are lost, stranded queues are
//! lost, nothing is re-dispatched — the baseline the failover experiment
//! compares against.

use crate::dispatch::{fleet_vcores, home_machine, tenant_traces, LoadRouter};
use crate::run::{FleetResult, FleetRunner, MachineSummary, TenantPoint};
use dike_machine::{AppId, BarrierId, MachineFaultConfig, SimTime, ThreadId};
use dike_metrics::{mean_sojourn, sojourn_by_app, window_series, ConservationLedger, ThreadSpan};
use dike_sched_core::{drive, Scheduler, TimedSpawn};
use dike_scheduler::{Dike, SchedConfig};
use dike_util::{json_struct, Pool};
use dike_workloads::ArrivalTrace;
use std::sync::Mutex;

/// Knobs of one run of the epoch loop (passed per run, never stored in
/// the fleet config).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailoverConfig {
    /// Epoch length in milliseconds — the health-observation cadence.
    pub epoch_ms: u64,
    /// Health-aware routing + orphan re-dispatch on. Off = the blind
    /// baseline: same epoch loop, same faults, decayed-load scoring over
    /// all machines, no quarantine, no re-dispatch.
    pub failover: bool,
    /// Re-dispatch attempts each arrival event may consume before it is
    /// counted as lost. Zero means an orphaned event is lost immediately.
    pub retry_budget: u32,
    /// Trust a recovered machine re-enters routing with, in (0, 1]. The
    /// scorer divides effective load by trust, so low trust makes the
    /// machine look loaded and it warms up gradually.
    pub readmit_trust: f64,
    /// Per-epoch trust recovery rate in [0, 1]:
    /// `trust += (1 - trust) * trust_recovery`.
    pub trust_recovery: f64,
    /// The seeded machine-scope fault stream.
    pub faults: MachineFaultConfig,
}

json_struct!(FailoverConfig {
    epoch_ms,
    failover,
    retry_budget,
    readmit_trust,
    trust_recovery,
    faults,
});

impl Default for FailoverConfig {
    fn default() -> Self {
        FailoverConfig {
            epoch_ms: 2_000,
            failover: true,
            retry_budget: 2,
            readmit_trust: 0.25,
            trust_recovery: 0.5,
            faults: MachineFaultConfig::default(),
        }
    }
}

impl FailoverConfig {
    /// Validate knobs and the embedded fault config.
    pub fn validate(&self) -> Result<(), String> {
        if self.epoch_ms == 0 {
            return Err("epoch_ms must be > 0".into());
        }
        if !(self.readmit_trust > 0.0 && self.readmit_trust <= 1.0) {
            return Err(format!(
                "readmit_trust must be in (0,1], got {}",
                self.readmit_trust
            ));
        }
        if !(0.0..=1.0).contains(&self.trust_recovery) {
            return Err(format!(
                "trust_recovery must be in [0,1], got {}",
                self.trust_recovery
            ));
        }
        self.faults.validate()
    }
}

/// One machine's health as seen at epoch barriers.
#[derive(Debug, Clone, Copy)]
struct MachineHealth {
    /// Routing trust in (0, 1]; 1 = fully trusted.
    trust: f64,
    /// `Some(epoch)` while down (recovers at that barrier), with
    /// `u64::MAX` for a permanent crash; `None` while up.
    down_until: Option<u64>,
    /// First epoch after the current brownout window (exclusive).
    brown_until: u64,
    /// The machine recovered and must be clock-caught-up (all alive
    /// threads stalled by the outage length) before it next runs.
    needs_catchup: bool,
    crashes: u64,
    brownouts: u64,
}

impl MachineHealth {
    fn new() -> Self {
        MachineHealth {
            trust: 1.0,
            down_until: None,
            brown_until: 0,
            needs_catchup: false,
            crashes: 0,
            brownouts: 0,
        }
    }

    fn is_down(&self) -> bool {
        self.down_until.is_some()
    }

    /// Routable under the health-aware scorer: up and not browned out.
    fn routable(&self, epoch: u64) -> bool {
        !self.is_down() && self.brown_until <= epoch
    }
}

/// An orphaned arrival event awaiting re-dispatch.
#[derive(Debug, Clone, Copy)]
struct Orphan {
    /// Global merged-event index (also its `AppId`/`BarrierId`).
    event: u32,
    /// Original arrival instant (re-dispatch never back-dates it).
    at: SimTime,
    /// First epoch this orphan may be re-dispatched (linear backoff:
    /// each failed attempt pushes eligibility one epoch further out).
    eligible: u64,
}

/// Retry/loss bookkeeping shared by the crash and routing paths.
struct OrphanBook {
    /// Re-dispatch attempts consumed per global event — persists across
    /// repeated orphanings of the same event.
    retries: Vec<u32>,
    orphans: Vec<Orphan>,
    orphaned: u64,
    redispatched: u64,
    lost_threads: u64,
    lost_by_tenant: Vec<u64>,
}

impl OrphanBook {
    fn new(n_events: usize, n_tenants: usize) -> Self {
        OrphanBook {
            retries: vec![0; n_events],
            orphans: Vec::new(),
            orphaned: 0,
            redispatched: 0,
            lost_threads: 0,
            lost_by_tenant: vec![0; n_tenants],
        }
    }

    /// Threads of the orphans still awaiting re-dispatch.
    fn pending_threads(&self, threads_of: &[u32]) -> u64 {
        self.orphans
            .iter()
            .map(|o| u64::from(threads_of[o.event as usize]))
            .sum()
    }

    fn lose(&mut self, nthreads: u32, tenant: u32) {
        self.lost_threads += u64::from(nthreads);
        self.lost_by_tenant[tenant as usize] += u64::from(nthreads);
    }

    /// Orphan event `g` at epoch `e`, or count it lost when its budget is
    /// already exhausted. Never drops silently.
    fn orphan_or_lose(
        &mut self,
        g: u32,
        nthreads: u32,
        tenant: u32,
        at: SimTime,
        epoch: u64,
        budget: u32,
    ) {
        if self.retries[g as usize] >= budget {
            self.lose(nthreads, tenant);
        } else {
            self.orphans.push(Orphan {
                event: g,
                at,
                eligible: epoch + 1 + u64::from(self.retries[g as usize]),
            });
            self.orphaned += 1;
        }
    }
}

/// One machine's contribution to a failover run.
#[derive(Debug, Clone, PartialEq)]
pub struct FailoverMachineSummary {
    /// Machine index in the fleet.
    pub machine: u32,
    /// Threads ever admitted (spawned) on this machine.
    pub admitted: u64,
    /// Admitted threads that finished.
    pub drained: u64,
    /// Threads still queued (never spawned) at run end.
    pub queued: u64,
    /// Hard crashes suffered.
    pub crashes: u64,
    /// Brownout windows entered.
    pub brownouts: u64,
    /// Whether the machine ended the run down.
    pub down_at_end: bool,
    /// The machine's own clock at run end, seconds.
    pub makespan_s: f64,
}

/// One tenant's roll-up, tolerant of partial-machine results: threads
/// stranded on a dead machine still appear (unfinished, charged to the
/// fleet wall), and lost threads are reported explicitly.
#[derive(Debug, Clone, PartialEq)]
pub struct FailoverTenantPoint {
    /// Tenant index.
    pub tenant: u32,
    /// Tenant name.
    pub name: String,
    /// Threads the tenant offered.
    pub offered: u64,
    /// Threads that finished somewhere in the fleet.
    pub drained: u64,
    /// Threads lost (budget exhausted or routed into a dead machine).
    pub lost: u64,
    /// Mean sojourn over the tenant's *admitted* threads, unfinished
    /// charged to the fleet wall. Lost threads never ran and are excluded
    /// (they are accounted in `lost`, not smeared into sojourn).
    pub mean_sojourn_s: f64,
}

/// A whole epoch-driven fleet run, rolled up.
#[derive(Debug, Clone, PartialEq)]
pub struct FailoverResult {
    /// Scheduler label.
    pub scheduler: String,
    /// Whether health-aware failover routing was on.
    pub failover: bool,
    /// Epochs actually executed (the loop exits early once drained).
    pub epochs: u64,
    /// Per-machine summaries, in machine order.
    pub machines: Vec<FailoverMachineSummary>,
    /// Per-tenant roll-ups, in tenant order.
    pub tenants: Vec<FailoverTenantPoint>,
    /// The conservation balance sheet:
    /// `dispatched = drained + in_flight + lost`.
    pub ledger: ConservationLedger,
    /// Machines quarantined at a barrier (crash + brownout entries).
    pub quarantines: u64,
    /// Recovered machines re-admitted to routing.
    pub readmissions: u64,
    /// Events orphaned off crashed machines (or un-routable arrivals).
    pub orphaned: u64,
    /// Orphaned events successfully re-dispatched to a healthy peer.
    pub redispatched: u64,
    /// Mean of the per-window fleet fairness scores (Eqn 4 per window
    /// over the merged span set, grouped by tenant).
    pub mean_windowed_fairness: f64,
    /// Worst window.
    pub min_windowed_fairness: f64,
    /// Latest machine clock — the fleet wall, seconds.
    pub makespan_s: f64,
    /// Mean sojourn over every admitted thread, unfinished charged to the
    /// wall.
    pub mean_sojourn_s: f64,
}

json_struct!(FailoverMachineSummary {
    machine,
    admitted,
    drained,
    queued,
    crashes,
    brownouts,
    down_at_end,
    makespan_s,
});
json_struct!(FailoverTenantPoint {
    tenant,
    name,
    offered,
    drained,
    lost,
    mean_sojourn_s,
});
json_struct!(FailoverResult {
    scheduler,
    failover,
    epochs,
    machines,
    tenants,
    ledger,
    quarantines,
    readmissions,
    orphaned,
    redispatched,
    mean_windowed_fairness,
    min_windowed_fairness,
    makespan_s,
    mean_sojourn_s,
});

/// One machine's lane through the epoch loop.
#[derive(Default)]
struct Lane {
    /// The machine's policy, made on the worker at the machine's first
    /// epoch and dropped after the run's last: in a one-epoch run,
    /// `make(i)` and the drop bracket machine `i`'s simulation.
    sched: Option<Box<dyn Scheduler + Send>>,
    /// Work waiting for the machine: its last epoch's leftovers, then the
    /// arrivals routed to it since.
    pending: Vec<TimedSpawn>,
    /// Scheduling quanta the machine has executed.
    quanta: u64,
}

impl FleetRunner {
    /// Run the epoch-driven fault-tolerant fleet under the default Dike
    /// policy. See [`FleetRunner::run_failover_with`].
    pub fn run_failover(&self, pool: &Pool, fo: &FailoverConfig) -> FailoverResult {
        self.run_failover_with(pool, fo, "dike", |_| {
            Box::new(Dike::fixed(SchedConfig::DEFAULT))
        })
    }

    /// Run the epoch-driven loop: simulate an epoch on every up machine
    /// (fanning over the pool in machine order), observe health at the
    /// barrier, route the next epoch's arrivals, re-dispatch orphans.
    /// Scheduler state persists across epochs (one policy instance per
    /// machine for the whole run). Deterministic at any worker count:
    /// all cross-machine decisions happen serially at barriers.
    ///
    /// After the arrival window closes, the loop keeps running *drain*
    /// epochs — orphans become immediately eligible, recoverable machines
    /// come back and catch up, permanently-down machines never run — and
    /// exits as soon as no machine can make further progress, or after
    /// the epoch that reaches the fleet deadline.
    ///
    /// # Panics
    /// Panics on an invalid [`FailoverConfig`] or an empty fleet.
    pub fn run_failover_with<F>(
        &self,
        pool: &Pool,
        fo: &FailoverConfig,
        label: &str,
        make: F,
    ) -> FailoverResult
    where
        F: Fn(usize) -> Box<dyn Scheduler + Send> + Sync,
    {
        self.run_epochs(pool, fo, label, make).1
    }

    /// The fleet's one loop (see the module docs), rolled up once at the
    /// end into both result schemas; each entry point returns its own.
    pub(crate) fn run_epochs<F>(
        &self,
        pool: &Pool,
        fo: &FailoverConfig,
        label: &str,
        make: F,
    ) -> (FleetResult, FailoverResult)
    where
        F: Fn(usize) -> Box<dyn Scheduler + Send> + Sync,
    {
        fo.validate().expect("invalid failover config");
        let cfg = &self.cfg;
        let n = self.machines.len();
        assert!(n > 0, "cannot run a fleet with no machines");
        let n_tenants = cfg.tenants.len();

        let traces = tenant_traces(cfg);
        let merged = ArrivalTrace::merge_order(&traces);
        let tenant_of: Vec<u32> = merged.iter().map(|m| m.tenant).collect();
        let threads_of: Vec<u32> = merged
            .iter()
            .map(|m| traces[m.tenant as usize].events[m.event as usize].nthreads)
            .collect();
        let total_offered: u64 = threads_of.iter().map(|&t| u64::from(t)).sum();
        // Every thread of global merged event `g` spawns as `AppId(g)` and
        // `BarrierId(g)`: two tenants' arrivals stay distinct applications
        // on a shared machine, and barrier groups never span machines.
        let spawn_of = |g: u32, at: SimTime| {
            let ev = &merged[g as usize];
            let event = &traces[ev.tenant as usize].events[ev.event as usize];
            let spec = event.app.thread_spec(AppId(g), cfg.scale, BarrierId(g));
            TimedSpawn { at, spec }
        };

        let epoch_ms = fo.epoch_ms;
        let deadline_ms = (cfg.deadline_s * 1_000.0).ceil() as u64;
        // Faults are drawn over the arrival window; drain epochs past it
        // only recover, re-dispatch and finish work.
        let fault_epochs = merged.last().map_or(0, |m| m.at_ms) / epoch_ms + 1;
        let total_epochs = deadline_ms.div_ceil(epoch_ms);

        for m in &self.machines {
            m.lock().expect("fleet machine lock").reset();
        }
        let mut lanes: Vec<Lane> = (0..n).map(|_| Lane::default()).collect();

        let vcores = fleet_vcores(cfg);
        let homes: Vec<u32> = (0..n_tenants as u32).map(|t| home_machine(t, n)).collect();

        let mut health: Vec<MachineHealth> = vec![MachineHealth::new(); n];
        // Alive (admitted, unfinished) thread count per machine, observed
        // at the previous barrier; frozen while a machine is down.
        let mut running: Vec<u64> = vec![0; n];
        let mut book = OrphanBook::new(merged.len(), n_tenants);
        let mut blind = LoadRouter::new(vcores.clone(), &cfg.dispatch);
        // A barrier's routed events, (event, arrival instant, machine), in
        // routing order; and each machine's thread share of them.
        let mut routed: Vec<(u32, SimTime, usize)> = Vec::new();
        let mut share: Vec<usize> = vec![0; n];

        let mut quarantines = 0u64;
        let mut readmissions = 0u64;
        let mut next_event = 0usize;
        let mut epochs_run = 0u64;
        // Threads of every event routed so far (the ledger's running
        // `dispatched`), for the per-barrier conservation check.
        let mut released = 0u64;
        // Per event, the last crash whose machine had admitted threads of
        // it: crash orphaning stamps a machine's events in one pass over
        // its threads, and a fresh stamp per crash needs no clearing.
        let mut admitted_stamp: Vec<u64> = vec![0; merged.len()];
        let mut crash_stamp = 0u64;
        // Conservation at a barrier: every thread released so far is
        // admitted on a machine, queued in a lane, waiting as an orphan,
        // or lost. O(machines + pending orphans), no per-thread scan.
        let accounted = |book: &OrphanBook, lanes: &[Lane]| -> u64 {
            let admitted: u64 = self
                .machines
                .iter()
                .map(|m| m.lock().expect("fleet machine lock").num_threads() as u64)
                .sum();
            let queued: u64 = lanes.iter().map(|l| l.pending.len() as u64).sum();
            admitted + queued + book.pending_threads(&threads_of) + book.lost_threads
        };

        for e in 0..total_epochs {
            let e_start = SimTime::from_ms(e * epoch_ms);
            let e_end = SimTime::from_ms((e + 1) * epoch_ms);
            let last = e + 1 == total_epochs;

            // ---- barrier: health transitions + fault draws ----
            for i in 0..n {
                let h = &mut health[i];
                if let Some(u) = h.down_until {
                    if u == u64::MAX || e < u {
                        continue; // still down: no draws, no trust motion
                    }
                    h.down_until = None;
                    h.trust = fo.readmit_trust;
                    h.needs_catchup = true;
                    readmissions += 1;
                } else {
                    h.trust = (h.trust + (1.0 - h.trust) * fo.trust_recovery).min(1.0);
                }
                if e >= fault_epochs {
                    continue;
                }
                if fo.faults.crash_at(i as u32, e) {
                    h.crashes += 1;
                    quarantines += 1;
                    h.down_until = Some(if fo.faults.recovery_epochs == 0 {
                        u64::MAX
                    } else {
                        e + u64::from(fo.faults.recovery_epochs)
                    });
                    h.needs_catchup = false; // re-set at the next recovery
                    let pending = &mut lanes[i].pending;
                    let stranded = std::mem::take(pending);
                    if stranded.is_empty() {
                        continue;
                    }
                    if fo.failover {
                        // Orphan whole events only: an event with threads
                        // already admitted here keeps its queued remainder
                        // (barrier siblings never split across machines);
                        // it resumes if the machine recovers.
                        crash_stamp += 1;
                        let machine = self.machines[i].lock().expect("fleet machine lock");
                        for t in machine.thread_ids() {
                            admitted_stamp[machine.app_of(t).0 as usize] = crash_stamp;
                        }
                        drop(machine);
                        let mut j = 0;
                        while j < stranded.len() {
                            let g = stranded[j].spec.app.0;
                            let mut k = j;
                            while k < stranded.len() && stranded[k].spec.app.0 == g {
                                k += 1;
                            }
                            if admitted_stamp[g as usize] == crash_stamp {
                                pending.extend_from_slice(&stranded[j..k]);
                            } else {
                                book.orphan_or_lose(
                                    g,
                                    (k - j) as u32,
                                    tenant_of[g as usize],
                                    stranded[j].at,
                                    e,
                                    fo.retry_budget,
                                );
                            }
                            j = k;
                        }
                    } else {
                        // Blind baseline: the stranded queue is lost.
                        for ts in &stranded {
                            book.lose(1, tenant_of[ts.spec.app.0 as usize]);
                        }
                    }
                } else if e >= h.brown_until && fo.faults.brownout_at(i as u32, e) {
                    h.brownouts += 1;
                    quarantines += 1;
                    h.brown_until = e + u64::from(fo.faults.brownout_epochs);
                }
            }

            // ---- barrier: route orphans + this epoch's fresh arrivals ----
            let drain = next_event >= merged.len();
            let routable: Vec<usize> = (0..n).filter(|&i| health[i].routable(e)).collect();
            // Effective-backlog estimate (threads) per machine: queued +
            // running at the last barrier + assigned this barrier.
            let mut backlog: Vec<f64> = lanes
                .iter()
                .zip(&running)
                .map(|(l, &r)| l.pending.len() as f64 + r as f64)
                .collect();
            let route_healthy = |g: u32, backlog: &mut [f64]| -> usize {
                let home = homes[tenant_of[g as usize] as usize];
                let mut best = routable[0];
                let mut best_eff = f64::INFINITY;
                for &i in &routable {
                    let mut eff = backlog[i] / vcores[i] / health[i].trust;
                    if i as u32 == home {
                        eff -= cfg.dispatch.affinity_bonus;
                    }
                    // Strict `<` keeps the lowest index on ties.
                    if eff < best_eff {
                        best_eff = eff;
                        best = i;
                    }
                }
                backlog[best] += f64::from(threads_of[g as usize]);
                best
            };

            if fo.failover && !book.orphans.is_empty() {
                let mut pending = std::mem::take(&mut book.orphans);
                // Deterministic processing order regardless of how
                // orphanings interleaved across machines.
                pending.sort_by_key(|o| o.event);
                for mut o in pending {
                    // Drain epochs force-dispatch: backoff no longer buys
                    // anything once no new faults can fire.
                    if !drain && o.eligible > e {
                        book.orphans.push(o);
                        continue;
                    }
                    let g = o.event as usize;
                    book.retries[g] += 1;
                    if routable.is_empty() {
                        // The attempt is consumed even when nobody is
                        // healthy — this bounds the loop and turns a
                        // fleet-wide outage into explicit losses.
                        if book.retries[g] > fo.retry_budget {
                            book.lose(threads_of[g], tenant_of[g]);
                        } else {
                            o.eligible = e + 1 + u64::from(book.retries[g]);
                            book.orphans.push(o);
                        }
                        continue;
                    }
                    let at = o.at.max(e_start);
                    routed.push((o.event, at, route_healthy(o.event, &mut backlog)));
                    book.redispatched += 1;
                }
            }

            // Arrivals due after the run's end are never judged by machine
            // health; they stay in flight. The blind router's last barrier
            // still queues them, as the one-shot dispatch does (a one-shot
            // machine with nothing queued would stop early); the
            // health-aware router leaves them unrouted.
            let end_ms = (e + 1) * epoch_ms;
            let horizon_ms = if last && !fo.failover {
                u64::MAX
            } else {
                end_ms
            };
            while next_event < merged.len() && merged[next_event].at_ms < horizon_ms {
                let g = next_event as u32;
                let at_ms = merged[next_event].at_ms;
                let at = SimTime::from_ms(at_ms);
                let tenant = tenant_of[next_event];
                let nthreads = threads_of[next_event];
                released += u64::from(nthreads);
                if fo.failover {
                    if routable.is_empty() {
                        book.orphan_or_lose(g, nthreads, tenant, at, e, fo.retry_budget);
                    } else {
                        routed.push((g, at, route_healthy(g, &mut backlog)));
                    }
                } else {
                    // Blind decayed-load router over ALL machines, unaware
                    // of machine health.
                    let best = blind.route(at_ms, homes[tenant as usize], nthreads);
                    if at_ms < end_ms && health[best].is_down() {
                        // Routed into a dead machine: the work is lost —
                        // the cost of dispatching blind.
                        book.lose(nthreads, tenant);
                    } else {
                        routed.push((g, at, best));
                    }
                }
                next_event += 1;
            }

            // Size each lane once for the barrier's arrivals, then expand
            // their specs in routing order: pushing as each event is routed
            // would grow every lane by doubling.
            for &(g, _, i) in &routed {
                share[i] += threads_of[g as usize] as usize;
            }
            for (lane, s) in lanes.iter_mut().zip(&mut share) {
                lane.pending.reserve_exact(std::mem::take(s));
            }
            for (g, at, i) in routed.drain(..) {
                let threads = (0..threads_of[g as usize]).map(|_| spawn_of(g, at));
                lanes[i].pending.extend(threads);
            }
            debug_assert_eq!(
                accounted(&book, &lanes),
                released,
                "ledger imbalance after routing at epoch {e}"
            );

            // ---- epoch plan: who runs, with what entry stalls ----
            // (catchup, brownout) per machine; None = down, skipped.
            let plan: Vec<Option<(bool, bool)>> = health
                .iter_mut()
                .map(|h| {
                    if h.is_down() {
                        return None;
                    }
                    let catchup = std::mem::take(&mut h.needs_catchup);
                    Some((catchup, h.brown_until > e))
                })
                .collect();

            // ---- simulate the epoch: machines fan out, no cross-talk;
            // each worker takes its machine's lane and hands it back ----
            let handoff: Vec<Mutex<Lane>> = lanes.drain(..).map(Mutex::new).collect();
            lanes = pool.map_indexed(n, |i| {
                let mut lane = std::mem::take(&mut *handoff[i].lock().expect("fleet lane lock"));
                let Some((catchup, brown)) = plan[i] else {
                    return lane;
                };
                let mut machine = self.machines[i].lock().expect("fleet machine lock");
                if catchup {
                    // Freeze semantics: alive threads made no progress
                    // while the box was down, so stall them by exactly
                    // the outage length before the clock catches up; the
                    // queue slept too, so nothing admits before the
                    // recovery barrier.
                    let gap = e_start.saturating_sub(machine.now());
                    if gap > SimTime::ZERO {
                        let ids: Vec<ThreadId> = machine.alive_ids().collect();
                        for t in ids {
                            machine.stall(t, gap);
                        }
                    }
                    for ts in &mut lane.pending {
                        ts.at = ts.at.max(e_start);
                    }
                }
                if brown {
                    let dur = SimTime::from_ms(fo.faults.brownout_stall_ms);
                    let ids: Vec<ThreadId> = machine.alive_ids().collect();
                    for t in ids {
                        machine.stall(t, dur);
                    }
                }
                let sched = lane.sched.get_or_insert_with(|| make(i));
                let arrivals = std::mem::take(&mut lane.pending);
                let (totals, leftovers) =
                    drive(&mut machine, sched.as_mut(), e_end, arrivals, |_| {});
                lane.pending = leftovers;
                lane.quanta += totals.quanta;
                if last {
                    lane.sched = None;
                }
                lane
            });

            // ---- barrier: observe drain state ----
            debug_assert_eq!(
                accounted(&book, &lanes),
                released,
                "ledger imbalance after simulating epoch {e}"
            );
            epochs_run = e + 1;
            for i in 0..n {
                if !health[i].is_down() {
                    running[i] = self.machines[i]
                        .lock()
                        .expect("fleet machine lock")
                        .alive_ids()
                        .count() as u64;
                }
            }
            if next_event >= merged.len() && book.orphans.is_empty() {
                let settled = lanes.iter().enumerate().all(|(i, lane)| {
                    if health[i].down_until == Some(u64::MAX) {
                        return true; // never runs again; its work is in_flight
                    }
                    running[i] == 0 && lane.pending.is_empty()
                });
                if settled {
                    break;
                }
            }
        }

        // ---- roll-up: read every machine once, in machine order,
        // tolerating partial results (a frozen machine's threads count as
        // unfinished); tag each thread span with its tenant through its
        // global event index ----
        let admitted_total: usize = self
            .machines
            .iter()
            .map(|m| m.lock().expect("fleet machine lock").num_threads())
            .sum();
        let mut spans: Vec<ThreadSpan> = Vec::with_capacity(admitted_total);
        let mut summaries = Vec::with_capacity(n);
        let mut fo_summaries = Vec::with_capacity(n);
        for (i, lane) in lanes.iter().enumerate() {
            let machine = self.machines[i].lock().expect("fleet machine lock");
            let first = spans.len();
            spans.extend(machine.thread_ids().map(|id| ThreadSpan {
                app: tenant_of[machine.app_of(id).0 as usize],
                spawned_at: machine.spawn_time(id).as_secs_f64(),
                finished_at: machine.finish_time(id).map(|f| f.as_secs_f64()),
            }));
            let admitted = (spans.len() - first) as u64;
            let drained = spans[first..]
                .iter()
                .filter(|s| s.finished_at.is_some())
                .count() as u64;
            let makespan_s = machine.now().as_secs_f64();
            summaries.push(MachineSummary {
                machine: i as u32,
                arrivals: admitted,
                departures: drained,
                completed: machine.all_done() && lane.pending.is_empty(),
                makespan_s,
                quanta: lane.quanta,
                migrations: machine.total_migrations(),
            });
            fo_summaries.push(FailoverMachineSummary {
                machine: i as u32,
                admitted,
                drained,
                queued: lane.pending.len() as u64,
                crashes: health[i].crashes,
                brownouts: health[i].brownouts,
                down_at_end: health[i].is_down(),
                makespan_s,
            });
        }

        let admitted: u64 = summaries.iter().map(|m| m.arrivals).sum();
        let drained: u64 = summaries.iter().map(|m| m.departures).sum();
        let queued: u64 = fo_summaries.iter().map(|m| m.queued).sum();
        // Arrivals left unrouted: all of them in a run of zero epochs, and
        // those due after a health-aware run's end.
        let unrouted: u64 = threads_of[next_event..].iter().map(|&t| u64::from(t)).sum();
        let ledger = ConservationLedger {
            dispatched: total_offered,
            drained,
            in_flight: (admitted - drained) + queued + book.pending_threads(&threads_of) + unrouted,
            lost: book.lost_threads,
        };

        let wall = summaries.iter().map(|m| m.makespan_s).fold(0.0, f64::max);
        let (windows, mean_fair, min_fair) = window_series(&spans, wall);
        let by_tenant = sojourn_by_app(&spans, n_tenants, wall);
        let mean_sojourn_s = mean_sojourn(&spans, wall);

        let failover = FailoverResult {
            scheduler: label.to_string(),
            failover: fo.failover,
            epochs: epochs_run,
            machines: fo_summaries,
            tenants: by_tenant
                .iter()
                .enumerate()
                .map(|(t, totals)| FailoverTenantPoint {
                    tenant: t as u32,
                    name: cfg.tenants[t].name.clone(),
                    offered: traces[t].num_threads() as u64,
                    drained: totals.departures,
                    lost: book.lost_by_tenant[t],
                    mean_sojourn_s: totals.mean_sojourn_s(),
                })
                .collect(),
            ledger,
            quarantines,
            readmissions,
            orphaned: book.orphaned,
            redispatched: book.redispatched,
            mean_windowed_fairness: mean_fair,
            min_windowed_fairness: min_fair,
            makespan_s: wall,
            mean_sojourn_s,
        };
        let fleet = FleetResult {
            scheduler: label.to_string(),
            total_arrivals: admitted,
            total_departures: drained,
            completed: unrouted == 0 && summaries.iter().all(|m| m.completed),
            makespan_s: wall,
            mean_sojourn_s,
            machines: summaries,
            tenants: by_tenant
                .iter()
                .enumerate()
                .map(|(t, totals)| TenantPoint {
                    tenant: t as u32,
                    name: cfg.tenants[t].name.clone(),
                    home: homes[t],
                    arrivals: totals.threads,
                    departures: totals.departures,
                    mean_sojourn_s: totals.mean_sojourn_s(),
                })
                .collect(),
            windows,
            mean_windowed_fairness: mean_fair,
            min_windowed_fairness: min_fair,
        };
        (fleet, failover)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FleetConfig;
    use dike_util::json;
    use dike_workloads::ArrivalConfig;

    fn tiny_fleet(seed: u64) -> FleetConfig {
        let mut cfg = FleetConfig::uniform(
            3,
            4,
            ArrivalConfig {
                mean_interarrival_ms: 800.0,
                horizon_ms: 6_000,
                threads_min: 1,
                threads_max: 2,
            },
            seed,
        );
        cfg.scale = 0.01;
        cfg.deadline_s = 60.0;
        cfg
    }

    #[test]
    fn failover_config_validation() {
        assert!(FailoverConfig::default().validate().is_ok());
        let bad = FailoverConfig {
            epoch_ms: 0,
            ..Default::default()
        };
        assert!(bad.validate().is_err());
        let bad = FailoverConfig {
            readmit_trust: 0.0,
            ..Default::default()
        };
        assert!(bad.validate().is_err());
        let bad = FailoverConfig {
            faults: MachineFaultConfig {
                crash_rate: 1.5,
                ..Default::default()
            },
            ..Default::default()
        };
        assert!(bad.validate().is_err());
        let s = json::to_string(&FailoverConfig::default());
        let back: FailoverConfig = json::from_str(&s).expect("parse");
        assert_eq!(back, FailoverConfig::default());
    }

    #[test]
    fn zero_fault_run_drains_conserves_and_is_reusable() {
        let runner = FleetRunner::new(tiny_fleet(11));
        let pool = Pool::new(1);
        let fo = FailoverConfig::default();
        let a = runner.run_failover(&pool, &fo);
        let b = runner.run_failover(&pool, &fo);
        assert_eq!(a, b, "machines reset per run: identical laps");
        a.ledger.assert_holds("zero-fault");
        assert_eq!(a.ledger.lost, 0);
        assert_eq!(a.ledger.in_flight, 0, "light load drains fully");
        assert_eq!(a.ledger.drained, a.ledger.dispatched);
        assert_eq!(a.quarantines, 0);
        assert_eq!(a.orphaned, 0);
        assert!(a.ledger.dispatched > 0);
        assert!(a.mean_windowed_fairness > 0.0);
        assert_eq!(
            a.ledger.dispatched,
            a.tenants.iter().map(|t| t.offered).sum::<u64>()
        );
    }

    #[test]
    fn failover_result_is_worker_count_invariant() {
        let runner = FleetRunner::new(tiny_fleet(13));
        let fo = FailoverConfig {
            faults: MachineFaultConfig::axis(0.25, 0.2, 7),
            ..Default::default()
        };
        let serial = json::to_string(&runner.run_failover(&Pool::new(1), &fo));
        for workers in [2, 8] {
            let par = json::to_string(&runner.run_failover(&Pool::new(workers), &fo));
            assert_eq!(serial, par, "diverged at {workers} workers");
        }
    }

    #[test]
    fn crashes_lose_work_blind_but_failover_recovers_it() {
        let runner = FleetRunner::new(tiny_fleet(17));
        let faults = MachineFaultConfig::axis(0.35, 0.0, 23);
        let pool = Pool::new(1);
        let with = runner.run_failover(
            &pool,
            &FailoverConfig {
                failover: true,
                faults,
                ..Default::default()
            },
        );
        let without = runner.run_failover(
            &pool,
            &FailoverConfig {
                failover: false,
                faults,
                ..Default::default()
            },
        );
        with.ledger.assert_holds("failover on");
        without.ledger.assert_holds("failover off");
        let crashes: u64 = with.machines.iter().map(|m| m.crashes).sum();
        assert!(crashes > 0, "the seeded stream must actually crash");
        assert!(
            without.ledger.lost > 0,
            "blind dispatch into a crashing fleet must lose work: {:?}",
            without.ledger
        );
        assert!(
            with.ledger.lost < without.ledger.lost,
            "failover must lose strictly less: {:?} vs {:?}",
            with.ledger,
            without.ledger
        );
        assert!(with.redispatched > 0);
    }

    #[test]
    fn permanent_fleet_wide_crash_loses_everything_explicitly() {
        let runner = FleetRunner::new(tiny_fleet(19));
        let fo = FailoverConfig {
            faults: MachineFaultConfig {
                crash_rate: 1.0,
                recovery_epochs: 0, // permanent
                ..Default::default()
            },
            ..Default::default()
        };
        let r = runner.run_failover(&Pool::new(1), &fo);
        r.ledger.assert_holds("fleet-wide permanent crash");
        // Every machine died at the first barrier, before admitting
        // anything: all offered work becomes explicit losses (bounded by
        // the retry budget), never a silent drop.
        assert_eq!(r.ledger.drained, 0);
        assert_eq!(r.ledger.in_flight, 0);
        assert_eq!(r.ledger.lost, r.ledger.dispatched);
        assert!(r.machines.iter().all(|m| m.down_at_end));
    }

    #[test]
    fn brownouts_conserve_and_quarantine_routing() {
        let runner = FleetRunner::new(tiny_fleet(29));
        let fo = FailoverConfig {
            faults: MachineFaultConfig::axis(0.0, 0.5, 31),
            ..Default::default()
        };
        let r = runner.run_failover(&Pool::new(1), &fo);
        r.ledger.assert_holds("brownouts");
        let brownouts: u64 = r.machines.iter().map(|m| m.brownouts).sum();
        assert!(brownouts > 0, "the seeded stream must brown out");
        assert!(r.quarantines >= brownouts);
        // Brownouts slow machines but kill nothing: with a generous
        // deadline everything still drains.
        assert_eq!(r.ledger.drained, r.ledger.dispatched, "{:?}", r.ledger);
    }

    /// Small machines under heavy load hold queues at every barrier, so
    /// crashes strand queued work: the health-aware loop orphans whole
    /// events and the blind one loses the queue, and in both the ledger
    /// balances at every barrier (the loop's own debug checks) and at the
    /// end.
    #[test]
    fn crashes_strand_queues_and_every_barrier_balances() {
        let mut cfg = tiny_fleet(43);
        for m in &mut cfg.machines {
            *m = dike_machine::presets::small_machine(m.seed);
        }
        for t in &mut cfg.tenants {
            t.arrivals.mean_interarrival_ms = 150.0;
            t.arrivals.threads_max = 4;
        }
        cfg.scale = 0.05;
        let runner = FleetRunner::new(cfg);
        let faults = MachineFaultConfig {
            crash_rate: 0.3,
            recovery_epochs: 1,
            seed: 47,
            ..Default::default()
        };
        let run = |failover: bool| {
            let r = runner.run_failover(
                &Pool::new(1),
                &FailoverConfig {
                    failover,
                    faults,
                    ..Default::default()
                },
            );
            r.ledger.assert_holds("stranded queues");
            r
        };
        let with = run(true);
        assert!(with.orphaned > 0, "crashes must strand queued events");
        assert_eq!(with.redispatched, with.orphaned);
        let without = run(false);
        assert!(without.ledger.lost > 0, "blind crashes lose the queue");
        assert_eq!(without.orphaned, 0);
    }

    #[test]
    fn recovered_machines_are_readmitted() {
        let runner = FleetRunner::new(tiny_fleet(37));
        let fo = FailoverConfig {
            faults: MachineFaultConfig {
                crash_rate: 0.4,
                recovery_epochs: 1,
                seed: 41,
                ..Default::default()
            },
            ..Default::default()
        };
        let r = runner.run_failover(&Pool::new(1), &fo);
        r.ledger.assert_holds("crash + fast recovery");
        let crashes: u64 = r.machines.iter().map(|m| m.crashes).sum();
        assert!(crashes > 0);
        assert_eq!(
            r.readmissions, crashes,
            "every 1-epoch outage recovers within the run"
        );
        assert!(r.machines.iter().all(|m| !m.down_at_end));
    }
}
