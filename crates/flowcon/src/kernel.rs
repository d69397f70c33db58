//! The FlowCon node kernel: one worker's container pool and the steps
//! every execution mode drives it through.
//!
//! The paper's worker (§3.2, Fig. 2) runs containerized training jobs in
//! one pool sharing the node's capacity.  A Container Monitor turns each
//! job's evaluation function and usage into a progress score (Eq. 1) and
//! growth efficiency (Eq. 2) per tick; the Executor applies the policy's
//! decisions as `docker update` soft limits.  [`NodeKernel`] owns that
//! state and those steps, once:
//!
//! * [`NodeKernel::recompute_rates`] — the Docker soft-limit water-fill
//!   plus per-container contention efficiency;
//! * [`NodeKernel::integrate`] — the fluid advance at the fixed rates;
//! * [`NodeKernel::measure_into`] — the Container Monitor (Eq. 1/Eq. 2);
//! * [`NodeKernel::reconfigure`] — measure, run the policy, apply limits.
//!
//! State is a structure-of-arrays arena: *the container id is the array
//! index*, so a job, its container record and its monitor records sit at
//! the same index of flat vectors, and `live` lists the running ids in
//! ascending order.  Every step scans `live` only, so an event
//! costs O(live containers) however many jobs a long open-loop run has
//! admitted.
//!
//! Two drivers run the kernel:
//!
//! * the event-driven worker ([`crate::worker`]): recorded, headless,
//!   source-fed and open-loop sessions, with ids allocated sequentially
//!   ([`NodeKernel::next_id`]);
//! * the cluster scheduler's barrier-driven node, which reuses the lowest
//!   free slot.
//!
//! Both decide that a job has finished the same way:
//! [`NodeKernel::reap_terminated`] reads [`TrainingJob::exit_code`].

use flowcon_dl::TrainingJob;
use flowcon_sim::alloc::{waterfill_soft_into, AllocRequest, WaterfillScratch};
use flowcon_sim::time::{SimDuration, SimTime};
use flowcon_sim::trace::{TraceKind, Tracer};
use flowcon_sim::{ContainerId, ResourceKind, ResourceVec, RESOURCE_KINDS};

use crate::config::NodeConfig;
use crate::metric::{progress_score, GrowthMeasurement};
use crate::policy::ResourcePolicy;

/// Intervals shorter than this carry too little signal; the monitor then
/// reuses its previous measurement instead of rebasing.
const MIN_INTERVAL_SECS: f64 = 0.1;

/// A policy's CPU limit as the container gets it: a finite value is
/// clamped to `[0, 1]` and a non-finite one means unlimited, so
/// out-of-range policy output is coerced rather than corrupting the
/// water-fill.
#[inline]
fn clamp_cpu_limit(limit: f64) -> f64 {
    if limit.is_finite() {
        limit.clamp(0.0, 1.0)
    } else {
        1.0
    }
}

/// One container's record: creation time, CPU soft limit, cumulative
/// usage.
///
/// Kept `Copy` and small on purpose — `slot_records_stay_pod` asserts the
/// size so a refactor cannot silently fatten the arena.
#[derive(Debug, Clone, Copy)]
struct ContainerSlot {
    /// Admission time (completion records need it).
    created_at: SimTime,
    /// CPU soft limit as a fraction of the node (`docker update --cpus`);
    /// 1.0 is Docker's unlimited default.
    cpu_limit: f64,
    /// Cumulative resource-time integral (the monitor's usage source).
    cumulative: ResourceVec,
    /// In the pool (running); cleared on exit.
    runnable: bool,
}

/// One container's Container Monitor state across measurements.
#[derive(Debug, Clone, Copy)]
struct MonitorSlot {
    tracked: bool,
    last_tick: SimTime,
    last_eval: Option<f64>,
    last_cumulative: ResourceVec,
    cached_progress: Option<f64>,
    cached_avg_usage: ResourceVec,
}

impl MonitorSlot {
    const UNTRACKED: MonitorSlot = MonitorSlot {
        tracked: false,
        last_tick: SimTime::ZERO,
        last_eval: None,
        last_cumulative: ResourceVec::ZERO,
        cached_progress: None,
        cached_avg_usage: ResourceVec::ZERO,
    };

    /// Measure one container at `now` and rebase (Eq. 1 over the
    /// evaluation samples; Eq. 2's denominator is the *exact* average
    /// usage over the interval — the cumulative delta over elapsed time).
    ///
    /// The first observation only establishes the baseline; an interval
    /// shorter than [`MIN_INTERVAL_SECS`] (an interrupt right after a
    /// tick) reuses the previous measurement instead of rebasing.
    #[inline]
    fn measure(
        &mut self,
        id: ContainerId,
        now: SimTime,
        eval_now: Option<f64>,
        cumulative: ResourceVec,
        cpu_limit: f64,
    ) -> GrowthMeasurement {
        if !self.tracked {
            *self = MonitorSlot {
                tracked: true,
                last_tick: now,
                last_eval: eval_now,
                last_cumulative: cumulative,
                cached_progress: None,
                cached_avg_usage: ResourceVec::ZERO,
            };
            return GrowthMeasurement {
                id,
                progress: None,
                avg_usage: ResourceVec::ZERO,
                cpu_limit,
            };
        }
        let dt = now.saturating_since(self.last_tick).as_secs_f64();
        if dt >= MIN_INTERVAL_SECS {
            let mut avg_usage = ResourceVec::ZERO;
            for kind in RESOURCE_KINDS {
                avg_usage.set(
                    kind,
                    (cumulative.get(kind) - self.last_cumulative.get(kind)) / dt,
                );
            }
            self.cached_progress = match (eval_now, self.last_eval) {
                (Some(e), Some(p)) => progress_score(e, p, dt),
                _ => None,
            };
            self.cached_avg_usage = avg_usage;
            self.last_tick = now;
            self.last_eval = eval_now.or(self.last_eval);
            self.last_cumulative = cumulative;
        }
        GrowthMeasurement {
            id,
            progress: self.cached_progress,
            avg_usage: self.cached_avg_usage,
            cpu_limit,
        }
    }
}

/// Which of the node's two Container Monitors a measurement reads and
/// rebases: the one feeding the policy, or the one feeding the growth
/// traces of Figs. 13–14 (kept apart so tracing never shifts the
/// policy's measurement intervals).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Monitor {
    /// Measurements handed to the policy at every reconfiguration.
    Policy,
    /// Measurements for the recorder's growth-efficiency traces.
    Trace,
}

/// One node's container pool, monitors and hot-path buffers.
///
/// Every buffer is cleared (capacity kept) by [`NodeKernel::reset`], so
/// an executor shard recycles one kernel across every worker it drives.
#[derive(Debug, Default)]
pub struct NodeKernel {
    /// Job arena: index == raw container id.
    jobs: Vec<TrainingJob>,
    /// Container records, parallel to `jobs`.
    slots: Vec<ContainerSlot>,
    /// Policy-monitor records, parallel to `jobs`.
    policy_mons: Vec<MonitorSlot>,
    /// Trace-monitor records, parallel to `jobs` once growth tracing has
    /// run (headless and scheduler nodes never size it).
    trace_mons: Vec<MonitorSlot>,
    /// Running container ids, ascending.
    live: Vec<ContainerId>,
    /// `(id, exit code)` of the containers the last
    /// [`NodeKernel::reap_terminated`] removed, in id order.
    exited: Vec<(ContainerId, i32)>,
    /// Ids whose rates the last water-fill fixed, ascending.
    rate_ids: Vec<ContainerId>,
    /// CPU rates aligned with `rate_ids`.
    rates: Vec<f64>,
    /// Contention efficiencies aligned with `rate_ids`.
    efficiencies: Vec<f64>,
    alloc: WaterfillScratch,
    requests: Vec<AllocRequest>,
    measures: Vec<GrowthMeasurement>,
    updates: Vec<(ContainerId, f64)>,
    algorithm_runs: u64,
    update_calls: u64,
    waterfill_runs: u64,
}

impl NodeKernel {
    /// An empty node.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty the pool and zero the counters (capacities are kept), then
    /// pre-size for up to `max_jobs` containers so the first tick of the
    /// next run is as allocation-free as its steady state.
    pub fn reset(&mut self, max_jobs: usize) {
        self.jobs.clear();
        self.slots.clear();
        self.policy_mons.clear();
        self.trace_mons.clear();
        self.live.clear();
        self.exited.clear();
        self.rate_ids.clear();
        self.rates.clear();
        self.efficiencies.clear();
        self.requests.clear();
        self.measures.clear();
        self.updates.clear();
        self.algorithm_runs = 0;
        self.update_calls = 0;
        self.waterfill_runs = 0;
        self.jobs.reserve(max_jobs);
        self.slots.reserve(max_jobs);
        self.policy_mons.reserve(max_jobs);
        self.live.reserve(max_jobs);
        self.exited.reserve(max_jobs);
        self.rate_ids.reserve(max_jobs);
        self.rates.reserve(max_jobs);
        self.efficiencies.reserve(max_jobs);
        self.requests.reserve(max_jobs);
        self.measures.reserve(max_jobs);
        self.updates.reserve(max_jobs);
        self.alloc.reserve(max_jobs);
    }

    /// Running container ids, ascending — the pool membership the
    /// policy's listeners see.
    #[inline]
    pub fn live(&self) -> &[ContainerId] {
        &self.live
    }

    /// Whether `id` is in the pool.
    #[inline]
    pub fn is_live(&self, id: ContainerId) -> bool {
        self.slots.get(id.index()).is_some_and(|s| s.runnable)
    }

    /// The id a sequentially allocating driver gives its next container.
    #[inline]
    pub fn next_id(&self) -> ContainerId {
        let raw = u32::try_from(self.jobs.len()).expect("container id space exhausted");
        ContainerId::from_raw(raw)
    }

    /// The job in container `id` (running or exited).
    #[inline]
    pub fn job(&self, id: ContainerId) -> &TrainingJob {
        &self.jobs[id.index()]
    }

    /// Mutable access to the job in container `id` (fault injection).
    #[inline]
    pub fn job_mut(&mut self, id: ContainerId) -> &mut TrainingJob {
        &mut self.jobs[id.index()]
    }

    /// When container `id` was admitted.
    #[inline]
    pub fn created_at(&self, id: ContainerId) -> SimTime {
        self.slots[id.index()].created_at
    }

    /// Container `id`'s CPU soft limit.
    #[inline]
    pub fn cpu_limit(&self, id: ContainerId) -> f64 {
        self.slots[id.index()].cpu_limit
    }

    /// Start `job` in container `id` at `now`, unlimited and untracked
    /// by either monitor.
    ///
    /// `id` is either [`NodeKernel::next_id`] or a slot that is not live
    /// (the scheduler's node reuses its lowest free slot).
    #[inline]
    pub fn admit(&mut self, id: ContainerId, job: TrainingJob, now: SimTime) {
        let slot = ContainerSlot {
            created_at: now,
            cpu_limit: 1.0,
            cumulative: ResourceVec::ZERO,
            runnable: true,
        };
        let idx = id.index();
        if idx == self.jobs.len() {
            self.jobs.push(job);
            self.slots.push(slot);
            self.policy_mons.push(MonitorSlot::UNTRACKED);
        } else {
            assert!(!self.slots[idx].runnable, "container {id} is already live");
            self.jobs[idx] = job;
            self.slots[idx] = slot;
            self.policy_mons[idx] = MonitorSlot::UNTRACKED;
            if let Some(m) = self.trace_mons.get_mut(idx) {
                *m = MonitorSlot::UNTRACKED;
            }
        }
        let pos = self.live.partition_point(|&l| l < id);
        self.live.insert(pos, id);
    }

    /// Take container `id` out of the pool without an exit record (the
    /// scheduler's preemption).  Its monitors forget it: a later
    /// admission into the same slot starts from a fresh baseline.
    #[inline]
    pub fn remove(&mut self, id: ContainerId) {
        self.slots[id.index()].runnable = false;
        self.live.retain(|&l| l != id);
    }

    /// Remove every live container whose job has ended (converged or
    /// crashed), recording `(id, exit code)` pairs in id order (read them
    /// back with [`NodeKernel::exited`]).  Returns whether any container
    /// exited.
    pub fn reap_terminated(&mut self) -> bool {
        self.exited.clear();
        let (jobs, slots, exited) = (&self.jobs, &mut self.slots, &mut self.exited);
        self.live.retain(|&id| match jobs[id.index()].exit_code() {
            Some(code) => {
                exited.push((id, code));
                slots[id.index()].runnable = false;
                false
            }
            None => true,
        });
        !self.exited.is_empty()
    }

    /// Clear the exit record (nothing exited in this step).
    #[inline]
    pub fn clear_exited(&mut self) {
        self.exited.clear();
    }

    /// The containers the last reap removed, in id order.
    #[inline]
    pub fn exited(&self) -> &[(ContainerId, i32)] {
        &self.exited
    }

    /// Ids, CPU rates and contention efficiencies the last
    /// [`NodeKernel::recompute_rates`] fixed (aligned, ascending ids; a
    /// container that has exited since keeps its row until the next
    /// recompute).
    #[inline]
    pub fn rated(&self) -> (&[ContainerId], &[f64], &[f64]) {
        (&self.rate_ids, &self.rates, &self.efficiencies)
    }

    /// Water-fill the node's capacity over the pool with Docker
    /// soft-limit semantics (§4.1): a limit bounds the share a container
    /// may claim while others contend, but capacity that would otherwise
    /// idle is redistributed up to demand.  A container is "shaped" when
    /// a policy gave it an explicit limit; free competitors (limit 1.0)
    /// pay the jitter tax on top of the shared contention factor.
    ///
    /// Records a cumulative [`TraceKind::Waterfill`] counter at `now`
    /// under `trace_id`.
    pub fn recompute_rates<T: Tracer>(
        &mut self,
        now: SimTime,
        node: &NodeConfig,
        tracer: &mut T,
        trace_id: u32,
    ) {
        self.waterfill_runs += 1;
        if T::ENABLED {
            tracer.counter(
                now,
                TraceKind::Waterfill,
                trace_id,
                self.waterfill_runs as f64,
            );
        }
        self.requests.clear();
        for &id in &self.live {
            self.requests.push(AllocRequest {
                limit: self.slots[id.index()].cpu_limit,
                demand: self.jobs[id.index()].demand(),
                weight: 1.0,
            });
        }
        waterfill_soft_into(&mut self.alloc, node.capacity, &self.requests);
        self.rate_ids.clear();
        self.rate_ids.extend_from_slice(&self.live);
        self.rates.clear();
        self.rates.extend_from_slice(self.alloc.rates());
        let n = self.rate_ids.len();
        self.efficiencies.clear();
        self.efficiencies.extend(self.requests.iter().map(|r| {
            let shaped = r.limit < 0.999;
            node.contention.container_efficiency(n, shaped)
        }));
    }

    /// Seconds until the earliest projected completion at the current
    /// rates, or `None` when nothing progresses — or when a rated
    /// container has left the pool since the rates were fixed (the
    /// projection is stale then; the next recompute renews it).
    #[inline]
    pub fn earliest_eta(&self) -> Option<f64> {
        let mut best: Option<f64> = None;
        for (k, &id) in self.rate_ids.iter().enumerate() {
            let idx = id.index();
            if !self.slots[idx].runnable {
                return None;
            }
            let remaining = self.jobs[idx].remaining_cpu_seconds();
            let speed = self.rates[k] * self.efficiencies[k];
            if speed > 1e-12 {
                let eta = remaining / speed;
                best = Some(best.map_or(eta, |b| b.min(eta)));
            }
        }
        best
    }

    /// Integrate `dt` seconds at the current rates: usage accounting
    /// records the raw CPU occupancy (what `docker stats` shows), job
    /// progress the occupancy times contention efficiency.
    #[inline]
    pub fn integrate(&mut self, dt: f64) {
        for (k, &id) in self.rate_ids.iter().enumerate() {
            let idx = id.index();
            if !self.slots[idx].runnable {
                continue;
            }
            let rate = self.rates[k];
            let mut usage = self.jobs[idx].footprint();
            usage.set(ResourceKind::Cpu, rate);
            self.slots[idx].cumulative += usage.scale(dt);
            self.jobs[idx].advance(rate * self.efficiencies[k] * dt);
        }
    }

    /// Measure every live container through `monitor` (read the result
    /// back with [`NodeKernel::measures`]).
    #[inline]
    pub fn measure_into(&mut self, now: SimTime, monitor: Monitor) {
        let mons = match monitor {
            Monitor::Policy => &mut self.policy_mons,
            Monitor::Trace => {
                // Sized on first use: only recorded runs trace growth.
                self.trace_mons
                    .resize(self.jobs.len(), MonitorSlot::UNTRACKED);
                &mut self.trace_mons
            }
        };
        self.measures.clear();
        for &id in &self.live {
            let idx = id.index();
            let slot = &self.slots[idx];
            self.measures.push(mons[idx].measure(
                id,
                now,
                self.jobs[idx].eval(),
                slot.cumulative,
                slot.cpu_limit,
            ));
        }
    }

    /// The last [`NodeKernel::measure_into`]'s measurements, in id order.
    #[inline]
    pub fn measures(&self) -> &[GrowthMeasurement] {
        &self.measures
    }

    /// One Executor round: measure through the policy monitor, run the
    /// policy, and apply its limits to the containers still in the pool
    /// (`docker update --cpus`; a finite limit is clamped to `[0, 1]`, a
    /// non-finite one means unlimited).  Returns the policy's next
    /// interval.
    ///
    /// Records a [`TraceKind::Reconfigure`] span at `now` under
    /// `trace_id`, carrying the pool size.
    pub fn reconfigure<T: Tracer>(
        &mut self,
        now: SimTime,
        policy: &mut dyn ResourcePolicy,
        tracer: &mut T,
        trace_id: u32,
    ) -> Option<SimDuration> {
        if T::ENABLED {
            tracer.span_begin(
                now,
                TraceKind::Reconfigure,
                self.live.len() as u32,
                trace_id,
            );
        }
        self.measure_into(now, Monitor::Policy);
        // Policies must clear the recycled buffer themselves; this clear
        // keeps a non-conforming external policy from re-applying last
        // tick's limits.
        self.updates.clear();
        let next = policy.reconfigure_into(now, &self.measures, &mut self.updates);
        self.algorithm_runs += 1;
        for &(id, limit) in &self.updates {
            if let Some(slot) = self.slots.get_mut(id.index()).filter(|s| s.runnable) {
                slot.cpu_limit = clamp_cpu_limit(limit);
                self.update_calls += 1;
            }
        }
        if T::ENABLED {
            tracer.span_end(
                now,
                TraceKind::Reconfigure,
                self.live.len() as u32,
                trace_id,
            );
        }
        next
    }

    /// Policy rounds run so far.
    #[inline]
    pub fn algorithm_runs(&self) -> u64 {
        self.algorithm_runs
    }

    /// `docker update` calls applied so far.
    #[inline]
    pub fn update_calls(&self) -> u64 {
        self.update_calls
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::GrowthMeasurement;
    use crate::policy::StaticEqualPolicy;
    use flowcon_dl::{ModelId, ModelSpec};
    use flowcon_sim::rng::SimRng;
    use flowcon_sim::trace::NoopTracer;
    use proptest::prelude::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn job_scaled(scale: f64, rng: &mut SimRng) -> TrainingJob {
        let spec = ModelSpec::of(ModelId::MnistTorch).scaled_by(scale);
        TrainingJob::with_label(spec, "toy", rng)
    }

    fn job(rng: &mut SimRng) -> TrainingJob {
        job_scaled(1.0, rng)
    }

    /// Admit `n` jobs at `now` under sequential ids.
    fn admit_n(k: &mut NodeKernel, n: usize, now: SimTime, rng: &mut SimRng) -> Vec<ContainerId> {
        (0..n)
            .map(|_| {
                let id = k.next_id();
                k.admit(id, job(rng), now);
                id
            })
            .collect()
    }

    /// Pin the rates the next `integrate` applies (full efficiency), as
    /// if a water-fill had chosen them.
    fn set_rates(k: &mut NodeKernel, rows: &[(ContainerId, f64)]) {
        k.rate_ids = rows.iter().map(|&(id, _)| id).collect();
        k.rates = rows.iter().map(|&(_, r)| r).collect();
        k.efficiencies = vec![1.0; rows.len()];
    }

    /// A policy that sets every listed container to one scripted limit
    /// per round, however far out of range.
    struct Scripted {
        ids: Vec<ContainerId>,
        limit: f64,
    }

    impl ResourcePolicy for Scripted {
        fn name(&self) -> String {
            "scripted".to_string()
        }

        fn initial_interval(&self) -> Option<SimDuration> {
            None
        }

        fn reconfigure_into(
            &mut self,
            _now: SimTime,
            _measures: &[GrowthMeasurement],
            updates: &mut Vec<(ContainerId, f64)>,
        ) -> Option<SimDuration> {
            updates.clear();
            updates.extend(self.ids.iter().map(|&id| (id, self.limit)));
            None
        }

        fn on_pool_change(&mut self, _now: SimTime, _pool_ids: &[ContainerId]) -> bool {
            false
        }
    }

    /// Apply one round of `limit` to container `id` and read it back.
    fn apply_limit(k: &mut NodeKernel, id: ContainerId, limit: f64) -> f64 {
        let mut policy = Scripted {
            ids: vec![id],
            limit,
        };
        k.reconfigure(t(0), &mut policy, &mut NoopTracer, 0);
        k.cpu_limit(id)
    }

    fn remaining(k: &NodeKernel, id: ContainerId) -> f64 {
        k.job(id).remaining_cpu_seconds()
    }

    /// A one-container node admitted at t=0, running at rate 0.5.
    fn setup() -> (NodeKernel, ContainerId) {
        let mut k = NodeKernel::new();
        let id = admit_n(&mut k, 1, t(0), &mut SimRng::new(1))[0];
        set_rates(&mut k, &[(id, 0.5)]);
        (k, id)
    }

    #[test]
    fn first_measurement_is_fresh() {
        let (mut k, id) = setup();
        k.measure_into(t(0), Monitor::Policy);
        assert_eq!(k.measures().len(), 1);
        assert_eq!(k.measures()[0].id, id);
        assert_eq!(k.measures()[0].growth(), None);
    }

    #[test]
    fn second_measurement_computes_growth_from_deltas() {
        let (mut k, id) = setup();
        // Past the job's warm-up, so both samples carry an evaluation.
        k.integrate(20.0);
        k.measure_into(t(20), Monitor::Policy);
        let before = k.job(id).eval().unwrap();
        // 20 s at rate 0.5: R = 10 cpu-s / 20 s = 0.5 exactly.
        k.integrate(20.0);
        k.measure_into(t(40), Monitor::Policy);
        let m = &k.measures()[0];
        assert_eq!(m.avg_cpu(), 0.5);
        let after = k.job(id).eval().unwrap();
        assert_eq!(m.progress, Some((after - before).abs() / 20.0));
        assert!(m.growth().is_some());
    }

    #[test]
    fn tiny_interval_reuses_cached_measurement() {
        let (mut k, _) = setup();
        k.measure_into(t(0), Monitor::Policy);
        k.integrate(20.0);
        k.measure_into(t(20), Monitor::Policy);
        let first = k.measures()[0].clone();
        // An interrupt 1 ms later must not rebase onto a 1 ms interval.
        let later = SimTime::from_micros(20_001_000);
        k.integrate(0.001);
        k.measure_into(later, Monitor::Policy);
        assert_eq!(k.measures()[0], first);
    }

    #[test]
    fn the_two_monitors_rebase_independently() {
        let (mut k, _) = setup();
        k.integrate(20.0);
        k.measure_into(t(20), Monitor::Policy);
        k.integrate(20.0);
        // The trace monitor sees this container for the first time.
        k.measure_into(t(40), Monitor::Trace);
        assert_eq!(k.measures()[0].growth(), None);
        k.measure_into(t(40), Monitor::Policy);
        assert!(k.measures()[0].growth().is_some());
    }

    #[test]
    fn forget_drops_state() {
        // An exit forgets the container: it leaves the pool, is no longer
        // measured, and a reused slot starts over from a fresh baseline.
        let (mut k, id) = setup();
        k.measure_into(t(0), Monitor::Policy);
        k.job_mut(id).inject_failure(137);
        assert!(k.reap_terminated());
        assert_eq!(k.exited(), &[(id, 137)]);
        assert!(k.live().is_empty() && !k.is_live(id));
        k.measure_into(t(20), Monitor::Policy);
        assert!(k.measures().is_empty());
        k.admit(id, job(&mut SimRng::new(2)), t(30));
        k.measure_into(t(30), Monitor::Policy);
        assert_eq!(k.measures()[0].growth(), None);
        assert_eq!(k.created_at(id), t(30));
    }

    #[test]
    fn allocator_is_sequential() {
        let mut k = NodeKernel::new();
        let ids = admit_n(&mut k, 3, t(0), &mut SimRng::new(3));
        let raw: Vec<u32> = ids.iter().map(|id| id.as_raw()).collect();
        assert_eq!(raw, [0, 1, 2]);
        assert_eq!(k.next_id().as_raw(), 3);
        k.reset(0);
        assert_eq!(k.next_id().as_raw(), 0, "a reset node starts over");
    }

    #[test]
    fn insert_get_remove() {
        let mut k = NodeKernel::new();
        let id = admit_n(&mut k, 1, t(4), &mut SimRng::new(4))[0];
        assert!(k.is_live(id));
        assert_eq!(k.created_at(id), t(4));
        assert_eq!(k.cpu_limit(id), 1.0, "admitted unlimited");
        k.remove(id);
        assert!(!k.is_live(id) && k.live().is_empty());
        assert_eq!(k.job(id).label(), "toy", "the job stays inspectable");
    }

    #[test]
    fn iteration_is_id_ordered() {
        let mut k = NodeKernel::new();
        let mut rng = SimRng::new(5);
        admit_n(&mut k, 3, t(0), &mut rng);
        let middle = ContainerId::from_raw(1);
        k.remove(middle);
        assert_eq!(
            k.live(),
            &[ContainerId::from_raw(0), ContainerId::from_raw(2)]
        );
        // The scheduler's node reuses its lowest free slot.
        k.admit(middle, job(&mut rng), t(5));
        let raw: Vec<u32> = k.live().iter().map(|id| id.as_raw()).collect();
        assert_eq!(raw, [0, 1, 2]);
        k.recompute_rates(t(5), &NodeConfig::default(), &mut NoopTracer, 0);
        assert_eq!(k.rated().0, k.live());
    }

    #[test]
    fn efficiency_slows_progress_but_not_usage() {
        let (mut k, id) = setup();
        let total = remaining(&k, id);
        k.efficiencies[0] = 0.5;
        k.integrate(10.0);
        // Usage records the raw occupancy; progress pays the contention.
        assert_eq!(k.slots[id.index()].cumulative.get(ResourceKind::Cpu), 5.0);
        assert!((total - remaining(&k, id) - 2.5).abs() < 1e-9);
    }

    #[test]
    fn update_changes_cpu_limit() {
        let mut k = NodeKernel::new();
        let ids = admit_n(&mut k, 3, t(0), &mut SimRng::new(6));
        let mut policy = StaticEqualPolicy::new();
        policy.on_pool_change(t(0), k.live());
        // A container that left before the update is not touched.
        k.remove(ids[2]);
        k.reconfigure(t(0), &mut policy, &mut NoopTracer, 0);
        assert_eq!(k.algorithm_runs(), 1);
        assert_eq!(k.update_calls(), 2);
        assert_eq!(k.cpu_limit(ids[0]), 1.0 / 3.0);
        assert_eq!(k.cpu_limit(ids[2]), 1.0);
    }

    #[test]
    fn admitted_containers_are_unlimited() {
        let mut k = NodeKernel::new();
        let ids = admit_n(&mut k, 3, t(0), &mut SimRng::new(9));
        apply_limit(&mut k, ids[1], 0.25);
        // A reused slot starts over at Docker's no-limit default.
        k.remove(ids[1]);
        k.admit(ids[1], job(&mut SimRng::new(10)), t(1));
        for id in ids {
            assert_eq!(k.cpu_limit(id), 1.0);
        }
    }

    #[test]
    fn policy_limits_are_clamped_to_the_unit_interval() {
        let (mut k, id) = setup();
        assert_eq!(apply_limit(&mut k, id, 0.4), 0.4, "in range: as given");
        assert_eq!(apply_limit(&mut k, id, 1.7), 1.0);
        assert_eq!(apply_limit(&mut k, id, -0.3), 0.0);
        assert_eq!(apply_limit(&mut k, id, f64::NAN), 1.0, "NaN: unlimited");
        assert_eq!(apply_limit(&mut k, id, f64::NEG_INFINITY), 1.0);
    }

    #[test]
    fn advance_exits_exactly_on_work_completion() {
        let (mut k, id) = setup();
        let total = remaining(&k, id);
        // 80% of the work at rate 0.5: still running.
        let first = 1.6 * total;
        k.integrate(first);
        assert!(!k.reap_terminated());
        assert!(k.exited().is_empty());
        // The rest: clean convergence, exit code 0.
        let rest = 0.4 * total + 1e-6;
        k.integrate(rest);
        assert!(k.reap_terminated());
        assert_eq!(k.exited(), &[(id, 0)]);
    }

    #[test]
    fn reap_collects_externally_finished_workloads() {
        let mut k = NodeKernel::new();
        let ids = admit_n(&mut k, 3, t(0), &mut SimRng::new(7));
        // Finish two workloads without advancing the clock.
        for &id in &[ids[2], ids[0]] {
            let work = remaining(&k, id);
            k.job_mut(id).advance(work);
        }
        assert_eq!(k.live().len(), 3, "not yet reaped");
        assert!(k.reap_terminated());
        assert_eq!(
            k.exited(),
            &[(ids[0], 0), (ids[2], 0)],
            "reaped in id order"
        );
        assert_eq!(k.live(), &[ids[1]]);
        assert!(!k.reap_terminated(), "reap is idempotent");
    }

    #[test]
    fn non_cpu_kinds_are_tracked() {
        let (mut k, id) = setup();
        let footprint = k.job(id).footprint();
        k.integrate(4.0);
        let cumulative = k.slots[id.index()].cumulative;
        for kind in [
            ResourceKind::Memory,
            ResourceKind::BlkIo,
            ResourceKind::NetIo,
        ] {
            assert_eq!(cumulative.get(kind), footprint.get(kind) * 4.0);
        }
    }

    proptest! {
        /// Usage accounting equals rate × time for any schedule of advances.
        #[test]
        fn cpu_seconds_integrate_exactly(
            steps in prop::collection::vec((0.0f64..=1.0, 0.1f64..=5.0), 1..40),
        ) {
            let mut k = NodeKernel::new();
            let id = k.next_id();
            k.admit(id, job_scaled(1e6, &mut SimRng::new(8)), t(0));
            let mut expected = 0.0;
            for (rate, dt) in steps {
                expected += rate * dt;
                set_rates(&mut k, &[(id, rate)]);
                k.integrate(dt);
            }
            let got = k.slots[id.index()].cumulative.get(ResourceKind::Cpu);
            prop_assert!((got - expected).abs() < 1e-6, "got {got}, expected {expected}");
        }

        /// No sequence of policy updates, in range or not, leaves a CPU
        /// limit outside [0, 1].
        #[test]
        fn policy_update_sequences_keep_limits_valid(
            updates in prop::collection::vec(-2.0f64..=3.0, 1..50),
        ) {
            let (mut k, id) = setup();
            for v in updates {
                let l = apply_limit(&mut k, id, v);
                prop_assert!((0.0..=1.0).contains(&l), "limit {l}");
            }
        }
    }

    #[test]
    fn slot_records_stay_pod() {
        // The arenas are the density story: a fatter record is a silent
        // memory regression at a million workers.
        assert_eq!(std::mem::size_of::<ContainerSlot>(), 56);
        assert_eq!(std::mem::size_of::<MonitorSlot>(), 112);
        assert_eq!(std::mem::size_of::<ContainerId>(), 4);
    }
}
