//! The pausable node-local FlowCon simulation driven by the scheduler's
//! quantum barriers.
//!
//! Each [`NodeSim`] drives the FlowCon node kernel
//! ([`flowcon_core::kernel`]) for *online* control: instead of an event
//! queue draining a fixed plan, the node holds a fixed number of job
//! slots and exposes three verbs to the engine — `admit`, `preempt`, and
//! `advance_to(barrier)`.  Between barriers the node runs the kernel's
//! steps exactly like a worker does (water-filling rates, contention
//! efficiency, FlowCon policy ticks at their own cadence), so per-node
//! physics are the worker's; only job arrival and departure are
//! externally driven.  The slot index is the container id the node-local
//! policy sees, and a freed slot is reused by the next admission.
//!
//! `advance_to` is a pure function of the node's own state: no shared
//! memory, no RNG outside the node's private stream.  That is what makes
//! a scheduler run reproducible bit for bit (pinned by
//! `crates/cluster/tests/sched_determinism.rs`).

use flowcon_core::config::NodeConfig;
use flowcon_core::kernel::NodeKernel;
use flowcon_core::policy::ResourcePolicy;
use flowcon_dl::{ModelId, ModelSpec, TrainingJob};
use flowcon_sim::rng::SimRng;
use flowcon_sim::time::{SimDuration, SimTime};
use flowcon_sim::trace::{NoopTracer, Tracer};
use flowcon_sim::ContainerId;

use super::policy::RunningJobView;

/// A job completion observed by a node mid-quantum, at its exact time.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NodeCompletion {
    pub(crate) gid: u32,
    pub(crate) arrival: SimTime,
    pub(crate) finished: SimTime,
}

/// What `preempt` hands back to the engine: enough to requeue and later
/// resume the job elsewhere.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PreemptedJob {
    pub(crate) model: ModelId,
    /// Remaining work as a fraction of the catalog total (becomes the
    /// resumed job's `work_scale`).
    pub(crate) remaining_scale: f64,
    /// Total effective CPU-seconds attained across all placements.
    pub(crate) attained_cpu_secs: f64,
    /// Original submission time.
    pub(crate) arrival: SimTime,
}

/// The scheduler's record of one occupied slot; the job itself runs in
/// the kernel under the slot's container id.
#[derive(Debug, Clone, Copy)]
struct SlotJob {
    gid: u32,
    model: ModelId,
    arrival: SimTime,
    placed_at: SimTime,
    rem_at_place: f64,
    base_attained: f64,
}

impl SlotJob {
    fn attained(&self, remaining: f64) -> f64 {
        self.base_attained + (self.rem_at_place - remaining).max(0.0)
    }
}

/// The container id of slot `idx`.
fn slot_id(idx: usize) -> ContainerId {
    ContainerId::from_raw(idx as u32)
}

/// One node of the scheduled cluster: job slots over a node kernel +
/// node-local FlowCon policy + private RNG, advanced barrier-to-barrier
/// by the engine.
///
/// Each node owns a **forked flight recorder** (`tracer`, forked from
/// the run's tracer): node-local events recorded during `advance_to` are
/// a pure function of the node's own state, and the engine drains them
/// back in node-index order at every barrier, which fixes the order of
/// the merged timeline.
pub(crate) struct NodeSim<T: Tracer = NoopTracer> {
    cfg: NodeConfig,
    policy: Box<dyn ResourcePolicy>,
    rng: SimRng,
    now: SimTime,
    /// Next node-local policy reconfiguration, if one is scheduled.
    next_tick: Option<SimTime>,
    kernel: NodeKernel,
    slots: Vec<Option<SlotJob>>,
    /// ∫ allocated CPU rate dt (for utilization).
    pub(crate) busy_cpu_secs: f64,
    /// ∫ live jobs dt (for mean queue depth).
    pub(crate) live_job_secs: f64,
    /// Completions since the engine last drained them, in time order.
    pub(crate) completions: Vec<NodeCompletion>,
    /// Per-node flight recorder, drained by the engine at each barrier.
    pub(crate) tracer: T,
    /// This node's index, stamped into its trace events.
    trace_id: u32,
}

impl<T: Tracer> NodeSim<T> {
    pub(crate) fn new(
        cfg: NodeConfig,
        policy: Box<dyn ResourcePolicy>,
        slots: usize,
        tracer: T,
        trace_id: u32,
    ) -> Self {
        assert!(slots > 0, "a node needs at least one job slot");
        Self {
            cfg,
            policy,
            rng: SimRng::new(cfg.seed),
            now: SimTime::ZERO,
            next_tick: None,
            kernel: NodeKernel::new(),
            slots: vec![None; slots],
            busy_cpu_secs: 0.0,
            live_job_secs: 0.0,
            completions: Vec::new(),
            tracer,
            trace_id,
        }
    }

    pub(crate) fn slot_count(&self) -> usize {
        self.slots.len()
    }

    pub(crate) fn is_idle(&self) -> bool {
        self.kernel.live().is_empty()
    }

    pub(crate) fn is_full(&self) -> bool {
        self.kernel.live().len() == self.slots.len()
    }

    /// Node-local policy rounds run so far.
    pub(crate) fn algorithm_runs(&self) -> u64 {
        self.kernel.algorithm_runs()
    }

    /// Append one [`RunningJobView`] per occupied slot, in slot order.
    pub(crate) fn fill_views(&self, out: &mut Vec<RunningJobView>) {
        for (idx, slot) in self.slots.iter().enumerate() {
            if let Some(slot) = slot {
                let remaining = self.kernel.job(slot_id(idx)).remaining_cpu_seconds();
                out.push(RunningJobView {
                    id: slot.gid,
                    attained_cpu_secs: slot.attained(remaining),
                    placed_at: slot.placed_at,
                });
            }
        }
    }

    /// Admit a job into the lowest free slot at the node's current time.
    ///
    /// `work_scale` is relative to the catalog spec (1.0 for a fresh
    /// job, the remaining fraction for a resumed one); `base_attained`
    /// carries service from earlier placements.  Panics if the node is
    /// full; the engine rejects a `Place` or `Migrate` onto a full node
    /// first, with a message naming the policy, node and barrier.
    pub(crate) fn admit(
        &mut self,
        gid: u32,
        model: ModelId,
        work_scale: f64,
        arrival: SimTime,
        base_attained: f64,
    ) {
        let now = self.now;
        let idx = self
            .slots
            .iter()
            .position(Option::is_none)
            .expect("scheduler placed a job on a full node");
        let spec = ModelSpec::of(model).scaled_by(work_scale);
        // Same RNG protocol as the worker sim's admission: the ±3% work
        // jitter models checkpoint-restore noise on resume.
        let job = TrainingJob::with_label(spec, String::new(), &mut self.rng);
        self.slots[idx] = Some(SlotJob {
            gid,
            model,
            arrival,
            placed_at: now,
            rem_at_place: job.remaining_cpu_seconds(),
            base_attained,
        });
        self.kernel.admit(slot_id(idx), job, now);

        let interrupt = self.policy.on_pool_change(now, self.kernel.live());
        if interrupt {
            self.reconfigure(now);
        } else if self.kernel.live().len() == 1 {
            self.next_tick = self
                .policy
                .initial_interval()
                .filter(|d| *d > SimDuration::ZERO)
                .map(|d| now + d);
        }
    }

    /// Checkpoint a running job out of its slot.
    pub(crate) fn preempt(&mut self, gid: u32) -> PreemptedJob {
        let now = self.now;
        let idx = self
            .slots
            .iter()
            .position(|s| s.is_some_and(|s| s.gid == gid))
            .expect("scheduler preempted a job this node does not run");
        let slot = self.slots[idx]
            .take()
            .expect("slot occupancy checked above");
        let rem = self.kernel.job(slot_id(idx)).remaining_cpu_seconds();
        let total = ModelSpec::of(slot.model).total_work;
        let out = PreemptedJob {
            model: slot.model,
            remaining_scale: (rem / total).max(f64::MIN_POSITIVE),
            attained_cpu_secs: slot.attained(rem),
            arrival: slot.arrival,
        };
        self.kernel.remove(slot_id(idx));

        let interrupt = self.policy.on_pool_change(now, self.kernel.live());
        if self.is_idle() {
            self.next_tick = None;
        } else if interrupt {
            self.reconfigure(now);
        }
        out
    }

    /// Integrate the node's fluid state forward to `barrier`, completing
    /// jobs at their exact finish times and running policy ticks at
    /// their own cadence.  Pure in the node's own state.
    pub(crate) fn advance_to(&mut self, barrier: SimTime) {
        debug_assert!(barrier >= self.now, "barrier in the past");
        while self.now < barrier {
            if self.is_idle() {
                break;
            }
            self.kernel
                .recompute_rates(self.now, &self.cfg, &mut self.tracer, self.trace_id);

            // Next stop: the barrier, the policy tick, or the earliest
            // projected completion (with the worker sim's 1 µs margin so
            // integration strictly crosses the finish line).
            let mut target = barrier;
            if let Some(tick) = self.next_tick {
                if tick < target {
                    target = tick;
                }
            }
            let window = barrier.saturating_since(self.now).as_secs_f64();
            if let Some(eta) = self.kernel.earliest_eta() {
                if eta <= window {
                    let at =
                        self.now + SimDuration::from_secs_f64(eta) + SimDuration::from_micros(1);
                    if at < target {
                        target = at;
                    }
                }
            }

            let dt = target.saturating_since(self.now).as_secs_f64();
            if dt > 0.0 {
                self.kernel.integrate(dt);
                for &rate in self.kernel.rated().1 {
                    self.busy_cpu_secs += rate * dt;
                }
                self.live_job_secs += self.kernel.live().len() as f64 * dt;
            }
            self.now = target;

            // Collect exact-time completions under the kernel's rule, the
            // one the worker applies.
            let now = self.now;
            if self.kernel.reap_terminated() {
                for &(id, _) in self.kernel.exited() {
                    let slot = self.slots[id.index()]
                        .take()
                        .expect("the kernel reaps occupied slots");
                    self.completions.push(NodeCompletion {
                        gid: slot.gid,
                        arrival: slot.arrival,
                        finished: now,
                    });
                }
                let interrupt = self.policy.on_pool_change(now, self.kernel.live());
                if self.is_idle() {
                    self.next_tick = None;
                } else if interrupt {
                    self.reconfigure(now);
                }
            }
            if self.next_tick.is_some_and(|tick| tick <= now) && !self.is_idle() {
                self.reconfigure(now);
            }
        }
        self.now = barrier;
    }

    /// Run one node-local policy reconfiguration and reschedule its tick.
    fn reconfigure(&mut self, now: SimTime) {
        let next = self
            .kernel
            .reconfigure(now, &mut *self.policy, &mut self.tracer, self.trace_id);
        self.next_tick = next.filter(|d| *d > SimDuration::ZERO).map(|d| now + d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy_kind::PolicyKind;
    use flowcon_core::config::FlowConConfig;

    fn node(slots: usize) -> NodeSim {
        NodeSim::new(
            NodeConfig::default().with_seed(0xF10C),
            PolicyKind::FlowCon(FlowConConfig::default()).build(),
            slots,
            NoopTracer,
            0,
        )
    }

    #[test]
    fn an_admitted_job_runs_to_completion_mid_quantum() {
        let mut sim = node(2);
        sim.admit(0, ModelId::MnistTorch, 0.05, SimTime::ZERO, 0.0);
        assert!(!sim.is_idle());
        // A heavily scaled-down job finishes well inside a huge barrier.
        sim.advance_to(SimTime::from_secs(100_000));
        assert!(sim.is_idle());
        assert_eq!(sim.completions.len(), 1);
        let c = sim.completions[0];
        assert_eq!(c.gid, 0);
        assert!(c.finished > SimTime::ZERO);
        assert!(c.finished < SimTime::from_secs(100_000));
        assert!(sim.busy_cpu_secs > 0.0);
    }

    #[test]
    fn preempt_returns_remaining_work_and_attained_service() {
        let mut sim = node(1);
        sim.admit(7, ModelId::MnistTorch, 1.0, SimTime::from_secs(3), 0.0);
        sim.advance_to(SimTime::from_secs(50));
        let p = sim.preempt(7);
        assert!(sim.is_idle());
        assert_eq!(p.arrival, SimTime::from_secs(3));
        assert!(
            p.attained_cpu_secs > 0.0,
            "50 s of solo running attains service"
        );
        assert!(p.remaining_scale > 0.0 && p.remaining_scale < 1.1);
        // Attained + remaining ≈ the jittered total (±3%).
        let total = ModelSpec::of(ModelId::MnistTorch).total_work;
        let recon = p.attained_cpu_secs + p.remaining_scale * total;
        assert!(
            (recon / total - 1.0).abs() < 0.05,
            "recon={recon} total={total}"
        );
    }

    #[test]
    fn advance_is_deterministic_for_the_same_inputs() {
        let run = || {
            let mut sim = node(2);
            sim.admit(0, ModelId::MnistTorch, 0.2, SimTime::ZERO, 0.0);
            sim.admit(1, ModelId::Vae, 0.1, SimTime::ZERO, 0.0);
            sim.advance_to(SimTime::from_secs(200_000));
            (
                sim.completions
                    .iter()
                    .map(|c| (c.gid, c.finished))
                    .collect::<Vec<_>>(),
                sim.busy_cpu_secs.to_bits(),
                sim.algorithm_runs(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn idle_advance_is_a_no_op() {
        let mut sim = node(2);
        sim.advance_to(SimTime::from_secs(500));
        assert!(sim.is_idle());
        assert_eq!(sim.busy_cpu_secs, 0.0);
        assert!(sim.completions.is_empty());
    }
}
