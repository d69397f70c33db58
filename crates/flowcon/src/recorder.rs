//! Pluggable observability for worker sessions.
//!
//! The pre-redesign worker hard-wired a full [`RunSummary`] — per-job label
//! `String`s, 1 Hz usage/limit traces, growth-efficiency series — into the
//! simulation hot path, whether or not the caller wanted any of it.  The
//! PR-2 profile showed that fixed cost dominating cluster runs, and the
//! retained series were the memory ceiling for 10k-worker clusters.
//!
//! A [`Recorder`] makes observability a compile-time choice.  The worker is
//! monomorphized over the recorder, so a headless run does not merely skip
//! recording — the 1 Hz sample events and 20 s trace events are never even
//! scheduled (see [`Recorder::RECORDS_SAMPLES`]), which removes most of a
//! short job's event volume along with every label clone and series
//! allocation.
//!
//! Three recorders ship:
//!
//! * [`FullRecorder`] — today's behavior, bit-identical to the
//!   pre-redesign `WorkerSim::run` output (asserted while the deprecated
//!   shims lived; they are gone now).
//! * [`CompletionsOnly`] — headless: label-free [`CompletionStats`] only,
//!   O(completions) memory, ≲10 allocations per simulated worker.
//! * [`SamplingRecorder`] — every-k-th-tick decimation of any inner
//!   recorder's traces (completions are never decimated).

use flowcon_metrics::summary::{CompletionStats, RunSummary};
use flowcon_sim::time::SimTime;

use crate::policy::ResourcePolicy;

/// End-of-run metadata handed to [`Recorder::finish`].
///
/// The policy rides along as a borrow so recorders that don't report a
/// policy name (headless) never pay for the `name()` `String`.
pub struct RunMeta<'a> {
    /// The policy that drove the run.
    pub policy: &'a dyn ResourcePolicy,
    /// Number of times the policy's algorithm ran.
    pub algorithm_runs: u64,
    /// Number of `docker update` calls issued.
    pub update_calls: u64,
}

/// What a worker session records, chosen at compile time.
///
/// The worker calls the `record_*` hooks from its event handlers; the
/// associated constants decide whether the sampling events exist at all.
/// Implementations are monomorphized into the simulation loop, so an empty
/// hook costs nothing.
pub trait Recorder: Send {
    /// What [`Recorder::finish`] yields — the session's output.
    type Output: Send;

    /// Whether 1 Hz usage/limit sample events are scheduled at all.
    ///
    /// `false` removes the events from the simulation.  Under measurement-
    /// blind policies (NA, static partitioning) the dynamics are unchanged
    /// to the engine's 1 µs completion-check margin; under noise-sampling
    /// policies (FlowCon) fewer integration steps draw a different
    /// eval-noise stream, so a headless run is *statistically* equivalent
    /// to a recorded one, not bit-identical (both remain fully
    /// deterministic for a given seed).
    const RECORDS_SAMPLES: bool;

    /// Whether 20 s growth-efficiency trace events are scheduled at all.
    const RECORDS_GROWTH: bool;

    /// A job exited: `label` finished at `finished` with `exit_code`,
    /// having arrived at `arrival`.
    fn record_completion(
        &mut self,
        label: &str,
        arrival: SimTime,
        finished: SimTime,
        exit_code: i32,
    );

    /// A sample tick fired; return `true` to receive this tick's
    /// [`Recorder::record_sample`] calls (decimating recorders return
    /// `false` on skipped ticks).
    fn sample_tick(&mut self, _now: SimTime) -> bool {
        Self::RECORDS_SAMPLES
    }

    /// One container's usage/limit observation at a (non-skipped) sample
    /// tick.
    fn record_sample(&mut self, now: SimTime, label: &str, usage: f64, limit: f64);

    /// A growth-trace tick fired; return `true` to receive this tick's
    /// [`Recorder::record_growth`] calls.
    fn growth_tick(&mut self, _now: SimTime) -> bool {
        Self::RECORDS_GROWTH
    }

    /// One container's growth-efficiency observation at a (non-skipped)
    /// trace tick.
    fn record_growth(&mut self, now: SimTime, label: &str, growth: f64);

    /// The run ended; consume the recorder and produce the output.
    fn finish(self, meta: RunMeta<'_>) -> Self::Output;
}

/// Records everything the paper reports: the pre-redesign [`RunSummary`],
/// bit for bit.
#[derive(Debug, Clone, Default)]
pub struct FullRecorder {
    summary: RunSummary,
}

impl FullRecorder {
    /// A fresh recorder with an empty summary.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Recorder for FullRecorder {
    type Output = RunSummary;
    const RECORDS_SAMPLES: bool = true;
    const RECORDS_GROWTH: bool = true;

    fn record_completion(
        &mut self,
        label: &str,
        arrival: SimTime,
        finished: SimTime,
        exit_code: i32,
    ) {
        self.summary
            .record_completion(label, arrival, finished, exit_code);
    }

    fn record_sample(&mut self, now: SimTime, label: &str, usage: f64, limit: f64) {
        self.summary.record_usage_sample(now, label, usage, limit);
    }

    fn record_growth(&mut self, now: SimTime, label: &str, growth: f64) {
        self.summary.record_growth(now, label, growth);
    }

    fn finish(mut self, meta: RunMeta<'_>) -> RunSummary {
        self.summary.policy = meta.policy.name();
        self.summary.algorithm_runs = meta.algorithm_runs;
        self.summary.update_calls = meta.update_calls;
        self.summary
    }
}

/// Headless: completion times and makespan only.
///
/// No usage/limit traces, no growth series, no label clones, no policy-name
/// `String` — the session holds O(completions) memory and a worker run
/// stays within the ≲10 allocations/worker budget enforced by
/// `crates/cluster/tests/headless_allocs.rs` and the committed
/// `cluster/headless/*` bench rows.
#[derive(Debug, Clone, Default)]
pub struct CompletionsOnly {
    stats: CompletionStats,
}

impl CompletionsOnly {
    /// A fresh headless recorder.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Recorder for CompletionsOnly {
    type Output = CompletionStats;
    const RECORDS_SAMPLES: bool = false;
    const RECORDS_GROWTH: bool = false;

    fn record_completion(
        &mut self,
        _label: &str,
        arrival: SimTime,
        finished: SimTime,
        exit_code: i32,
    ) {
        self.stats.record_completion(arrival, finished, exit_code);
    }

    fn record_sample(&mut self, _now: SimTime, _label: &str, _usage: f64, _limit: f64) {
        unreachable!("sample events are never scheduled headless");
    }

    fn record_growth(&mut self, _now: SimTime, _label: &str, _growth: f64) {
        unreachable!("trace events are never scheduled headless");
    }

    fn finish(mut self, meta: RunMeta<'_>) -> CompletionStats {
        self.stats.algorithm_runs = meta.algorithm_runs;
        self.stats.update_calls = meta.update_calls;
        self.stats
    }
}

/// Decimates an inner recorder's traces: only every `every_k`-th sample
/// tick (and trace tick) is recorded.
///
/// The sampling *events* still fire — the simulation's dynamics and the
/// recorded completions are bit-identical to the inner recorder running
/// undecimated; only the retained trace volume shrinks by ~`every_k`.  Use
/// it when a long cluster run needs representative traces without the full
/// 1 Hz memory bill: `SamplingRecorder::every(10)` keeps every 10th point.
#[derive(Debug, Clone)]
pub struct SamplingRecorder<R: Recorder = FullRecorder> {
    inner: R,
    /// Keep one sample tick in `every_k`; private so the constructors'
    /// ≥ 1 clamp cannot be bypassed into a division by zero.
    every_k: u64,
    sample_ticks: u64,
    trace_ticks: u64,
}

impl SamplingRecorder<FullRecorder> {
    /// Decimate a [`FullRecorder`] to every `every_k`-th tick.
    pub fn every(every_k: u64) -> Self {
        Self::over(FullRecorder::new(), every_k)
    }
}

impl<R: Recorder> SamplingRecorder<R> {
    /// Decimate `inner` to every `every_k`-th tick (clamped to ≥ 1).
    pub fn over(inner: R, every_k: u64) -> Self {
        SamplingRecorder {
            inner,
            every_k: every_k.max(1),
            sample_ticks: 0,
            trace_ticks: 0,
        }
    }

    /// The decimation factor in effect.
    pub fn every_k(&self) -> u64 {
        self.every_k
    }
}

impl<R: Recorder> Recorder for SamplingRecorder<R> {
    type Output = R::Output;
    const RECORDS_SAMPLES: bool = R::RECORDS_SAMPLES;
    const RECORDS_GROWTH: bool = R::RECORDS_GROWTH;

    fn record_completion(
        &mut self,
        label: &str,
        arrival: SimTime,
        finished: SimTime,
        exit_code: i32,
    ) {
        self.inner
            .record_completion(label, arrival, finished, exit_code);
    }

    fn sample_tick(&mut self, now: SimTime) -> bool {
        let keep = self.sample_ticks % self.every_k == 0;
        self.sample_ticks += 1;
        keep && self.inner.sample_tick(now)
    }

    fn record_sample(&mut self, now: SimTime, label: &str, usage: f64, limit: f64) {
        self.inner.record_sample(now, label, usage, limit);
    }

    fn growth_tick(&mut self, now: SimTime) -> bool {
        let keep = self.trace_ticks % self.every_k == 0;
        self.trace_ticks += 1;
        keep && self.inner.growth_tick(now)
    }

    fn record_growth(&mut self, now: SimTime, label: &str, growth: f64) {
        self.inner.record_growth(now, label, growth);
    }

    fn finish(self, meta: RunMeta<'_>) -> R::Output {
        self.inner.finish(meta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::FairSharePolicy;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn meta_with<'a>(policy: &'a FairSharePolicy) -> RunMeta<'a> {
        RunMeta {
            policy,
            algorithm_runs: 3,
            update_calls: 2,
        }
    }

    #[test]
    fn full_recorder_builds_the_summary() {
        let mut r = FullRecorder::new();
        r.record_completion("job", t(0), t(10), 0);
        assert!(r.sample_tick(t(1)));
        r.record_sample(t(1), "job", 0.5, 1.0);
        assert!(r.growth_tick(t(20)));
        r.record_growth(t(20), "job", 0.02);
        let policy = FairSharePolicy::new();
        let summary = r.finish(meta_with(&policy));
        assert_eq!(summary.policy, "NA");
        assert_eq!(summary.algorithm_runs, 3);
        assert_eq!(summary.update_calls, 2);
        assert_eq!(summary.completions.len(), 1);
        assert_eq!(summary.cpu_usage.get("job").unwrap().len(), 1);
    }

    #[test]
    fn completions_only_keeps_no_labels() {
        let mut r = CompletionsOnly::new();
        r.record_completion("ignored", t(5), t(25), 0);
        let policy = FairSharePolicy::new();
        let stats = r.finish(meta_with(&policy));
        assert_eq!(stats.len(), 1);
        assert!((stats.completions[0].completion_secs() - 20.0).abs() < 1e-12);
        assert_eq!(stats.algorithm_runs, 3);
    }

    #[test]
    fn sampling_recorder_keeps_every_kth_tick() {
        let mut r = SamplingRecorder::every(3);
        let kept: Vec<bool> = (0..7).map(|i| r.sample_tick(t(i))).collect();
        assert_eq!(kept, [true, false, false, true, false, false, true]);
        // Growth ticks decimate on their own counter.
        assert!(r.growth_tick(t(0)));
        assert!(!r.growth_tick(t(20)));
        // every_k = 0 is clamped, not a division by zero.
        let mut degenerate = SamplingRecorder::every(0);
        assert!(degenerate.sample_tick(t(0)));
        assert!(degenerate.sample_tick(t(1)));
    }
}
