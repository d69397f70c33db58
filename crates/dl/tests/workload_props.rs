//! Property-based tests on the DL workload substrate: the invariants the
//! growth-efficiency metric implicitly assumes.

use flowcon_dl::models::{ModelSpec, ALL_MODELS};
use flowcon_dl::TrainingJob;
use flowcon_sim::rng::SimRng;
use proptest::prelude::*;

fn arb_model() -> impl Strategy<Value = ModelSpec> {
    (0..ALL_MODELS.len()).prop_map(|i| ModelSpec::of(ALL_MODELS[i]))
}

proptest! {
    /// Quality (and hence accuracy) is monotone in consumed compute for
    /// every catalog model, whatever the step sizes.
    #[test]
    fn quality_is_monotone_in_compute(
        spec in arb_model(),
        steps in prop::collection::vec(0.0f64..10.0, 1..60),
        seed in 0u64..1000,
    ) {
        let mut rng = SimRng::new(seed);
        let mut job = TrainingJob::new(spec, &mut rng);
        let mut last_quality = job.quality();
        for step in steps {
            job.advance(step);
            let q = job.quality();
            prop_assert!(q >= last_quality - 1e-12, "quality decreased");
            prop_assert!((0.0..=1.0).contains(&q));
            last_quality = q;
        }
    }

    /// The noise-free evaluation value always lies between the function's
    /// initial and converged magnitudes.
    #[test]
    fn true_eval_stays_in_range(
        spec in arb_model(),
        consumed in 0.0f64..500.0,
        seed in 0u64..1000,
    ) {
        let mut rng = SimRng::new(seed);
        let mut job = TrainingJob::new(spec.clone(), &mut rng);
        job.advance(consumed);
        let v = job.true_eval();
        let lo = spec.eval.initial.min(spec.eval.converged);
        let hi = spec.eval.initial.max(spec.eval.converged);
        prop_assert!((lo - 1e-9..=hi + 1e-9).contains(&v), "eval {v} outside [{lo},{hi}]");
    }

    /// Measured (noisy) evaluation values stay finite and near the truth.
    #[test]
    fn measured_eval_is_finite_and_close(
        spec in arb_model(),
        consumed in 1.0f64..300.0,
        seed in 0u64..1000,
    ) {
        let mut rng = SimRng::new(seed);
        let mut job = TrainingJob::new(spec.clone(), &mut rng);
        job.advance(consumed);
        if let Some(e) = job.eval() {
            prop_assert!(e.is_finite());
            let truth = job.true_eval();
            let tol = 0.25 * spec.eval.magnitude().max(0.1);
            prop_assert!((e - truth).abs() < tol, "eval {e} vs truth {truth}");
        }
    }

    /// `remaining + consumed == total` up to clamping, and the exit code
    /// flips to 0 exactly when remaining hits zero.
    #[test]
    fn work_accounting_is_consistent(
        spec in arb_model(),
        fractions in prop::collection::vec(0.0f64..0.4, 1..20),
        seed in 0u64..1000,
    ) {
        let mut rng = SimRng::new(seed);
        let mut job = TrainingJob::new(spec, &mut rng);
        let total = job.remaining_cpu_seconds();
        let mut consumed = 0.0;
        for f in &fractions {
            let step = f * total;
            job.advance(step);
            consumed += step;
            let remaining = job.remaining_cpu_seconds();
            prop_assert!(
                (remaining - (total - consumed).max(0.0)).abs() < 1e-6,
                "remaining {remaining}, expected {}",
                (total - consumed).max(0.0)
            );
            let done = job.exit_code() == Some(0);
            prop_assert_eq!(done, remaining <= 0.0);
        }
    }

    /// Demand and footprint are sane for every model.
    #[test]
    fn demand_and_footprint_are_valid(spec in arb_model(), seed in 0u64..100) {
        let mut rng = SimRng::new(seed);
        let job = TrainingJob::new(spec, &mut rng);
        prop_assert!(job.demand() > 0.0 && job.demand() <= 1.0);
        let fp = job.footprint();
        prop_assert!(fp.is_valid());
        prop_assert!(fp.get(flowcon_sim::ResourceKind::Cpu) == 0.0, "cpu is the allocator's");
    }

    /// Two jobs from the same spec and seed are identical; different seeds
    /// differ in total work (the ±3% instance jitter).
    #[test]
    fn instance_jitter_is_seeded(spec in arb_model(), seed in 0u64..1000) {
        let mk = |s: u64| {
            let mut rng = SimRng::new(s);
            TrainingJob::new(spec.clone(), &mut rng)
                .remaining_cpu_seconds()
        };
        prop_assert_eq!(mk(seed), mk(seed));
        let spread = (mk(seed) - spec.total_work).abs();
        prop_assert!(spread <= spec.total_work * 0.03 + 1e-9);
    }
}
