//! Property-based tests for Algorithm 1, the list state machine and the
//! listener — the invariants FlowCon's correctness rests on.

use flowcon_core::algorithm::run_algorithm1;
use flowcon_core::config::FlowConConfig;
use flowcon_core::listener::Listener;
use flowcon_core::lists::{ListKind, Lists};
use flowcon_core::metric::GrowthMeasurement;
use flowcon_sim::ContainerId;
use flowcon_sim::ResourceVec;
use proptest::prelude::*;

fn measurement(raw: u32, growth: Option<f64>, limit: f64) -> GrowthMeasurement {
    GrowthMeasurement {
        id: ContainerId::from_raw(raw),
        progress: growth.map(|g| g * 0.5),
        avg_usage: ResourceVec::cpu(0.5),
        cpu_limit: limit,
    }
}

fn arb_measures(max: usize) -> impl Strategy<Value = Vec<GrowthMeasurement>> {
    prop::collection::vec(
        (prop::option::weighted(0.85, 0.0f64..=1.0), 0.0f64..=1.0),
        1..max,
    )
    .prop_map(|rows| {
        rows.into_iter()
            .enumerate()
            .map(|(i, (growth, limit))| measurement(i as u32, growth, limit))
            .collect()
    })
}

fn arb_config() -> impl Strategy<Value = FlowConConfig> {
    (0.01f64..=0.15, 1.0f64..=8.0).prop_map(|(alpha, beta)| FlowConConfig {
        alpha,
        beta,
        ..FlowConConfig::default()
    })
}

proptest! {
    /// Every emitted limit is a valid fraction, and CL members never fall
    /// below the 1/(β·n) bound.
    #[test]
    fn limits_valid_and_bound_respected(
        measures in arb_measures(20),
        config in arb_config(),
    ) {
        let mut lists = Lists::new();
        for m in &measures {
            lists.insert_new(m.id);
        }
        let out = run_algorithm1(&config, &mut lists, &measures);
        let bound = 1.0 / (config.beta * measures.len() as f64);
        for (id, limit) in &out.updates {
            prop_assert!((0.0..=1.0).contains(limit), "limit {limit}");
            if !out.backed_off && lists.kind_of(*id) == Some(ListKind::Completing) {
                prop_assert!(
                    *limit >= bound.min(1.0) - 1e-9,
                    "CL limit {limit} below bound {bound}"
                );
            }
        }
    }

    /// Back-off happens iff every measured container is in CL afterwards,
    /// and then every limit is released to 1.
    #[test]
    fn backoff_iff_all_completing(
        measures in arb_measures(16),
        config in arb_config(),
    ) {
        let mut lists = Lists::new();
        for m in &measures {
            lists.insert_new(m.id);
        }
        // Two rounds so below-alpha containers can reach CL.
        let _ = run_algorithm1(&config, &mut lists, &measures);
        let out = run_algorithm1(&config, &mut lists, &measures);
        let all_cl = measures
            .iter()
            .all(|m| lists.kind_of(m.id) == Some(ListKind::Completing));
        prop_assert_eq!(out.backed_off, all_cl);
        if out.backed_off {
            prop_assert!(out.updates.iter().all(|(_, l)| *l == 1.0));
        }
    }

    /// Watching-List members are never reconfigured in the run that put
    /// them into WL.
    #[test]
    fn watching_members_not_updated(
        measures in arb_measures(16),
        config in arb_config(),
    ) {
        let mut lists = Lists::new();
        for m in &measures {
            lists.insert_new(m.id);
        }
        let out = run_algorithm1(&config, &mut lists, &measures);
        for m in &measures {
            if lists.kind_of(m.id) == Some(ListKind::Watching) {
                prop_assert!(
                    out.updates.iter().all(|(id, _)| *id != m.id),
                    "WL member {:?} was reconfigured",
                    m.id
                );
            }
        }
    }

    /// The lists always partition: every observed container is in exactly
    /// one list, whatever the observation sequence.
    #[test]
    fn lists_partition_under_any_sequence(
        seq in prop::collection::vec((0u32..8, 0.0f64..=0.5), 1..200),
        alpha in 0.01f64..=0.2,
    ) {
        let mut lists = Lists::new();
        for (raw, growth) in seq {
            lists.observe(ContainerId::from_raw(raw), growth, alpha);
        }
        // kind_of is single-valued by construction; check counts agree.
        let total = lists.in_list(ListKind::New).len()
            + lists.in_list(ListKind::Watching).len()
            + lists.in_list(ListKind::Completing).len();
        prop_assert_eq!(total, lists.len());
    }

    /// A container needs at least two consecutive below-α observations to
    /// reach CL from NL, regardless of the values.
    #[test]
    fn cl_requires_two_low_observations(
        first in 0.0f64..=1.0,
        alpha in 0.01f64..=0.2,
    ) {
        let mut lists = Lists::new();
        let id = ContainerId::from_raw(0);
        lists.insert_new(id);
        lists.observe(id, first, alpha);
        prop_assert_ne!(
            lists.kind_of(id),
            Some(ListKind::Completing),
            "one observation must never reach CL"
        );
    }

    /// The listener's membership diff is exact: arrivals ∪ survivors =
    /// current pool, and departures are purged.
    #[test]
    fn listener_diff_is_exact(
        pools in prop::collection::vec(
            prop::collection::btree_set(0u32..12, 0..8),
            1..12
        ),
    ) {
        let mut listener = Listener::new();
        let mut lists = Lists::new();
        for pool in pools {
            let ids: Vec<ContainerId> =
                pool.iter().map(|&r| ContainerId::from_raw(r)).collect();
            let out = listener.observe(&ids, &mut lists);
            // After the observation, lists track exactly the pool.
            prop_assert_eq!(lists.len(), ids.len());
            for id in &ids {
                prop_assert!(lists.kind_of(*id).is_some());
            }
            for id in &out.departed {
                prop_assert!(lists.kind_of(*id).is_none());
            }
            prop_assert_eq!(
                out.interrupt,
                !out.arrived.is_empty() || !out.departed.is_empty()
            );
        }
    }

    /// Algorithm 1 is deterministic.
    #[test]
    fn algorithm_is_deterministic(
        measures in arb_measures(16),
        config in arb_config(),
    ) {
        let mut l1 = Lists::new();
        let mut l2 = Lists::new();
        for m in &measures {
            l1.insert_new(m.id);
            l2.insert_new(m.id);
        }
        let a = run_algorithm1(&config, &mut l1, &measures);
        let b = run_algorithm1(&config, &mut l2, &measures);
        prop_assert_eq!(a, b);
    }
}
