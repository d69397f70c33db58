//! Extending FlowCon: plug a custom policy into the worker runtime.
//!
//! Implements a "deadline-favoring" policy — the job that has been running
//! longest gets the largest share — purely against the public
//! `ResourcePolicy` trait, and races it against FlowCon and NA.
//!
//! ```sh
//! cargo run --release --example custom_policy
//! ```

use std::collections::BTreeMap;

use flowcon_core::config::{FlowConConfig, NodeConfig};
use flowcon_core::metric::GrowthMeasurement;
use flowcon_core::policy::{FairSharePolicy, FlowConPolicy, ResourcePolicy};
use flowcon_core::session::Session;
use flowcon_dl::workload::WorkloadPlan;
use flowcon_sim::time::{SimDuration, SimTime};
use flowcon_sim::ContainerId;

/// Oldest-job-first proportional shares, reconfigured every 15 s.
struct SeniorityPolicy {
    started: BTreeMap<ContainerId, SimTime>,
}

impl SeniorityPolicy {
    fn new() -> Self {
        SeniorityPolicy {
            started: BTreeMap::new(),
        }
    }
}

impl ResourcePolicy for SeniorityPolicy {
    fn name(&self) -> String {
        "Seniority".to_string()
    }

    fn initial_interval(&self) -> Option<SimDuration> {
        Some(SimDuration::from_secs(15))
    }

    fn reconfigure_into(
        &mut self,
        now: SimTime,
        measures: &[GrowthMeasurement],
        updates: &mut Vec<(ContainerId, f64)>,
    ) -> Option<SimDuration> {
        updates.clear();
        // Weight each container by its age (+1 s so newcomers get a sliver).
        let age = |m: &GrowthMeasurement| {
            let started = self.started.get(&m.id).copied().unwrap_or(now);
            now.saturating_since(started).as_secs_f64() + 1.0
        };
        let total: f64 = measures.iter().map(age).sum();
        updates.extend(
            measures
                .iter()
                .map(|m| (m.id, (age(m) / total).clamp(0.05, 1.0))),
        );
        Some(SimDuration::from_secs(15))
    }

    fn on_pool_change(&mut self, now: SimTime, pool_ids: &[ContainerId]) -> bool {
        for &id in pool_ids {
            self.started.entry(id).or_insert(now);
        }
        self.started.retain(|id, _| pool_ids.contains(id));
        true
    }
}

fn main() {
    let node = NodeConfig::default();
    let plan = WorkloadPlan::random_five(2024);

    let policies: Vec<Box<dyn ResourcePolicy>> = vec![
        Box::new(SeniorityPolicy::new()),
        Box::new(FlowConPolicy::new(FlowConConfig::default())),
        Box::new(FairSharePolicy::new()),
    ];

    println!("policy        makespan (s)   mean completion (s)");
    println!("--------------------------------------------------");
    for policy in policies {
        let result = Session::builder()
            .node(node)
            .plan(plan.clone())
            .policy_box(policy)
            .build()
            .run();
        let completions: Vec<f64> = result
            .output
            .completions
            .iter()
            .map(|c| c.completion_secs())
            .collect();
        let mean = completions.iter().sum::<f64>() / completions.len() as f64;
        println!(
            "{:<13} {:>10.1} {:>16.1}",
            result.output.policy,
            result.output.makespan_secs(),
            mean
        );
    }
}
