//! Pluggable cluster scheduling disciplines.
//!
//! A [`ClusterPolicy`] is consulted once per scheduler quantum with a
//! read-only [`ClusterView`] of the admission queue and every node's
//! occupancy, and answers with a list of [`SchedAction`]s (place, preempt,
//! migrate).  The engine applies the actions in order and logs each one,
//! so a policy is a pure decision function of the view plus its own
//! internal state — which is exactly what makes decision logs
//! bit-comparable across runs.
//!
//! Three disciplines ship with the crate:
//!
//! * [`FifoPolicy`] — arrival-order placement, no preemption.  The
//!   baseline every trace-driven comparison needs.
//! * [`GandivaPolicy`] — time-slicing with suspend/resume rotation plus
//!   load-balancing migration, after Gandiva (OSDI '18).
//! * [`TiresiasPolicy`] — least-attained-service: the jobs with the
//!   least effective CPU-seconds of service win the slots, with no
//!   duration knowledge at all, after Tiresias (NSDI '19).
//!
//! None of the views expose remaining work or job duration: disciplines
//! that want duration awareness must estimate it from attained service,
//! exactly like their real-world counterparts.

use flowcon_sim::time::{SimDuration, SimTime};

/// A job waiting in the global admission queue, as a policy sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueuedJobView {
    /// Dense cluster-wide job id, assigned in admission order.
    pub id: u32,
    /// Original submission time (survives preemption round-trips).
    pub arrival: SimTime,
    /// Effective CPU-seconds of service attained so far.  Zero for jobs
    /// that have never run; positive after a preemption.
    pub attained_cpu_secs: f64,
    /// When the job last entered the queue (arrival, or preemption time).
    pub queued_since: SimTime,
}

/// A job currently running on a node, as a policy sees it.
///
/// Deliberately excludes remaining work: disciplines are duration-blind.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunningJobView {
    /// Dense cluster-wide job id.
    pub id: u32,
    /// Effective CPU-seconds of service attained so far (across all
    /// placements of this job).
    pub attained_cpu_secs: f64,
    /// When the current placement started.
    pub placed_at: SimTime,
}

/// Per-node occupancy summary inside the flat running-job arena.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct NodeSpan {
    pub(crate) slots: usize,
    pub(crate) start: usize,
    pub(crate) len: usize,
}

/// Read-only cluster snapshot handed to [`ClusterPolicy::schedule`] at
/// each quantum barrier.
#[derive(Debug, Clone, Copy)]
pub struct ClusterView<'a> {
    /// The barrier time at which this decision round runs.
    pub now: SimTime,
    /// The admission queue in FIFO order (head first).
    pub queue: &'a [QueuedJobView],
    nodes: &'a [NodeSpan],
    running: &'a [RunningJobView],
}

impl<'a> ClusterView<'a> {
    pub(crate) fn new(
        now: SimTime,
        queue: &'a [QueuedJobView],
        nodes: &'a [NodeSpan],
        running: &'a [RunningJobView],
    ) -> Self {
        Self {
            now,
            queue,
            nodes,
            running,
        }
    }

    /// Number of nodes in the cluster.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Job slots on `node` (running jobs can never exceed this).
    pub fn slots(&self, node: usize) -> usize {
        self.nodes[node].slots
    }

    /// The jobs currently running on `node`, in slot order.
    pub fn running_on(&self, node: usize) -> &'a [RunningJobView] {
        let span = self.nodes[node];
        &self.running[span.start..span.start + span.len]
    }

    /// Free job slots on `node`.
    pub fn free_slots(&self, node: usize) -> usize {
        let span = self.nodes[node];
        span.slots - span.len
    }

    /// Total job slots across the cluster.
    pub fn total_slots(&self) -> usize {
        self.nodes.iter().map(|n| n.slots).sum()
    }

    /// Total running jobs across the cluster.
    pub fn running_total(&self) -> usize {
        self.running.len()
    }
}

/// One scheduling decision, applied by the engine in emission order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedAction {
    /// Move a queued job onto a node.  The node must have a free slot at
    /// the time the action is applied (earlier actions in the same round
    /// may have freed it).
    Place {
        /// Id of a job currently in the admission queue.
        job: u32,
        /// Target node index.
        node: usize,
    },
    /// Suspend a running job and return it to the back of the admission
    /// queue.  Attained service is preserved; the next placement resumes
    /// from a checkpoint of the remaining work.
    Preempt {
        /// Id of a job currently running on some node.
        job: u32,
    },
    /// Atomically move a running job to another node (checkpoint +
    /// resume, without passing through the queue).  Migrating a job to
    /// the node it already occupies is a logged no-op.
    Migrate {
        /// Id of a job currently running on some node.
        job: u32,
        /// Target node index; must have a free slot unless it is the
        /// job's current node.
        node: usize,
    },
}

/// A cluster-wide scheduling discipline.
///
/// # Contract
///
/// * `schedule` is called exactly once per quantum barrier, after
///   arrivals up to the barrier have been admitted to the queue and
///   before nodes advance to the next barrier.
/// * Actions are applied strictly in emission order.  A `Place` may
///   target a slot freed by an earlier `Preempt` in the same round.
///   An action the engine cannot apply — a `Place` of a job that is not
///   queued, a `Preempt`/`Migrate` of a job that is not running, a
///   `Place`/`Migrate` onto a full node — panics, naming the policy, the
///   action and the barrier.
/// * Every decision is appended to the run's decision log, so policies
///   must be deterministic functions of the view and their own state —
///   no wall-clock, no ambient randomness.
/// * Policies never see job durations or remaining work; only arrival
///   times, attained service, and occupancy.
pub trait ClusterPolicy {
    /// Human-readable discipline name (used in tables and logs).
    fn name(&self) -> &'static str;

    /// Append this round's decisions to `actions`.
    ///
    /// The buffer is cleared by the engine before the call; policies
    /// only append.
    fn schedule(&mut self, view: &ClusterView<'_>, actions: &mut Vec<SchedAction>);
}

/// Selector for the built-in disciplines (CLI `--policy` flag, bench
/// presets).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedPolicyKind {
    /// Arrival-order placement, no preemption ([`FifoPolicy`]).
    Fifo,
    /// Time-slice + migrate ([`GandivaPolicy`]).
    Gandiva,
    /// Least-attained-service ([`TiresiasPolicy`]).
    Tiresias,
}

impl SchedPolicyKind {
    /// Every built-in discipline, in comparison-table order.
    pub const ALL: [SchedPolicyKind; 3] = [
        SchedPolicyKind::Fifo,
        SchedPolicyKind::Gandiva,
        SchedPolicyKind::Tiresias,
    ];

    /// Parse a CLI spelling (`fifo`, `gandiva`, `tiresias`).
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "fifo" => Some(SchedPolicyKind::Fifo),
            "gandiva" => Some(SchedPolicyKind::Gandiva),
            "tiresias" => Some(SchedPolicyKind::Tiresias),
            _ => None,
        }
    }

    /// Canonical lowercase name (round-trips through [`parse`](Self::parse)).
    pub fn name(&self) -> &'static str {
        match self {
            SchedPolicyKind::Fifo => "fifo",
            SchedPolicyKind::Gandiva => "gandiva",
            SchedPolicyKind::Tiresias => "tiresias",
        }
    }

    /// Construct the discipline with its default parameters.
    pub fn build(&self) -> Box<dyn ClusterPolicy> {
        match self {
            SchedPolicyKind::Fifo => Box::new(FifoPolicy::new()),
            SchedPolicyKind::Gandiva => Box::new(GandivaPolicy::new()),
            SchedPolicyKind::Tiresias => Box::new(TiresiasPolicy::new()),
        }
    }
}

/// Tournament tree over per-node free-slot counts: answers "which node
/// has the most free slots?" in O(1) and absorbs a count change in
/// O(log N), so a round's A placements cost O(A log N).
///
/// The winner rule is the one decision logs depend on: most free slots
/// wins, ties break toward the lowest node index.
#[derive(Debug, Default)]
struct FreeSlotTree {
    /// Free slots per leaf; leaves past the node count stay at 0.
    free: Vec<usize>,
    /// `winner[k]` is the winning node of the subtree rooted at `k`
    /// (heap layout: root at 1, leaf `i` at `leaves + i`).
    winner: Vec<usize>,
    leaves: usize,
}

impl FreeSlotTree {
    /// Rebuild over `free` (one count per node) in O(N), reusing buffers.
    fn build(&mut self, free: impl ExactSizeIterator<Item = usize>) {
        self.leaves = free.len().next_power_of_two();
        self.free.clear();
        self.free.extend(free);
        self.free.resize(self.leaves, 0);
        self.winner.clear();
        self.winner.resize(2 * self.leaves, 0);
        for i in 0..self.leaves {
            self.winner[self.leaves + i] = i;
        }
        for k in (1..self.leaves).rev() {
            self.winner[k] = self.play(self.winner[2 * k], self.winner[2 * k + 1]);
        }
    }

    /// `a` is the left (lower-index) contestant, so ties keep it.
    fn play(&self, a: usize, b: usize) -> usize {
        if self.free[b] > self.free[a] {
            b
        } else {
            a
        }
    }

    /// The node with the most free slots, or `None` when every node is
    /// full.
    fn best(&self) -> Option<usize> {
        let w = self.winner[1];
        (self.free[w] > 0).then_some(w)
    }

    /// Free slots on `node`.
    fn get(&self, node: usize) -> usize {
        self.free[node]
    }

    /// Set `node`'s free-slot count and replay its path to the root.
    fn set(&mut self, node: usize, free: usize) {
        self.free[node] = free;
        let mut k = (self.leaves + node) / 2;
        while k >= 1 {
            self.winner[k] = self.play(self.winner[2 * k], self.winner[2 * k + 1]);
            k /= 2;
        }
    }

    /// Take one slot on the freest node; `None` when the cluster is full.
    fn take_best(&mut self) -> Option<usize> {
        let node = self.best()?;
        self.set(node, self.free[node] - 1);
        Some(node)
    }

    /// Rebuild from `view`'s current occupancy.
    fn build_from(&mut self, view: &ClusterView<'_>) {
        self.build((0..view.node_count()).map(|n| view.free_slots(n)));
    }
}

/// Arrival-order placement without preemption.
///
/// Jobs leave the queue strictly in FIFO order; each is placed on the
/// node with the most free slots (lowest index on ties).  When no slot
/// is free the head of the queue blocks everything behind it — exactly
/// the head-of-line behaviour the preemptive disciplines exist to beat.
#[derive(Debug, Default)]
pub struct FifoPolicy {
    free: FreeSlotTree,
}

impl FifoPolicy {
    /// New FIFO discipline.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ClusterPolicy for FifoPolicy {
    fn name(&self) -> &'static str {
        "fifo"
    }

    fn schedule(&mut self, view: &ClusterView<'_>, actions: &mut Vec<SchedAction>) {
        self.free.build_from(view);
        for job in view.queue {
            let Some(node) = self.free.take_best() else {
                break;
            };
            actions.push(SchedAction::Place { job: job.id, node });
        }
    }
}

/// Gandiva-style time-slicing with load-balancing migration.
///
/// New jobs fill free slots in arrival order.  When jobs are still
/// waiting and every slot is taken, the scheduler rotates: the running
/// job that has held its slot the longest (and for at least
/// [`slice`](Self::with_slice)) is suspended and the waiting job takes
/// its place, giving every job a share of the cluster in round-robin
/// fashion.  When nothing waits, a migration pass moves the most
/// recently placed job from the most loaded node to the least loaded
/// one whenever their occupancy differs by two or more slots.
#[derive(Debug)]
pub struct GandivaPolicy {
    slice: SimDuration,
    free: FreeSlotTree,
    /// Slice-expired running jobs as `(placed_at, id, node)`.
    expired: Vec<(SimTime, u32, usize)>,
}

impl GandivaPolicy {
    /// Minimum occupancy gap (in jobs) before a migration fires.
    const IMBALANCE: usize = 2;

    /// New Gandiva discipline with the default 60 s time slice.
    pub fn new() -> Self {
        Self::with_slice(SimDuration::from_secs(60))
    }

    /// New Gandiva discipline with an explicit time slice: a running job
    /// is only rotated out after holding its slot for at least `slice`.
    pub fn with_slice(slice: SimDuration) -> Self {
        Self {
            slice,
            free: FreeSlotTree::default(),
            expired: Vec::new(),
        }
    }
}

impl Default for GandivaPolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl ClusterPolicy for GandivaPolicy {
    fn name(&self) -> &'static str {
        "gandiva"
    }

    fn schedule(&mut self, view: &ClusterView<'_>, actions: &mut Vec<SchedAction>) {
        // 1. Fill free slots in arrival order.  Once the cluster is full
        //    nothing frees up, so the rest of the queue waits.
        self.free.build_from(view);
        let mut placed = 0;
        for job in view.queue {
            let Some(node) = self.free.take_best() else {
                break;
            };
            actions.push(SchedAction::Place { job: job.id, node });
            placed += 1;
        }
        let waiting = &view.queue[placed..];

        // 2. Rotate: each still-waiting job displaces the longest-held
        //    running job whose slice has expired.  The view is fixed for
        //    the round, so the victims are exactly the expired jobs in
        //    ascending `(placed_at, id)` order, one per waiting job.
        self.expired.clear();
        if !waiting.is_empty() {
            for node in 0..view.node_count() {
                for r in view.running_on(node) {
                    if view.now.saturating_since(r.placed_at) >= self.slice {
                        self.expired.push((r.placed_at, r.id, node));
                    }
                }
            }
            self.expired.sort_unstable();
        }
        for (job, &(_, victim, node)) in waiting.iter().zip(&self.expired) {
            actions.push(SchedAction::Preempt { job: victim });
            actions.push(SchedAction::Place { job: job.id, node });
        }

        // 3. Balance: with no queue pressure, close ≥2-slot occupancy
        //    gaps by migrating the newest placement off the hot node.
        if view.queue.is_empty() && view.node_count() > 1 {
            let mut hot = 0usize;
            let mut cold = 0usize;
            for node in 1..view.node_count() {
                if view.running_on(node).len() > view.running_on(hot).len() {
                    hot = node;
                }
                if view.running_on(node).len() < view.running_on(cold).len() {
                    cold = node;
                }
            }
            let gap = view.running_on(hot).len() - view.running_on(cold).len();
            if gap >= Self::IMBALANCE && view.free_slots(cold) > 0 {
                if let Some(mover) = view
                    .running_on(hot)
                    .iter()
                    .max_by_key(|r| (r.placed_at, r.id))
                {
                    actions.push(SchedAction::Migrate {
                        job: mover.id,
                        node: cold,
                    });
                }
            }
        }
    }
}

/// Where a job sits when the Tiresias ranking runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobLoc {
    Queued,
    Running(usize),
}

/// Tiresias-style least-attained-service scheduling.
///
/// Every quantum, all jobs (queued and running) are ranked by attained
/// service, least first (ties break toward the older job id, i.e.
/// FIFO).  The top `total_slots` jobs deserve the slots: running jobs
/// outside that set are preempted, queued jobs inside it are placed.
/// No duration knowledge is used anywhere — short jobs win slots simply
/// because they have not yet accumulated service.
#[derive(Debug, Default)]
pub struct TiresiasPolicy {
    order: Vec<(f64, u32, JobLoc)>,
    /// Running jobs outside the winning set, as `(attained, id, node)`.
    losers: Vec<(f64, u32, usize)>,
    free: FreeSlotTree,
}

/// The Tiresias rank: least attained service first, then the older job
/// id.  A total order (ids are unique), so the winning set and emission
/// order do not depend on the sort algorithm.
fn rank<L>(a: &(f64, u32, L), b: &(f64, u32, L)) -> std::cmp::Ordering {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
}

impl TiresiasPolicy {
    /// New Tiresias discipline.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ClusterPolicy for TiresiasPolicy {
    fn name(&self) -> &'static str {
        "tiresias"
    }

    fn schedule(&mut self, view: &ClusterView<'_>, actions: &mut Vec<SchedAction>) {
        self.order.clear();
        for job in view.queue {
            self.order
                .push((job.attained_cpu_secs, job.id, JobLoc::Queued));
        }
        for node in 0..view.node_count() {
            for r in view.running_on(node) {
                self.order
                    .push((r.attained_cpu_secs, r.id, JobLoc::Running(node)));
            }
        }

        // Partition the top `total_slots` jobs to the front in O(Q), then
        // rank only the winners and the running losers (each at most
        // `total_slots`) instead of the whole queue.
        let total = view.total_slots();
        if self.order.len() > total {
            self.order.select_nth_unstable_by(total, rank);
        }
        let cut = total.min(self.order.len());
        let (winners, rest) = self.order.split_at_mut(cut);
        winners.sort_unstable_by(rank);
        self.losers.clear();
        self.losers
            .extend(rest.iter().filter_map(|&(attained, id, loc)| match loc {
                JobLoc::Running(node) => Some((attained, id, node)),
                JobLoc::Queued => None,
            }));
        self.losers.sort_unstable_by(rank);

        // Preempt running jobs that lost their slot, least-attained first.
        self.free.build_from(view);
        for &(_, id, node) in &self.losers {
            actions.push(SchedAction::Preempt { job: id });
            self.free.set(node, self.free.get(node) + 1);
        }

        // Place queued winners, least-attained first.
        for &(_, id, loc) in winners.iter() {
            if loc == JobLoc::Queued {
                let node = self
                    .free
                    .take_best()
                    .expect("preemptions freed at least as many slots as queued winners");
                actions.push(SchedAction::Place { job: id, node });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queued(id: u32, attained: f64) -> QueuedJobView {
        QueuedJobView {
            id,
            arrival: SimTime::ZERO,
            attained_cpu_secs: attained,
            queued_since: SimTime::ZERO,
        }
    }

    fn running(id: u32, attained: f64, placed_secs: u64) -> RunningJobView {
        RunningJobView {
            id,
            attained_cpu_secs: attained,
            placed_at: SimTime::from_secs(placed_secs),
        }
    }

    #[test]
    fn fifo_places_in_arrival_order_onto_the_freest_node() {
        let queue = [queued(0, 0.0), queued(1, 0.0), queued(2, 0.0)];
        let nodes = [
            NodeSpan {
                slots: 2,
                start: 0,
                len: 1,
            },
            NodeSpan {
                slots: 2,
                start: 1,
                len: 0,
            },
        ];
        let arena = [running(9, 5.0, 0)];
        let view = ClusterView::new(SimTime::from_secs(100), &queue, &nodes, &arena);
        let mut actions = Vec::new();
        FifoPolicy::new().schedule(&view, &mut actions);
        assert_eq!(
            actions,
            vec![
                SchedAction::Place { job: 0, node: 1 },
                SchedAction::Place { job: 1, node: 0 },
                SchedAction::Place { job: 2, node: 1 },
            ]
        );
    }

    #[test]
    fn fifo_never_preempts_when_the_cluster_is_full() {
        let queue = [queued(3, 0.0)];
        let nodes = [NodeSpan {
            slots: 1,
            start: 0,
            len: 1,
        }];
        let arena = [running(0, 50.0, 0)];
        let view = ClusterView::new(SimTime::from_secs(500), &queue, &nodes, &arena);
        let mut actions = Vec::new();
        FifoPolicy::new().schedule(&view, &mut actions);
        assert!(actions.is_empty());
    }

    #[test]
    fn tiresias_evicts_the_most_served_job_for_a_fresh_arrival() {
        let queue = [queued(5, 0.0)];
        let nodes = [NodeSpan {
            slots: 2,
            start: 0,
            len: 2,
        }];
        let arena = [running(0, 400.0, 0), running(1, 10.0, 0)];
        let view = ClusterView::new(SimTime::from_secs(100), &queue, &nodes, &arena);
        let mut actions = Vec::new();
        TiresiasPolicy::new().schedule(&view, &mut actions);
        assert_eq!(
            actions,
            vec![
                SchedAction::Preempt { job: 0 },
                SchedAction::Place { job: 5, node: 0 },
            ]
        );
    }

    #[test]
    fn tiresias_breaks_attained_ties_toward_the_older_job() {
        let queue = [queued(7, 0.0), queued(2, 0.0)];
        let nodes = [NodeSpan {
            slots: 1,
            start: 0,
            len: 0,
        }];
        let arena: [RunningJobView; 0] = [];
        let view = ClusterView::new(SimTime::ZERO, &queue, &nodes, &arena);
        let mut actions = Vec::new();
        TiresiasPolicy::new().schedule(&view, &mut actions);
        // Only one slot: the older id (2) wins the tie at 0 attained.
        assert_eq!(actions, vec![SchedAction::Place { job: 2, node: 0 }]);
    }

    #[test]
    fn gandiva_rotates_only_after_the_slice_expires() {
        let queue = [queued(4, 0.0)];
        let nodes = [NodeSpan {
            slots: 1,
            start: 0,
            len: 1,
        }];
        let arena = [running(0, 30.0, 70)];
        // Placed at t=70, now t=100: held 30 s < 60 s slice — no rotation.
        let early = ClusterView::new(SimTime::from_secs(100), &queue, &nodes, &arena);
        let mut actions = Vec::new();
        let mut policy = GandivaPolicy::new();
        policy.schedule(&early, &mut actions);
        assert!(actions.is_empty());

        // Now t=140: held 70 s ≥ slice — rotate.
        let late = ClusterView::new(SimTime::from_secs(140), &queue, &nodes, &arena);
        policy.schedule(&late, &mut actions);
        assert_eq!(
            actions,
            vec![
                SchedAction::Preempt { job: 0 },
                SchedAction::Place { job: 4, node: 0 },
            ]
        );
    }

    #[test]
    fn gandiva_migrates_to_close_a_two_slot_gap() {
        let queue: [QueuedJobView; 0] = [];
        let nodes = [
            NodeSpan {
                slots: 2,
                start: 0,
                len: 2,
            },
            NodeSpan {
                slots: 2,
                start: 2,
                len: 0,
            },
        ];
        let arena = [running(0, 10.0, 0), running(1, 5.0, 50)];
        let view = ClusterView::new(SimTime::from_secs(100), &queue, &nodes, &arena);
        let mut actions = Vec::new();
        GandivaPolicy::new().schedule(&view, &mut actions);
        // The newest placement (job 1) moves to the empty node.
        assert_eq!(actions, vec![SchedAction::Migrate { job: 1, node: 1 }]);
    }

    #[test]
    fn policy_kind_parses_all_spellings() {
        for kind in SchedPolicyKind::ALL {
            assert_eq!(SchedPolicyKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(SchedPolicyKind::parse("FIFO"), Some(SchedPolicyKind::Fifo));
        assert_eq!(SchedPolicyKind::parse("srtf"), None);
    }

    /// Reference disciplines: the straightforward linear-scan, full-sort
    /// and per-waiting-job-rescan formulations the built-in policies
    /// must match action for action.
    mod reference {
        use super::*;

        /// Index of the node with the most free slots (ties break toward
        /// the lowest index), by a full scan.
        pub(super) fn most_free(free: &[usize]) -> Option<usize> {
            let mut best: Option<usize> = None;
            for (idx, &f) in free.iter().enumerate() {
                if f == 0 {
                    continue;
                }
                match best {
                    Some(b) if free[b] >= f => {}
                    _ => best = Some(idx),
                }
            }
            best
        }

        fn free_of(view: &ClusterView<'_>) -> Vec<usize> {
            (0..view.node_count()).map(|n| view.free_slots(n)).collect()
        }

        pub(super) fn fifo(view: &ClusterView<'_>) -> Vec<SchedAction> {
            let mut free = free_of(view);
            let mut actions = Vec::new();
            for job in view.queue {
                let Some(node) = most_free(&free) else {
                    break;
                };
                actions.push(SchedAction::Place { job: job.id, node });
                free[node] -= 1;
            }
            actions
        }

        pub(super) fn gandiva(view: &ClusterView<'_>, slice: SimDuration) -> Vec<SchedAction> {
            let mut free = free_of(view);
            let mut actions = Vec::new();
            let mut waiting = Vec::new();
            for job in view.queue {
                match most_free(&free) {
                    Some(node) => {
                        actions.push(SchedAction::Place { job: job.id, node });
                        free[node] -= 1;
                    }
                    None => waiting.push(job.id),
                }
            }
            let mut victims: Vec<u32> = Vec::new();
            for &job in &waiting {
                let mut victim: Option<(usize, RunningJobView)> = None;
                for node in 0..view.node_count() {
                    for r in view.running_on(node) {
                        if victims.contains(&r.id) || view.now.saturating_since(r.placed_at) < slice
                        {
                            continue;
                        }
                        match victim {
                            Some((_, v)) if (v.placed_at, v.id) <= (r.placed_at, r.id) => {}
                            _ => victim = Some((node, *r)),
                        }
                    }
                }
                let Some((node, v)) = victim else {
                    break;
                };
                victims.push(v.id);
                actions.push(SchedAction::Preempt { job: v.id });
                actions.push(SchedAction::Place { job, node });
            }
            if view.queue.is_empty() && view.node_count() > 1 {
                let mut hot = 0usize;
                let mut cold = 0usize;
                for node in 1..view.node_count() {
                    if view.running_on(node).len() > view.running_on(hot).len() {
                        hot = node;
                    }
                    if view.running_on(node).len() < view.running_on(cold).len() {
                        cold = node;
                    }
                }
                let gap = view.running_on(hot).len() - view.running_on(cold).len();
                if gap >= GandivaPolicy::IMBALANCE && view.free_slots(cold) > 0 {
                    if let Some(mover) = view
                        .running_on(hot)
                        .iter()
                        .max_by_key(|r| (r.placed_at, r.id))
                    {
                        actions.push(SchedAction::Migrate {
                            job: mover.id,
                            node: cold,
                        });
                    }
                }
            }
            actions
        }

        pub(super) fn tiresias(view: &ClusterView<'_>) -> Vec<SchedAction> {
            let mut order: Vec<(f64, u32, JobLoc)> = Vec::new();
            for job in view.queue {
                order.push((job.attained_cpu_secs, job.id, JobLoc::Queued));
            }
            for node in 0..view.node_count() {
                for r in view.running_on(node) {
                    order.push((r.attained_cpu_secs, r.id, JobLoc::Running(node)));
                }
            }
            order.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let total = view.total_slots();
            let mut should_run: Vec<u32> = order.iter().take(total).map(|&(_, id, _)| id).collect();
            should_run.sort_unstable();
            let mut free = free_of(view);
            let mut actions = Vec::new();
            for &(_, id, loc) in &order {
                if let JobLoc::Running(node) = loc {
                    if should_run.binary_search(&id).is_err() {
                        actions.push(SchedAction::Preempt { job: id });
                        free[node] += 1;
                    }
                }
            }
            for &(_, id, loc) in order.iter().take(total) {
                if loc == JobLoc::Queued {
                    let node = most_free(&free).expect("preemptions freed enough slots");
                    actions.push(SchedAction::Place { job: id, node });
                    free[node] -= 1;
                }
            }
            actions
        }
    }

    /// SplitMix64 for building random views inside a property.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// Attained service with heavy ties: half the jobs at exactly 0.0,
    /// most of the rest on a few shared values.
    fn attained(rng: &mut Mix) -> f64 {
        match rng.below(8) {
            0..=3 => 0.0,
            4 => 1.0,
            5 => 12.5,
            6 => 40.0,
            _ => rng.below(10_000) as f64 / 100.0,
        }
    }

    struct RandomCluster {
        now: SimTime,
        queue: Vec<QueuedJobView>,
        nodes: Vec<NodeSpan>,
        running: Vec<RunningJobView>,
    }

    impl RandomCluster {
        /// `node_count` nodes of 1..=`max_slots` slots each (half the
        /// nodes full), a queue of 0..=3× the total slots (empty a quarter
        /// of the time), unique shuffled ids, and placement ages around
        /// the 60 s Gandiva slice.
        fn new(node_count: usize, max_slots: usize, seed: u64) -> Self {
            let mut rng = Mix(seed);
            let now = SimTime::from_secs(1_000);
            let mut nodes = Vec::with_capacity(node_count);
            let mut used = 0;
            for _ in 0..node_count {
                let slots = 1 + rng.below(max_slots);
                let len = if rng.below(2) == 0 {
                    slots
                } else {
                    rng.below(slots + 1)
                };
                nodes.push(NodeSpan {
                    slots,
                    start: used,
                    len,
                });
                used += len;
            }
            let total: usize = nodes.iter().map(|n| n.slots).sum();
            let queue_len = if rng.below(4) == 0 {
                0
            } else {
                rng.below(3 * total + 1)
            };
            let mut ids: Vec<u32> = (0..(used + queue_len) as u32).collect();
            for i in (1..ids.len()).rev() {
                ids.swap(i, rng.below(i + 1));
            }
            let running = ids[..used]
                .iter()
                .map(|&id| {
                    let age = [0, 30, 59, 60, 61, 120, 60][rng.below(7)] + rng.below(2) as u64;
                    RunningJobView {
                        id,
                        attained_cpu_secs: attained(&mut rng),
                        placed_at: SimTime::from_secs(1_000 - age),
                    }
                })
                .collect();
            let queue = ids[used..]
                .iter()
                .map(|&id| QueuedJobView {
                    id,
                    arrival: SimTime::from_secs(rng.below(1_000) as u64),
                    attained_cpu_secs: attained(&mut rng),
                    queued_since: now,
                })
                .collect();
            Self {
                now,
                queue,
                nodes,
                running,
            }
        }

        fn view(&self) -> ClusterView<'_> {
            ClusterView::new(self.now, &self.queue, &self.nodes, &self.running)
        }
    }

    proptest::proptest! {
        #[test]
        fn every_discipline_matches_its_reference(
            node_count in 1usize..=70,
            max_slots in 1usize..=4,
            seed in 0u64..u64::MAX,
        ) {
            // One instance per discipline across several views, so the
            // recycled buffers shrink and grow between rounds.
            let mut fifo = FifoPolicy::new();
            let mut gandiva = GandivaPolicy::new();
            let mut tiresias = TiresiasPolicy::new();
            let mut actions = Vec::new();
            for round in 0..3u64 {
                let cluster = RandomCluster::new(node_count, max_slots, seed ^ round);
                let view = cluster.view();

                actions.clear();
                fifo.schedule(&view, &mut actions);
                proptest::prop_assert_eq!(&actions, &reference::fifo(&view), "fifo");

                actions.clear();
                gandiva.schedule(&view, &mut actions);
                proptest::prop_assert_eq!(
                    &actions,
                    &reference::gandiva(&view, gandiva.slice),
                    "gandiva"
                );

                actions.clear();
                tiresias.schedule(&view, &mut actions);
                proptest::prop_assert_eq!(&actions, &reference::tiresias(&view), "tiresias");
            }
        }
    }

    #[test]
    fn free_slot_tree_matches_a_linear_scan_under_random_updates() {
        let mut rng = Mix(0x7EE5);
        let mut tree = FreeSlotTree::default();
        for n in 1..=70 {
            let mut free: Vec<usize> = (0..n).map(|_| rng.below(5)).collect();
            tree.build(free.iter().copied());
            assert_eq!(
                tree.best(),
                reference::most_free(&free),
                "n={n} after build"
            );
            for step in 0..200 {
                let node = rng.below(n);
                // Bias toward few distinct counts so ties are common.
                free[node] = rng.below(3);
                tree.set(node, free[node]);
                assert_eq!(
                    tree.best(),
                    reference::most_free(&free),
                    "n={n} step={step} free={free:?}"
                );
                assert_eq!(tree.get(node), free[node]);
            }
            while let Some(node) = reference::most_free(&free) {
                assert_eq!(tree.take_best(), Some(node), "n={n} draining");
                free[node] -= 1;
            }
            assert_eq!(tree.take_best(), None, "n={n} drained");
        }
    }
}
