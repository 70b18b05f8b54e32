//! H-ACC — the hybrid design sketched in the paper's §6 discussion.
//!
//! > "An optimal solution may be hybrid: the RL model inference and ECN
//! > update is decentralized for quickest response, while online
//! > training/RL model update is done by a centralized controller."
//!
//! Each switch runs a *local* model for inference (so actions remain as
//! fast as D-ACC), but experience is shipped to a central trainer that owns
//! the optimizer, and refreshed models are pushed back to the switches
//! every `sync_ticks` control intervals — modelling the milliseconds-scale
//! round trip to a controller that §3.2 measures. Compared to plain D-ACC,
//! every switch benefits from fabric-wide experience through one model;
//! compared to C-ACC, actions stay per-queue and per-switch.

use crate::action::ActionSpace;
use crate::controller::{AccConfig, DecideBatch};
use crate::state::ObsTracker;
use netsim::prelude::*;
use rl::{DdqnAgent, Transition};
use std::any::Any;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// The centralized trainer: owns the canonical model and the optimizer.
///
/// Switches never see the live training weights; the trainer *publishes* a
/// snapshot every `publish_every` training steps (a controller pushing model
/// files out), so all switches syncing within a window receive the same
/// version.
pub struct CentralTrainer {
    agent: DdqnAgent,
    /// Minibatches run per reported batch of transitions.
    trains_per_report: usize,
    /// Training steps taken (for introspection).
    pub train_steps: u64,
    published: rl::Mlp,
    publish_every: u64,
    last_publish: u64,
}

impl CentralTrainer {
    /// Build the trainer; snapshots are published every `publish_every`
    /// training steps.
    pub fn new(cfg: &AccConfig, space: &ActionSpace, publish_every: u64) -> Self {
        let state_dim = cfg.history_k * crate::state::FEATURES_PER_OBS;
        let agent = DdqnAgent::new(state_dim, space.len(), cfg.ddqn.clone(), cfg.seed);
        let published = agent.export_model();
        CentralTrainer {
            agent,
            trains_per_report: cfg.trains_per_tick.max(1),
            train_steps: 0,
            published,
            publish_every: publish_every.max(1),
            last_publish: 0,
        }
    }

    /// Ingest experience from a switch and train.
    pub fn report(&mut self, batch: Vec<Transition>) {
        for t in batch {
            self.agent.observe(t);
        }
        for _ in 0..self.trains_per_report {
            if self.agent.train_step().is_some() {
                self.train_steps += 1;
            }
        }
        if self.train_steps - self.last_publish >= self.publish_every {
            self.published = self.agent.export_model();
            self.last_publish = self.train_steps;
        }
    }

    /// The most recently *published* model snapshot.
    pub fn model(&self) -> rl::Mlp {
        self.published.clone()
    }
}

/// Shared handle to the trainer.
pub type SharedTrainer = Rc<RefCell<CentralTrainer>>;

struct QueueCtx {
    obs: ObsTracker,
    prev: Option<(Vec<f32>, usize)>,
    action_idx: usize,
}

/// The per-switch hybrid controller: local inference, centralized training.
pub struct HybridAcc {
    cfg: AccConfig,
    space: ActionSpace,
    /// Local inference model (synced from the trainer periodically).
    local: DdqnAgent,
    trainer: SharedTrainer,
    queues: HashMap<(u16, Prio), QueueCtx>,
    outbox: Vec<Transition>,
    ticks: u64,
    /// Pull a fresh model from the trainer every this many ticks.
    pub sync_ticks: u64,
    /// Model syncs performed.
    pub syncs: u64,
    /// Per-tick scratch: the telemetry pass queues each deciding queue's
    /// key and state row, one decide step selects all actions, and the
    /// results are applied in queue order.
    batch: DecideBatch<(u16, Prio)>,
}

impl HybridAcc {
    /// Build the per-switch stub.
    pub fn new(
        cfg: AccConfig,
        space: ActionSpace,
        trainer: SharedTrainer,
        sync_ticks: u64,
    ) -> Self {
        let state_dim = cfg.history_k * crate::state::FEATURES_PER_OBS;
        let mut local = DdqnAgent::new(state_dim, space.len(), cfg.ddqn.clone(), cfg.seed);
        local.load_model(&trainer.borrow().model());
        HybridAcc {
            cfg,
            space,
            local,
            trainer,
            queues: HashMap::new(),
            outbox: Vec::new(),
            ticks: 0,
            sync_ticks: sync_ticks.max(1),
            syncs: 0,
            batch: DecideBatch::default(),
        }
    }

    fn tick_queue(&mut self, view: &mut SwitchView<'_>, port: PortId, prio: Prio) {
        let snap = view.snapshot(port, prio);
        let now = view.now();
        let key = (port.0, prio);
        let q = self.queues.entry(key).or_insert_with(|| QueueCtx {
            obs: ObsTracker::new(self.cfg.history_k, snap.telem, now),
            prev: None,
            action_idx: self.space.len() / 2,
        });
        let ecn_encoded = self.space.encode(q.action_idx);
        let Some(interval) =
            q.obs
                .observe(now, snap.qlen_bytes, snap.telem, snap.link_bps, ecn_encoded)
        else {
            return;
        };
        let reward = interval.reward(&self.cfg.reward);
        let row = self.batch.states.len();
        q.obs.window().extend_state(&mut self.batch.states);
        if let Some((ps, pa)) = q.prev.take() {
            self.outbox.push(Transition {
                state: ps,
                action: pa,
                reward: reward as f32,
                next_state: self.batch.states[row..].to_vec(),
                done: false,
            });
        }
        // The selection waits for the end-of-tick decide step.
        self.batch.rows.push(key);
    }

    /// One decide step selects an action for every pending queue, then the
    /// actions are applied in the original queue order.
    fn decide_pending(&mut self, view: &mut SwitchView<'_>) {
        let decided =
            self.batch
                .decide(&mut self.local, self.cfg.explore, self.cfg.scalar_inference);
        for (key, state, (action, _)) in decided {
            let q = self.queues.get_mut(key).expect("pending queue exists");
            q.prev = Some((state.to_vec(), action));
            q.action_idx = action;
            view.set_ecn(PortId(key.0), key.1, Some(self.space.get(action)));
        }
        self.batch.clear();
    }
}

impl QueueController for HybridAcc {
    fn on_tick(&mut self, view: &mut SwitchView<'_>) {
        self.ticks += 1;
        let prios = self.cfg.target_prios.clone();
        for p in 0..view.num_ports() {
            for &prio in &prios {
                self.tick_queue(view, PortId(p as u16), prio);
            }
        }
        self.decide_pending(view);
        // Ship experience up and (periodically) pull the fresh model down.
        if !self.outbox.is_empty() {
            let batch = std::mem::take(&mut self.outbox);
            self.trainer.borrow_mut().report(batch);
        }
        if self.ticks.is_multiple_of(self.sync_ticks) {
            let model = self.trainer.borrow().model();
            self.local.load_model(&model);
            self.syncs += 1;
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Install H-ACC on every switch; returns the shared trainer.
pub fn install_hybrid(
    sim: &mut Simulator,
    cfg: &AccConfig,
    space: &ActionSpace,
    sync_ticks: u64,
) -> SharedTrainer {
    let trainer = Rc::new(RefCell::new(CentralTrainer::new(cfg, space, 50)));
    for (i, sw) in sim.core().topo.switches().to_vec().into_iter().enumerate() {
        let mut c = cfg.clone();
        c.seed = cfg.seed.wrapping_add(i as u64);
        sim.set_controller(
            sw,
            Box::new(HybridAcc::new(
                c,
                space.clone(),
                trainer.clone(),
                sync_ticks,
            )),
        );
    }
    trainer
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> AccConfig {
        let mut cfg = AccConfig::default();
        cfg.ddqn.min_replay = 8;
        cfg.ddqn.batch_size = 8;
        cfg
    }

    #[test]
    fn hybrid_trains_centrally_and_syncs_models() {
        let topo = TopologySpec::paper_testbed().build();
        let simcfg = SimConfig::default().with_control_interval(SimTime::from_us(50));
        let mut sim = Simulator::new(topo, simcfg);
        let trainer = install_hybrid(&mut sim, &small_cfg(), &ActionSpace::templates(), 10);
        sim.run_until(SimTime::from_ms(3));
        // Even an idle network produces transitions (util 0 rewards), so the
        // trainer must have ingested experience and trained.
        assert!(trainer.borrow().train_steps > 0);
        for sw in sim.core().topo.switches().to_vec() {
            sim.with_controller(sw, |c, _| {
                let h = c.as_any_mut().downcast_mut::<HybridAcc>().unwrap();
                assert!(h.syncs >= 5, "models must sync periodically: {}", h.syncs);
            });
        }
    }

    #[test]
    fn synced_models_are_identical_across_switches() {
        let topo = TopologySpec::paper_testbed().build();
        let simcfg = SimConfig::default().with_control_interval(SimTime::from_us(50));
        let mut sim = Simulator::new(topo, simcfg);
        let _trainer = install_hybrid(&mut sim, &small_cfg(), &ActionSpace::templates(), 5);
        // Run long enough that every switch pulled the same published
        // snapshot at its latest sync.
        sim.run_until(SimTime::from_us(50 * 25));
        let probe = vec![0.3f32; 12];
        let mut outputs: Vec<Vec<f32>> = Vec::new();
        for sw in sim.core().topo.switches().to_vec() {
            sim.with_controller(sw, |c, _| {
                let h = c.as_any_mut().downcast_mut::<HybridAcc>().unwrap();
                outputs.push(h.local.q_values(&probe));
            });
        }
        for w in outputs.windows(2) {
            assert_eq!(w[0], w[1], "post-sync models must match");
        }
    }

    #[test]
    fn golden_trajectory_is_pinned() {
        // Two DCQCN senders into one receiver on a 3-port switch: every
        // RDMA queue carries a template config from the second tick on,
        // and the applied actions and the central trainer's final weights are
        // pinned bit-exactly.
        use netsim::ids::PRIO_RDMA;
        use transport::{CcKind, Message};
        let topo = TopologySpec::single_switch(3, 25_000_000_000, SimTime::from_ns(500)).build();
        let simcfg = SimConfig::default().with_seed(5);
        let mut sim = Simulator::new(topo, simcfg.with_control_interval(SimTime::from_us(50)));
        let fct = transport::FctCollector::new_shared();
        let hosts = transport::install_stacks(&mut sim, Default::default(), &fct);
        for &src in &hosts[1..] {
            let msg = Message::new(hosts[0], 2_000_000, CcKind::Dcqcn);
            transport::schedule_message(&mut sim, src, SimTime::ZERO, msg);
        }
        let space = ActionSpace::templates();
        let trainer = install_hybrid(&mut sim, &small_cfg(), &space, 10);
        let sw = sim.core().topo.switches()[0];
        let mut actions = Vec::new();
        for tick in 1..=40 {
            sim.run_until(SimTime::from_us(50 * tick));
            for p in 0..3u16 {
                let ecn = sim.core().queue(sw, PortId(p), PRIO_RDMA).ecn;
                // The first tick only primes the trackers.
                assert!(tick == 1 || ecn.is_some_and(|e| space.actions().contains(&e)));
                actions.push(ecn.map(|e| space.nearest(&e)));
            }
        }
        let model = trainer.borrow().agent.export_model();
        assert_eq!(
            (crate::golden_digest(&actions), crate::golden_digest(&model)),
            (11_792_631_966_615_506_629, 9_834_085_689_492_705_241),
            "actions {actions:?}"
        );
    }
}
