//! Flow-level (fluid) counterparts of the packet-engine controllers: ECN
//! tuners that ride `netsim::flowsim`'s control tick instead of the packet
//! engine's [`netsim::control::QueueController`] hook.
//!
//! [`FluidAcc`] observes and decides through the same code as the packet
//! controllers: an [`ObsTracker`] per link differences the monotone
//! [`QueueTelemetry`] counters (saturating) into a [`QueueObs`] and keeps
//! the state history, and one batched decide step per tick picks every
//! ready link's action. What differs is where the counters come from — the
//! analytic queue model ([`netsim::flowsim::bottleneck::LinkModel`]) rather
//! than switch egress queues — and what the agent does with them: the
//! tuner is greedy and inference-only, and it neither computes rewards nor
//! trains. Every link is tracked from zero counters at `t = 0`, and a link
//! is decided only once its history holds `k` observations.

use crate::action::ActionSpace;
use crate::controller::{AccConfig, DecideBatch};
use crate::state::ObsTracker;
use crate::static_ecn::StaticEcnPolicy;
use netsim::flowsim::{EcnTuner, LinkModel};
use netsim::queues::QueueTelemetry;
use netsim::time::SimTime;
use rl::{DdqnAgent, Mlp};

/// Applies a static ECN policy ([`StaticEcnPolicy`], e.g. the paper's
/// SECN1/SECN2 baselines or the vendor default) to every markable link
/// once, on the first control tick — the fluid analogue of
/// [`crate::static_ecn::StaticEcnController`].
pub struct FluidStaticEcn {
    policy: StaticEcnPolicy,
    applied: bool,
}

impl FluidStaticEcn {
    /// A tuner that will install `policy` on every link carrying an ECN
    /// config (host-egress links are left alone).
    pub fn new(policy: StaticEcnPolicy) -> Self {
        FluidStaticEcn {
            policy,
            applied: false,
        }
    }
}

impl EcnTuner for FluidStaticEcn {
    fn on_tick(&mut self, _now: SimTime, links: &mut [LinkModel]) {
        if self.applied {
            return;
        }
        self.applied = true;
        for l in links.iter_mut() {
            if l.ecn.is_some() {
                l.ecn = Some(self.policy.config_for(l.capacity_bps));
            }
        }
    }
}

/// Per-link observation state inside [`FluidAcc`].
struct LinkSlot {
    obs: ObsTracker,
    action: usize,
}

/// Greedy-inference ACC over the analytic queue model: one shared DDQN
/// evaluated over every markable link per tick, through the observation
/// pipeline and decide step of [`crate::AccController`]
/// (ladder-discretised queue depth, normalised throughput and marked
/// throughput, encoded current action, history k).
///
/// Inference-only by design — the flow-level backend exists to evaluate
/// policies at scale; training stays on the packet path where the reward
/// signal is exact.
pub struct FluidAcc {
    agent: DdqnAgent,
    space: ActionSpace,
    history_k: usize,
    slots: Vec<LinkSlot>,
    /// This tick's ready links, by index into `slots`.
    batch: DecideBatch<usize>,
}

impl FluidAcc {
    /// Build from the same config/action-space pair the packet controllers
    /// use. `cfg.seed` seeds the agent's (untrained) weights; pair with
    /// [`FluidAcc::load_model`] to evaluate a trained policy.
    pub fn new(cfg: &AccConfig, space: ActionSpace) -> Self {
        let state_dim = cfg.history_k * crate::state::FEATURES_PER_OBS;
        let agent = DdqnAgent::new(state_dim, space.len(), cfg.ddqn.clone(), cfg.seed);
        FluidAcc {
            agent,
            space,
            history_k: cfg.history_k,
            slots: Vec::new(),
            batch: DecideBatch::default(),
        }
    }

    /// Load trained MLP weights into the inference agent.
    pub fn load_model(&mut self, model: &Mlp) {
        self.agent.load_model(model);
    }
}

impl EcnTuner for FluidAcc {
    fn on_tick(&mut self, now: SimTime, links: &mut [LinkModel]) {
        if self.slots.len() != links.len() {
            self.slots = links
                .iter()
                .map(|l| LinkSlot {
                    obs: ObsTracker::new(self.history_k, QueueTelemetry::default(), SimTime::ZERO),
                    action: l
                        .ecn
                        .as_ref()
                        .map(|c| self.space.nearest(c))
                        .unwrap_or_default(),
                })
                .collect();
        }
        self.batch.clear();
        for (i, (l, slot)) in links.iter().zip(&mut self.slots).enumerate() {
            if l.ecn.is_none() {
                continue;
            }
            let ecn_encoded = self.space.encode(slot.action);
            let observed =
                slot.obs
                    .observe(now, l.qlen_bytes(), l.telem, l.capacity_bps, ecn_encoded);
            if observed.is_some() && slot.obs.window().len() == self.history_k {
                slot.obs.window().extend_state(&mut self.batch.states);
                self.batch.rows.push(i);
            }
        }
        for (&i, _, (action, _)) in self.batch.decide(&mut self.agent, false, false) {
            let slot = &mut self.slots[i];
            if action != slot.action {
                slot.action = action;
                links[i].ecn = Some(self.space.get(action));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::flowsim::{Fidelity, FlowSim, FlowSimConfig, FlowSpec};
    use netsim::ids::NodeId;
    use netsim::prelude::*;

    fn incast_sim(n_senders: usize) -> FlowSim {
        let topo = TopologySpec::single_switch(8, 25_000_000_000, SimTime::from_ns(500)).build();
        let hosts = topo.hosts().to_vec();
        let mut sim = FlowSim::new(topo, FlowSimConfig::default());
        let specs: Vec<FlowSpec> = (0..n_senders)
            .map(|i| FlowSpec {
                src: hosts[i + 1],
                dst: hosts[0],
                bytes: 20_000_000,
                prio: 1,
                tag: 0,
                start: SimTime::ZERO,
            })
            .collect();
        sim.schedule_flows(&specs);
        sim
    }

    #[test]
    fn static_tuner_rewrites_switch_links_once() {
        let mut sim = incast_sim(4);
        sim.set_tuner(Box::new(FluidStaticEcn::new(StaticEcnPolicy::Vendor)));
        sim.run_until(SimTime::from_ms(60));
        assert_eq!(sim.completions().len(), 4);
        let vendor = StaticEcnPolicy::Vendor.config_for(25_000_000_000);
        let rewritten = sim
            .links()
            .iter()
            .filter(|l| l.ecn.as_ref() == Some(&vendor))
            .count();
        assert!(rewritten > 0, "vendor config must be installed");
    }

    #[test]
    fn fluid_acc_observes_and_acts() {
        let mut sim = incast_sim(6);
        let cfg = AccConfig::default();
        let tuner = FluidAcc::new(&cfg, ActionSpace::templates());
        sim.set_tuner(Box::new(tuner));
        sim.run_until(SimTime::from_ms(100));
        assert_eq!(sim.completions().len(), 6, "flows finish under FluidAcc");
        // The saturated egress link must have produced marked telemetry for
        // the agent to consume (the observation path is live).
        let marked: u64 = sim.links().iter().map(|l| l.telem.tx_marked_bytes).sum();
        assert!(marked > 0, "analytic ECN feedback reaches the tuner");
    }

    #[test]
    fn flow_fidelity_ignores_tuner() {
        let topo = TopologySpec::single_switch(4, 25_000_000_000, SimTime::from_ns(500)).build();
        let hosts = topo.hosts().to_vec();
        let cfg = FlowSimConfig {
            fidelity: Fidelity::Flow,
            ..Default::default()
        };
        let mut sim = FlowSim::new(topo, cfg);
        sim.schedule_flows(&[FlowSpec {
            src: hosts[0],
            dst: hosts[1],
            bytes: 1_000_000,
            prio: 1,
            tag: 0,
            start: SimTime::ZERO,
        }]);
        sim.set_tuner(Box::new(FluidStaticEcn::new(StaticEcnPolicy::Vendor)));
        sim.run_until(SimTime::from_ms(10));
        assert_eq!(sim.completions().len(), 1);
        assert!(sim.links().iter().all(|l| l.ecn.is_none()));
        let _ = NodeId(0);
    }

    #[test]
    fn golden_trajectory_is_pinned() {
        // A 6-to-1 incast under greedy FluidAcc: the action applied on
        // every markable link at every tick is pinned bit-exactly. The
        // agent is inference-only, so its weights never move.
        let mut sim = incast_sim(6);
        let space = ActionSpace::templates();
        let cfg = AccConfig {
            seed: 3,
            ..AccConfig::default()
        };
        sim.set_tuner(Box::new(FluidAcc::new(&cfg, space.clone())));
        let mut actions = Vec::new();
        for tick in 1..=60 {
            sim.run_until(SimTime::from_us(50 * tick));
            for l in sim.links() {
                if let Some(e) = &l.ecn {
                    actions.push(space.nearest(e));
                }
            }
        }
        assert_eq!(
            crate::golden_digest(&actions),
            2_233_471_833_525_006_461,
            "actions {actions:?}"
        );
    }
}
