//! Sharded scenario execution: the bench-harness driver over
//! [`netsim::shard::run_sharded_phased`].
//!
//! A sharded run builds one restricted [`Simulator`] per shard on its own
//! worker thread — full topology, stacks/controllers/samplers on **owned**
//! nodes only (the simulator's installers silently skip foreign nodes) —
//! runs them under the conservative-lookahead protocol, then merges the
//! per-shard outputs deterministically:
//!
//! * **FCT records** via [`transport::merge_shard_fct`] — cross-shard flows
//!   contribute a sender half and a receiver half that are joined by flow
//!   id, so merged statistics are byte-identical for any shard count.
//! * **Telemetry** via [`telemetry::merge_shards`] — per-shard in-memory
//!   sinks are replayed in canonical order into the same JSONL layout the
//!   unsharded recorder writes, under a run directory claimed through the
//!   same registry ([`common::claim_run`]). Byte-identity of the merged
//!   `queues.jsonl` / `agents.jsonl` / `events.jsonl` across `--shards
//!   1/2/4/8` is the observable determinism contract (`manifest.json`
//!   carries wall-clock fields and is excluded from diffs).
//!
//! Policies must be partition-invariant; see [`common::install_policy`].
//! Closed-loop app hooks and `--profile` are not supported here (the
//! profiler and its book assume one simulator per run).

use crate::common::{self, Policy, Scale};
use netsim::prelude::*;
use serde_json::Value;
use std::cell::RefCell;
use std::path::PathBuf;
use std::rc::Rc;
use telemetry::{
    merge_shards, EventSample, JsonlSink, RunManifest, RunRecorder, SharedRecorder, TelemetrySink,
    VecSink,
};
use transport::{merge_shard_fct, FctCollector, FlowRecord, SharedFct, StackConfig};
use workloads::gen::{self, Arrival};

/// A sink handle that can be shared between a [`RunRecorder`] (which owns
/// its sinks as boxed trait objects) and the shard's finish hook (which
/// needs the collected samples back out).
struct SharedVecSink(Rc<RefCell<VecSink>>);

impl TelemetrySink for SharedVecSink {
    fn on_queue(&mut self, s: &telemetry::QueueSample) {
        self.0.borrow_mut().on_queue(s);
    }
    fn on_agent(&mut self, s: &telemetry::AgentSample) {
        self.0.borrow_mut().on_agent(s);
    }
    fn on_event(&mut self, s: &telemetry::EventSample) {
        self.0.borrow_mut().on_event(s);
    }
}

/// Shard-local state threaded from the build hook to the finish hook (same
/// worker thread; holds `Rc`s, never crosses threads).
struct ShardLocal {
    fct: SharedFct,
    telem: Option<(SharedRecorder, Rc<RefCell<VecSink>>)>,
}

/// What each shard sends back to the coordinator (plain data, `Send`).
struct ShardOut {
    records: Vec<FlowRecord>,
    sink: Option<VecSink>,
    fault_log_dropped: u64,
    peak_event_queue: u64,
    fault_drops: u64,
    invalid_final_configs: usize,
}

/// The merged outcome of one sharded run.
pub struct ShardedReport {
    /// Merged FCT collector — statistics identical to any shard count.
    pub fct: FctCollector,
    /// Per-shard execution counters, in shard order.
    pub shard_stats: Vec<ShardStats>,
    /// Events processed, summed over shards. Replicated shard-local ticks
    /// (control, sampling, faults) are counted once per shard, so this
    /// exceeds the equivalent unsharded count — it measures engine work
    /// done, not unique simulated happenings.
    pub events_processed: u64,
    /// Wall-clock seconds for the whole sharded run (build to merge).
    pub wall_s: f64,
    /// The recorded run directory, when metrics were armed and claimed.
    pub metrics_dir: Option<PathBuf>,
    /// Packets lost to injected faults, summed over shards (each drop
    /// happens in the owning shard exactly once).
    pub fault_drops: u64,
    /// Tuned queues ending the run with an invalid ECN config, counted on
    /// owned switches per shard and summed (see
    /// `fault::invalid_final_configs`).
    pub invalid_final_configs: usize,
    /// Deepest future-event queue over all shards.
    pub peak_event_queue: u64,
}

impl ShardedReport {
    /// Aggregate events per wall-clock second over all shards.
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.events_processed as f64 / self.wall_s
        } else {
            0.0
        }
    }

    /// Lookahead stalls summed over shards.
    pub fn stalls(&self) -> u64 {
        self.shard_stats.iter().map(|s| s.stalls).sum()
    }

    /// Cross-shard events sent (== received, asserted by the engine tests).
    pub fn remote_events(&self) -> u64 {
        self.shard_stats.iter().map(|s| s.remote_sent).sum()
    }
}

/// Run `spec` + `policy` + `arrivals` (+ optional fault plan) on `n_shards`
/// shards until `horizon`. See [`run_scenario_sharded_phased`] for the
/// phased variant the perf gates use.
pub fn run_scenario_sharded(
    spec: &TopologySpec,
    policy: Policy,
    scale: Scale,
    seed: u64,
    arrivals: &[Arrival],
    fault_plan: Option<&FaultPlan>,
    n_shards: u32,
    horizon: SimTime,
) -> ShardedReport {
    run_scenario_sharded_phased(
        spec,
        policy,
        scale,
        seed,
        arrivals,
        fault_plan,
        n_shards,
        &[horizon],
        |_| {},
    )
}

/// [`run_scenario_sharded`] with barrier-separated phases: after every
/// shard reaches `phase_ends[i]`, the workers park and `between(i)` runs on
/// the calling thread — the perf harness reads the global allocation
/// counter there, while no shard is mid-flight.
#[allow(clippy::too_many_arguments)]
pub fn run_scenario_sharded_phased(
    spec: &TopologySpec,
    policy: Policy,
    scale: Scale,
    seed: u64,
    arrivals: &[Arrival],
    fault_plan: Option<&FaultPlan>,
    n_shards: u32,
    phase_ends: &[SimTime],
    between: impl FnMut(usize),
) -> ShardedReport {
    let topo = spec.build();
    let plan = ShardPlan::build(&topo, n_shards);
    let claimed = common::claim_run(policy, seed);
    let interval = claimed.as_ref().map(|c| c.interval);
    let horizon = *phase_ends.last().expect("need at least one phase");

    let started = std::time::Instant::now();
    let topo_ref = &topo;
    let plan_ref = &plan;
    let results = run_sharded_phased(
        plan_ref,
        phase_ends,
        |shard| {
            let simcfg = SimConfig::default()
                .with_seed(seed)
                .with_control_interval(SimTime::from_us(50));
            let mut sim = Simulator::new_sharded(topo_ref.clone(), simcfg, plan_ref, shard);
            let fct = FctCollector::new_shared();
            transport::install_stacks(&mut sim, StackConfig::default(), &fct);
            common::install_policy(&mut sim, policy, scale);
            fct.borrow_mut().reserve(arrivals.len());
            gen::apply_arrivals(&mut sim, arrivals);
            if let Some(fp) = fault_plan {
                // Replicated into every shard so routing and link state stay
                // globally consistent; logs are emitted by owners only.
                sim.install_fault_plan(fp)
                    .expect("fault plan rejected by simulator");
            }
            let telem = interval.map(|iv| {
                let vec = Rc::new(RefCell::new(VecSink::new()));
                let rec = RunRecorder::new()
                    .with_sink(Box::new(SharedVecSink(vec.clone())))
                    .into_shared();
                telemetry::install_queue_sampler(&mut sim, iv, rec.clone());
                acc_core::controller::attach_recorder(&mut sim, &rec);
                (rec, vec)
            });
            (sim, ShardLocal { fct, telem })
        },
        between,
        |_shard, mut sim, local| {
            let sink = local.telem.map(|(rec, vec)| {
                // Faults executed after the last sampling tick are still
                // owed to the event timeline (mirrors `Scenario::drop`).
                let tail = sim.core_mut().drain_fault_log();
                let mut r = rec.borrow_mut();
                for f in tail {
                    r.record_event(&EventSample {
                        t_ps: f.at.as_ps(),
                        node: f.node.0,
                        port: f.port.0,
                        prio: u8::MAX,
                        kind: f.kind.to_string(),
                        detail: f.detail.to_string(),
                    });
                }
                // In-memory sinks cannot fail to flush; take the samples.
                std::mem::take(&mut *vec.borrow_mut())
            });
            ShardOut {
                records: local.fct.borrow().records().copied().collect(),
                sink,
                fault_log_dropped: sim.core().fault_log_dropped,
                peak_event_queue: sim.core().event_queue_peak(),
                fault_drops: sim.core().fault_drops,
                invalid_final_configs: crate::fault::invalid_final_configs(&sim),
            }
        },
    );
    let wall_s = started.elapsed().as_secs_f64();

    let mut shard_stats = Vec::with_capacity(results.len());
    let mut records = Vec::with_capacity(results.len());
    let mut sinks = Vec::with_capacity(results.len());
    let (mut fault_log_dropped, mut peak_event_queue) = (0u64, 0u64);
    let (mut fault_drops, mut invalid_final_configs) = (0u64, 0usize);
    for (stats, out) in results {
        shard_stats.push(stats);
        records.push(out.records);
        if let Some(s) = out.sink {
            sinks.push(s);
        }
        fault_log_dropped += out.fault_log_dropped;
        peak_event_queue = peak_event_queue.max(out.peak_event_queue);
        fault_drops += out.fault_drops;
        invalid_final_configs += out.invalid_final_configs;
    }
    let fct = merge_shard_fct(records);
    let events_processed: u64 = shard_stats.iter().map(|s| s.events_processed).sum();

    let metrics_dir = claimed.and_then(|c| {
        let mut jsonl = match JsonlSink::create_new(&c.dir) {
            Ok(s) => s,
            Err(e) => {
                common::note_metrics_failure(&c.dir, &e);
                return None;
            }
        };
        let (queue_samples, agent_samples, event_samples) = merge_shards(sinks, &mut jsonl);
        if let Err(e) = jsonl.flush() {
            common::note_metrics_failure(&c.dir, &e);
            return None;
        }
        let summary = fct.summary();
        let simcfg = SimConfig::default()
            .with_seed(seed)
            .with_control_interval(SimTime::from_us(50));
        let manifest = RunManifest {
            experiment: c.experiment.clone(),
            run: c.run.clone(),
            policy: policy.name().to_string(),
            seed,
            scale: format!(
                "{}+shards{n_shards}",
                if scale.quick { "quick" } else { "full" }
            ),
            hosts: topo.host_count(),
            switches: topo.switches().len(),
            sim_time_us: horizon.as_us_f64(),
            wall_time_s: wall_s,
            events_processed,
            events_per_sec: if wall_s > 0.0 {
                events_processed as f64 / wall_s
            } else {
                0.0
            },
            peak_event_queue,
            queue_samples,
            agent_samples,
            event_samples,
            fault_log_dropped,
            trace_evicted: 0,
            flows_total: summary.total,
            flows_completed: summary.completed,
            fct: serde_json::to_value(&summary).unwrap_or(Value::Null),
            config: serde_json::to_value(&simcfg).unwrap_or(Value::Null),
        };
        match manifest.save(&c.dir) {
            Ok(()) => {
                eprintln!(
                    "[metrics] recorded {} ({n_shards} shard(s))",
                    c.dir.display()
                );
                Some(c.dir)
            }
            Err(e) => {
                common::note_metrics_failure(&c.dir.join("manifest.json"), &e);
                None
            }
        }
    });

    ShardedReport {
        fct,
        shard_stats,
        events_processed,
        wall_s,
        metrics_dir,
        fault_drops,
        invalid_final_configs,
        peak_event_queue,
    }
}
