//! The benchmark workloads. Each builds its simulation from the seed's
//! generated inputs, runs it to a fixed simulated horizon and returns the
//! pass's simulated outcome plus its host-time measurements.
//!
//! Every workload drives the layers through their public functions and
//! extension traits only; the traced variant differs solely in the timing
//! wrappers of [`crate::trace`] around the objects it installs.

use crate::alloc;
use crate::host::{self, Probe, ProbeTotals};
use crate::trace::{self, SharedTracer};
use acc_core::{controller, AccController, ActionSpace, FluidStaticEcn, StaticEcnPolicy};
use netsim::flowsim::{Fidelity, FlowSim, FlowSimConfig};
use netsim::prelude::*;
use rl::ReplayBuffer;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;
use telemetry::{JsonlSink, RunRecorder};
use transport::{CcKind, FctCollector, HostStack, SharedFct, StackConfig};
use workloads::gen::{self, PoissonGen};
use workloads::{
    to_flow_specs, SizeDist, StorageCluster, StorageConfig, StorageProfile, XlFlowsSpec,
};

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Open-loop WebSearch at load 0.8 under static SECN1 (fig7/12/13).
    WebsearchSecn1,
    /// Closed-loop Table-1 storage under online ACC with the recorder (fig9).
    StorageAcc,
    /// The 1024-host flow-level run at hybrid fidelity.
    XlFlows,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::WebsearchSecn1,
        Workload::StorageAcc,
        Workload::XlFlows,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WebsearchSecn1 => "websearch-secn1",
            Workload::StorageAcc => "storage-acc",
            Workload::XlFlows => "xl-flows",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

// Simulated extents. Arrivals stop at the cutoff; the drain tail after it
// lets every issued flow or IO complete, so a flow still open at the
// horizon is a failure, not a truncation.
const WEBSEARCH_CUTOFF: SimTime = SimTime::from_ms(6);
const WEBSEARCH_DRAIN: SimTime = SimTime::from_ms(62);
const STORAGE_CUTOFF: SimTime = SimTime::from_ms(16);
const STORAGE_DRAIN: SimTime = SimTime::from_ms(4);
const XL_CUTOFF: SimTime = SimTime::from_ms(8);
const XL_DRAIN: SimTime = SimTime::from_ms(80);
/// Queue-sampling cadence of the storage flight recorder (the CLI default).
const RECORDER_INTERVAL: SimTime = SimTime::from_us(100);
/// Simulated time between two chances for the host probe to run.
const SLICE: SimTime = SimTime::from_us(20);
/// Seed of the ACC agents: part of the system under test, not an input.
const AGENT_SEED: u64 = 13;

/// The deterministic outputs of one pass: identical for identical seeds.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Flows (messages) issued.
    pub issued: u64,
    /// Issued flows that completed by the horizon.
    pub completed: u64,
    /// Issued flows still open at the horizon.
    pub unfinished: u64,
    /// FCT of every completed flow, µs, in registration order.
    pub fct_us: Vec<f64>,
    /// When the last flow completed: the drain tail must end after it.
    pub last_completion: SimTime,
    /// Completed operations per simulated second between the warmup
    /// (a fifth of the cutoff) and the cutoff: IOs on storage-acc, flows
    /// elsewhere.
    pub iops: f64,
    /// Simulated horizon, ps.
    pub sim_ps: u64,
    /// Behaviour counters, keyed by their per-layer metric name.
    pub counters: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Names of the fields where `self` and `other` differ.
    pub fn differences(&self, other: &Outcome) -> Vec<String> {
        let mut d = Vec::new();
        let fields = [
            ("issued", self.issued == other.issued),
            ("completed", self.completed == other.completed),
            ("unfinished", self.unfinished == other.unfinished),
            ("fct_us", self.fct_us == other.fct_us),
            (
                "last_completion",
                self.last_completion == other.last_completion,
            ),
            ("iops", self.iops == other.iops),
            ("sim_ps", self.sim_ps == other.sim_ps),
        ];
        d.extend(fields.iter().filter(|f| !f.1).map(|f| f.0.to_string()));
        for (name, v) in &self.counters {
            if other.counters.get(name) != Some(v) {
                d.push(name.to_string());
            }
        }
        d
    }
}

/// One pass: its outcome and host-side measurements.
pub struct Pass {
    /// Simulated results.
    pub outcome: Outcome,
    /// Host seconds of the event loop, cutoff and drain together, without
    /// the probe runs inside it.
    pub run_s: f64,
    /// CPU seconds from the start of the workload to the first event.
    pub setup_cpu_s: f64,
    /// `run_s` on the thread's CPU clock.
    pub run_cpu_s: f64,
    /// The host probe's runs inside the event loop.
    pub probe: ProbeTotals,
    /// Host seconds of the set-up spent generating the inputs.
    pub gen_s: f64,
    /// Heap high-water mark above the live size at the pass start, bytes.
    pub peak_bytes: u64,
    /// Heap allocations made by the event loop.
    pub run_allocs: u64,
}

/// The event loop and outcome of a built workload.
type Run = Box<dyn FnOnce(&mut Clock) -> Result<Outcome, String>>;

/// Build `w` from `seed`'s inputs, up to the first simulated event.
fn build(
    w: Workload,
    seed: u64,
    t: Option<&SharedTracer>,
    clock: &mut Clock,
    scratch: &Path,
) -> Result<Run, String> {
    match w {
        Workload::WebsearchSecn1 => Ok(websearch(seed, t, clock)),
        Workload::StorageAcc => storage(seed, t, clock, scratch),
        Workload::XlFlows => Ok(xl_flows(seed, t, clock)),
    }
}

/// Run one pass of `w` on `seed`'s inputs, traced when `t` is given.
/// `scratch` is a directory the pass may write to.
pub fn run_pass(
    w: Workload,
    seed: u64,
    t: Option<&SharedTracer>,
    probe: &mut Probe,
    scratch: &Path,
) -> Result<Pass, String> {
    alloc::reset_peak();
    let live0 = alloc::live_bytes();
    let mut clock = Clock::start(t, Some(probe));
    let run = build(w, seed, t, &mut clock, scratch)?;
    clock.begin_run();
    let outcome = run(&mut clock)?;
    Ok(Pass {
        outcome,
        run_s: clock.run_s,
        setup_cpu_s: clock.setup_cpu_s,
        run_cpu_s: clock.run_cpu_s,
        probe: clock.probe_totals,
        gen_s: clock.gen_s,
        peak_bytes: alloc::peak_bytes().saturating_sub(live0),
        run_allocs: clock.run_allocs,
    })
}

/// CPU seconds to build `w` from `seed`'s inputs, untraced; the built
/// simulation is dropped unrun.
pub fn time_setup(w: Workload, seed: u64, scratch: &Path) -> Result<f64, String> {
    let mut clock = Clock::start(None, None);
    let run = build(w, seed, None, &mut clock, scratch)?;
    clock.begin_run();
    drop(run);
    Ok(clock.setup_cpu_s)
}

/// Host-time bookkeeping of a pass, mirrored into the tracer's phases.
struct Clock<'a> {
    t: Option<&'a SharedTracer>,
    probe: Option<&'a mut Probe>,
    probe_totals: ProbeTotals,
    start_cpu: f64,
    gen_s: f64,
    setup_cpu_s: f64,
    run_start: Option<(Instant, f64)>,
    allocs0: u64,
    run_s: f64,
    run_cpu_s: f64,
    run_allocs: u64,
}

impl<'a> Clock<'a> {
    fn start(t: Option<&'a SharedTracer>, probe: Option<&'a mut Probe>) -> Self {
        if let Some(t) = t {
            t.borrow_mut().begin_phase("setup");
        }
        Clock {
            t,
            probe,
            probe_totals: ProbeTotals::default(),
            start_cpu: host::thread_cpu_s(),
            gen_s: 0.0,
            setup_cpu_s: 0.0,
            run_start: None,
            allocs0: 0,
            run_s: 0.0,
            run_cpu_s: 0.0,
            run_allocs: 0,
        }
    }

    /// Time the input generator `f`.
    fn generate<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        self.gen_s += t0.elapsed().as_secs_f64();
        r
    }

    /// Setup is over; the next call runs the first event.
    fn begin_run(&mut self) {
        self.setup_cpu_s = host::thread_cpu_s() - self.start_cpu;
        self.phase("arrivals");
        if let Some(p) = self.probe.as_mut() {
            p.take();
        }
        self.allocs0 = alloc::allocations();
        self.run_start = Some((Instant::now(), host::thread_cpu_s()));
    }

    /// Advance the event loop from `from` to `to` through `run_until`, in
    /// slices of [`SLICE`] with a chance for the probe between them.
    fn advance(&mut self, from: SimTime, to: SimTime, mut run_until: impl FnMut(SimTime)) {
        let mut t = from;
        while t < to {
            t = (t + SLICE).min(to);
            run_until(t);
            if let Some(p) = self.probe.as_mut() {
                p.tick();
            }
        }
    }

    fn phase(&self, name: &'static str) {
        if let Some(t) = self.t {
            t.borrow_mut().begin_phase(name);
        }
    }

    /// The event loop is over.
    fn end_run(&mut self) {
        let (wall0, cpu0) = self.run_start.expect("run began");
        let (wall, cpu) = (wall0.elapsed().as_secs_f64(), host::thread_cpu_s() - cpu0);
        self.run_allocs = alloc::allocations() - self.allocs0;
        if let Some(p) = self.probe.as_mut() {
            self.probe_totals = p.take();
        }
        self.run_s = wall - self.probe_totals.wall_s;
        self.run_cpu_s = cpu - self.probe_totals.cpu_s;
        if let Some(t) = self.t {
            t.borrow_mut().end_phase();
        }
    }
}

/// A packet-engine simulation with a host stack on every host.
fn packet_sim(
    spec: &TopologySpec,
    seed: u64,
    t: Option<&SharedTracer>,
) -> (Simulator, SharedFct, Vec<NodeId>) {
    let cfg = SimConfig::default()
        .with_seed(seed)
        .with_control_interval(SimTime::from_us(50));
    let mut sim = Simulator::new(spec.build(), cfg);
    let fct = FctCollector::new_shared();
    let hosts = sim.core().topo.hosts().to_vec();
    for &h in &hosts {
        let stack = HostStack::new(h, StackConfig::default(), fct.clone());
        sim.set_driver(h, trace::driver(t, Box::new(stack)));
    }
    (sim, fct, hosts)
}

fn switches(sim: &Simulator) -> Vec<NodeId> {
    sim.core().topo.switches().to_vec()
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Run the packet engine through the arrival window and the drain tail.
fn run_packet(sim: &mut Simulator, clock: &mut Clock, cutoff: SimTime, horizon: SimTime) {
    clock.advance(SimTime::ZERO, cutoff, |t| sim.run_until(t));
    clock.phase("drain");
    clock.advance(cutoff, horizon, |t| sim.run_until(t));
    clock.end_run();
}

/// FCT outcome of a packet run plus the engine's and the layers' counters.
fn packet_outcome(
    sim: &mut Simulator,
    fct: &SharedFct,
    cutoff: SimTime,
    horizon: SimTime,
) -> Outcome {
    let f = fct.borrow();
    let (fct_us, iops) = (fct_values(&f), completed_per_s(&f, cutoff));
    let mut c = BTreeMap::new();
    let core = sim.core();
    c.insert("netsim.events", core.events_processed as f64);
    c.insert("netsim.peak_event_queue", core.event_queue_peak() as f64);
    let q = core.event_queue_stats();
    let pushes = q.pushes_near + q.pushes_wheel + q.pushes_overflow;
    c.insert(
        "netsim.wheel_overflow_frac",
        ratio(q.pushes_overflow, pushes),
    );
    let (mut tx, mut marked) = (0u64, 0u64);
    for (i, node) in core.topo.nodes.iter().enumerate() {
        for p in 0..node.ports.len() {
            let pt = core.port_telemetry(NodeId(i as u32), PortId(p as u16));
            tx += pt.tx_pkts.iter().sum::<u64>();
            marked += pt.tx_marked_pkts.iter().sum::<u64>();
        }
    }
    c.insert("netsim.tx_pkts", tx as f64);
    c.insert("netsim.ecn_marked_frac", ratio(marked, tx));
    c.insert("netsim.pfc_pauses", core.total_pfc_pauses as f64);
    c.insert("netsim.drops", core.total_drops as f64);
    let hosts = core.topo.hosts().to_vec();
    let cnp: u64 = hosts
        .iter()
        .map(|&h| {
            sim.with_driver(h, |d, _| {
                d.as_any_mut()
                    .downcast_mut::<HostStack>()
                    .expect("every host runs a HostStack")
                    .cnp_tx
            })
        })
        .sum();
    c.insert("transport.cnp_tx", cnp as f64);
    let (mut inferences, mut skipped, mut trains) = (0u64, 0u64, 0u64);
    for sw in switches(sim) {
        if !sim.has_controller(sw) {
            continue;
        }
        sim.with_controller(sw, |ctl, _| {
            if let Some(acc) = ctl.as_any_mut().downcast_mut::<AccController>() {
                inferences += acc.stats.inferences;
                skipped += acc.stats.skipped_idle;
                trains += acc.stats.train_steps;
            }
        });
    }
    c.insert("core.inferences", inferences as f64);
    c.insert("core.idle_skip_frac", ratio(skipped, inferences + skipped));
    c.insert("rl.train_steps", trains as f64);
    Outcome {
        issued: f.total_count() as u64,
        completed: f.completed_count() as u64,
        unfinished: f.unfinished().count() as u64,
        fct_us,
        last_completion: last_completion(&f),
        iops,
        sim_ps: horizon.as_ps(),
        counters: c,
    }
}

fn last_completion(f: &FctCollector) -> SimTime {
    f.completed()
        .filter_map(|r| r.end)
        .max()
        .unwrap_or(SimTime::ZERO)
}

fn fct_values(f: &FctCollector) -> Vec<f64> {
    f.completed()
        .map(|r| r.fct().expect("completed flows have an FCT").as_us_f64())
        .collect()
}

/// Flows completed per simulated second between the warmup (a fifth of
/// the arrival window) and the cutoff.
fn completed_per_s(f: &FctCollector, cutoff: SimTime) -> f64 {
    let warmup = SimTime::from_ps(cutoff.as_ps() / 5);
    let done = f
        .completed()
        .filter(|r| r.end.is_some_and(|e| e >= warmup && e < cutoff))
        .count();
    done as f64 / (cutoff - warmup).as_secs_f64()
}

/// Fail when an open-loop run registered a different number of flows than
/// its arrival list holds.
fn check_registered(o: &Outcome, arrivals: usize) -> Result<(), String> {
    if o.issued != arrivals as u64 {
        return Err(format!(
            "{arrivals} arrivals scheduled but {} flows registered",
            o.issued
        ));
    }
    Ok(())
}

fn websearch(seed: u64, t: Option<&SharedTracer>, clock: &mut Clock) -> Run {
    let spec = TopologySpec::paper_cacc_sim();
    let (mut sim, fct, hosts) = packet_sim(&spec, seed, t);
    for sw in switches(&sim) {
        let ctl = acc_core::static_ecn::StaticEcnController::new(StaticEcnPolicy::Secn1);
        sim.set_controller(sw, trace::controller(t, Box::new(ctl)));
    }
    let arrivals = clock.generate(|| {
        PoissonGen::new(SizeDist::web_search(), 0.8, CcKind::Dcqcn, seed).generate(
            &hosts,
            25_000_000_000,
            SimTime::ZERO,
            WEBSEARCH_CUTOFF,
        )
    });
    fct.borrow_mut().reserve(arrivals.len());
    gen::apply_arrivals(&mut sim, &arrivals);
    Box::new(move |clock| {
        let horizon = WEBSEARCH_CUTOFF + WEBSEARCH_DRAIN;
        run_packet(&mut sim, clock, WEBSEARCH_CUTOFF, horizon);
        let outcome = packet_outcome(&mut sim, &fct, WEBSEARCH_CUTOFF, horizon);
        check_registered(&outcome, arrivals.len())?;
        Ok(outcome)
    })
}

fn storage(
    seed: u64,
    t: Option<&SharedTracer>,
    clock: &mut Clock,
    scratch: &Path,
) -> Result<Run, String> {
    let spec = TopologySpec::paper_testbed();
    let (mut sim, fct, hosts) = packet_sim(&spec, seed, t);
    // ACC-fresh exactly as `controller::install_acc` builds it: one agent
    // per switch, all sharing one global replay memory.
    let cfg = acc_bench::common::acc_config(AGENT_SEED);
    let space = ActionSpace::templates();
    let global = Rc::new(RefCell::new(ReplayBuffer::new(
        cfg.ddqn.replay_capacity * 4,
    )));
    for (i, sw) in switches(&sim).into_iter().enumerate() {
        let mut c = cfg.clone();
        c.seed = cfg.seed.wrapping_add(i as u64);
        let mut ctl = AccController::new(c, space.clone());
        ctl.set_global_replay(global.clone());
        sim.set_controller(sw, trace::controller(t, Box::new(ctl)));
    }
    // The flight recorder, as the soak's storage phase arms it: queue
    // samples from the sampler, agent samples from every controller.
    let sink = JsonlSink::create(scratch).map_err(|e| format!("recorder: {e}"))?;
    let rec = RunRecorder::new()
        .with_sink(trace::sink(t, Box::new(sink)))
        .into_shared();
    telemetry::install_queue_sampler(&mut sim, RECORDER_INTERVAL, rec.clone());
    controller::attach_recorder(&mut sim, &rec);

    let cluster = Rc::new(RefCell::new(StorageCluster::new(
        &hosts,
        StorageConfig {
            profile: StorageProfile::oltp(),
            io_depth: 32,
            seed,
            ..Default::default()
        },
    )));
    cluster.borrow_mut().set_deadline(Some(STORAGE_CUTOFF));
    transport::set_app_hook(&mut sim, trace::app(t, cluster.clone()));
    let init = clock.generate(|| cluster.borrow_mut().initial_arrivals(SimTime::ZERO));
    gen::apply_arrivals(&mut sim, &init);
    let scratch = scratch.to_path_buf();
    Ok(Box::new(move |clock| {
        let horizon = STORAGE_CUTOFF + STORAGE_DRAIN;
        run_packet(&mut sim, clock, STORAGE_CUTOFF, horizon);
        rec.borrow_mut()
            .flush()
            .map_err(|e| format!("recorder flush: {e}"))?;
        let mut outcome = packet_outcome(&mut sim, &fct, STORAGE_CUTOFF, horizon);
        let warmup = SimTime::from_ps(STORAGE_CUTOFF.as_ps() / 5);
        outcome.iops = cluster.borrow().iops(warmup, STORAGE_CUTOFF);
        let r = rec.borrow();
        let records = r.queue_samples + r.agent_samples + r.event_samples;
        let bytes: u64 = ["queues.jsonl", "agents.jsonl", "events.jsonl"]
            .iter()
            .map(|f| std::fs::metadata(scratch.join(f)).map_or(0, |m| m.len()))
            .sum();
        outcome.counters.insert("telemetry.records", records as f64);
        outcome.counters.insert("telemetry.bytes", bytes as f64);
        Ok(outcome)
    }))
}

fn xl_flows(seed: u64, t: Option<&SharedTracer>, clock: &mut Clock) -> Run {
    let topo = TopologySpec::paper_xl_clos().build();
    let hosts = topo.hosts().to_vec();
    let host_bps = topo.host_rate_bps(hosts[0]);
    let specs = clock.generate(|| {
        let xl = XlFlowsSpec {
            duration: XL_CUTOFF,
            ..XlFlowsSpec::quick(seed)
        };
        to_flow_specs(&xl.generate(&hosts, host_bps))
    });
    let cfg = FlowSimConfig {
        fidelity: Fidelity::Hybrid,
        ..Default::default()
    };
    let mut sim = FlowSim::new(topo, cfg);
    let tuner = FluidStaticEcn::new(StaticEcnPolicy::Secn1);
    sim.set_tuner(trace::tuner(t, Box::new(tuner)));
    sim.schedule_flows(&specs);
    Box::new(move |clock| {
        let horizon = XL_CUTOFF + XL_DRAIN;
        clock.advance(SimTime::ZERO, XL_CUTOFF, |t| sim.run_until(t));
        clock.phase("drain");
        clock.advance(XL_CUTOFF, horizon, |t| sim.run_until(t));
        clock.end_run();
        xl_outcome(&sim, specs.len() as u64, horizon)
    })
}

fn xl_outcome(sim: &FlowSim, flows: u64, horizon: SimTime) -> Result<Outcome, String> {
    let st = sim.stats();
    if st.unrouted_flows != 0 {
        return Err(format!("{} flows had no route", st.unrouted_flows));
    }
    if st.flows_started != flows {
        return Err(format!(
            "{flows} flows scheduled but {} started",
            st.flows_started
        ));
    }
    let fct = FctCollector::new_shared();
    fct.borrow_mut().register_flowsim(sim.completions());
    let f = fct.borrow();
    let mut c = BTreeMap::new();
    c.insert("flowsim.events", st.events_processed as f64);
    c.insert("flowsim.events_per_flow", ratio(st.events_processed, flows));
    c.insert(
        "flowsim.stale_frac",
        ratio(st.stale_events, st.events_processed),
    );
    c.insert("flowsim.fast_path_frac", ratio(st.fast_path_flows, flows));
    c.insert("flowsim.peak_event_queue", st.peak_event_queue as f64);
    c.insert("flowsim.peak_active_flows", st.peak_active_flows as f64);
    Ok(Outcome {
        issued: flows,
        completed: sim.completions().len() as u64,
        unfinished: st.flows_started - st.flows_completed,
        fct_us: fct_values(&f),
        last_completion: last_completion(&f),
        iops: completed_per_s(&f, XL_CUTOFF),
        sim_ps: horizon.as_ps(),
        counters: c,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn differences_name_every_changed_field() {
        let a = Outcome {
            issued: 3,
            completed: 3,
            unfinished: 0,
            fct_us: vec![1.0, 2.0, 3.0],
            last_completion: SimTime::from_us(10),
            iops: 100.0,
            sim_ps: 1_000,
            counters: BTreeMap::from([("netsim.events", 7.0), ("netsim.drops", 0.0)]),
        };
        assert!(a.differences(&a.clone()).is_empty());
        let mut b = a.clone();
        b.fct_us[2] = 3.5;
        b.counters.insert("netsim.drops", 1.0);
        assert_eq!(a.differences(&b), ["fct_us", "netsim.drops"]);
    }
}
