//! The traced run: timing wrappers around the layers' extension traits.
//!
//! Each wrapper times the calls the engine makes into one layer and
//! forwards `as_any_mut` to the wrapped value, so the repository's own
//! downcasts (`transport::reserve_stack`, `controller::attach_recorder`,
//! the `AccStats` reads) see the real driver or controller.
//!
//! Calls nest — a transport callback runs the application hook, a
//! controller tick writes agent samples to the telemetry sink — so the
//! tracer keeps a stack of open calls and books each call's *self* time
//! (its duration minus its children's) to its layer. Time outside every
//! call is the engine's. Per-packet calls are folded into counts and a
//! histogram per layer; only coarse spans (run phases and controller ticks)
//! are kept individually, in memory, and written out when the run ends.

use netsim::flowsim::{EcnTuner, LinkModel};
use netsim::prelude::*;
use std::any::Any;
use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;
use telemetry::metrics::Histogram;
use telemetry::{AgentSample, EventSample, QueueSample, TelemetrySink};
use transport::{AppHook, CompletedMsg, Message};

/// The layers a wrapper can time. The engine (`netsim` or
/// `netsim::flowsim`) is whatever the wrappers do not cover.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `NicDriver` callbacks into the host stacks.
    Transport,
    /// `AppHook` callbacks into a closed-loop application.
    App,
    /// `QueueController` ticks.
    Core,
    /// `TelemetrySink` writes.
    Telemetry,
    /// `EcnTuner` ticks of the flow backend.
    Tuner,
}

const LAYERS: usize = 5;

/// What one layer accumulated over a traced pass.
#[derive(Clone, Debug, Default)]
pub struct LayerTotals {
    /// Calls made into the layer.
    pub calls: u64,
    /// Time inside the layer's calls, children excluded, ns.
    pub self_ns: u64,
    /// Per-call self time, ns.
    pub hist: Histogram,
}

/// One coarse span: a run phase or a controller tick.
#[derive(Clone, Debug)]
pub struct Span {
    /// `setup`, `arrivals`, `drain` or `tick`.
    pub name: &'static str,
    /// Index of the enclosing phase span, if any.
    pub parent: Option<usize>,
    /// Start, ns after the tracer was created.
    pub start_ns: u64,
    /// Duration, ns.
    pub dur_ns: u64,
    /// Switch id for ticks.
    pub node: Option<u32>,
}

struct Frame {
    layer: Layer,
    start: Instant,
    child_ns: u64,
    tick_node: Option<u32>,
}

/// Accumulates one traced pass.
pub struct Tracer {
    run_id: String,
    origin: Instant,
    stack: Vec<Frame>,
    layers: [LayerTotals; LAYERS],
    /// Time covered by outermost calls, ns.
    outer_ns: u64,
    spans: Vec<Span>,
    phase: Option<usize>,
}

/// The tracer as the wrappers share it.
pub type SharedTracer = Rc<RefCell<Tracer>>;

impl Tracer {
    /// A tracer whose spans carry `run_id`.
    pub fn new_shared(run_id: String) -> SharedTracer {
        Rc::new(RefCell::new(Tracer {
            run_id,
            origin: Instant::now(),
            stack: Vec::new(),
            layers: Default::default(),
            outer_ns: 0,
            spans: Vec::new(),
            phase: None,
        }))
    }

    /// Totals of `layer`.
    pub fn layer(&self, layer: Layer) -> &LayerTotals {
        &self.layers[layer as usize]
    }

    /// Time covered by outermost calls, ns.
    pub fn outer_ns(&self) -> u64 {
        self.outer_ns
    }

    fn since_origin(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Open a run phase; ticks recorded until [`Tracer::end_phase`] name it
    /// as their parent.
    pub fn begin_phase(&mut self, name: &'static str) {
        self.end_phase();
        let start_ns = self.since_origin(Instant::now());
        self.spans.push(Span {
            name,
            parent: None,
            start_ns,
            dur_ns: 0,
            node: None,
        });
        self.phase = Some(self.spans.len() - 1);
    }

    /// Close the open run phase, if any.
    pub fn end_phase(&mut self) {
        if let Some(i) = self.phase.take() {
            let now = self.since_origin(Instant::now());
            self.spans[i].dur_ns = now - self.spans[i].start_ns;
        }
    }

    /// Append the spans as JSON lines to `path`.
    pub fn write_spans(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)?,
        );
        for s in &self.spans {
            writeln!(
                out,
                "{{\"run\":\"{}\",\"name\":\"{}\",\"parent\":{},\"start_ns\":{},\"dur_ns\":{},\"node\":{}}}",
                self.run_id,
                s.name,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.start_ns,
                s.dur_ns,
                s.node.map_or("null".to_string(), |n| n.to_string()),
            )?;
        }
        out.flush()
    }
}

/// Run `f` as one call into `layer`. The tracer is not borrowed while `f`
/// runs, so calls may nest.
fn timed<R>(t: &SharedTracer, layer: Layer, tick_node: Option<u32>, f: impl FnOnce() -> R) -> R {
    t.borrow_mut().stack.push(Frame {
        layer,
        start: Instant::now(),
        child_ns: 0,
        tick_node,
    });
    let r = f();
    let end = Instant::now();
    let mut tr = t.borrow_mut();
    let frame = tr.stack.pop().expect("call closed without being opened");
    let dur = end.duration_since(frame.start).as_nanos() as u64;
    let self_ns = dur.saturating_sub(frame.child_ns);
    let acc = &mut tr.layers[frame.layer as usize];
    acc.calls += 1;
    acc.self_ns += self_ns;
    acc.hist.record(self_ns);
    match tr.stack.last_mut() {
        Some(parent) => parent.child_ns += dur,
        None => tr.outer_ns += dur,
    }
    if let Some(node) = frame.tick_node {
        let start_ns = tr.since_origin(frame.start);
        let parent = tr.phase;
        tr.spans.push(Span {
            name: "tick",
            parent,
            start_ns,
            dur_ns: dur,
            node: Some(node),
        });
    }
    r
}

/// Wrap `driver` when tracing.
pub fn driver(t: Option<&SharedTracer>, driver: Box<dyn NicDriver>) -> Box<dyn NicDriver> {
    match t {
        Some(t) => Box::new(TimedDriver {
            inner: driver,
            tracer: t.clone(),
        }),
        None => driver,
    }
}

/// Wrap `ctl` when tracing.
pub fn controller(
    t: Option<&SharedTracer>,
    ctl: Box<dyn QueueController>,
) -> Box<dyn QueueController> {
    match t {
        Some(t) => Box::new(TimedController {
            inner: ctl,
            tracer: t.clone(),
        }),
        None => ctl,
    }
}

/// Wrap `app` when tracing.
pub fn app(t: Option<&SharedTracer>, app: Rc<RefCell<dyn AppHook>>) -> Rc<RefCell<dyn AppHook>> {
    match t {
        Some(t) => Rc::new(RefCell::new(TimedApp {
            inner: app,
            tracer: t.clone(),
        })),
        None => app,
    }
}

/// Wrap `sink` when tracing.
pub fn sink(t: Option<&SharedTracer>, sink: Box<dyn TelemetrySink>) -> Box<dyn TelemetrySink> {
    match t {
        Some(t) => Box::new(TimedSink {
            inner: sink,
            tracer: t.clone(),
        }),
        None => sink,
    }
}

/// Wrap `tuner` when tracing.
pub fn tuner(t: Option<&SharedTracer>, tuner: Box<dyn EcnTuner>) -> Box<dyn EcnTuner> {
    match t {
        Some(t) => Box::new(TimedTuner {
            inner: tuner,
            tracer: t.clone(),
        }),
        None => tuner,
    }
}

struct TimedDriver {
    inner: Box<dyn NicDriver>,
    tracer: SharedTracer,
}

impl NicDriver for TimedDriver {
    fn on_packet(&mut self, pkt: &Packet, ctx: &mut HostCtx<'_>) {
        timed(&self.tracer, Layer::Transport, None, || {
            self.inner.on_packet(pkt, ctx)
        })
    }

    fn on_timer(&mut self, token: u64, ctx: &mut HostCtx<'_>) {
        timed(&self.tracer, Layer::Transport, None, || {
            self.inner.on_timer(token, ctx)
        })
    }

    fn on_tx_ready(&mut self, ctx: &mut HostCtx<'_>) {
        timed(&self.tracer, Layer::Transport, None, || {
            self.inner.on_tx_ready(ctx)
        })
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

struct TimedController {
    inner: Box<dyn QueueController>,
    tracer: SharedTracer,
}

impl QueueController for TimedController {
    fn on_tick(&mut self, view: &mut SwitchView<'_>) {
        let node = view.node().0;
        timed(&self.tracer, Layer::Core, Some(node), || {
            self.inner.on_tick(view)
        })
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

struct TimedApp {
    inner: Rc<RefCell<dyn AppHook>>,
    tracer: SharedTracer,
}

impl AppHook for TimedApp {
    fn on_message_received(&mut self, msg: &CompletedMsg) -> Vec<(SimTime, Message)> {
        timed(&self.tracer, Layer::App, None, || {
            self.inner.borrow_mut().on_message_received(msg)
        })
    }
}

struct TimedSink {
    inner: Box<dyn TelemetrySink>,
    tracer: SharedTracer,
}

impl TelemetrySink for TimedSink {
    fn on_queue(&mut self, s: &QueueSample) {
        timed(&self.tracer, Layer::Telemetry, None, || {
            self.inner.on_queue(s)
        })
    }

    fn on_agent(&mut self, s: &AgentSample) {
        timed(&self.tracer, Layer::Telemetry, None, || {
            self.inner.on_agent(s)
        })
    }

    fn on_event(&mut self, s: &EventSample) {
        timed(&self.tracer, Layer::Telemetry, None, || {
            self.inner.on_event(s)
        })
    }

    fn flush(&mut self) -> std::io::Result<()> {
        timed(&self.tracer, Layer::Telemetry, None, || self.inner.flush())
    }
}

struct TimedTuner {
    inner: Box<dyn EcnTuner>,
    tracer: SharedTracer,
}

impl EcnTuner for TimedTuner {
    fn on_tick(&mut self, now: SimTime, links: &mut [LinkModel]) {
        timed(&self.tracer, Layer::Tuner, None, || {
            self.inner.on_tick(now, links)
        })
    }
}
