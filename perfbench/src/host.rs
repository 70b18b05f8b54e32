//! Host-time measurement that tolerates a shared machine.
//!
//! On a virtual machine whose host runs other tenants the same pass on the
//! same input can take a third longer from one minute to the next: a
//! neighbour on the same core or the same caches slows every instruction.
//! Steal time plays no part (the thread's CPU clock and the wall clock
//! agree within 1%), so no clock can remove it. Instead a [`Probe`], a
//! fixed reference kernel, runs for about 2 ms every 100 ms of the event
//! loop, between slices of simulated time, and the pass's own CPU time is
//! scaled by how fast the probe ran. Interleaved this way the probe sees
//! the same neighbours as the simulator (their speeds correlated 0.92–0.99
//! pass by pass on a busy host). The probe's code lives here, outside the
//! code under test, so a change to the simulator moves the scaled time
//! exactly as it moves the raw one.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::{Duration, Instant};

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU seconds the calling thread has run.
pub fn thread_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec with the C layout; the
    // call writes only into it.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "thread CPU clock unavailable");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Host time between probe runs inside an event loop.
const PROBE_EVERY: Duration = Duration::from_millis(100);
/// Events one probe run processes.
const PROBE_EVENTS: u32 = 10_000;
/// Slots of the probe's state table: 1 MiB of `u64`, past a core's
/// private caches like the simulators' state.
const PROBE_SLOTS: usize = 1 << 17;
/// Pending events in the probe's priority queue.
const PROBE_PENDING: u32 = 1 << 12;

/// CPU seconds of one probe run on the machine the baseline was taken on,
/// quiet. Scaled times read in that machine's seconds; the constant only
/// fixes the unit and never changes a comparison.
pub const REFERENCE_PROBE_S: f64 = 0.002;

/// The reference kernel: a discrete-event loop of its own (binary-heap
/// event queue, dependent random reads and writes of a table beyond the
/// private caches, a little floating point), the instruction mix the
/// simulators spend their time in. Its buffers are allocated once, so a
/// run neither allocates nor faults pages.
pub struct Probe {
    table: Vec<u64>,
    heap: BinaryHeap<Reverse<u64>>,
    last: Option<Instant>,
    /// Probe runs, CPU seconds and wall seconds since the last [`Probe::take`].
    totals: ProbeTotals,
}

/// What the probe runs of one event loop took.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ProbeTotals {
    pub runs: u32,
    pub cpu_s: f64,
    pub wall_s: f64,
}

impl ProbeTotals {
    /// CPU seconds of one probe run, on average.
    pub fn mean_cpu_s(&self) -> f64 {
        assert!(self.runs > 0, "the probe never ran");
        self.cpu_s / self.runs as f64
    }
}

impl Probe {
    pub fn new() -> Self {
        let mut p = Probe {
            table: vec![1; PROBE_SLOTS],
            heap: BinaryHeap::with_capacity(PROBE_PENDING as usize + 1),
            last: None,
            totals: ProbeTotals::default(),
        };
        // Warm the buffers once so no run pays for first touches.
        p.kernel();
        p
    }

    /// Run the kernel once; its CPU seconds.
    fn kernel(&mut self) -> f64 {
        let t0 = thread_cpu_s();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        self.heap.clear();
        for _ in 0..PROBE_PENDING {
            self.heap.push(Reverse(next() >> 20));
        }
        let mask = PROBE_SLOTS - 1;
        let mut acc = 0.0f64;
        for _ in 0..PROBE_EVENTS {
            let Reverse(now) = self.heap.pop().expect("queue never drains");
            let r = next();
            let slot = r as usize & mask;
            let v = self.table[slot].wrapping_add(now);
            self.table[slot] = v;
            self.table[v as usize & mask] ^= r;
            acc += (v & 0xffff) as f64 * 1e-3;
            self.heap.push(Reverse(now + 1 + (r >> 44)));
        }
        black_box(acc);
        thread_cpu_s() - t0
    }

    /// Run the kernel if [`PROBE_EVERY`] passed since the last run, or if
    /// it has not run since the last [`Probe::take`].
    pub fn tick(&mut self) {
        if self.last.is_some_and(|t| t.elapsed() < PROBE_EVERY) {
            return;
        }
        let w0 = Instant::now();
        let cpu = self.kernel();
        self.totals.runs += 1;
        self.totals.cpu_s += cpu;
        self.totals.wall_s += w0.elapsed().as_secs_f64();
        self.last = Some(Instant::now());
    }

    /// The totals since the last call; the next [`Probe::tick`] runs.
    pub fn take(&mut self) -> ProbeTotals {
        self.last = None;
        std::mem::take(&mut self.totals)
    }
}

/// `host_s` of CPU time, measured while a probe run took `probe_s`, in
/// seconds of the reference machine.
pub fn scaled_s(host_s: f64, probe_s: f64) -> f64 {
    assert!(probe_s > 0.0, "probe time must be positive");
    host_s * REFERENCE_PROBE_S / probe_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let mut p = Probe::new();
        let t0 = thread_cpu_s();
        p.tick();
        p.tick();
        let totals = p.take();
        // The second tick came too soon after the first to run.
        assert_eq!(totals.runs, 1);
        assert!(totals.cpu_s > 0.0);
        assert!(thread_cpu_s() - t0 >= totals.cpu_s);
        assert!(totals.wall_s > 0.0);
        // After a take the next tick runs at once.
        p.tick();
        assert_eq!(p.take().runs, 1);
    }

    #[test]
    fn scaling_is_relative_to_the_reference_machine() {
        assert_eq!(scaled_s(2.0, REFERENCE_PROBE_S), 2.0);
        // A host half as fast takes twice as long on both.
        assert!((scaled_s(4.0, 2.0 * REFERENCE_PROBE_S) - 2.0).abs() < 1e-12);
        let t = ProbeTotals {
            runs: 4,
            cpu_s: 0.01,
            wall_s: 0.011,
        };
        assert!((t.mean_cpu_s() - 0.0025).abs() < 1e-15);
    }
}
