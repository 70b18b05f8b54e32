//! The agent's state: normalised per-queue telemetry with history (§3.3).
//!
//! Each monitoring interval produces one observation
//! `QS_t = (qlen, txRate, txRate(m), ECN(c))`, normalised into `[0, 1]`:
//!
//! * queue length is discretised onto the exponential ladder `E(n)` and
//!   encoded as `n/10` (the same discretisation the action space and reward
//!   use — §3.3 says states and actions are both discretised);
//! * the tx rate and the ECN-marked tx rate are normalised by the link
//!   bandwidth, which is what makes the model portable across 25G and 100G
//!   ports ("normalization helps the agent generalize");
//! * the current ECN configuration is encoded as its (normalised) index in
//!   the action space.
//!
//! The state fed to the DQN is the concatenation of the last `k` (default 3)
//! observations — `4 × 3 = 12` features.

use crate::reward::{ladder_index, RewardConfig, LADDER_LEVELS};
use netsim::prelude::*;
use netsim::queues::QueueTelemetry;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Features per observation (qlen, txRate, txRate(m), ECN(c)).
pub const FEATURES_PER_OBS: usize = 4;

/// Raw (un-normalised) measurements for one queue over one interval.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct QueueObs {
    /// Instantaneous queue depth at the end of the interval, bytes.
    pub qlen_bytes: u64,
    /// Bytes transmitted during the interval.
    pub tx_bytes: u64,
    /// CE-marked bytes transmitted during the interval.
    pub tx_marked_bytes: u64,
    /// Interval length.
    pub dt: SimTime,
    /// Link rate, bits/s.
    pub link_bps: u64,
    /// Index of the currently-applied action, already normalised to `[0, 1]`.
    pub ecn_encoded: f32,
}

impl QueueObs {
    /// Normalise into the four state features.
    pub fn features(&self) -> [f32; FEATURES_PER_OBS] {
        let qlen = ladder_index(self.qlen_bytes) as f32 / LADDER_LEVELS as f32;
        let secs = self.dt.as_secs_f64();
        let (tx, txm) = if secs > 0.0 && self.link_bps > 0 {
            let cap = self.link_bps as f64 * secs / 8.0; // bytes the link could carry
            (
                (self.tx_bytes as f64 / cap).min(1.0) as f32,
                (self.tx_marked_bytes as f64 / cap).min(1.0) as f32,
            )
        } else {
            (0.0, 0.0)
        };
        [qlen, tx, txm, self.ecn_encoded]
    }
}

/// Sliding window of the last `k` observations for one queue.
#[derive(Clone, Debug, Default)]
pub struct StateWindow {
    hist: VecDeque<[f32; FEATURES_PER_OBS]>,
    k: usize,
}

impl StateWindow {
    /// A window of `k` observations (paper: k = 3).
    pub fn new(k: usize) -> Self {
        assert!(k >= 1);
        StateWindow {
            hist: VecDeque::with_capacity(k),
            k,
        }
    }

    /// Record one interval's observation.
    pub fn push(&mut self, obs: &QueueObs) {
        if self.hist.len() == self.k {
            self.hist.pop_front();
        }
        self.hist.push_back(obs.features());
    }

    /// The flattened `k × 4` state vector, oldest first, zero-padded on the
    /// left until `k` observations have been seen.
    pub fn state(&self) -> Vec<f32> {
        let mut v = Vec::with_capacity(self.dim());
        self.extend_state(&mut v);
        v
    }

    /// Append [`StateWindow::state`] to `out` without allocating a vector
    /// of its own.
    pub fn extend_state(&self, out: &mut Vec<f32>) {
        out.resize(
            out.len() + (self.k - self.hist.len()) * FEATURES_PER_OBS,
            0.0,
        );
        for f in &self.hist {
            out.extend_from_slice(f);
        }
    }

    /// Dimensionality of [`StateWindow::state`].
    pub fn dim(&self) -> usize {
        self.k * FEATURES_PER_OBS
    }

    /// Number of observations currently held.
    pub fn len(&self) -> usize {
        self.hist.len()
    }

    /// True before any observation was pushed.
    pub fn is_empty(&self) -> bool {
        self.hist.is_empty()
    }
}

/// One queue's telemetry differenced over one control interval.
#[derive(Clone, Copy, Debug)]
pub struct Interval {
    /// The interval's observation: counter deltas, end-of-interval depth,
    /// link rate and the action applied during the interval.
    pub obs: QueueObs,
    /// Time-average queue length over the interval, bytes.
    pub avg_qlen: u64,
}

impl Interval {
    /// Reward of the action applied during the interval (§3.3): link
    /// utilisation against the time-average queue length.
    pub fn reward(&self, cfg: &RewardConfig) -> f64 {
        let o = &self.obs;
        let utilization = if o.link_bps > 0 {
            (o.tx_bytes as f64 * 8.0) / (o.link_bps as f64 * o.dt.as_secs_f64())
        } else {
            0.0
        };
        cfg.reward(utilization, self.avg_qlen)
    }
}

/// The observation pipeline every ACC controller runs per queue: it
/// differences the monotone [`QueueTelemetry`] counters against the previous
/// reading, turns the interval into a [`QueueObs`], and keeps the last `k`
/// observations for the state.
#[derive(Clone, Debug)]
pub struct ObsTracker {
    prev: QueueTelemetry,
    last_tick: SimTime,
    window: StateWindow,
}

impl ObsTracker {
    /// A tracker with history `k` whose first interval is measured from
    /// `baseline`, read at `at`. Controllers that adopt a queue mid-run pass
    /// the first reading they see; ones installed before traffic starts
    /// pass zero counters at `SimTime::ZERO`.
    pub fn new(k: usize, baseline: QueueTelemetry, at: SimTime) -> Self {
        ObsTracker {
            prev: baseline,
            last_tick: at,
            window: StateWindow::new(k),
        }
    }

    /// Close the interval ending at `now` with this reading and push its
    /// observation into the history. Returns `None`, keeping the previous
    /// reading, when no time has passed since it.
    ///
    /// Deltas saturate: a faulted or rebooted switch can hand back counters
    /// below the previous reading (see netsim's telemetry faults), and a
    /// regression means "no progress", not wraparound.
    pub fn observe(
        &mut self,
        now: SimTime,
        qlen_bytes: u64,
        telem: QueueTelemetry,
        link_bps: u64,
        ecn_encoded: f32,
    ) -> Option<Interval> {
        let dt = now.saturating_sub(self.last_tick);
        if dt == SimTime::ZERO {
            return None;
        }
        let prev = std::mem::replace(&mut self.prev, telem);
        self.last_tick = now;
        let integral = telem
            .qlen_integral_byte_ps
            .saturating_sub(prev.qlen_integral_byte_ps);
        let obs = QueueObs {
            qlen_bytes,
            tx_bytes: telem.tx_bytes.saturating_sub(prev.tx_bytes),
            tx_marked_bytes: telem.tx_marked_bytes.saturating_sub(prev.tx_marked_bytes),
            dt,
            link_bps,
            ecn_encoded,
        };
        self.window.push(&obs);
        Some(Interval {
            obs,
            avg_qlen: (integral / dt.as_ps() as u128) as u64,
        })
    }

    /// The last `k` observations: the agent's state.
    pub fn window(&self) -> &StateWindow {
        &self.window
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(qlen: u64, tx: u64, txm: u64) -> QueueObs {
        QueueObs {
            qlen_bytes: qlen,
            tx_bytes: tx,
            tx_marked_bytes: txm,
            dt: SimTime::from_us(50),
            link_bps: 25_000_000_000,
            ecn_encoded: 0.5,
        }
    }

    #[test]
    fn features_normalised() {
        // 25G for 50us carries 156250 bytes.
        let cap = 156_250u64;
        let f = obs(0, cap, cap / 2).features();
        assert_eq!(f[0], 0.0);
        assert!((f[1] - 1.0).abs() < 1e-6);
        assert!((f[2] - 0.5).abs() < 1e-6);
        assert_eq!(f[3], 0.5);
    }

    #[test]
    fn rates_clamped_to_one() {
        let f = obs(0, u64::MAX / 16, u64::MAX / 16).features();
        assert_eq!(f[1], 1.0);
        assert_eq!(f[2], 1.0);
    }

    #[test]
    fn qlen_uses_ladder() {
        assert_eq!(obs(0, 0, 0).features()[0], 0.0);
        // 30KB -> rung 1 -> 0.1
        assert!((obs(30 * 1024, 0, 0).features()[0] - 0.1).abs() < 1e-6);
        // beyond 10MB -> 1.0
        assert_eq!(obs(100 << 20, 0, 0).features()[0], 1.0);
    }

    #[test]
    fn zero_interval_gives_zero_rates() {
        let mut o = obs(10, 100, 100);
        o.dt = SimTime::ZERO;
        let f = o.features();
        assert_eq!(f[1], 0.0);
        assert_eq!(f[2], 0.0);
    }

    #[test]
    fn window_pads_then_slides() {
        let mut w = StateWindow::new(3);
        assert_eq!(w.dim(), 12);
        assert_eq!(w.state(), vec![0.0; 12]);
        w.push(&obs(30 * 1024, 0, 0));
        let s = w.state();
        assert_eq!(&s[..8], &[0.0; 8][..], "left-padded");
        assert!((s[8] - 0.1).abs() < 1e-6);
        for _ in 0..5 {
            w.push(&obs(0, 0, 0));
        }
        assert_eq!(w.len(), 3);
        // The 30KB observation has slid out.
        assert_eq!(w.state()[0], 0.0);
    }

    #[test]
    fn paper_state_dimensionality() {
        // 4 features x k=3 history = 12 (§3.3).
        let w = StateWindow::new(3);
        assert_eq!(w.dim(), 12);
    }

    fn telem(tx: u64, integral: u128) -> QueueTelemetry {
        QueueTelemetry {
            tx_bytes: tx,
            tx_marked_bytes: tx / 10,
            qlen_integral_byte_ps: integral,
            ..Default::default()
        }
    }

    fn obs_at(t: &mut ObsTracker, us: u64, tx: u64, integral: u128) -> Option<Interval> {
        t.observe(
            SimTime::from_us(us),
            0,
            telem(tx, integral),
            25_000_000_000,
            0.25,
        )
    }

    #[test]
    fn tracker_baseline_modes() {
        // Zero counters at t = 0: the first tick counts from the origin.
        let mut zero = ObsTracker::new(3, QueueTelemetry::default(), SimTime::ZERO);
        let iv = obs_at(&mut zero, 50, 156_250, 50_000_000 * 2048).unwrap();
        assert_eq!((iv.obs.tx_bytes, iv.obs.tx_marked_bytes), (156_250, 15_625));
        assert_eq!((iv.obs.dt, iv.avg_qlen), (SimTime::from_us(50), 2048));
        let cfg = RewardConfig::default();
        assert!((iv.reward(&cfg) - cfg.reward(1.0, 2048)).abs() < 1e-12);
        // First-sight reading: the adopting tick only primes the tracker.
        let mut sight = ObsTracker::new(3, telem(7000, 0), SimTime::from_us(200));
        assert!(obs_at(&mut sight, 200, 7000, 0).is_none());
        let iv = obs_at(&mut sight, 250, 9000, 0).unwrap();
        assert_eq!((iv.obs.tx_bytes, iv.obs.dt), (2000, SimTime::from_us(50)));
    }

    #[test]
    fn tracker_counter_regression_gives_zero_delta() {
        let mut t = ObsTracker::new(3, telem(10_000, 1 << 40), SimTime::from_us(50));
        let iv = obs_at(&mut t, 100, 10, 1).unwrap();
        assert_eq!(
            (iv.obs.tx_bytes, iv.obs.tx_marked_bytes, iv.avg_qlen),
            (0, 0, 0)
        );
        // The regressed reading is the new baseline.
        assert_eq!(obs_at(&mut t, 150, 110, 1).unwrap().obs.tx_bytes, 100);
    }

    #[test]
    fn tracker_zero_interval_gives_no_observation() {
        let mut t = ObsTracker::new(3, telem(1000, 0), SimTime::from_us(50));
        assert!(obs_at(&mut t, 50, 5000, 0).is_none());
        assert_eq!(t.window().len(), 0);
        // The reading at `dt == 0` does not become the baseline.
        assert_eq!(obs_at(&mut t, 100, 6000, 0).unwrap().obs.tx_bytes, 5000);
        assert_eq!(t.window().len(), 1);
    }

    #[test]
    fn tracker_state_is_left_padded_like_window() {
        let mut t = ObsTracker::new(3, QueueTelemetry::default(), SimTime::ZERO);
        let mut w = StateWindow::new(3);
        for i in 0..=5u64 {
            if i > 0 {
                w.push(&obs_at(&mut t, 50 * i, 10_000 * i * i, 0).unwrap().obs);
            }
            // Appends after whatever the caller's buffer already holds.
            let mut out = vec![9.0];
            t.window().extend_state(&mut out);
            assert_eq!(out, [&[9.0][..], &w.state()].concat(), "after {i} obs");
        }
    }
}
