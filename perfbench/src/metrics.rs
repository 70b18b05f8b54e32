//! The benchmark's own metric arithmetic, kept free of simulation code so
//! the unit tests below can pin it on fixed inputs.

use std::collections::BTreeMap;

/// Median of `xs` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller measures at least one pass.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Samples strictly beyond percentile `permille` (990 = p99) in a
/// population of `n`: the count a tail estimate rests on.
pub fn samples_beyond(n: usize, permille: u32) -> usize {
    assert!(permille < 1000, "percentile must be below 100");
    n * (1000 - permille as usize) / 1000
}

/// Minimum samples beyond a percentile for it to be reported.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Whether percentile `permille` has at least [`MIN_TAIL_SAMPLES`] samples
/// beyond it in a population of `n`.
pub fn tail_supported(n: usize, permille: u32) -> bool {
    samples_beyond(n, permille) >= MIN_TAIL_SAMPLES
}

/// The highest of p50/p90/p99/p99.9 that `n` samples support, if any.
pub fn highest_supported(n: usize) -> Option<&'static str> {
    [("p99.9", 999), ("p99", 990), ("p90", 900), ("p50", 500)]
        .into_iter()
        .find(|&(_, pm)| tail_supported(n, pm))
        .map(|(name, _)| name)
}

/// Share of issued operations that did not complete. Errors when the
/// completed and unfinished counts do not add up to the issued count.
pub fn unfinished_frac(issued: u64, completed: u64, unfinished: u64) -> Result<f64, String> {
    if completed + unfinished != issued {
        return Err(format!(
            "completed {completed} + unfinished {unfinished} != issued {issued}"
        ));
    }
    if issued == 0 {
        return Err("no operations issued".into());
    }
    Ok(unfinished as f64 / issued as f64)
}

/// FCT percentiles of one validation scenario from both backends.
#[derive(Clone, Copy, Debug)]
pub struct FidelityRow {
    /// Packet-engine (reference) p50, µs.
    pub packet_p50_us: f64,
    /// Packet-engine (reference) p99, µs.
    pub packet_p99_us: f64,
    /// Flow-backend p50, µs.
    pub flow_p50_us: f64,
    /// Flow-backend p99, µs.
    pub flow_p99_us: f64,
}

/// The largest p50/p99 relative FCT error of the flow backend against the
/// packet engine over `rows`, in percent.
pub fn fct_err_pct(rows: &[FidelityRow]) -> f64 {
    assert!(!rows.is_empty(), "no validation scenarios");
    let rel = |m: f64, truth: f64| ((m - truth) / truth).abs();
    rows.iter()
        .map(|r| rel(r.flow_p50_us, r.packet_p50_us).max(rel(r.flow_p99_us, r.packet_p99_us)))
        .fold(0.0, f64::max)
        * 100.0
}

/// Simulated milliseconds advanced per host second.
pub fn sim_ms_per_s(sim_ps: u64, host_s: f64) -> f64 {
    assert!(host_s > 0.0, "host time must be positive");
    sim_ps as f64 / 1e9 / host_s
}

/// Simulated ms per host second of a set of passes, each instance weighted
/// once: the simulated time of every instance over the sum of their median
/// host times. A sample is `(instance, simulated ps, host seconds)`; the
/// passes of one instance simulate the same span.
pub fn pooled_sim_ms_per_s(samples: &[(u64, u64, f64)]) -> f64 {
    let mut by_instance: BTreeMap<u64, (u64, Vec<f64>)> = BTreeMap::new();
    for &(i, sim_ps, host_s) in samples {
        by_instance
            .entry(i)
            .or_insert((sim_ps, Vec::new()))
            .1
            .push(host_s);
    }
    assert!(!by_instance.is_empty(), "no passes");
    let sim_ps: u64 = by_instance.values().map(|(ps, _)| ps).sum();
    let host_s: f64 = by_instance.values().map(|(_, hs)| median(hs)).sum();
    sim_ms_per_s(sim_ps, host_s)
}

/// How the traced wall time splits between the instrumented layers and the
/// engine that calls them.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SelfTimeSplit {
    /// Wall time left to the engine after the layers' self times, ns.
    pub residual_ns: u64,
    /// |Σ layer self − Σ outermost spans| / wall: zero when nested spans
    /// subtract their children exactly.
    pub mismatch_frac: f64,
}

/// Largest accepted [`SelfTimeSplit::mismatch_frac`].
pub const SELF_TIME_TOLERANCE: f64 = 0.01;

/// Book the traced wall time `wall_ns`: the layers' self times must sum to
/// the time covered by outermost spans (`outer_ns`) within
/// [`SELF_TIME_TOLERANCE`] of the wall, and may not exceed the wall; the
/// rest of the wall is the engine's.
pub fn self_time_split(
    wall_ns: u64,
    outer_ns: u64,
    layer_self_ns: &[u64],
) -> Result<SelfTimeSplit, String> {
    if wall_ns == 0 {
        return Err("empty traced wall time".into());
    }
    let sum: u64 = layer_self_ns.iter().sum();
    let mismatch_frac = sum.abs_diff(outer_ns) as f64 / wall_ns as f64;
    if mismatch_frac > SELF_TIME_TOLERANCE {
        return Err(format!(
            "layer self times {sum} ns vs outermost spans {outer_ns} ns: \
             {:.2}% of the wall, above the {:.0}% tolerance",
            mismatch_frac * 100.0,
            SELF_TIME_TOLERANCE * 100.0
        ));
    }
    if sum > wall_ns {
        return Err(format!(
            "layer self times {sum} ns exceed the wall {wall_ns} ns"
        ));
    }
    Ok(SelfTimeSplit {
        residual_ns: wall_ns - sum,
        mismatch_frac,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(samples_beyond(1000, 990), 10);
        assert!(tail_supported(1000, 990));
        assert!(!tail_supported(999, 990));
        assert!(tail_supported(20, 500));
        assert!(!tail_supported(19, 500));
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20), Some("p50"));
        assert_eq!(highest_supported(100), Some("p90"));
        assert_eq!(highest_supported(999), Some("p90"));
        assert_eq!(highest_supported(1000), Some("p99"));
        assert_eq!(highest_supported(10_000), Some("p99.9"));
    }

    #[test]
    fn unfinished_share_and_its_accounting() {
        assert_eq!(unfinished_frac(200, 150, 50), Ok(0.25));
        assert_eq!(unfinished_frac(10, 10, 0), Ok(0.0));
        assert!(unfinished_frac(10, 9, 0).is_err());
        assert!(unfinished_frac(0, 0, 0).is_err());
    }

    #[test]
    fn fidelity_error_is_the_worst_percentile() {
        let rows = [
            FidelityRow {
                packet_p50_us: 100.0,
                packet_p99_us: 1000.0,
                flow_p50_us: 101.0,
                flow_p99_us: 1000.0,
            },
            FidelityRow {
                packet_p50_us: 50.0,
                packet_p99_us: 400.0,
                flow_p50_us: 50.0,
                flow_p99_us: 388.0,
            },
        ];
        assert!((fct_err_pct(&rows) - 3.0).abs() < 1e-9);
        assert!((fct_err_pct(&rows[..1]) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sim_speed_in_ms_per_host_second() {
        // 20 ms simulated in 4 s of host time.
        assert!((sim_ms_per_s(20_000_000_000, 4.0) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn pooled_speed_weights_each_instance_once() {
        // Instance 0: 10 ms in a median of 2 s (1, 2, 9); instance 1:
        // 10 ms in 3 s. 20 ms over 5 s.
        let samples = [
            (0, 10_000_000_000, 1.0),
            (1, 10_000_000_000, 3.0),
            (0, 10_000_000_000, 2.0),
            (0, 10_000_000_000, 9.0),
        ];
        assert!((pooled_sim_ms_per_s(&samples) - 4.0).abs() < 1e-12);
        assert!((pooled_sim_ms_per_s(&samples[..1]) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn self_time_residual_goes_to_the_engine() {
        let split = self_time_split(1_000, 600, &[100, 200, 300]).unwrap();
        assert_eq!(split.residual_ns, 400);
        assert_eq!(split.mismatch_frac, 0.0);
        // Within tolerance: 5 ns of 1000 is 0.5%.
        let split = self_time_split(1_000, 605, &[100, 200, 300]).unwrap();
        assert_eq!(split.residual_ns, 400);
        // A child booked twice (2% of the wall) is refused.
        assert!(self_time_split(1_000, 600, &[100, 220, 300]).is_err());
        // Layers cannot take more than the wall.
        assert!(self_time_split(500, 600, &[100, 200, 300]).is_err());
        assert!(self_time_split(0, 0, &[]).is_err());
    }
}
