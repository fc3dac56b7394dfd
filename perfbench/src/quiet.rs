//! Telling the quiet stretches of a shared machine from the busy ones.
//!
//! Other tenants of a shared machine slow a run down in stretches that
//! come and go many times a second, by up to 1.7× for a publish. How much
//! of a run falls into busy stretches changes from run to run, and with
//! it any plain median of the run. So every measured unit of work (a
//! publish, a warm start, a set-up, a read unit of 16 Ki requests) is
//! preceded by [`probe`], a fixed piece of host work that runs none of
//! BREW's code: a change to BREW never moves it, and its time tells how
//! busy the machine was when the unit started. The wall-clock end-to-end
//! metrics are computed over the units whose probe was within
//! [`QUIET_SLACK`] of the run's fastest probes ([`quiet_limit`]).

use crate::stats::Samples;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::time::Instant;

/// A unit is quiet when its probe took at most this factor of the run's
/// reference probe time.
pub const QUIET_SLACK: f64 = 1.25;
/// The run's reference probe time is this quantile of all its probes.
pub const REFERENCE_QUANTILE: f64 = 0.05;

/// Time a fixed piece of host work (sort 5000 numbers, fold them into a
/// hash map), µs: about 0.2 ms on a quiet 2 GHz core.
pub fn probe() -> f64 {
    let t = Instant::now();
    let n = std::hint::black_box(5000u64);
    let mut v: Vec<u64> = (0..n)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 7)
        .collect();
    v.sort_unstable();
    let mut m: HashMap<u64, usize, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    for (i, x) in v.iter().enumerate() {
        m.insert(x % 1201, i);
    }
    std::hint::black_box(m.len());
    t.elapsed().as_secs_f64() * 1e6
}

/// The probe time up to which a unit counts as quiet, from every probe
/// of the run.
pub fn quiet_limit(probes: &Samples) -> f64 {
    probes.quantile(REFERENCE_QUANTILE) * QUIET_SLACK
}

/// Measured values, each with the probe time taken just before it.
#[derive(Debug, Clone, Default)]
pub struct Probed {
    probes: Samples,
    values: Samples,
}

impl Probed {
    /// Record `value`, measured right after a probe of `probe_us`.
    pub fn push(&mut self, probe_us: f64, value: f64) {
        self.probes.push(probe_us);
        self.values.push(value);
    }

    /// Append every entry of `o`.
    pub fn extend(&mut self, o: &Probed) {
        self.probes.extend(&o.probes);
        self.values.extend(&o.values);
    }

    /// Every value, quiet or not.
    pub fn values(&self) -> &Samples {
        &self.values
    }

    /// Every probe time.
    pub fn probes(&self) -> &Samples {
        &self.probes
    }

    /// The values whose probe took at most `limit`; every value when none
    /// did (a run that was never quiet).
    pub fn quiet(&self, limit: f64) -> Samples {
        let mut q = Samples::default();
        for (p, v) in self.probes.iter().zip(self.values.iter()) {
            if p <= limit {
                q.push(v);
            }
        }
        if q.is_empty() {
            self.values.clone()
        } else {
            q
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_keeps_values_measured_after_fast_probes() {
        let mut p = Probed::default();
        let units = [
            (100.0, 1.0),
            (200.0, 9.0),
            (110.0, 2.0),
            (300.0, 9.0),
            (120.0, 3.0),
        ];
        for (probe, v) in units {
            p.push(probe, v);
        }
        let limit = quiet_limit(p.probes());
        assert_eq!(limit, 125.0);
        assert_eq!(p.quiet(limit).len(), 3);
        assert_eq!(p.quiet(limit).median(), 2.0);
        assert_eq!(p.quiet(50.0).len(), 5, "never quiet: every value");
        assert!(probe() > 0.0);
    }
}
