//! The machine self-profiler: attributes host wall time to the driver's
//! phases.
//!
//! The profiler is the performance counterpart to the event probe
//! (`tdo_obs::Probe`): disabled it costs one `Option` test per phase
//! (the default — [`crate::machine::Machine`] is built with no
//! profiler), enabled it adds a handful of `Instant::now()` calls per
//! simulated cycle. Because it only *reads* the clock, an enabled
//! profiler can never perturb the simulation: the architectural result
//! is byte-identical with the profiler off, on, or absent — the parity
//! test in `tests/timeline.rs` pins this down.
//!
//! Wall-time numbers are host measurements and therefore
//! nondeterministic; consumers that need reproducible output must keep
//! them apart from the [`crate::SimResult`].

use std::time::Instant;

/// Number of driver phases a step is split into.
pub const NPHASES: usize = 6;

/// Phase names, indexed by the constants below.
pub const PHASE_NAMES: [&str; NPHASES] = [
    "core_fetch_execute_mem",
    "trident_monitors",
    "sampling",
    "trident_events",
    "optimizer_commit",
    "mature_clear",
];

/// The core's fetch/execute/mem cycle (including commit buffering).
pub const PHASE_CORE: usize = 0;
/// Feeding committed instructions to the branch profiler, DLT and
/// watch table.
pub const PHASE_MONITORS: usize = 1;
/// Windowed timeline sampling.
pub const PHASE_SAMPLING: usize = 2;
/// Trident event-queue dispatch (helper-job start, optimizer analysis).
pub const PHASE_EVENTS: usize = 3;
/// Committing finished helper jobs (trace install, prefetch insertion,
/// in-place distance repair).
pub const PHASE_OPTIMIZER: usize = 4;
/// Periodic mature-load clearing (phase-change extension).
pub const PHASE_MATURE: usize = 5;

/// Live profiler state owned by a running machine: one wall-clock bucket
/// per phase and the mark the next lap measures from.
#[derive(Debug, Default, Clone)]
pub struct MachineProfiler {
    /// Host nanoseconds attributed to each phase so far.
    pub wall_ns: [u64; NPHASES],
    mark: Option<Instant>,
}

impl MachineProfiler {
    /// Sets the mark the next [`MachineProfiler::lap`] measures from.
    pub fn start(&mut self) {
        self.mark = Some(Instant::now());
    }

    /// Attributes the time since the last mark to `phase` and re-marks.
    /// Without a prior mark this only re-marks, attributing nothing.
    pub fn lap(&mut self, phase: usize) {
        let now = Instant::now();
        if let Some(t0) = self.mark {
            let ns = u64::try_from(now.duration_since(t0).as_nanos()).unwrap_or(u64::MAX);
            self.wall_ns[phase] = self.wall_ns[phase].saturating_add(ns);
        }
        self.mark = Some(now);
    }
}

/// The finished profile returned by a profiled run.
#[derive(Debug, Clone, Default)]
pub struct MachineProfile {
    /// Host nanoseconds attributed to each driver phase
    /// (see [`PHASE_NAMES`]).
    pub phase_wall_ns: [u64; NPHASES],
    /// Host nanoseconds for the whole run (superset of the phases:
    /// includes setup and result assembly).
    pub run_wall_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn laps_attribute_to_the_named_phase() {
        let mut p = MachineProfiler::default();
        p.start();
        std::thread::sleep(std::time::Duration::from_millis(2));
        p.lap(PHASE_MONITORS);
        p.lap(PHASE_SAMPLING); // immediate: tiny but attributed
        assert_eq!(p.wall_ns[PHASE_CORE], 0, "the core phase never lapped");
        assert!(p.wall_ns[PHASE_MONITORS] >= 1_000_000, "the sleep shows up in its phase");
    }

    #[test]
    fn lap_without_a_mark_attributes_nothing() {
        let mut p = MachineProfiler::default();
        p.lap(PHASE_CORE);
        assert_eq!(p.wall_ns, [0; NPHASES], "no mark, nothing to attribute");
        std::thread::sleep(std::time::Duration::from_millis(1));
        p.lap(PHASE_EVENTS);
        assert!(p.wall_ns[PHASE_EVENTS] >= 1_000_000, "the first lap set the mark");
    }
}
