//! Execution phases: the workload-facing description of *how* a thread
//! computes.
//!
//! A thread's behaviour is a [`PhaseProgram`]: a sequence of [`Phase`]s, each
//! describing a region of the computation by its micro-architectural
//! signature — cycles per instruction assuming a private cache, last-level
//! cache misses per kilo-instruction, and working-set size. The simulated
//! machine turns these into achieved instruction rates under contention; the
//! scheduler only ever sees the resulting performance-counter time series,
//! exactly as on real hardware.

/// One execution phase of a thread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phase {
    /// Cycles per instruction with no LLC misses (pipeline-limited CPI).
    /// Sub-1.0 values model superscalar issue.
    pub cpi_exec: f64,
    /// LLC misses per 1000 instructions when the thread has the cache to
    /// itself. This is the thread's intrinsic memory intensity.
    pub mpki: f64,
    /// LLC *accesses* per 1000 instructions (loads/stores reaching the
    /// shared cache). `mpki / apki` is the thread's LLC miss rate — the
    /// quantity the paper's 10 % classification boundary refers to.
    pub apki: f64,
    /// Working-set size in MiB, used by the shared-cache pressure model.
    pub working_set_mib: f64,
    /// Number of instructions in this phase.
    pub instructions: f64,
    /// Relative amplitude of deterministic per-tick fluctuation of `mpki`
    /// (0.0 = perfectly steady; compute-intensive Rodinia apps are bursty).
    pub burstiness: f64,
}

impl Phase {
    /// A steady phase with no fluctuation and a default LLC access
    /// intensity of 300 accesses per kilo-instruction.
    pub fn steady(cpi_exec: f64, mpki: f64, working_set_mib: f64, instructions: f64) -> Self {
        Phase {
            cpi_exec,
            mpki,
            apki: 300.0,
            working_set_mib,
            instructions,
            burstiness: 0.0,
        }
    }

    /// Intrinsic LLC miss *rate* (misses per access), the classification
    /// quantity of the paper's Observer.
    #[inline]
    pub fn llc_miss_rate(&self) -> f64 {
        if self.apki > 0.0 {
            self.mpki / self.apki
        } else {
            0.0
        }
    }

    /// Intrinsic miss *ratio* (misses per instruction).
    #[inline]
    pub fn miss_ratio(&self) -> f64 {
        self.mpki / 1000.0
    }

    /// Validate physical plausibility; returns a description of the first
    /// violation if any.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.cpi_exec > 0.0) {
            return Err(format!("cpi_exec must be > 0, got {}", self.cpi_exec));
        }
        if !(self.mpki >= 0.0) {
            return Err(format!("mpki must be >= 0, got {}", self.mpki));
        }
        if self.mpki > 1000.0 {
            return Err(format!("mpki cannot exceed 1000, got {}", self.mpki));
        }
        if self.apki < self.mpki {
            return Err(format!(
                "apki ({}) must be >= mpki ({}): a miss is an access",
                self.apki, self.mpki
            ));
        }
        if !(self.working_set_mib >= 0.0) {
            return Err(format!(
                "working_set_mib must be >= 0, got {}",
                self.working_set_mib
            ));
        }
        if !(self.instructions > 0.0) {
            return Err(format!(
                "instructions must be > 0, got {}",
                self.instructions
            ));
        }
        if !(0.0..=1.0).contains(&self.burstiness) {
            return Err(format!(
                "burstiness must be in [0,1], got {}",
                self.burstiness
            ));
        }
        Ok(())
    }
}

/// How a program behaves once the listed phases are exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseRepeat {
    /// The thread finishes after the last phase.
    Once,
    /// Phases after index `from` repeat cyclically until the thread's total
    /// instruction budget is spent (models iterative kernels: a startup
    /// phase followed by a steady loop).
    LoopFrom(usize),
}

/// A complete phase program for one thread.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseProgram {
    /// The phases, executed in order.
    pub phases: Vec<Phase>,
    /// Looping behaviour.
    pub repeat: PhaseRepeat,
    /// Total instructions the thread retires before completing. For
    /// [`PhaseRepeat::Once`] programs this may be at most the sum of phase
    /// lengths (the program is truncated at the budget); for looping
    /// programs it determines how many loop iterations run.
    pub total_instructions: f64,
}

impl PhaseProgram {
    /// A single steady phase of `total_instructions`.
    pub fn single(phase: Phase, total_instructions: f64) -> Self {
        PhaseProgram {
            phases: vec![phase],
            repeat: PhaseRepeat::LoopFrom(0),
            total_instructions,
        }
    }

    /// Validate the program.
    pub fn validate(&self) -> Result<(), String> {
        if self.phases.is_empty() {
            return Err("phase program must have at least one phase".into());
        }
        for (i, p) in self.phases.iter().enumerate() {
            p.validate().map_err(|e| format!("phase {i}: {e}"))?;
        }
        if let PhaseRepeat::LoopFrom(from) = self.repeat {
            if from >= self.phases.len() {
                return Err(format!(
                    "loop start {} out of range ({} phases)",
                    from,
                    self.phases.len()
                ));
            }
        }
        if !(self.total_instructions > 0.0) {
            return Err(format!(
                "total_instructions must be > 0, got {}",
                self.total_instructions
            ));
        }
        Ok(())
    }

    /// The phase active after `retired` instructions have been executed.
    ///
    /// Returns `None` once the program is complete (all instructions retired,
    /// or a `Once` program ran out of phases).
    pub fn phase_at(&self, retired: f64) -> Option<&Phase> {
        if retired >= self.total_instructions {
            return None;
        }
        let mut pos = retired;
        for p in &self.phases {
            if pos < p.instructions {
                return Some(p);
            }
            pos -= p.instructions;
        }
        match self.repeat {
            PhaseRepeat::Once => None,
            PhaseRepeat::LoopFrom(from) => {
                let loop_len: f64 = self.phases[from..].iter().map(|p| p.instructions).sum();
                if loop_len <= 0.0 {
                    return None;
                }
                let mut pos = pos % loop_len;
                for p in &self.phases[from..] {
                    if pos < p.instructions {
                        return Some(p);
                    }
                    pos -= p.instructions;
                }
                // Floating point edge: land exactly on the loop boundary.
                self.phases.get(from)
            }
        }
    }

    /// Instructions remaining until either the program completes or the
    /// current phase ends, whichever is sooner. Used by the engine to detect
    /// phase boundaries inside a tick.
    pub fn instructions_to_boundary(&self, retired: f64) -> f64 {
        let to_completion = (self.total_instructions - retired).max(0.0);
        let mut pos = retired;
        for p in &self.phases {
            if pos < p.instructions {
                return (p.instructions - pos).min(to_completion);
            }
            pos -= p.instructions;
        }
        match self.repeat {
            PhaseRepeat::Once => 0.0,
            PhaseRepeat::LoopFrom(from) => {
                let loop_len: f64 = self.phases[from..].iter().map(|p| p.instructions).sum();
                if loop_len <= 0.0 {
                    return 0.0;
                }
                let mut pos = pos % loop_len;
                for p in &self.phases[from..] {
                    if pos < p.instructions {
                        return (p.instructions - pos).min(to_completion);
                    }
                    pos -= p.instructions;
                }
                to_completion
            }
        }
    }

    /// The active phase together with the distance to the next boundary:
    /// exactly `(phase_at(retired), instructions_to_boundary(retired))`,
    /// computed in a single walk. The engine calls this once per runnable
    /// thread per tick and reuses the result everywhere the tick used to
    /// repeat the walk; both components reproduce the two separate lookups
    /// bit-for-bit (same walk, same floating-point expressions).
    pub fn phase_and_boundary(&self, retired: f64) -> Option<(Phase, f64)> {
        if retired >= self.total_instructions {
            return None;
        }
        let to_completion = (self.total_instructions - retired).max(0.0);
        let mut pos = retired;
        for p in &self.phases {
            if pos < p.instructions {
                return Some((*p, (p.instructions - pos).min(to_completion)));
            }
            pos -= p.instructions;
        }
        match self.repeat {
            PhaseRepeat::Once => None,
            PhaseRepeat::LoopFrom(from) => {
                let loop_len: f64 = self.phases[from..].iter().map(|p| p.instructions).sum();
                if loop_len <= 0.0 {
                    return None;
                }
                let mut pos = pos % loop_len;
                for p in &self.phases[from..] {
                    if pos < p.instructions {
                        return Some((*p, (p.instructions - pos).min(to_completion)));
                    }
                    pos -= p.instructions;
                }
                // Floating point edge: land exactly on the loop boundary.
                self.phases.get(from).map(|p| (*p, to_completion))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_phase_program() -> PhaseProgram {
        PhaseProgram {
            phases: vec![
                Phase::steady(1.0, 30.0, 16.0, 1000.0), // memory-bound startup
                Phase::steady(0.5, 2.0, 1.0, 500.0),    // compute loop body
            ],
            repeat: PhaseRepeat::LoopFrom(1),
            total_instructions: 3000.0,
        }
    }

    #[test]
    fn phase_at_walks_through_phases() {
        let p = two_phase_program();
        assert_eq!(p.phase_at(0.0).unwrap().mpki, 30.0);
        assert_eq!(p.phase_at(999.0).unwrap().mpki, 30.0);
        assert_eq!(p.phase_at(1000.0).unwrap().mpki, 2.0);
        // Loop: after phase 2 ends at 1500, loops back to phase index 1.
        assert_eq!(p.phase_at(1501.0).unwrap().mpki, 2.0);
        assert_eq!(p.phase_at(2999.0).unwrap().mpki, 2.0);
        assert!(p.phase_at(3000.0).is_none());
        assert!(p.phase_at(5000.0).is_none());
    }

    #[test]
    fn once_program_ends_with_phases() {
        let p = PhaseProgram {
            phases: vec![Phase::steady(1.0, 10.0, 4.0, 100.0)],
            repeat: PhaseRepeat::Once,
            total_instructions: 100.0,
        };
        assert!(p.phase_at(50.0).is_some());
        assert!(p.phase_at(100.0).is_none());
    }

    #[test]
    fn boundary_distances() {
        let p = two_phase_program();
        assert_eq!(p.instructions_to_boundary(0.0), 1000.0);
        assert_eq!(p.instructions_to_boundary(400.0), 600.0);
        assert_eq!(p.instructions_to_boundary(1000.0), 500.0);
        // Near completion the boundary is the completion point.
        assert_eq!(p.instructions_to_boundary(2900.0), 100.0);
        assert_eq!(p.instructions_to_boundary(3000.0), 0.0);
    }

    #[test]
    fn combined_lookup_matches_separate_walks_exactly() {
        // phase_and_boundary must reproduce (phase_at, instructions_to_
        // boundary) bit-for-bit — including awkward fractional positions and
        // the loop-boundary floating-point edge.
        let programs = [
            two_phase_program(),
            PhaseProgram {
                phases: vec![Phase::steady(1.0, 10.0, 4.0, 100.0)],
                repeat: PhaseRepeat::Once,
                total_instructions: 100.0,
            },
            PhaseProgram::single(Phase::steady(0.8, 5.0, 2.0, 333.3), 1e4),
        ];
        for p in &programs {
            let mut retired = 0.0;
            while retired < p.total_instructions + 10.0 {
                let combined = p.phase_and_boundary(retired);
                let separate = p
                    .phase_at(retired)
                    .map(|ph| (*ph, p.instructions_to_boundary(retired)));
                assert_eq!(combined, separate, "retired={retired}");
                retired += 61.7;
            }
        }
    }

    #[test]
    fn validation_catches_bad_phases() {
        let mut p = two_phase_program();
        assert!(p.validate().is_ok());
        p.phases[0].cpi_exec = 0.0;
        assert!(p.validate().unwrap_err().contains("cpi_exec"));
        let mut p = two_phase_program();
        p.phases[1].mpki = 2000.0;
        assert!(p.validate().unwrap_err().contains("mpki"));
        let mut p = two_phase_program();
        p.repeat = PhaseRepeat::LoopFrom(5);
        assert!(p.validate().unwrap_err().contains("loop start"));
        let mut p = two_phase_program();
        p.total_instructions = 0.0;
        assert!(p.validate().is_err());
        let mut p = two_phase_program();
        p.phases[0].burstiness = 1.5;
        assert!(p.validate().unwrap_err().contains("burstiness"));
        p.phases.clear();
        assert!(p.validate().is_err());
    }

    #[test]
    fn llc_miss_rate_and_apki_builder() {
        let p = Phase {
            apki: 250.0,
            ..Phase::steady(1.0, 30.0, 8.0, 1e6)
        };
        assert!((p.llc_miss_rate() - 0.12).abs() < 1e-12);
        assert!(p.validate().is_ok());
        let mut bad = Phase::steady(1.0, 30.0, 8.0, 1e6);
        bad.apki = 10.0;
        assert!(bad.validate().unwrap_err().contains("apki"));
    }

    #[test]
    fn single_program_loops_one_phase() {
        let p = PhaseProgram::single(Phase::steady(0.8, 5.0, 2.0, 100.0), 1e6);
        assert!(p.validate().is_ok());
        assert_eq!(p.phase_at(999_000.0).unwrap().mpki, 5.0);
        assert!(p.phase_at(1e6).is_none());
    }
}
