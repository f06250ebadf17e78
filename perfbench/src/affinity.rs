//! Spreads the client thread evenly over the CPUs the process may use.
//!
//! On the 2-core development host the two CPUs did not run at the same
//! speed: the same 4-second Recommendation run pinned to one CPU gave
//! 31–33k ops/s and pinned to the other 40–41k ops/s, because whatever
//! shares a CPU's physical core changes from minute to minute. A thread
//! the scheduler leaves on one CPU reports that CPU's speed, so run-to-run
//! results split into two modes. Moving the thread to the next CPU in turn
//! at fixed points — outside timed regions where possible — gives every
//! run the same mix of CPUs.

#[cfg(target_os = "linux")]
mod sys {
    /// Words in glibc's `cpu_set_t` (1024 CPUs).
    pub const SET_WORDS: usize = 16;

    extern "C" {
        pub fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        pub fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
}

/// A round-robin over the CPUs the calling thread was allowed at creation.
/// Dropping it lets the thread run on all of them again.
#[derive(Debug, Clone)]
pub struct CpuRotation {
    cpus: Vec<usize>,
    next: usize,
}

impl CpuRotation {
    /// The calling thread's allowed CPUs, starting from the lowest. Empty
    /// (every [`CpuRotation::step`] a no-op) when they cannot be read.
    pub fn new() -> Self {
        CpuRotation {
            cpus: allowed_cpus(),
            next: 0,
        }
    }

    /// Moves the calling thread to the next CPU in turn. A failure leaves
    /// the thread where it is: placement changes speed, never results.
    pub fn step(&mut self) {
        if self.cpus.len() < 2 {
            return;
        }
        let cpu = self.cpus[self.next % self.cpus.len()];
        self.next += 1;
        pin(&[cpu]);
    }

    /// Lets the calling thread run on every CPU it was allowed at creation.
    pub fn release(&self) {
        if self.cpus.len() >= 2 {
            pin(&self.cpus);
        }
    }
}

impl Drop for CpuRotation {
    fn drop(&mut self) {
        self.release();
    }
}

impl Default for CpuRotation {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(target_os = "linux")]
fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; sys::SET_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sys::sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..sys::SET_WORDS * 64)
        .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

#[cfg(target_os = "linux")]
fn pin(cpus: &[usize]) {
    let mut mask = [0u64; sys::SET_WORDS];
    for &c in cpus.iter().filter(|&&c| c < sys::SET_WORDS * 64) {
        mask[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: `mask` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread. The return value is ignored on
    // purpose (see `CpuRotation::step`).
    unsafe {
        sys::sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr());
    }
}

#[cfg(not(target_os = "linux"))]
fn allowed_cpus() -> Vec<usize> {
    Vec::new()
}

#[cfg(not(target_os = "linux"))]
fn pin(_cpus: &[usize]) {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotation_visits_allowed_cpus_and_releases() {
        let before = allowed_cpus();
        let mut rot = CpuRotation::new();
        for _ in 0..2 * before.len().max(1) {
            rot.step();
            if before.len() >= 2 {
                assert_eq!(allowed_cpus().len(), 1);
            }
        }
        rot.release();
        assert_eq!(allowed_cpus(), before);
    }
}
