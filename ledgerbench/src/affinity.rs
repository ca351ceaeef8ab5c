//! Rotating a CPU-bound workload's measuring thread over every CPU the
//! process may run on (Linux `sched_setaffinity`, through glibc).
//!
//! On a shared host one vCPU can run a pass 1.7× slower than the other
//! for minutes at a stretch (its hyperthread sibling is busy), and the
//! scheduler keeps a lone busy thread where it is, so a whole run could
//! land on the slow one. Moving the thread to the next CPU before every
//! pass puts each run's passes on all of them, and the unslowed share
//! (`stats::UNSLOWED_SHARE`) then comes from whichever CPU was not
//! slowed.

/// A `cpu_set_t`: one bit per CPU, 1024 CPUs.
#[derive(Clone, Default)]
struct Mask([u64; 16]);

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

impl Mask {
    fn only(cpu: usize) -> Mask {
        let mut m = Mask::default();
        m.0[cpu / 64] |= 1 << (cpu % 64);
        m
    }

    fn cpus(&self) -> Vec<usize> {
        (0..1024)
            .filter(|&c| self.0[c / 64] & (1 << (c % 64)) != 0)
            .collect()
    }

    /// The calling thread's affinity (pid 0 is the calling thread).
    fn get() -> Option<Mask> {
        let mut m = Mask::default();
        // SAFETY: `m.0` is a writable buffer of exactly the size passed.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), m.0.as_mut_ptr()) };
        (rc == 0).then_some(m)
    }

    /// Make this the calling thread's affinity; a refusal leaves the
    /// affinity as it was, which only makes the rotation a no-op.
    fn set(&self) {
        // SAFETY: `self.0` is a readable buffer of exactly the size passed.
        unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>(), self.0.as_ptr()) };
    }
}

/// The calling thread's CPU affinity, rotated one CPU at a time and
/// restored on drop.
pub struct CpuRotation {
    original: Mask,
    cpus: Vec<usize>,
    next: usize,
}

impl CpuRotation {
    /// The CPUs the calling thread may run on now. Where the affinity
    /// cannot be read, rotation does nothing.
    pub fn new() -> CpuRotation {
        let original = Mask::get().unwrap_or_default();
        let cpus = original.cpus();
        CpuRotation {
            original,
            cpus,
            next: 0,
        }
    }

    /// Pin the calling thread to the next CPU in turn.
    pub fn advance(&mut self) {
        if self.cpus.len() < 2 {
            return;
        }
        Mask::only(self.cpus[self.next % self.cpus.len()]).set();
        self.next += 1;
    }
}

impl Drop for CpuRotation {
    fn drop(&mut self) {
        if self.cpus.len() >= 2 {
            self.original.set();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotation_visits_every_allowed_cpu_and_restores_the_mask() {
        let before = Mask::get().expect("affinity readable").cpus();
        {
            let mut rot = CpuRotation::new();
            for &cpu in &before {
                rot.advance();
                if before.len() >= 2 {
                    assert_eq!(Mask::get().unwrap().cpus(), vec![cpu]);
                }
            }
        }
        assert_eq!(Mask::get().unwrap().cpus(), before);
    }
}
