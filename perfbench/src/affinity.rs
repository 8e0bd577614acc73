//! Core pinning through a hand-declared `sched_{get,set}affinity` binding
//! (Linux; elsewhere pinning is a no-op and every thread floats).

#[cfg(target_os = "linux")]
mod sys {
    /// 1024 CPUs, the glibc `cpu_set_t` size.
    const WORDS: usize = 16;

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    pub fn allowed() -> Vec<usize> {
        let mut mask = [0u64; WORDS];
        // SAFETY: `mask` is a writable buffer of exactly the size passed;
        // pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, WORDS * 8, mask.as_mut_ptr()) };
        if rc != 0 {
            return Vec::new();
        }
        (0..WORDS * 64)
            .filter(|&c| (mask[c / 64] >> (c % 64)) & 1 == 1)
            .collect()
    }

    pub fn bind(cpu: usize) -> bool {
        if cpu >= WORDS * 64 {
            return false;
        }
        let mut mask = [0u64; WORDS];
        mask[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `mask` is a readable buffer of exactly the size passed;
        // pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, WORDS * 8, mask.as_ptr()) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    pub fn allowed() -> Vec<usize> {
        Vec::new()
    }
    pub fn bind(_cpu: usize) -> bool {
        false
    }
}

/// The CPUs this process may run on, as read once at start-up.
#[derive(Clone, Debug)]
pub struct Cpus {
    ids: Vec<usize>,
}

impl Cpus {
    pub fn detect() -> Cpus {
        Cpus {
            ids: sys::allowed(),
        }
    }

    /// Busy threads the host can run at once (`nproc`).
    pub fn count(&self) -> usize {
        self.ids.len().max(1)
    }

    /// Binds the calling thread to the `slot`-th allowed CPU (wrapping when
    /// there are fewer CPUs than slots).
    pub fn bind(&self, slot: usize) {
        if let Some(&cpu) = self.ids.get(slot % self.ids.len().max(1)) {
            sys::bind(cpu);
        }
    }
}

/// Spins one thread on each of the first two CPUs until the host runs
/// them without interruption: three consecutive 50 ms slices each losing
/// under 2.5 ms to gaps over 50 µs, or at most 3 s. A virtual CPU that
/// was idle loses up to 60% of its first busy second to the host, which
/// would otherwise land in whatever the run measures first.
pub fn warm_up(cpus: &Cpus) {
    use std::time::{Duration, Instant};
    std::thread::scope(|s| {
        for slot in 0..cpus.count().min(2) {
            s.spawn(move || {
                cpus.bind(slot);
                let give_up = Instant::now() + Duration::from_secs(3);
                let mut clean = 0;
                while clean < 3 && Instant::now() < give_up {
                    let end = Instant::now() + Duration::from_millis(50);
                    let (mut last, mut lost) = (Instant::now(), Duration::ZERO);
                    while last < end {
                        let now = Instant::now();
                        if now - last > Duration::from_micros(50) {
                            lost += now - last;
                        }
                        last = now;
                    }
                    clean = if lost < Duration::from_micros(2500) {
                        clean + 1
                    } else {
                        0
                    };
                }
            });
        }
    });
}
