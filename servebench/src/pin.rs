//! CPU placement for the door workload.

const MASK_BYTES: usize = 128;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u8) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u8) -> i32;
}

fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u8; MASK_BYTES];
    // SAFETY: `mask` is a writable buffer of exactly `MASK_BYTES` bytes,
    // the size passed; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, MASK_BYTES, mask.as_mut_ptr()) } != 0 {
        return Vec::new();
    }
    (0..MASK_BYTES * 8)
        .filter(|&cpu| mask[cpu / 8] & (1 << (cpu % 8)) != 0)
        .collect()
}

/// CPUs this process may run on; read before pinning, it is the
/// machine's parallelism the server's `workers` follow.
pub fn machine_cpus() -> usize {
    allowed_cpus().len().max(1)
}

/// Restrict the calling thread, and every thread and process it starts
/// afterwards, to the last CPU it may run on. Returns that CPU.
pub fn to_one_cpu() -> Option<usize> {
    let cpu = *allowed_cpus().last()?;
    let mut mask = [0u8; MASK_BYTES];
    mask[cpu / 8] = 1 << (cpu % 8);
    // SAFETY: `mask` is a readable buffer of exactly `MASK_BYTES` bytes,
    // the size passed; pid 0 names the calling thread.
    (unsafe { sched_setaffinity(0, MASK_BYTES, mask.as_ptr()) } == 0).then_some(cpu)
}
