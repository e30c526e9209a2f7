//! Pins the process to one CPU.
//!
//! The server's worker and the load generator talk over sockets pose by
//! pose. On a virtual machine with two vCPUs every such exchange
//! crosses vCPUs — an inter-processor interrupt to wake the peer, cache
//! lines pulled across — and what that costs depends on where the host
//! has placed the vCPUs at the moment: at the seed commit `party_warm`'s
//! worker cost swung between 3.7 and 6.5 µs per pose from one minute to
//! the next. With both threads on one CPU it held at 3.1–3.7 µs and the
//! paced median latency at 14 µs instead of 20–330 µs. The benchmark
//! therefore measures on one CPU: `sessions_per_core` is poses per
//! second of a core that also runs the generator, whose share of it
//! `loadgen.cpu_share` reports.
//!
//! `std` has no affinity call and the workspace vendors no `libc`, so
//! the two syscall wrappers are declared here against the C library
//! `std` already links, as `coterie_server::sys` does for epoll.

#![allow(unsafe_code)]

/// CPUs an affinity mask here can name: 16 words of 64.
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restricts the calling thread — and every thread it spawns later — to
/// the highest-numbered CPU it is allowed on (the lowest usually takes
/// the interrupts). Returns that CPU, or `None` when the kernel refuses;
/// the run then goes on unpinned and says so.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; MASK_WORDS];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, writable buffer of exactly `bytes`
    // bytes; pid 0 names the calling thread; the kernel writes at most
    // `bytes` bytes and a negative return is the documented error.
    if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } < 0 {
        return None;
    }
    let word = mask.iter().rposition(|&w| w != 0)?;
    let cpu = word * 64 + (63 - mask[word].leading_zeros() as usize);
    let mut only = [0u64; MASK_WORDS];
    only[word] = 1 << (cpu % 64);
    // SAFETY: `only` is a live buffer of `bytes` bytes that the kernel
    // only reads; it names one CPU out of the mask the kernel just
    // reported as allowed.
    (unsafe { sched_setaffinity(0, bytes, only.as_ptr()) } == 0).then_some(cpu)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_leaves_one_allowed_cpu_and_threads_inherit_it() {
        // In a thread of its own: affinity is per thread, and the other
        // tests must stay where they are.
        let allowed = std::thread::spawn(|| {
            let cpu = pin_to_one_cpu().expect("the kernel lets a thread pin itself");
            let count = |mask: &[u64; MASK_WORDS]| mask.iter().map(|w| w.count_ones()).sum::<u32>();
            let read = || {
                let mut mask = [0u64; MASK_WORDS];
                // SAFETY: as in `pin_to_one_cpu`.
                let rc = unsafe {
                    sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr())
                };
                assert!(rc >= 0);
                mask
            };
            let own = read();
            let child = std::thread::spawn(read).join().unwrap();
            assert_eq!(count(&own), 1);
            assert_eq!(own, child, "a thread spawned later inherits the mask");
            assert_ne!(own[cpu / 64] & (1 << (cpu % 64)), 0);
            cpu
        })
        .join()
        .unwrap();
        assert!(allowed < MASK_WORDS * 64);
    }
}
