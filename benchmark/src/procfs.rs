//! What the kernel says about this process: per-thread CPU time, peak
//! resident memory, and the host's fingerprint.

use std::fs;

/// `USER_HZ`: the unit of the `utime`/`stime` fields of
/// `/proc/*/stat`. It is 100 on every Linux ABI; there is no libc here
/// to ask `sysconf`.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// User plus system CPU seconds from one `stat` line.
fn cpu_seconds(stat: &str) -> Option<f64> {
    // The comm field may itself hold spaces and parentheses; the
    // numeric fields start after the last ')'. utime and stime are
    // fields 14 and 15 of the line, 12th and 13th after the comm.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / CLOCK_TICKS_PER_S)
}

/// CPU seconds consumed so far by the calling thread.
pub fn own_thread_cpu_s() -> f64 {
    fs::read_to_string("/proc/thread-self/stat")
        .ok()
        .and_then(|s| cpu_seconds(&s))
        .unwrap_or(0.0)
}

/// CPU seconds consumed so far by the thread of this process named
/// `name` (the kernel keeps 15 bytes of a thread name).
pub fn thread_cpu_s(name: &str) -> Option<f64> {
    let name = &name[..name.len().min(15)];
    for entry in fs::read_dir("/proc/self/task").ok()?.flatten() {
        let dir = entry.path();
        let comm = fs::read_to_string(dir.join("comm")).unwrap_or_default();
        if comm.trim_end() == name {
            return cpu_seconds(&fs::read_to_string(dir.join("stat")).ok()?);
        }
    }
    None
}

/// Peak resident set size of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The first `model name` of `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

pub fn kernel_release() -> String {
    fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_line_with_hostile_comm_parses() {
        let line = "42 (a) b (c)) S 1 42 42 0 -1 4194560 100 0 0 0 250 50 0 0 20 0 3 0 1 2 3";
        assert_eq!(cpu_seconds(line), Some(3.0));
        assert_eq!(cpu_seconds("garbage"), None);
    }

    #[test]
    fn own_thread_and_named_thread_are_readable() {
        let spin = std::time::Instant::now();
        while spin.elapsed().as_millis() < 30 {
            std::hint::black_box(spin);
        }
        assert!(own_thread_cpu_s() > 0.0);
        assert!(peak_rss_mb() > 0.0);
        let handle = std::thread::Builder::new()
            .name("bench-procfs-test-long-name".into())
            .spawn(|| {
                let name = "bench-procfs-test-long-name";
                thread_cpu_s(name).is_some()
            })
            .unwrap();
        assert!(handle.join().unwrap(), "thread found by truncated name");
        assert!(thread_cpu_s("no-such-thread").is_none());
    }
}
