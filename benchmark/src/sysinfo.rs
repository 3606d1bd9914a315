//! What the benchmark reads about its own process and its box: CPU time,
//! peak resident memory, and the fingerprint every result record carries.

use std::process::Command;

/// `struct timespec` of x86-64 and aarch64 Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

// The two libc calls the benchmark needs and std does not wrap. std links
// libc already, so declaring them adds no dependency.
extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// User + system CPU time of this process so far (all threads), in ns, at
/// the scheduler's own resolution — `/proc/self/stat` only has 10-ms ticks,
/// too coarse for a 100-ms slice.
pub fn cpu_time_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec` for the duration of the
    // call, and the clock id is one every Linux kernel since 2.6.12 has.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID)");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Keep the calling thread on CPU `cpu % nproc`. Best effort: `false`
/// when the kernel refuses (a cpuset that excludes the CPU), and the
/// thread then runs wherever the scheduler puts it, as before.
pub fn pin_to_cpu(cpu: usize) -> bool {
    let mask: u64 = 1 << (cpu % nproc().min(64));
    // SAFETY: pid 0 is the calling thread; `mask` is 8 readable bytes and
    // the size passed says so.
    unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) == 0 }
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The box and build a result came from, as JSON object fields (no
/// braces), so a number is never read without knowing where it was taken.
pub fn fingerprint_fields() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
    let repo = crate::repo_root();
    let git = command_line("git", &["-C", &repo.to_string_lossy(), "rev-parse", "HEAD"]);
    format!(
        "\"nproc\": {}, \"cpu\": \"{}\", \"kernel\": \"{}\", \"rustc\": \"{}\", \"git\": \"{}\"",
        nproc(),
        cpu.replace(['"', '\\'], ""),
        kernel.replace(['"', '\\'], ""),
        command_line("rustc", &["--version"]).replace(['"', '\\'], ""),
        git.replace(['"', '\\'], ""),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_counters_read_something() {
        // Burn a little CPU so the tick counters cannot both be zero for
        // the whole test binary's life.
        let mut x = 0u64;
        let t = std::time::Instant::now();
        while t.elapsed().as_millis() < 30 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(cpu_time_ns() >= 20_000_000, "30 ms of spinning is CPU time");
        assert!(peak_rss_mib() > 0.5);
        assert!(nproc() >= 1);
    }

    #[test]
    fn a_pinned_thread_stays_where_it_was_put() {
        std::thread::spawn(|| {
            if !pin_to_cpu(0) {
                return; // a cpuset without CPU 0: nothing to check
            }
            let status = std::fs::read_to_string("/proc/thread-self/status").unwrap();
            let allowed = status
                .lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                .map(str::trim);
            assert_eq!(allowed, Some("0"));
        })
        .join()
        .unwrap();
    }

    #[test]
    fn fingerprint_names_the_box() {
        let f = fingerprint_fields();
        for key in ["nproc", "cpu", "kernel", "rustc", "git"] {
            assert!(f.contains(&format!("\"{key}\":")), "{f}");
        }
    }
}
