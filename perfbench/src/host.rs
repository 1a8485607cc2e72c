//! What the benchmark reads about its own process and host: CPU time
//! from `/proc/self`, per-thread CPU of the runtime's named threads,
//! peak resident memory, and the facts a result is only comparable
//! under (CPU count, CPU features, source commit).

use std::fs;

/// Linux reports `/proc/<pid>/stat` times in USER_HZ ticks, fixed at
/// 100 per second on every supported architecture.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds of the whole process (every thread, live
/// or exited), or `None` off Linux.
pub fn process_cpu_seconds() -> Option<f64> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    // The command name may contain spaces; fields resume after its ')'.
    let fields: Vec<&str> = stat.rsplit_once(')')?.1.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

/// On-CPU nanoseconds summed over this process's live threads whose
/// name starts with `prefix` (from `/proc/self/task/*/schedstat`).
/// `0` when no such thread exists or the files are unavailable.
pub fn thread_cpu_ns(prefix: &str) -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter(|task| {
            fs::read_to_string(task.path().join("comm"))
                .is_ok_and(|name| name.trim_end().starts_with(prefix))
        })
        .filter_map(|task| {
            let sched = fs::read_to_string(task.path().join("schedstat")).ok()?;
            sched.split_whitespace().next()?.parse::<u64>().ok()
        })
        .sum()
}

/// Peak resident set size (`VmHWM`) in MiB, or `0.0` when unavailable.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Online CPU count.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The SIMD features the FFT backends dispatch on, as detected at run
/// time.
pub fn cpu_features() -> Vec<&'static str> {
    #[cfg(target_arch = "x86_64")]
    {
        let mut found = Vec::new();
        for (name, present) in [
            ("avx2", std::is_x86_feature_detected!("avx2")),
            ("fma", std::is_x86_feature_detected!("fma")),
            ("avx512f", std::is_x86_feature_detected!("avx512f")),
            ("avx512dq", std::is_x86_feature_detected!("avx512dq")),
        ] {
            if present {
                found.push(name);
            }
        }
        found
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        Vec::new()
    }
}

/// The commit the benchmark was run from: `STRIX_GIT_COMMIT` when set,
/// else read from `.git` in the working directory, else `"unknown"`
/// (an exported source tree carries no history).
pub fn git_commit() -> String {
    if let Ok(commit) = std::env::var("STRIX_GIT_COMMIT") {
        return commit;
    }
    read_git_head().unwrap_or_else(|| "unknown".into())
}

fn read_git_head() -> Option<String> {
    let head = fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(commit) = fs::read_to_string(format!(".git/{reference}")) {
        return Some(commit.trim().to_string());
    }
    let packed = fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|l| l.strip_suffix(reference).map(|c| c.trim().to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_see_this_process() {
        let t0 = process_cpu_seconds().expect("linux /proc");
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        assert!(x != 1);
        assert!(process_cpu_seconds().unwrap() >= t0);
        assert!(peak_rss_mb() > 0.0);
        assert!(nproc() >= 1);
    }

    #[test]
    fn named_threads_report_cpu() {
        let handle = std::thread::Builder::new()
            .name("perfbench-spin".into())
            .spawn(|| {
                let t = std::time::Instant::now();
                while t.elapsed() < std::time::Duration::from_millis(30) {}
                assert!(thread_cpu_ns("perfbench-spin") > 0);
            })
            .unwrap();
        handle.join().unwrap();
        assert_eq!(thread_cpu_ns("no-such-thread"), 0);
    }
}
