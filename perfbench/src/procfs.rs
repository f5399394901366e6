//! The procfs counters the benchmark samples around its timed phase:
//! per-thread and per-process CPU time, host steal time, load average and
//! peak resident set size. Linux only; a missing counter fails the run.

use std::fs;

/// Clock ticks per second of the `utime`/`stime` and steal fields
/// (`USER_HZ`, which Linux fixes at 100 for user space).
pub const TICKS_PER_SEC: f64 = 100.0;

/// The user+system CPU ticks of one thread, with the name the program
/// gave it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadCpu {
    /// Kernel thread id.
    pub tid: u32,
    /// Thread name (`comm`, at most 15 bytes).
    pub comm: String,
    /// `utime + stime`, in clock ticks.
    pub ticks: u64,
}

fn read(path: &str) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

/// Parses a `stat` line into `(comm, utime + stime)`. The name sits in
/// parentheses and may itself contain spaces or parentheses, so the
/// numeric fields are taken after the last `)`.
#[must_use]
fn parse_stat(text: &str) -> Option<(String, u64)> {
    let open = text.find('(')?;
    let close = text.rfind(')')?;
    let comm = text.get(open + 1..close)?.to_owned();
    let fields: Vec<&str> = text.get(close + 1..)?.split_whitespace().collect();
    // fields[0] is proc(5) field 3 (state); utime and stime are 14 and 15.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((comm, utime + stime))
}

fn stat_ticks(path: &str) -> u64 {
    parse_stat(&read(path))
        .unwrap_or_else(|| panic!("malformed {path}"))
        .1
}

/// CPU ticks of the whole process, exited threads included.
#[must_use]
pub fn process_cpu_ticks() -> u64 {
    stat_ticks("/proc/self/stat")
}

/// CPU ticks of the calling thread.
#[must_use]
pub fn own_thread_cpu_ticks() -> u64 {
    stat_ticks("/proc/thread-self/stat")
}

/// Every live thread of the process. A thread that exits between the
/// directory listing and its read is skipped.
#[must_use]
pub fn threads() -> Vec<ThreadCpu> {
    let mut out = Vec::new();
    for entry in fs::read_dir("/proc/self/task").expect("cannot list /proc/self/task") {
        let Ok(entry) = entry else { continue };
        let Ok(tid) = entry.file_name().to_string_lossy().parse::<u32>() else {
            continue;
        };
        let Ok(text) = fs::read_to_string(entry.path().join("stat")) else {
            continue;
        };
        if let Some((comm, ticks)) = parse_stat(&text) {
            out.push(ThreadCpu { tid, comm, ticks });
        }
    }
    out.sort_by_key(|t| t.tid);
    out
}

/// Host steal time summed over all CPUs, in clock ticks.
#[must_use]
pub fn steal_ticks() -> u64 {
    let text = read("/proc/stat");
    let cpu = text
        .lines()
        .find(|l| l.starts_with("cpu "))
        .expect("/proc/stat has no cpu line");
    // user nice system idle iowait irq softirq steal ...
    cpu.split_whitespace()
        .nth(8)
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// The one-minute load average.
#[must_use]
pub fn loadavg_1m() -> f64 {
    read("/proc/loadavg")
        .split_whitespace()
        .next()
        .and_then(|v| v.parse().ok())
        .expect("malformed /proc/loadavg")
}

/// Peak resident set size (`VmHWM`) in MiB.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    let text = read("/proc/self/status");
    let kib: f64 = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("/proc/self/status has no VmHWM");
    kib / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_names_with_spaces_and_parens_parse() {
        let line = "42 (a (b) c) S 1 2 3 4 5 6 7 8 9 10 11 20 0 1 0";
        assert_eq!(parse_stat(line), Some(("a (b) c".to_owned(), 11 + 20)));
    }

    #[test]
    fn own_thread_is_listed() {
        let tid: u32 = fs::read_link("/proc/thread-self")
            .expect("thread-self")
            .file_name()
            .and_then(|n| n.to_str())
            .and_then(|n| n.parse().ok())
            .expect("tid");
        assert!(threads().iter().any(|t| t.tid == tid));
        assert!(peak_rss_mib() > 0.0);
    }
}
