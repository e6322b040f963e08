//! Process accounting read from `/proc`: peak resident set and CPU time.

use std::fs;

/// `"self"` or a pid.
fn proc_file(pid: Option<u32>, file: &str) -> String {
    match pid {
        Some(pid) => format!("/proc/{pid}/{file}"),
        None => format!("/proc/self/{file}"),
    }
}

/// Peak resident set (`VmHWM`) in MiB, as the kernel reports it.
pub fn peak_rss_mib(pid: Option<u32>) -> Option<f64> {
    let status = fs::read_to_string(proc_file(pid, "status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// User plus system CPU seconds consumed so far, in clock ticks of
/// 1/100 s (`USER_HZ` is 100 on every Linux the repo targets).
pub fn cpu_seconds(pid: Option<u32>) -> Option<f64> {
    let stat = fs::read_to_string(proc_file(pid, "stat")).ok()?;
    // The command name may hold spaces; fields are counted after its ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_own_accounting() {
        assert!(peak_rss_mib(None).unwrap() > 0.5);
        assert!(cpu_seconds(None).unwrap() >= 0.0);
        assert!(peak_rss_mib(Some(std::process::id())).is_some());
    }
}
