//! Reading CPU time, context switches and peak memory from `/proc`.
//!
//! The multi-process workload measures the cluster's role processes from
//! outside: each is a child of the benchmark whose environment carries
//! `WW_NODE_ROLE`, so `/proc` alone tells which role a process plays.

use std::path::Path;

/// Kernel clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`, fixed
/// at 100 in the Linux user ABI).
pub const TICKS_PER_SEC: u64 = 100;

/// The fields of `/proc/<pid>/stat` the benchmark uses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Stat {
    pub ppid: u32,
    /// User plus system CPU of every thread of the process, in ticks.
    pub cpu_ticks: u64,
}

impl Stat {
    pub fn cpu_ms(&self) -> f64 {
        self.cpu_ticks as f64 * 1_000.0 / TICKS_PER_SEC as f64
    }
}

/// The fields of `/proc/<pid>/status` (or `/proc/<pid>/task/<tid>/status`)
/// the benchmark uses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Status {
    /// Peak resident set size in KiB (`VmHWM`; absent for threads of
    /// kernel tasks).
    pub vm_hwm_kb: u64,
    /// Voluntary plus involuntary context switches.
    pub ctx_switches: u64,
}

/// Parses one `/proc/<pid>/stat` line. The command name (field 2) sits in
/// parentheses and may itself hold spaces and parentheses, so fields are
/// counted from the last `)`.
pub fn parse_stat(line: &str) -> Option<Stat> {
    let rest = &line[line.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state): field k is fields[k - 3].
    let field = |k: usize| fields.get(k - 3)?.parse::<u64>().ok();
    Some(Stat {
        ppid: u32::try_from(field(4)?).ok()?,
        cpu_ticks: field(14)? + field(15)?,
    })
}

/// Parses a `/proc/<pid>/status` file; missing keys read as zero.
pub fn parse_status(text: &str) -> Status {
    let mut s = Status::default();
    for line in text.lines() {
        let Some((key, value)) = line.split_once(':') else {
            continue;
        };
        let num = || {
            value
                .split_whitespace()
                .next()
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0)
        };
        match key {
            "VmHWM" => s.vm_hwm_kb = num(),
            "voluntary_ctxt_switches" | "nonvoluntary_ctxt_switches" => s.ctx_switches += num(),
            _ => {}
        }
    }
    s
}

/// `/proc/<pid>/stat` of a live process.
pub fn stat(pid: u32) -> Option<Stat> {
    parse_stat(&std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?)
}

/// Peak RSS of a process, and its context switches summed over every
/// thread (the process-level `status` file counts the main thread only).
pub fn status(pid: u32) -> Option<Status> {
    let own = parse_status(&std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?);
    let mut ctx_switches = 0;
    for task in std::fs::read_dir(format!("/proc/{pid}/task"))
        .ok()?
        .flatten()
    {
        if let Ok(text) = std::fs::read_to_string(task.path().join("status")) {
            ctx_switches += parse_status(&text).ctx_switches;
        }
    }
    Some(Status {
        vm_hwm_kb: own.vm_hwm_kb,
        ctx_switches,
    })
}

/// CPU time (user + system) of a process in milliseconds; 0 once it has
/// exited.
pub fn cpu_ms(pid: u32) -> f64 {
    stat(pid).map_or(0.0, |s| s.cpu_ms())
}

/// CPU time of this process in milliseconds.
pub fn own_cpu_ms() -> f64 {
    cpu_ms(std::process::id())
}

/// Peak resident memory of a process in MiB; 0 once it has exited.
pub fn rss_peak_mb(pid: u32) -> f64 {
    status(pid).map_or(0.0, |s| s.vm_hwm_kb as f64 / 1024.0)
}

/// Value of `name` in a NUL-separated `/proc/<pid>/environ` image.
pub fn environ_var(environ: &[u8], name: &str) -> Option<String> {
    environ.split(|&b| b == 0).find_map(|entry| {
        let entry = std::str::from_utf8(entry).ok()?;
        let (k, v) = entry.split_once('=')?;
        (k == name).then(|| v.to_string())
    })
}

/// Live child processes of `parent` that run a cluster role, as
/// `(role, pid)` sorted by role then pid.
pub fn role_children(parent: u32) -> Vec<(String, u32)> {
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return out;
    };
    for entry in entries.flatten() {
        let Some(pid) = entry
            .file_name()
            .to_str()
            .and_then(|s| s.parse::<u32>().ok())
        else {
            continue;
        };
        if stat(pid).map(|s| s.ppid) != Some(parent) {
            continue;
        }
        let environ = std::fs::read(Path::new("/proc").join(pid.to_string()).join("environ"));
        if let Some(role) = environ.ok().and_then(|e| environ_var(&e, "WW_NODE_ROLE")) {
            out.push((role, pid));
        }
    }
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_from_the_last_parenthesis() {
        let line = "4242 (node (x) y) S 17 4242 4242 0 -1 4194560 2043 0 0 0 \
                    150 37 0 0 20 0 9 0 123456 1234567 890 18446744073709551615";
        let s = parse_stat(line).unwrap();
        assert_eq!(s.ppid, 17);
        assert_eq!(s.cpu_ticks, 187);
        assert_eq!(s.cpu_ms(), 1_870.0);
    }

    #[test]
    fn truncated_stat_is_rejected() {
        assert_eq!(parse_stat("12 (a) S 1 2 3"), None);
        assert_eq!(parse_stat("no parenthesis here"), None);
    }

    #[test]
    fn status_reads_peak_rss_and_both_switch_kinds() {
        let text = "Name:\twaterwheel\nVmPeak:\t  900000 kB\nVmHWM:\t   51234 kB\n\
                    VmRSS:\t   40000 kB\nvoluntary_ctxt_switches:\t120\n\
                    nonvoluntary_ctxt_switches:\t7\n";
        let s = parse_status(text);
        assert_eq!(s.vm_hwm_kb, 51_234);
        assert_eq!(s.ctx_switches, 127);
        assert_eq!(parse_status("Name:\tkthread\n"), Status::default());
    }

    #[test]
    fn environ_lookup_matches_whole_names() {
        let env = b"PATH=/bin\0WW_NODE_ROLE_X=no\0WW_NODE_ROLE=indexing\0";
        assert_eq!(
            environ_var(env, "WW_NODE_ROLE").as_deref(),
            Some("indexing")
        );
        assert_eq!(environ_var(env, "HOME"), None);
    }

    #[test]
    fn own_process_is_readable() {
        let me = std::process::id();
        assert!(stat(me).is_some());
        assert!(status(me).unwrap().vm_hwm_kb > 0);
        assert!(status(me).unwrap().ctx_switches > 0);
        assert!(role_children(me).is_empty());
    }
}
