//! The three `/proc/self` readings the benchmark reports: CPU time,
//! peak resident set, and the CPU affinity list.

/// `USER_HZ`: the unit of `utime`/`stime` in `/proc/<pid>/stat`. It is
/// 100 on every Linux ABI Rust targets (the kernel scales to it whatever
/// its internal `HZ`), and `sysconf` is not reachable without libc.
const TICKS_PER_S: f64 = 100.0;

/// User and system CPU seconds of a whole process, exited threads
/// included.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CpuTimes {
    pub user_s: f64,
    pub sys_s: f64,
}

impl CpuTimes {
    pub fn total_s(self) -> f64 {
        self.user_s + self.sys_s
    }

    pub fn since(self, earlier: CpuTimes) -> CpuTimes {
        CpuTimes {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
        }
    }
}

/// Parse one `/proc/<pid>/stat` line. The command name (field 2) may
/// itself hold spaces and parentheses, so fields are counted from the
/// *last* `)`: `utime` and `stime` are fields 14 and 15 of the line,
/// i.e. the 12th and 13th after the command.
pub fn parse_stat(line: &str) -> Result<CpuTimes, String> {
    let (_, rest) = line
        .rsplit_once(')')
        .ok_or("stat line has no ')' closing the command name")?;
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let mut tick = |name: &str| -> Result<f64, String> {
        let f = fields
            .next()
            .ok_or(format!("stat line ends before {name}"))?;
        let ticks: u64 = f.parse().map_err(|e| format!("{name} {f:?}: {e}"))?;
        Ok(ticks as f64 / TICKS_PER_S)
    };
    Ok(CpuTimes {
        user_s: tick("utime")?,
        sys_s: tick("stime")?,
    })
}

/// Value of `key` (e.g. `"VmHWM"`) in `/proc/<pid>/status` text, with the
/// colon and surrounding blanks stripped.
pub fn status_field<'a>(status: &'a str, key: &str) -> Option<&'a str> {
    status.lines().find_map(|l| {
        let (k, v) = l.split_once(':')?;
        (k == key).then_some(v.trim())
    })
}

/// `VmHWM` (peak resident set) in MiB.
pub fn parse_vm_hwm_mib(status: &str) -> Result<f64, String> {
    let v = status_field(status, "VmHWM").ok_or("status has no VmHWM line")?;
    let kb = v
        .strip_suffix("kB")
        .ok_or(format!("VmHWM {v:?} is not in kB"))?
        .trim();
    let kb: u64 = kb.parse().map_err(|e| format!("VmHWM {kb:?}: {e}"))?;
    Ok(kb as f64 / 1024.0)
}

/// Expand a kernel CPU list (`"0-1,4,6-7"`) into CPU numbers, ascending.
pub fn parse_cpu_list(list: &str) -> Result<Vec<u32>, String> {
    let mut cpus = Vec::new();
    for part in list.trim().split(',').filter(|p| !p.is_empty()) {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        let num = |s: &str| s.parse::<u32>().map_err(|e| format!("cpu {s:?}: {e}"));
        let (lo, hi) = (num(lo)?, num(hi)?);
        if lo > hi || hi - lo > 4096 {
            return Err(format!("bad cpu range {part:?}"));
        }
        cpus.extend(lo..=hi);
    }
    if cpus.is_empty() {
        return Err(format!("empty cpu list {list:?}"));
    }
    Ok(cpus)
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// CPU time of this process so far.
pub fn cpu_times() -> CpuTimes {
    parse_stat(&read("/proc/self/stat")).unwrap_or_else(|e| panic!("/proc/self/stat: {e}"))
}

/// Peak resident set of this process so far, MiB.
pub fn peak_rss_mib() -> f64 {
    parse_vm_hwm_mib(&read("/proc/self/status"))
        .unwrap_or_else(|e| panic!("/proc/self/status: {e}"))
}

/// CPUs this process may run on.
pub fn allowed_cpus() -> Vec<u32> {
    let status = read("/proc/self/status");
    let list = status_field(&status, "Cpus_allowed_list")
        .unwrap_or_else(|| panic!("/proc/self/status has no Cpus_allowed_list"));
    parse_cpu_list(list).unwrap_or_else(|e| panic!("Cpus_allowed_list: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_survives_hostile_command_names() {
        // comm = "a) (b c" — spaces and parens inside field 2.
        let line = "4242 (a) (b c) S 1 4242 4242 0 -1 4194304 100 0 0 0 \
                    250 75 0 0 20 0 3 0 12345 1000000 200 18446744073709551615";
        let t = parse_stat(line).unwrap();
        assert_eq!(
            t,
            CpuTimes {
                user_s: 2.5,
                sys_s: 0.75
            }
        );
        assert_eq!(t.total_s(), 3.25);
        assert!(parse_stat("1 (x) S 1 2 3").is_err(), "truncated line");
        assert!(parse_stat("no parens at all").is_err());
    }

    #[test]
    fn live_stat_and_status_parse() {
        let t = cpu_times();
        assert!(t.user_s >= 0.0 && t.sys_s >= 0.0);
        assert!(peak_rss_mib() > 0.0);
        assert!(!allowed_cpus().is_empty());
    }

    #[test]
    fn status_fields() {
        let status = "Name:\tx\nVmHWM:\t  204800 kB\nCpus_allowed_list:\t0-1,4\n";
        assert_eq!(parse_vm_hwm_mib(status).unwrap(), 200.0);
        assert_eq!(status_field(status, "Cpus_allowed_list"), Some("0-1,4"));
        assert!(parse_vm_hwm_mib("Name:\tx\n").is_err());
        assert!(parse_vm_hwm_mib("VmHWM:\t12 MB\n").is_err());
    }

    #[test]
    fn cpu_lists() {
        assert_eq!(parse_cpu_list("0-1,4,6-7\n").unwrap(), vec![0, 1, 4, 6, 7]);
        assert_eq!(parse_cpu_list("3").unwrap(), vec![3]);
        assert!(parse_cpu_list("").is_err());
        assert!(parse_cpu_list("2-1").is_err());
        assert!(parse_cpu_list("a-b").is_err());
    }
}
