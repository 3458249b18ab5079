//! What the harness reads about processes from `/proc`: peak resident set
//! sizes and the hardware stamp.

fn status_field_kb(status: &str, field: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix(field))
        .and_then(|rest| rest.trim_start_matches(':').split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
}

/// `VmHWM` (peak resident set) of this process, in kB; 0 where `/proc` is
/// not available.
pub fn own_vm_hwm_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| status_field_kb(&s, "VmHWM"))
        .unwrap_or(0)
}

/// Process ids of this process's live children.
pub fn child_pids() -> Vec<u32> {
    let me = std::process::id();
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    entries
        .flatten()
        .filter_map(|e| e.file_name().to_str()?.parse::<u32>().ok())
        .filter(|pid| {
            // Field 4 of /proc/<pid>/stat is the parent pid; the command
            // name (field 2) is parenthesised and may contain spaces.
            std::fs::read_to_string(format!("/proc/{pid}/stat"))
                .ok()
                .and_then(|stat| {
                    let after_name = &stat[stat.rfind(')')? + 1..];
                    after_name.split_whitespace().nth(1)?.parse::<u32>().ok()
                })
                == Some(me)
        })
        .collect()
}

/// Summed `VmHWM` of this process's live children (the socket workers).
pub fn children_vm_hwm_kb() -> u64 {
    child_pids()
        .into_iter()
        .filter_map(|pid| std::fs::read_to_string(format!("/proc/{pid}/status")).ok())
        .filter_map(|s| status_field_kb(&s, "VmHWM"))
        .sum()
}

/// CPU model name from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_fields_parse() {
        let status = "Name:\tharness\nVmHWM:\t  123456 kB\nThreads:\t3\n";
        assert_eq!(status_field_kb(status, "VmHWM"), Some(123_456));
        assert_eq!(status_field_kb(status, "VmRSS"), None);
    }

    #[test]
    fn a_spawned_child_is_listed_until_reaped() {
        let mut child = std::process::Command::new("sleep")
            .arg("5")
            .spawn()
            .unwrap();
        assert!(child_pids().contains(&child.id()));
        child.kill().unwrap();
        child.wait().unwrap();
        assert!(!child_pids().contains(&child.id()));
    }
}
