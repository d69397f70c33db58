//! Process CPU time and peak memory, read from Linux `/proc/self`.

/// Kernel clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`, fixed
/// at 100 by the Linux ABI on every architecture it ships for).
const TICKS_PER_SEC: f64 = 100.0;

/// User + system CPU seconds this process has used so far, over all its
/// threads, including threads that have already exited.  Resolution is
/// one tick (10 ms).
pub fn cpu_seconds() -> Result<f64, String> {
    let stat = read("/proc/self/stat")?;
    let ticks = cpu_ticks(&stat).ok_or("cannot parse utime/stime in /proc/self/stat")?;
    Ok(ticks as f64 / TICKS_PER_SEC)
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = read("/proc/self/status")?;
    let kib = vm_hwm_kib(&status).ok_or("cannot parse VmHWM in /proc/self/status")?;
    Ok(kib as f64 / 1024.0)
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// `utime + stime` in ticks from a `/proc/<pid>/stat` line.
///
/// The second field is the command name in parentheses and may itself
/// contain spaces and parentheses, so fields are counted from the *last*
/// `)`: after it come `state` (field 3) … `utime` (14) and `stime` (15).
fn cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// The `VmHWM:` value in KiB from a `/proc/<pid>/status` document.
fn vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_whitespace();
    let value = parts.next()?.parse().ok()?;
    (parts.next() == Some("kB")).then_some(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_count_from_the_last_paren() {
        let stat = "4242 (we ird) (name)) S 1 4242 4242 0 -1 4194304 2406 0 0 0 \
                    731 45 0 0 20 0 3 0 123456 1234567 890 18446744073709551615";
        assert_eq!(cpu_ticks(stat), Some(776));
    }

    #[test]
    fn truncated_or_garbled_stat_is_rejected() {
        assert_eq!(cpu_ticks("4242 (x) S 1 2 3"), None);
        assert_eq!(cpu_ticks("no parenthesis at all"), None);
        assert_eq!(cpu_ticks("1 (x) S 1 1 1 0 -1 0 0 0 0 0 seven 45 0 0"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let status =
            "Name:\tflowbench\nVmPeak:\t  300000 kB\nVmHWM:\t  165432 kB\nVmRSS:\t  1000 kB\n";
        assert_eq!(vm_hwm_kib(status), Some(165_432));
        assert_eq!(vm_hwm_kib("VmRSS:\t 12 kB\n"), None);
        assert_eq!(vm_hwm_kib("VmHWM:\t 12 MB\n"), None);
    }

    #[test]
    fn live_values_are_positive() {
        assert!(peak_rss_mib().expect("procfs") > 0.0);
        let spin: u64 = (0..20_000_000u64).fold(0, |a, x| a ^ x.wrapping_mul(31));
        std::hint::black_box(spin);
        assert!(cpu_seconds().expect("procfs") >= 0.0);
    }
}
