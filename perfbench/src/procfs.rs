//! Process accounting read from `/proc/self`: CPU time of this process
//! and its reaped children, and the resettable peak-RSS high-water mark.

use std::fs;

/// `AT_CLKTCK` in the ELF auxiliary vector: the unit of `/proc/*/stat`
/// CPU times.
const AT_CLKTCK: u64 = 17;

/// Clock ticks per second, read from `/proc/self/auxv` (the value
/// `sysconf(_SC_CLK_TCK)` returns); 100 when the vector is unreadable.
pub fn clock_ticks_per_sec() -> u64 {
    let Ok(raw) = fs::read("/proc/self/auxv") else {
        return 100;
    };
    raw.chunks_exact(16)
        .map(|pair| {
            let word = |b: &[u8]| u64::from_ne_bytes(b.try_into().expect("8-byte auxv word"));
            (word(&pair[..8]), word(&pair[8..]))
        })
        .find(|&(key, _)| key == AT_CLKTCK)
        .map_or(100, |(_, v)| v)
}

/// User + system CPU ticks of this process plus those of every child it
/// has waited for (`utime + stime + cutime + cstime`), so reaped `dist`
/// worker processes count toward the run that spawned them.
pub fn cpu_ticks() -> u64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name start at field 3
    // (state); utime..cstime are fields 14..17.
    let rest = &stat[stat.rfind(')').expect("stat has a comm field") + 1..];
    rest.split_whitespace()
        .skip(11)
        .take(4)
        .map(|f| f.parse::<u64>().expect("numeric CPU time field"))
        .sum()
}

#[cfg(target_env = "gnu")]
extern "C" {
    /// glibc: release free heap pages of every arena to the kernel.
    fn malloc_trim(pad: usize) -> i32;
}

/// Hand freed heap memory back to the kernel and reset this process's
/// peak RSS (`VmHWM`) to the RSS that remains. Without the trim, memory
/// an earlier repetition freed but the allocator kept would count toward
/// the next repetition's peak, and that share drifts with fragmentation.
pub fn reset_peak_rss() {
    #[cfg(target_env = "gnu")]
    // SAFETY: `malloc_trim` takes no pointers and only returns pages the
    // allocator holds free; glibc makes it safe to call from any thread
    // at any time.
    unsafe {
        malloc_trim(0);
    }
    fs::write("/proc/self/clear_refs", "5").expect("write /proc/self/clear_refs");
}

/// Peak RSS (`VmHWM`) of this process since start or the last
/// [`reset_peak_rss`], in KiB.
pub fn peak_rss_kib() -> u64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status")
}

/// Ticks of every CPU of the machine from the `cpu` line of
/// `/proc/stat`: `(steal, user + nice + system + idle + iowait + irq +
/// softirq + steal)`. Steal is time the hypervisor gave this machine's
/// CPUs to other guests while they had work; `(0, 0)` when unreadable.
pub fn machine_ticks() -> (u64, u64) {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .unwrap_or("")
        .split_whitespace()
        .take(8)
        .map_while(|f| f.parse().ok())
        .collect();
    match fields.get(7) {
        Some(&steal) => (steal, fields.iter().sum()),
        None => (0, 0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_ticks_grow_with_work_and_peak_rss_resets() {
        assert!(clock_ticks_per_sec() > 0);
        let before = cpu_ticks();
        let start = std::time::Instant::now();
        let mut x = 0u64;
        while start.elapsed().as_millis() < 100 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(cpu_ticks() > before);

        let big = std::hint::black_box(vec![1u8; 64 << 20]);
        let high = peak_rss_kib();
        drop(big);
        reset_peak_rss();
        assert!(peak_rss_kib() + 32 * 1024 < high, "VmHWM did not reset");
    }

    #[test]
    fn machine_ticks_count_steal_within_the_total() {
        let (steal, total) = machine_ticks();
        assert!(total > 0 && steal <= total);
    }
}
