//! Process and host facts read from `/proc`, parsed by hand (the
//! workspace has no libc binding).

use dv_core::json::Json;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times. Linux
/// fixes `USER_HZ` at 100 on every architecture this repo targets;
/// without libc there is no `sysconf(_SC_CLK_TCK)` to ask, so the value
/// is stated here and recorded in every result file.
pub const CLK_TCK: u64 = 100;

/// `VmHWM` (peak resident set, kB) from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let rest = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    rest.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// `utime + stime` (clock ticks, all threads, living and reaped) from the
/// text of `/proc/<pid>/stat`. The second field is the command name in
/// parentheses and may itself contain spaces and parentheses, so fields
/// are counted from the *last* `)`.
pub fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // `after_comm` starts at field 3 (state); utime and stime are fields
    // 14 and 15.
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// CPU seconds (user + system) this process has used so far.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    let ticks = parse_cpu_ticks(&stat).expect("/proc/self/stat has utime and stime");
    ticks as f64 / CLK_TCK as f64
}

/// Peak resident set of this process so far, MiB.
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb = parse_vm_hwm_kb(&status).expect("/proc/self/status has VmHWM");
    kb as f64 / 1024.0
}

/// Words of the affinity masks passed to the kernel: room for 1024 CPUs.
const CPU_MASK_WORDS: usize = 16;

/// Highest-numbered CPU set in an affinity mask of 64-bit words.
pub fn highest_cpu(mask: &[u64]) -> Option<usize> {
    let (word, bits) = mask.iter().enumerate().rev().find(|(_, w)| **w != 0)?;
    Some(word * 64 + 63 - bits.leading_zeros() as usize)
}

/// Restrict this process — and every thread it starts from now on — to
/// one of the CPUs it may run on, and return that CPU's number.
///
/// The simulator hands one run token between a thread per simulated node,
/// so only one of its threads is ever runnable. Left on two virtual CPUs,
/// each handoff wakes a thread on the *other*, idle vCPU: an inter-
/// processor interrupt through the hypervisor that costs 80–125 µs on the
/// reference microVM, is three quarters (DV) to nine tenths (mini-MPI) of
/// a repetition's wall-clock, and swings with the host's other tenants by
/// 30 % between one run and the next. On one CPU a handoff is a context
/// switch. That is time the program itself spends, and it repeats.
///
/// The highest-numbered CPU is taken because interrupts and the host's
/// housekeeping land on CPU 0. `std` already links the C library these
/// two calls come from, so the package still has no dependency. `None`
/// means the kernel refused and the run goes unpinned.
pub fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; CPU_MASK_WORDS];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is `bytes` long and outlives both calls; pid 0 is
    // the calling thread, which is the only thread at this point.
    unsafe {
        if sched_getaffinity(0, bytes, mask.as_mut_ptr()) != 0 {
            return None;
        }
        let cpu = highest_cpu(&mask)?;
        mask = [0; CPU_MASK_WORDS];
        mask[cpu / 64] = 1 << (cpu % 64);
        (sched_setaffinity(0, bytes, mask.as_ptr()) == 0).then_some(cpu)
    }
}

/// Facts about the host a result was measured on: they decide whether two
/// result files are comparable at all.
pub fn host_facts() -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let loadavg = std::fs::read_to_string("/proc/loadavg").unwrap_or_default();
    let load1: f64 = loadavg
        .split_ascii_whitespace()
        .next()
        .and_then(|s| s.parse().ok())
        .unwrap_or(-1.0);
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    // Codegen flags come from the `.cargo/config.toml` of the directory
    // cargo was invoked in; run from the repository root that is the
    // figure binaries' `-C target-cpu=native`.
    let rustflags = std::fs::read_to_string(".cargo/config.toml")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.trim_start().starts_with("rustflags"))
                .map(|l| l.trim().to_string())
        })
        .unwrap_or_else(|| "no .cargo/config.toml in the working directory".to_string());
    Json::Obj(vec![
        ("nproc".into(), Json::U64(nproc as u64)),
        ("rustc".into(), Json::str(rustc)),
        ("rustflags".into(), Json::str(rustflags)),
        ("clk_tck".into(), Json::U64(CLK_TCK)),
        ("loadavg_1m_at_start".into(), Json::F64(load1)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_parsed_from_status_text() {
        let status =
            "Name:\tdv-benchmark\nVmPeak:\t 2203360 kB\nVmHWM:\t  104512 kB\nVmRSS:\t   98000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(104_512));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\nVmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t lots\n"), None);
    }

    #[test]
    fn cpu_ticks_survive_a_hostile_command_name() {
        // comm = "a) b (c" — spaces and both kinds of parenthesis.
        let stat = "4242 (a) b (c) S 1 4242 4242 0 -1 4194304 1500 0 0 0 \
                    731 29 0 0 20 0 33 0 123456 2256240640 26128 18446744073709551615";
        assert_eq!(parse_cpu_ticks(stat), Some(731 + 29));
        let plain = "7 (dv-benchmark) R 1 7 7 0 -1 0 0 0 0 0 12 3 0 0 20 0 1 0 1 1 1 1";
        assert_eq!(parse_cpu_ticks(plain), Some(15));
        assert_eq!(parse_cpu_ticks("7 (short) R 1 2 3"), None);
        assert_eq!(parse_cpu_ticks("no parenthesis at all"), None);
    }

    #[test]
    fn the_highest_cpu_of_a_mask_is_found() {
        assert_eq!(highest_cpu(&[0b11, 0]), Some(1));
        assert_eq!(highest_cpu(&[1, 1 << 5]), Some(69));
        assert_eq!(highest_cpu(&[1 << 63]), Some(63));
        assert_eq!(highest_cpu(&[0, 0]), None);
    }

    #[test]
    fn live_proc_files_parse() {
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_seconds() >= 0.0);
    }
}
