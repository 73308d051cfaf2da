//! Host fingerprint and process resource readings (Linux `/proc`).

use psca_obs::Json;

/// Kernel clock ticks per second for `/proc/<pid>/stat` CPU times
/// (`USER_HZ`, fixed at 100 on Linux).
const USER_HZ: f64 = 100.0;

/// What every result records about the machine and the run: cores,
/// CPU model, compiler, kernel, the workload seed, the pinned thread
/// counts, and the CPU the process is pinned to out of `nproc`.
pub fn fingerprint(
    workload: &str,
    seed: u64,
    threads: usize,
    nproc: usize,
    cpu: Option<usize>,
) -> Json {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    let threads = threads as u64;
    Json::obj(vec![
        ("workload", workload.into()),
        ("seed", seed.into()),
        ("nproc", (nproc as u64).into()),
        ("cpu_model", cpu_model.into()),
        ("rustc", env!("PERFBENCH_RUSTC_VERSION").into()),
        ("kernel", kernel.into()),
        (
            "threads",
            Json::obj(vec![
                ("client_connections", threads.into()),
                ("experiment_jobs", threads.into()),
                ("serve_workers", threads.into()),
            ]),
        ),
        ("pinned_cpu", cpu.map_or(Json::Null, |c| (c as u64).into())),
    ])
}

/// Confines the calling thread, and every thread it starts afterwards, to
/// the highest-numbered CPU it may run on, and returns that CPU. Threads
/// that stay on one CPU keep their caches and are not migrated, so a
/// single-threaded op repeats its time more closely. `None` when the
/// affinity cannot be read or set.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // A `cpu_set_t`: a bit mask of 1024 CPUs.
    let mut allowed = [0u64; 16];
    let size = std::mem::size_of_val(&allowed);
    // SAFETY: `allowed` is a writable buffer of `size` bytes laid out as a
    // `cpu_set_t`; pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, size, allowed.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..64 * allowed.len())
        .rev()
        .find(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above, with a readable buffer.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
}

/// Pinning is not available off Linux.
#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}

/// User plus system CPU seconds consumed so far by every thread of this
/// process.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / USER_HZ
}
