//! What the host tells us: provenance (revision, CPUs, environment,
//! scratch filesystem) and peak resident memory.

use std::path::Path;

/// The git revision of the checkout the benchmark runs in, read from
/// `.git` under the working directory without running git; `"unknown"`
/// when the checkout is not a git repository.
pub fn git_revision() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (rev, name) = line.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// The value of an environment variable as seen (recorded, not obeyed).
pub fn env_seen(var: &str) -> String {
    std::env::var(var).unwrap_or_else(|_| "unset".to_string())
}

/// Filesystem type of the mount holding `path` (longest mount-point prefix
/// in `/proc/self/mountinfo`), or `"unknown"`.
pub fn filesystem_of(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".to_string();
    };
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".to_string();
    };
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        let Some(dash) = fields.iter().position(|f| *f == "-") else { continue };
        let (Some(mount), Some(fstype)) = (fields.get(4), fields.get(dash + 1)) else { continue };
        if path.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), fstype.to_string()));
        }
    }
    best.map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

/// Reset the kernel's peak-RSS mark (`VmHWM`) to the current RSS, so the
/// next [`peak_rss_mb`] reading covers only what runs in between.  Returns
/// whether the reset took effect.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Hand the allocator's free heap memory back to the kernel, so that the
/// resident set a later [`reset_peak_rss`] starts from holds live data only,
/// not whatever memory earlier, dropped work left cached in the allocator
/// (which varies from run to run).
pub fn release_free_memory() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's `malloc_trim` only returns free chunks to the kernel;
    // it takes the allocator's own locks and touches no live allocation.
    unsafe { malloc_trim(0) };
}

/// Peak resident set size in MB (10^6 bytes) since start or the last
/// successful [`reset_peak_rss`]; 0 when `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// `struct timespec` of the C library.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// CPU seconds consumed by every thread of this process so far
/// (`CLOCK_PROCESS_CPUTIME_ID`): time the host ran our threads, excluding
/// time the hypervisor gave to other guests.
pub fn process_cpu_seconds() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `timespec` for the duration of the
    // call, and the clock id is a constant the kernel defines on Linux.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_is_read_and_covers_a_fresh_allocation() {
        reset_peak_rss();
        let before = peak_rss_mb();
        let block = vec![1u8; 64 << 20];
        std::hint::black_box(&block);
        assert!(peak_rss_mb() >= before + 60.0, "VmHWM did not see a 64 MiB allocation");
    }

    #[test]
    fn root_filesystem_is_known() {
        assert_ne!(filesystem_of(Path::new("/")), "unknown");
    }
}
