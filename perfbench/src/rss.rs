//! Process high-water resident set size over a phase.
//!
//! Linux keeps the peak in `VmHWM` of `/proc/self/status`; writing `5`
//! to `/proc/self/clear_refs` resets it to the current RSS. A phase
//! starts by returning the heap's free pages to the operating system and
//! resetting the peak, so what set-up and the reference computations
//! freed but the allocator kept is not counted. Where the reset is
//! refused the peak covers the process so far, which can only read high.

/// Fixes glibc's mmap threshold at its initial 128 KiB. By default glibc
/// raises the threshold to the size of each mapped block it frees, so
/// whether an operation's large buffers are fresh mappings or stay on
/// the heap depends on the sizes freed before, and the high-water mark
/// of one workload moved between 15.3 and 18.6 MiB with the pair lengths
/// a seed drew. Fixed, every buffer of 128 KiB or more is mapped when
/// allocated and unmapped when freed, so the mark follows live memory.
pub fn fix_mmap_threshold() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: glibc's `mallopt` takes two plain integers and only
        // sets the allocator's own tuning parameters; it is called once,
        // before any other thread of the benchmark starts.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 128 * 1024);
        }
    }
}

/// Returns free heap pages to the operating system.
fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` takes a plain integer, touches
        // only the allocator's own free lists, and may be called at any
        // time from any thread.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Trims the heap and resets the high-water mark to the current
/// resident size: the start of a measured phase.
pub fn start_phase() {
    trim_heap();
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The high-water resident set size in MiB since the last reset.
pub fn peak_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
