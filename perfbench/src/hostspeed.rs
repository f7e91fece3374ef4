//! Host-speed normalisation of the end-to-end times.
//!
//! The benchmark runs on two vCPUs of a shared host, where what other
//! tenants run on the same physical cores slows every instruction
//! stream. One `dna-long` run of one binary on one seed read 110 ms per
//! operation in its first minute and 200 ms four minutes later (Intel
//! Xeon KVM guest, 2 vCPUs); thread CPU time moved with wall time, so
//! the loss is slower execution, not time spent descheduled. The
//! interquartile range of ten runs' medians reached half the median.
//!
//! A fixed probe, the benchmark's own dynamic-programming row loop
//! compiled for the baseline target and, where the CPU has them, for
//! AVX2 and AVX-512 (the widths the program's scalar, affine and
//! vector kernels run at), is timed right before and right after each
//! timed operation. The operation's wall time is scaled by
//! [`REFERENCE_PROBE_MS`] over the mean of the two probe times: the
//! time the operation would have taken with the probe at its reference
//! speed. In runs of several minutes, the largest over the smallest
//! median of 20-s windows fell from 1.58 to 1.07 on `dna-long`, and
//! from 1.27 to 1.13 and from 1.96 to 1.21 in two `protein-affine`
//! runs. The probe shares no
//! code with the program, so a change to the program moves the
//! normalised time as it moves the wall time.

use std::time::Instant;

use crate::inputs::Rng;

/// The probe's time on a quiet host, ms: the fastest probes of
/// several-minute runs on the Intel Xeon (AVX-512) KVM guest above took
/// 5.3–5.4 ms, and at that speed a `dna-long` operation takes about its
/// quickest wall time, 107 ms. It only sets the scale: normalised times
/// are milliseconds at this probe speed, and compare between runs on
/// one CPU type.
pub const REFERENCE_PROBE_MS: f64 = 5.4;

/// Columns of the probe's rows and rows per pass.
const PROBE_COLS: usize = 4096;
const PROBE_ROWS: usize = 2500;

/// One pass of the probe at every vector width the CPU has, on the
/// calling thread, ms.
pub fn probe_ms() -> f64 {
    let mut rng = Rng::new(0x5EED);
    let b: Vec<i32> = (0..PROBE_COLS)
        .map(|_| (rng.next_u64() % 4) as i32)
        .collect();
    let t = Instant::now();
    std::hint::black_box(rows_baseline(std::hint::black_box(&b)));
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the CPU reports AVX2, the only feature
            // `rows_avx2` is compiled for.
            std::hint::black_box(unsafe { rows_avx2(std::hint::black_box(&b)) });
        }
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512bw")
        {
            // SAFETY: the CPU reports AVX-512F and AVX-512BW, the only
            // features `rows_avx512` is compiled for.
            std::hint::black_box(unsafe { rows_avx512(std::hint::black_box(&b)) });
        }
    }
    t.elapsed().as_secs_f64() * 1e3
}

/// `ms` measured between probes that took `before` and `after` ms,
/// scaled to the reference probe speed.
pub fn normalise(ms: f64, before: f64, after: f64) -> f64 {
    ms * REFERENCE_PROBE_MS / ((before + after) / 2.0)
}

#[inline(never)]
fn rows_baseline(b: &[i32]) -> i32 {
    rows(b)
}

/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline(never)]
unsafe fn rows_avx2(b: &[i32]) -> i32 {
    rows(b)
}

/// # Safety
///
/// The CPU must support AVX-512F and AVX-512BW.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw")]
#[inline(never)]
unsafe fn rows_avx512(b: &[i32]) -> i32 {
    rows(b)
}

/// [`PROBE_ROWS`] rows of a match/mismatch DP without the left
/// dependency, so the compiler vectorises the row at the width its
/// caller is compiled for.
#[inline(always)]
fn rows(b: &[i32]) -> i32 {
    let n = b.len();
    let mut h: Vec<i32> = (0..=n as i32).collect();
    let mut g = vec![0i32; n + 1];
    for i in 0..PROBE_ROWS {
        let x = (i % 4) as i32;
        for j in 0..n {
            let s = if b[j] == x { 2 } else { -1 };
            g[j] = (h[j] + s).max(h[j + 1] - 1);
        }
        std::mem::swap(&mut h, &mut g);
    }
    h[n / 2]
}
