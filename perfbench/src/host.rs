//! Host context recorded next to every run's numbers (not gated): the
//! CPU steal share over the run, and two fixed reference kernels timed at
//! its start and end, so drift of the machine itself is visible. The
//! register-only kernel sees lost CPU time; the memory kernel also sees
//! other tenants contending for the shared cache and memory, which moves
//! allocation-heavy workloads while the register-only kernel holds.

use std::hint::black_box;
use std::time::Instant;

/// `(steal, total)` jiffies summed over all CPUs, from `/proc/stat`.
fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal ...
    let steal = *fields.get(7)?;
    Some((steal, fields.iter().take(8).sum()))
}

/// A register-only loop with a fixed iteration count: its wall time
/// moves only when the host gives this process less CPU.
fn reference_kernel_ms() -> f64 {
    let t = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15_u64);
    for _ in 0..black_box(20_000_000u32) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    t.elapsed().as_secs_f64() * 1e3
}

/// A dependent-load chase through a fixed 16 MiB single-cycle
/// permutation; only the chase is timed.
fn memory_kernel_ms() -> f64 {
    const SLOTS: usize = 1 << 22;
    const STEPS: usize = 1 << 20;
    let mut next: Vec<u32> = (0..SLOTS as u32).collect();
    // Sattolo's shuffle with a fixed seed: one cycle through every slot.
    let mut x = 0x2545_F491_4F6C_DD1D_u64;
    for i in (1..SLOTS).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        next.swap(i, (x % i as u64) as usize);
    }
    let t = Instant::now();
    let mut at = 0usize;
    for _ in 0..STEPS {
        at = next[at] as usize;
    }
    black_box(at);
    t.elapsed().as_secs_f64() * 1e3
}

/// Host readings taken at the start of a run.
pub struct HostProbe {
    jiffies: Option<(u64, u64)>,
    kernel_ms_start: f64,
    mem_kernel_ms_start: f64,
}

impl HostProbe {
    /// Read the steal counters and time both reference kernels.
    #[must_use]
    pub fn start() -> HostProbe {
        HostProbe {
            jiffies: cpu_jiffies(),
            kernel_ms_start: reference_kernel_ms(),
            mem_kernel_ms_start: memory_kernel_ms(),
        }
    }

    /// Close the probe: one JSON object with the steal share over the
    /// run (null where `/proc/stat` is unreadable) and the kernel times.
    #[must_use]
    pub fn finish(self) -> String {
        let kernel_ms_end = reference_kernel_ms();
        let mem_kernel_ms_end = memory_kernel_ms();
        let steal = match (self.jiffies, cpu_jiffies()) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
                format!("{}", (s1 - s0) as f64 / (t1 - t0) as f64)
            }
            _ => "null".to_string(),
        };
        let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        format!(
            "{{\"host\": {{\"available_parallelism\": {cpus}, \"steal_frac\": {steal}, \
             \"ref_kernel_ms_start\": {}, \"ref_kernel_ms_end\": {kernel_ms_end}, \
             \"mem_kernel_ms_start\": {}, \"mem_kernel_ms_end\": {mem_kernel_ms_end}}}}}",
            self.kernel_ms_start, self.mem_kernel_ms_start
        )
    }
}
