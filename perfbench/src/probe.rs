//! Readings of the process and the machine from `/proc`: CPU time,
//! peak memory, runnable threads, steal time, and a fixed calibration
//! loop. They turn a disturbed run into a visible one instead of a
//! silent regression.

use std::sync::atomic::{AtomicBool, AtomicI32, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Instant;

/// Clock ticks per second of the `/proc` CPU-time fields (`USER_HZ`,
/// fixed at 100 by the Linux user-space ABI).
const USER_HZ: f64 = 100.0;

/// Thread id of the running [`IdleFiller`], 0 when there is none.
static FILLER_TID: AtomicI32 = AtomicI32::new(0);

/// Process CPU time (user + system, every thread, exited ones too) in
/// microseconds, from `/proc/self/stat`, less the [`IdleFiller`]'s.
pub fn process_cpu_us() -> f64 {
    let all = stat_cpu_us("/proc/self/stat");
    match FILLER_TID.load(Ordering::Relaxed) {
        0 => all,
        tid => all - stat_cpu_us(&format!("/proc/self/task/{tid}/stat")),
    }
}

/// User + system time of a `/proc` `stat` file, in microseconds.
fn stat_cpu_us(path: &str) -> f64 {
    let Ok(text) = std::fs::read_to_string(path) else {
        return 0.0;
    };
    // The command name may hold spaces; fields restart after its ')'.
    let Some(rest) = text.rsplit_once(')').map(|(_, rest)| rest) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After ')' the state is field 3, so utime (14) and stime (15) sit
    // at offsets 11 and 12.
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) / USER_HZ * 1e6
}

/// A `kB` field of `/proc/self/status`, e.g. `VmHWM` or `Threads`.
fn status_field(name: &str) -> u64 {
    let Ok(text) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    text.lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set size (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM") as f64 / 1024.0
}

/// Threads this process currently has.
pub fn process_threads() -> u64 {
    status_field("Threads")
}

/// Machine-wide scheduler counters from `/proc/stat`.
#[derive(Clone, Copy, Debug, Default)]
pub struct MachineStat {
    /// Cumulative steal ticks over all CPUs.
    pub steal_ticks: u64,
    /// Threads runnable right now, machine-wide.
    pub procs_running: u64,
}

/// Reads [`MachineStat`].
pub fn machine_stat() -> MachineStat {
    let Ok(text) = std::fs::read_to_string("/proc/stat") else {
        return MachineStat::default();
    };
    let mut stat = MachineStat::default();
    for line in text.lines() {
        let mut fields = line.split_whitespace();
        match fields.next() {
            // cpu user nice system idle iowait irq softirq steal ...
            Some("cpu") => {
                stat.steal_ticks = fields.nth(7).and_then(|f| f.parse().ok()).unwrap_or(0)
            }
            Some("procs_running") => {
                stat.procs_running = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0)
            }
            _ => {}
        }
    }
    stat
}

/// Words of a kernel CPU mask as glibc sizes it (`CPU_SETSIZE` = 1024).
const CPU_SET_WORDS: usize = 1024 / 64;

/// `struct sched_param`.
#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

/// The Linux scheduling policy that runs a thread only when no other
/// thread wants its CPU.
const SCHED_IDLE: i32 = 5;

extern "C" {
    // glibc; the standard library links it on every Linux target.
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    fn gettid() -> i32;
}

/// A thread that keeps the pinned CPU from going idle. When every
/// other thread of the run waits (between a response and the next
/// request there are such gaps), an idle vCPU halts, and on a shared
/// host the hypervisor may run another guest on the core before it
/// wakes this one, so the next request pays a wake-up and a cold
/// cache that depend on the neighbours. The filler spins at
/// `SCHED_IDLE` priority instead: it runs only when nothing else of
/// the run wants the CPU, and any waking thread takes the CPU from it
/// at once. Its CPU time is left out of [`process_cpu_us`].
pub struct IdleFiller {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl IdleFiller {
    /// Starts the filler on the calling thread's CPUs.
    pub fn start() -> std::io::Result<IdleFiller> {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let (started, tid) = mpsc::channel();
        let thread = std::thread::Builder::new()
            .name("idle-filler".to_string())
            .spawn(move || {
                let param = SchedParam { sched_priority: 0 };
                // SAFETY: `param` is a valid `struct sched_param`; pid 0
                // names the calling thread. `gettid` cannot fail.
                let result = if unsafe { sched_setscheduler(0, SCHED_IDLE, &param) } == 0 {
                    Ok(unsafe { gettid() })
                } else {
                    Err(std::io::Error::last_os_error())
                };
                let ok = result.is_ok();
                let _ = started.send(result);
                // Plain arithmetic, no `spin_loop` hint: a hypervisor
                // may take a vCPU that keeps pausing for a lock waiter
                // and yield its core, the very wait this avoids.
                let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
                while ok && !flag.load(Ordering::Relaxed) {
                    for _ in 0..1_000 {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                    }
                    std::hint::black_box(x);
                }
            })?;
        let mut filler = IdleFiller {
            stop,
            thread: Some(thread),
        };
        match tid.recv() {
            Ok(Ok(tid)) => {
                FILLER_TID.store(tid, Ordering::Relaxed);
                Ok(filler)
            }
            Ok(Err(e)) => {
                filler.stop();
                Err(e)
            }
            Err(_) => {
                filler.stop();
                Err(std::io::Error::other("idle filler did not start"))
            }
        }
    }

    /// Stops the filler and waits for its thread to end.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
        FILLER_TID.store(0, Ordering::Relaxed);
    }
}

impl Drop for IdleFiller {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Pins the calling thread, and so every thread it starts afterwards,
/// to the highest-numbered CPU it may run on; returns that CPU and how
/// many it could run on before.
///
/// On a shared VM a vCPU that halts waits for the host to run it again.
/// A closed loop whose client and server sit on different vCPUs hands
/// every request across them, pays that wait twice per op, and the wait
/// swings with the neighbours' load. On one CPU the handoff is a local
/// context switch.
pub fn pin_to_one_cpu() -> std::io::Result<(usize, usize)> {
    let mut mask = [0u64; CPU_SET_WORDS];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of `size` bytes; pid 0 names
    // the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    let allowed: Vec<usize> = (0..CPU_SET_WORDS * 64)
        .filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect();
    let Some(&cpu) = allowed.last() else {
        return Err(std::io::Error::other("empty CPU mask"));
    };
    let mut one = [0u64; CPU_SET_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of `size` bytes; pid 0 names
    // the calling thread.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok((cpu, allowed.len()))
}

/// CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Milliseconds a fixed integer loop takes. The loop is the same on
/// every commit, so a change in its time is the machine, not the code.
pub fn calibration_ms() -> f64 {
    let start = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc: u64 = 0;
    for _ in 0..20_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x);
    }
    std::hint::black_box(acc);
    start.elapsed().as_secs_f64() * 1e3
}

/// The machine's state around one measured window.
#[derive(Clone, Debug, Default)]
pub struct Environment {
    /// Calibration loop before the window, ms.
    pub calibration_before_ms: f64,
    /// Calibration loop after the window, ms.
    pub calibration_after_ms: f64,
    /// Steal ticks accrued during the window, machine-wide.
    pub steal_ticks: u64,
    /// Highest machine-wide runnable-thread count sampled in the window.
    pub peak_runnable: u64,
    /// This process's thread count at the end of the window.
    pub threads: u64,
}

impl Environment {
    /// One diagnostics line (printed, never counted as a metric).
    pub fn line(&self) -> String {
        format!(
            "env: nproc={} peak_runnable={} process_threads={} steal_ticks={} \
             calibration_ms={:.1}->{:.1}",
            nproc(),
            self.peak_runnable,
            self.threads,
            self.steal_ticks,
            self.calibration_before_ms,
            self.calibration_after_ms
        )
    }
}
