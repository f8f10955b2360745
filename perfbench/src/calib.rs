//! Host-speed correction: timings at a reference host speed.
//!
//! The machine the benchmark runs on is a VM on a shared host, and its
//! speed moves by up to ~2x over seconds to minutes, in two ways.
//!
//! - The host takes the vCPU away for a while (steal). Wall-clock time
//!   counts those gaps; the thread's CPU time does not, because the guest
//!   kernel accounts steal apart. Computing segments are therefore timed
//!   by [`thread_cpu_s`]: a loop that took 4.6 ms of CPU time every time
//!   took 4.6 to 16.6 ms of wall-clock time.
//! - While it runs, the vCPU is slower when neighbours load the caches
//!   and memory it shares. A chain of dependent arithmetic keeps its
//!   speed, but work that probes tables and walks memory, which is most
//!   of what the program does, does not.
//!
//! For the second, [`Kernel`] is a fixed piece of such work that calls
//! none of the repository's code and never allocates: a hash-map build
//! and probe in a preallocated table, a pointer chase through a 256 KiB
//! ring and a sort of a preallocated buffer. Because it does not
//! allocate, the program's heap cannot change its speed (a kernel that
//! allocated ran 30% slower after a fragmenting workload, which would
//! have let a change in the program's memory use move the correction).
//! [`HostClock`] runs it between ops, never inside a timed span, and
//! rescales every computing segment by `REFERENCE_NS / k`, where `k` is
//! the median of the last few readings. A segment is thereby reported as
//! the CPU time it would take on a host where the kernel takes
//! [`REFERENCE_NS`]. A change to the program does not touch the kernel,
//! so it still moves the figures in full; a change in the host's speed
//! moves the kernel too and cancels. Segments that wait on the disk keep
//! their wall-clock time.

use std::collections::{HashMap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

/// Hash-map entries built and probed per kernel run.
const MAP_LEN: u64 = 1_000;
/// Entries of the pointer-chase ring (256 KiB of `u32`).
const RING_LEN: usize = 1 << 16;
/// Pointer-chase steps per kernel run.
const CHASE_STEPS: usize = 8_000;
/// Keys sorted per kernel run.
const SORT_LEN: u64 = 2_048;
/// Kernel runs before the first reading, so its data is in cache.
const WARM_UP: usize = 16;
/// Readings the current host speed is the median of.
const WINDOW: usize = 7;

/// Kernel nanoseconds at the reference host speed: a round figure near
/// the kernel's usual time (140-165 µs) on the 2-vCPU host the first
/// baseline was taken on, so corrected figures read close to wall-clock
/// ones there.
pub const REFERENCE_NS: f64 = 150_000.0;

/// The fixed reference kernel and its preallocated data.
#[derive(Debug)]
pub struct Kernel {
    map: HashMap<u64, u64>,
    ring: Vec<u32>,
    keys: Vec<u64>,
}

impl Kernel {
    /// Allocates the kernel's data once: the table, a single-cycle ring
    /// and the sort buffer.
    pub fn new() -> Self {
        let mut order: Vec<u32> = (0..RING_LEN as u32).collect();
        let mut x: u64 = 5;
        for i in (1..RING_LEN).rev() {
            x = splitmix(x);
            order.swap(i, (x % (i as u64 + 1)) as usize);
        }
        let mut ring = vec![0u32; RING_LEN];
        for w in 0..RING_LEN {
            ring[order[w] as usize] = order[(w + 1) % RING_LEN];
        }
        Self {
            map: HashMap::with_capacity(2 * MAP_LEN as usize),
            ring,
            keys: Vec::with_capacity(SORT_LEN as usize),
        }
    }

    /// Runs the kernel once and returns its nanoseconds of thread CPU
    /// time.
    pub fn run_ns(&mut self) -> f64 {
        let start = thread_cpu_s();
        self.map.clear();
        let mut x = 1;
        for i in 0..MAP_LEN {
            x = splitmix(x);
            self.map.insert(x, i);
        }
        let mut y = 1;
        let mut acc = 0u64;
        for _ in 0..MAP_LEN {
            y = splitmix(y);
            acc = acc.wrapping_add(self.map[&y]);
        }
        let mut at = 0u32;
        for _ in 0..CHASE_STEPS {
            at = self.ring[at as usize];
        }
        acc = acc.wrapping_add(u64::from(at));
        self.keys.clear();
        self.keys.extend((0..SORT_LEN).map(|i| splitmix(i ^ acc)));
        self.keys.sort_unstable();
        black_box(acc.wrapping_add(self.keys[0]));
        (thread_cpu_s() - start) * 1e9
    }
}

impl Default for Kernel {
    fn default() -> Self {
        Self::new()
    }
}

/// Seconds of one timed span: as measured and at reference speed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lap {
    /// Wall-clock seconds.
    pub raw_s: f64,
    /// Seconds at the reference host speed.
    pub ref_s: f64,
}

/// A stopwatch for one thread's ops. It reads the kernel at every start,
/// split and stop and leaves the kernel's own time out of what it
/// measures. A segment that computes is timed by the thread's CPU time
/// and rescaled by the kernel; a segment that waits on the disk is timed
/// by the wall clock and left as it is.
#[derive(Debug)]
pub struct HostClock {
    kernel: Kernel,
    recent: VecDeque<f64>,
    wall: Instant,
    cpu_s: f64,
    lap: Lap,
    readings: Vec<f64>,
}

impl HostClock {
    /// A clock with a warmed-up kernel.
    pub fn new() -> Self {
        let mut kernel = Kernel::new();
        for _ in 0..WARM_UP {
            kernel.run_ns();
        }
        Self {
            kernel,
            recent: VecDeque::with_capacity(WINDOW),
            wall: Instant::now(),
            cpu_s: thread_cpu_s(),
            lap: Lap {
                raw_s: 0.0,
                ref_s: 0.0,
            },
            readings: Vec::new(),
        }
    }

    /// Runs the kernel twice and records the nanoseconds of the second
    /// run. The first run brings the kernel's data back into cache after
    /// an op evicted it; timed cold, the kernel would measure the op's
    /// footprint rather than the host.
    pub fn reading(&mut self) {
        self.kernel.run_ns();
        let k = self.kernel.run_ns();
        if self.recent.len() == WINDOW {
            self.recent.pop_front();
        }
        self.recent.push_back(k);
        self.readings.push(k);
    }

    /// Reference seconds per CPU second at the host's current speed:
    /// `REFERENCE_NS` over the median of the last few readings, so one
    /// disturbed reading does not move it.
    pub fn factor(&self) -> f64 {
        let recent: Vec<f64> = self.recent.iter().copied().collect();
        REFERENCE_NS / crate::stats::median(&recent).max(1.0)
    }

    /// Reads the kernel and starts a new lap.
    pub fn start(&mut self) {
        self.lap = Lap {
            raw_s: 0.0,
            ref_s: 0.0,
        };
        self.reading();
        self.open();
    }

    /// Closes a computing segment of the lap, reads the kernel, and opens
    /// the next segment: a long op split at its stage boundaries follows
    /// the host's speed through the op.
    pub fn split(&mut self) {
        let (wall, cpu) = self.close();
        self.reading();
        self.lap.raw_s += wall;
        self.lap.ref_s += cpu * self.factor();
        self.open();
    }

    /// Closes a segment that waited on the disk, timed by the wall clock
    /// and not rescaled, and opens the next segment.
    pub fn split_waiting(&mut self) {
        let (wall, _) = self.close();
        self.lap.raw_s += wall;
        self.lap.ref_s += wall;
        self.open();
    }

    /// Closes the lap, whose last segment computed, and returns it.
    pub fn stop(&mut self) -> Lap {
        self.split();
        self.lap
    }

    /// Every kernel reading so far, in nanoseconds.
    pub fn readings(&self) -> &[f64] {
        &self.readings
    }

    fn open(&mut self) {
        self.wall = Instant::now();
        self.cpu_s = thread_cpu_s();
    }

    /// The open segment's wall-clock and CPU seconds.
    fn close(&self) -> (f64, f64) {
        (
            self.wall.elapsed().as_secs_f64(),
            thread_cpu_s() - self.cpu_s,
        )
    }
}

impl Default for HostClock {
    fn default() -> Self {
        Self::new()
    }
}

/// The calling thread's CPU time in seconds. The guest kernel accounts
/// paravirtual steal time apart (`CONFIG_PARAVIRT_TIME_ACCOUNTING`), so
/// this leaves out the time the host ran someone else on the vCPU, which
/// wall-clock time does not.
pub fn thread_cpu_s() -> f64 {
    cpu_clock_s(3)
}

/// The CPU time of every thread of this process, in seconds, with steal
/// left out as in [`thread_cpu_s`].
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(2)
}

/// Wall-clock seconds of a run whose work passed from thread to thread,
/// rescaled to the reference host speed. Of the time of the run's chains
/// of work (a closed loop's clients), the share `computed` went to this
/// process's threads, `stolen` to the host, and the rest to waiting (on
/// the disk, on wake-ups). Computing time is rescaled by `factor`, stolen
/// time is dropped, and the rest is kept as it is.
pub fn shared_scale(computed: f64, stolen: f64, factor: f64) -> f64 {
    let computed = computed.clamp(0.0, 1.0);
    computed * factor + (1.0 - computed - stolen.clamp(0.0, 1.0)).max(0.0)
}

/// Seconds on the POSIX clock `id` (2: this process's CPU time, 3: the
/// calling thread's).
#[cfg(target_os = "linux")]
fn cpu_clock_s(id: i32) -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(id, &mut ts) };
    assert_eq!(rc, 0, "the CPU clock is readable");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Elsewhere, wall-clock seconds since the first call.
#[cfg(not(target_os = "linux"))]
fn cpu_clock_s(_id: i32) -> f64 {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64()
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
