//! What the benchmark asks of the machine rather than of the program:
//! one CPU to run on, a reference kernel that tells a slow host phase
//! from a slow program, the peak resident set, and allocation counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Counts every heap allocation of the process (server threads and the
/// generator alike). `Relaxed`: the counters are statistics and publish
/// no other data.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// `(allocations, bytes requested)` since the process started.
pub fn alloc_counts() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

/// Room for 1024 CPUs, the size glibc's `cpu_set_t` has.
const MASK_WORDS: usize = 16;

extern "C" {
    // No `libc` crate is available offline; these are the glibc entry
    // points, declared with the types of their C prototypes (`pid_t` and
    // `int` = i32, `size_t` = usize, `cpu_set_t *` = a u64 array).
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

/// glibc's `M_ARENA_MAX`.
const M_ARENA_MAX: i32 = -8;

/// Keep the allocator to one arena. glibc gives threads arenas of their
/// own to avoid lock contention between cores; on the one core this
/// process runs on there is none to avoid, and which thread lands in
/// which arena made `VmHWM` of a 17 MiB workload move by 9 % between
/// identical runs (2 % with one arena). Returns whether it took.
pub fn single_malloc_arena() -> bool {
    // SAFETY: `mallopt` takes two plain integers and only sets a limit
    // inside the allocator; it is called before any thread is spawned.
    unsafe { mallopt(M_ARENA_MAX, 1) == 1 }
}

/// Pin the calling thread, and every thread it spawns afterwards, to
/// the highest-numbered CPU it may run on, leaving the others to the
/// rest of the machine. Returns the CPU, or `None` (and changes
/// nothing) when only one CPU is allowed or a call fails.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte
    // length passed; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 || mask.iter().map(|w| w.count_ones()).sum::<u32>() < 2 {
        return None;
    }
    let word = mask.iter().rposition(|&w| w != 0)?;
    let cpu = word * 64 + (63 - mask[word].leading_zeros() as usize);
    let mut one = [0u64; MASK_WORDS];
    one[word] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly the byte length passed
    // and is only read.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    (rc == 0).then_some(cpu)
}

/// The reference kernel: work that owns no code of this repository, so
/// its speed moves only with the host. About 3 ms.
pub struct HostProbe {
    buf: Vec<u8>,
    keys: Vec<String>,
}

impl HostProbe {
    pub fn new() -> HostProbe {
        HostProbe {
            buf: (0..2 << 20).map(|i| (i * 31 % 251) as u8).collect(),
            keys: (0..2000u32)
                .map(|i| format!("k{:08}", i.wrapping_mul(2_654_435_761)))
                .collect(),
        }
    }

    fn once(&self) -> f64 {
        let t0 = Instant::now();
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in &self.buf {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        let mut map = BTreeMap::new();
        for (i, k) in self.keys.iter().enumerate() {
            map.insert(k.clone(), i as u64);
        }
        for k in &self.keys {
            h = h.wrapping_add(map[k]);
        }
        std::hint::black_box(h);
        t0.elapsed().as_secs_f64() * 1e6
    }

    /// Best of three runs, microseconds.
    pub fn measure(&self) -> f64 {
        (0..3).map(|_| self.once()).fold(f64::INFINITY, f64::min)
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
