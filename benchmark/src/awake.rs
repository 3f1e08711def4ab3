//! Keeping the virtual CPUs awake during a served phase.
//!
//! A request through `vp-server` is a chain of four thread wake-ups and
//! one 200 µs timer. On a virtual machine, waking a thread whose vCPU
//! has halted costs tens of microseconds more than waking one whose
//! vCPU is running, and the hypervisor's adaptive halt polling makes
//! that cost sticky: whole runs of `serve_mixed` landed at a median
//! round trip of ≈ 420 µs or of ≈ 600 µs on the same code and seed.
//! That is the host's idle policy, not the product.
//!
//! So for the length of a served phase one thread per CPU spins under
//! `SCHED_IDLE`: it runs only when the CPU would otherwise go idle, and
//! anything else that becomes runnable preempts it at once, so it takes
//! no time from the server or the generator — it only keeps the vCPU
//! from halting. With it the same workload reads 338–354 µs run after
//! run. If the scheduling class cannot be set the spinner does not run
//! (it would steal time at normal priority) and the provenance says so.

use std::hint::spin_loop;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

/// Linux `SCHED_IDLE`.
const SCHED_IDLE: i32 = 5;

extern "C" {
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

/// Moves the calling thread to `SCHED_IDLE`; false if the kernel
/// refused.
fn demote_current_thread() -> bool {
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: `sched_setscheduler` reads one `sched_param` through the
    // pointer, which refers to a live, properly aligned `#[repr(C)]`
    // struct of the layout the C library declares (a single int); pid 0
    // names the calling thread. It has no other memory effects.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &param) == 0 }
}

pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    spinning: Arc<AtomicUsize>,
    threads: Vec<JoinHandle<()>>,
}

impl KeepAwake {
    /// Starts one idle-class spinner per available CPU.
    pub fn start() -> KeepAwake {
        let stop = Arc::new(AtomicBool::new(false));
        let spinning = Arc::new(AtomicUsize::new(0));
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let threads = (0..cpus)
            .map(|_| {
                let stop = Arc::clone(&stop);
                let spinning = Arc::clone(&spinning);
                std::thread::spawn(move || {
                    if !demote_current_thread() {
                        return;
                    }
                    spinning.fetch_add(1, Ordering::Relaxed);
                    // `stop` publishes nothing else; it is only a flag.
                    while !stop.load(Ordering::Relaxed) {
                        for _ in 0..64 {
                            spin_loop();
                        }
                    }
                })
            })
            .collect();
        KeepAwake {
            stop,
            spinning,
            threads,
        }
    }

    /// Spinners that actually run (0 when `SCHED_IDLE` was refused).
    pub fn spinners(&self) -> usize {
        self.spinning.load(Ordering::Relaxed)
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            // A spinner cannot panic; nothing to report from `Drop`.
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn spinners_yield_to_real_work_and_stop_on_drop() {
        let awake = KeepAwake::start();
        std::thread::sleep(Duration::from_millis(20));
        let n = awake.spinners();
        // Real work still gets a CPU at once: a busy loop of fixed
        // length takes about as long as it does alone.
        let work = || {
            let t0 = Instant::now();
            let mut x = 0u64;
            for i in 0..20_000_000u64 {
                x = std::hint::black_box(x.wrapping_add(i));
            }
            t0.elapsed()
        };
        let with = work();
        drop(awake);
        let without = work();
        assert!(
            with < without * 3 + Duration::from_millis(50),
            "{n} idle-class spinners starved real work: {with:?} vs {without:?}"
        );
    }
}
