//! Fails with: E0499
//!
//! Beside the rejected sharing: each task builds its own stream, seeded
//! from the run's seed and the task's index.
use anu_des::{task_seed, RngStream};

/// One stream drawn by every worker: draw order would depend on scheduling.
pub fn shared(seed: u64) {
    let mut shared = RngStream::new(seed, "arrivals");
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| shared.uniform());
        }
    });
}

/// One stream per task, made inside the task.
pub fn per_task(seed: u64) {
    std::thread::scope(|s| {
        for task in 0..2 {
            s.spawn(move || {
                let mut own = RngStream::new(task_seed(seed, task), "arrivals");
                own.uniform()
            });
        }
    });
}
