//! Random streams: a stream shared across tasks would make draw order
//! depend on scheduling. `anu_des::RngStream` is not `Copy` and draws
//! through `&mut self`, so the borrow checker refuses the sharing.

#[cfg(feature = "rng_shared")]
pub mod rng_shared;

#[cfg(test)]
mod tests {
    use crate::tests::rejects;

    #[test]
    fn shared_stream_across_scope_is_flagged() {
        rejects("rng/rng_shared").flags("s.spawn(|| shared.uniform())");
    }

    #[test]
    fn per_task_stream_inside_scope_passes() {
        rejects("rng/rng_shared")
            .accepts("s.spawn(move || {")
            .accepts("own.uniform()");
    }

    #[test]
    fn seed_derived_streams_pass() {
        rejects("rng/rng_shared").accepts("let mut own = RngStream::new(task_seed(seed, task)");
    }
}
