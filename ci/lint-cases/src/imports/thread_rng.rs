//! Fails with: cannot find module or crate `rand`
/// Draws ambient entropy from a crate the lockfile does not hold.
pub fn entropy() {
    let _r = rand::thread_rng();
}
