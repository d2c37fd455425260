//! Concurrency utilities: cache-line padding and exponential backoff.

use std::ops::{Deref, DerefMut};

/// Pads and aligns `T` to 128 bytes to avoid false sharing between
/// adjacent hot fields (two cache lines, matching upstream's choice for
/// x86-64's adjacent-line prefetcher).
#[derive(Clone, Copy, Default, PartialEq, Eq)]
#[repr(align(128))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Wraps `value` in padding.
    pub const fn new(value: T) -> Self {
        CachePadded { value }
    }

    /// Unwraps the padded value.
    pub fn into_inner(self) -> T {
        self.value
    }
}

impl<T> Deref for CachePadded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for CachePadded<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("CachePadded").field(&self.value).finish()
    }
}

impl<T> From<T> for CachePadded<T> {
    fn from(value: T) -> Self {
        CachePadded::new(value)
    }
}

const SPIN_LIMIT: u32 = 6;
const YIELD_LIMIT: u32 = 10;

/// Exponential backoff for contended retry loops: spin a few rounds, then
/// start yielding the thread's timeslice.
///
/// Like upstream, all methods take `&self`: the step counter lives in a
/// `Cell` so a backoff can be bumped from within closures that only
/// capture it by shared reference.
#[derive(Debug, Default)]
pub struct Backoff {
    step: std::cell::Cell<u32>,
}

impl Backoff {
    /// Creates a fresh backoff counter.
    pub fn new() -> Self {
        Backoff { step: std::cell::Cell::new(0) }
    }

    /// Resets the counter to the spinning phase.
    pub fn reset(&self) {
        self.step.set(0);
    }

    /// Backs off in a tight retry loop (pure spinning, no yields).
    pub fn spin(&self) {
        // Under the model checker a backoff iteration is a scheduling
        // point: the simulated thread parks until another thread stores,
        // instead of burning simulated steps re-reading the same state.
        #[cfg(rsched_model)]
        rsched_sync::spin_wait();
        #[cfg(not(rsched_model))]
        {
            for _ in 0..1u32 << self.step.get().min(SPIN_LIMIT) {
                std::hint::spin_loop();
            }
        }
        if self.step.get() <= SPIN_LIMIT {
            self.step.set(self.step.get() + 1);
        }
    }

    /// Backs off in a blocking loop: spins while cheap, yields once the
    /// exponent passes the spin limit.
    pub fn snooze(&self) {
        // See `spin`: a snooze is a park-until-store point in the model.
        #[cfg(rsched_model)]
        rsched_sync::spin_wait();
        #[cfg(not(rsched_model))]
        {
            if self.step.get() <= SPIN_LIMIT {
                for _ in 0..1u32 << self.step.get() {
                    std::hint::spin_loop();
                }
            } else {
                std::thread::yield_now();
            }
        }
        if self.step.get() <= YIELD_LIMIT {
            self.step.set(self.step.get() + 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_padded_is_transparent() {
        let p = CachePadded::new(41u64);
        assert_eq!(*p, 41);
        assert_eq!(std::mem::align_of::<CachePadded<u8>>(), 128);
        assert_eq!(p.into_inner(), 41);
    }

    #[test]
    fn backoff_saturates_and_resets() {
        let b = Backoff::new();
        for _ in 0..32 {
            b.snooze();
        }
        assert_eq!(b.step.get(), YIELD_LIMIT + 1);
        b.reset();
        assert_eq!(b.step.get(), 0);
    }
}
