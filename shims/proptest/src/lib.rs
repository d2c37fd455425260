//! Offline stand-in for the subset of the `proptest` 1.x API used by this
//! workspace: the [`proptest!`] macro with `#![proptest_config(..)]`,
//! `arg in strategy` bindings, [`prop_assert!`]/[`prop_assert_eq!`]/
//! [`prop_assume!`], integer-range and tuple strategies, [`prelude::any`],
//! [`collection::vec`], and [`strategy::Strategy::prop_map`]/
//! [`strategy::Strategy::prop_flat_map`] composition.
//!
//! **Shrinking is not implemented.** On failure the offending case's
//! values are printed (via the assertion message) but not minimised. Case
//! generation is deterministic: the RNG seed is derived from the test
//! name, so failures reproduce across runs. Override the number of cases
//! with `ProptestConfig::with_cases` exactly as upstream.

#![warn(missing_docs)]

/// Test-runner plumbing: configuration, RNG and case-level errors.
pub mod test_runner {
    /// Number of cases to run and rejection budget.
    #[derive(Debug, Clone)]
    pub struct Config {
        /// How many accepted cases each test must execute.
        pub cases: u32,
    }

    impl Config {
        /// A config running `cases` accepted cases per test.
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 64 }
        }
    }

    /// Why a single generated case did not pass.
    #[derive(Debug)]
    pub enum TestCaseError {
        /// An assertion failed; the whole test fails.
        Fail(String),
        /// `prop_assume!` filtered the case out; it is re-drawn.
        Reject(String),
    }

    /// Result type produced by a generated case.
    pub type TestCaseResult = Result<(), TestCaseError>;

    /// Deterministic splittable generator for case generation
    /// (SplitMix64; quality is ample for test-case synthesis).
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seeds deterministically from the test's name.
        pub fn deterministic(name: &str) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            TestRng { state: h }
        }

        /// Next pseudo-random word.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform value in `0..bound` (`bound > 0`).
        pub fn below(&mut self, bound: u64) -> u64 {
            debug_assert!(bound > 0);
            let threshold = bound.wrapping_neg() % bound;
            loop {
                let m = (self.next_u64() as u128) * (bound as u128);
                if (m as u64) >= threshold {
                    return (m >> 64) as u64;
                }
            }
        }
    }
}

/// Value-generation strategies and combinators.
pub mod strategy {
    use super::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// A recipe for generating values of `Self::Value`.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;

        /// Transforms generated values with `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        /// Chains into a dependent strategy produced by `f`.
        fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            S: Strategy,
            F: Fn(Self::Value) -> S,
        {
            FlatMap { inner: self, f }
        }
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;

        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            (**self).sample(rng)
        }
    }

    /// See [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;

        fn sample(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.sample(rng))
        }
    }

    /// See [`Strategy::prop_flat_map`].
    #[derive(Debug, Clone)]
    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S, S2, F> Strategy for FlatMap<S, F>
    where
        S: Strategy,
        S2: Strategy,
        F: Fn(S::Value) -> S2,
    {
        type Value = S2::Value;

        fn sample(&self, rng: &mut TestRng) -> S2::Value {
            (self.f)(self.inner.sample(rng)).sample(rng)
        }
    }

    /// A strategy that always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn sample(&self, _: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! impl_range_strategies {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;

                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as u64).wrapping_sub(self.start as u64);
                    self.start + rng.below(span) as $t
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;

                fn sample(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi as u64).wrapping_sub(lo as u64).wrapping_add(1);
                    if span == 0 {
                        return rng.next_u64() as $t;
                    }
                    lo + rng.below(span) as $t
                }
            }
        )*};
    }

    impl_range_strategies!(u8, u16, u32, u64, usize);

    macro_rules! impl_tuple_strategy {
        ($(($($s:ident / $idx:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);

                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.sample(rng),)+)
                }
            }
        )*};
    }

    impl_tuple_strategy! {
        (S0/0)
        (S0/0, S1/1)
        (S0/0, S1/1, S2/2)
        (S0/0, S1/1, S2/2, S3/3)
    }

    /// Full-domain strategy for `T`, as returned by [`any`].
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Any<T>(std::marker::PhantomData<T>);

    /// Types with a canonical full-domain strategy.
    pub trait Arbitrary: Sized {
        /// Draws one arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> Self {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.next_u64() & 1 == 1
        }
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;

        fn sample(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The full-domain strategy for `T` (mirror of `proptest::prelude::any`).
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(std::marker::PhantomData)
    }
}

/// Collection strategies.
pub mod collection {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// Inclusive bounds on a generated collection's length.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange { lo: r.start, hi: r.end - 1 }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty size range");
            SizeRange { lo: *r.start(), hi: *r.end() }
        }
    }

    /// Strategy for `Vec<S::Value>` with length drawn from a [`SizeRange`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64 + 1;
            let len = self.size.lo + rng.below(span.max(1)) as usize;
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// A strategy producing vectors of `element` values (mirror of
    /// `proptest::collection::vec`).
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }
}

/// Everything a test module usually imports.
pub mod prelude {
    pub use super::collection;
    pub use super::strategy::{any, Any, Arbitrary, Just, Strategy};
    pub use super::test_runner::{Config as ProptestConfig, TestCaseError, TestCaseResult};
    pub use super::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

/// Fails the current case (without panicking the generator loop).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::Fail(format!($($fmt)*)),
            );
        }
    };
}

/// Fails the current case unless the two expressions compare equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($left),
            stringify!($right),
            l,
            r
        );
    }};
}

/// Fails the current case if the two expressions compare equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: `{} != {}`\n  both: {:?}",
            stringify!($left),
            stringify!($right),
            l
        );
    }};
}

/// Rejects the current case; the runner draws a fresh one.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject(
                stringify!($cond).to_string(),
            ));
        }
    };
}

/// Declares property tests: `fn name(arg in strategy, ...) { body }`.
///
/// Mirrors upstream's grammar for the forms used in this workspace,
/// including a leading `#![proptest_config(expr)]`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!($config; $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!($crate::test_runner::Config::default(); $($rest)*);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ($config:expr; $(
        $(#[$meta:meta])*
        fn $name:ident ( $( $arg:ident in $strat:expr ),+ $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::Config = $config;
            let mut rng = $crate::test_runner::TestRng::deterministic(stringify!($name));
            let mut accepted: u32 = 0;
            let mut attempts: u32 = 0;
            while accepted < config.cases {
                attempts += 1;
                assert!(
                    attempts <= config.cases.saturating_mul(16) + 1024,
                    "proptest {}: too many rejected cases ({} accepted of {} wanted)",
                    stringify!($name), accepted, config.cases,
                );
                $(let $arg = $crate::strategy::Strategy::sample(&($strat), &mut rng);)+
                let case: $crate::test_runner::TestCaseResult = (|| {
                    $body
                    ::std::result::Result::Ok(())
                })();
                match case {
                    ::std::result::Result::Ok(()) => accepted += 1,
                    ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject(_)) => {}
                    ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(msg)) => {
                        panic!(
                            "proptest {} failed on case {}:\n{}",
                            stringify!($name), accepted, msg
                        );
                    }
                }
            }
        }
    )*};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_in_bounds(x in 3usize..10, y in 0u32..=4) {
            prop_assert!((3..10).contains(&x));
            prop_assert!(y <= 4);
        }

        #[test]
        fn assume_filters(x in 0u64..100) {
            prop_assume!(x % 2 == 0);
            prop_assert_eq!(x % 2, 0);
        }

        #[test]
        fn flat_map_dependent(pair in (1usize..50).prop_flat_map(|n| (Just(n), 0..n))) {
            let (n, i) = pair;
            prop_assert!(i < n);
        }

        #[test]
        fn vec_sizes(v in collection::vec(any::<u32>(), 2..5)) {
            prop_assert!((2..5).contains(&v.len()));
        }
    }

    #[test]
    fn deterministic_across_runs() {
        use crate::strategy::Strategy;
        let mut a = crate::test_runner::TestRng::deterministic("t");
        let mut b = crate::test_runner::TestRng::deterministic("t");
        let s = 0u64..1000;
        let xs: Vec<u64> = (0..20).map(|_| s.sample(&mut a)).collect();
        let ys: Vec<u64> = (0..20).map(|_| s.sample(&mut b)).collect();
        assert_eq!(xs, ys);
    }
}
