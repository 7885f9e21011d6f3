//! Hermetic stand-in for the `proptest` crate.
//!
//! The build environment has no crates.io access, so this shim provides
//! the subset of proptest the workspace tests use: [`strategy::Strategy`] with
//! `prop_map` / `prop_flat_map`, range and tuple strategies,
//! [`collection::vec`], and the [`proptest!`] / [`prop_assert!`] /
//! [`prop_assert_eq!`] / [`prop_assume!`] macros. Inputs are generated
//! from a seeded deterministic generator (seed = FNV-1a of the test
//! name), so every run explores the same cases — no shrinking, but
//! failures are reproducible and reported with their case index.
//!
//! Case count defaults to 64 and can be raised via `PROPTEST_CASES`.

use rand::rngs::StdRng;

pub mod strategy {
    //! The [`Strategy`] trait and combinators.

    use super::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// A recipe for generating random values of one type.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Post-processes every generated value with `f`.
        fn prop_map<U, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> U,
        {
            Map { base: self, f }
        }

        /// Generates an intermediate value, then a dependent strategy.
        fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            S: Strategy,
            F: Fn(Self::Value) -> S,
        {
            FlatMap { base: self, f }
        }

        /// Type-erases the strategy.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy {
                inner: Box::new(self),
            }
        }
    }

    /// See [`Strategy::prop_map`].
    pub struct Map<S, F> {
        base: S,
        f: F,
    }

    impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
        type Value = U;

        fn generate(&self, rng: &mut TestRng) -> U {
            (self.f)(self.base.generate(rng))
        }
    }

    /// See [`Strategy::prop_flat_map`].
    pub struct FlatMap<S, F> {
        base: S,
        f: F,
    }

    impl<S: Strategy, T: Strategy, F: Fn(S::Value) -> T> Strategy for FlatMap<S, F> {
        type Value = T::Value;

        fn generate(&self, rng: &mut TestRng) -> T::Value {
            (self.f)(self.base.generate(rng)).generate(rng)
        }
    }

    /// A boxed, type-erased strategy.
    pub struct BoxedStrategy<T> {
        inner: Box<dyn Strategy<Value = T>>,
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            self.inner.generate(rng)
        }
    }

    /// Always produces a clone of the same value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    use rand::Rng;
                    rng.0.gen_range(self.clone())
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    use rand::Rng;
                    rng.0.gen_range(self.clone())
                }
            }
        )*};
    }

    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

    macro_rules! impl_tuple_strategy {
        ($(($($name:ident . $idx:tt),+))*) => {$(
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )*};
    }

    impl_tuple_strategy! {
        (A.0)
        (A.0, B.1)
        (A.0, B.1, C.2)
        (A.0, B.1, C.2, D.3)
        (A.0, B.1, C.2, D.3, E.4)
    }
}

pub mod collection {
    //! Collection strategies.

    use super::strategy::Strategy;
    use super::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// Acceptable size specifications for [`vec()`].
    pub trait IntoSizeRange {
        /// Lower and inclusive upper bound.
        fn bounds(&self) -> (usize, usize);
    }

    impl IntoSizeRange for usize {
        fn bounds(&self) -> (usize, usize) {
            (*self, *self)
        }
    }

    impl IntoSizeRange for Range<usize> {
        fn bounds(&self) -> (usize, usize) {
            assert!(self.start < self.end, "empty size range");
            (self.start, self.end - 1)
        }
    }

    impl IntoSizeRange for RangeInclusive<usize> {
        fn bounds(&self) -> (usize, usize) {
            (*self.start(), *self.end())
        }
    }

    /// A strategy producing `Vec`s whose length lies in `size` and whose
    /// elements come from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl IntoSizeRange) -> VecStrategy<S> {
        let (min, max) = size.bounds();
        VecStrategy { element, min, max }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        min: usize,
        max: usize,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            use rand::Rng;
            let len = rng.0.gen_range(self.min..=self.max);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// The deterministic generator handed to strategies.
pub struct TestRng(pub StdRng);

pub mod test_runner {
    //! The case loop behind [`crate::proptest!`].

    use super::TestRng;
    use rand::SeedableRng;

    /// Why a single case did not pass.
    #[derive(Debug)]
    pub enum TestCaseError {
        /// `prop_assume!` filtered the input out; try another.
        Reject,
        /// A `prop_assert!` failed; the whole test fails.
        Fail(String),
    }

    impl TestCaseError {
        /// Constructs a failure with a rendered message.
        pub fn fail(msg: String) -> Self {
            TestCaseError::Fail(msg)
        }
    }

    fn fnv1a(name: &str) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }

    fn case_count() -> u64 {
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(64)
    }

    /// Runs `body` over seeded cases; panics on the first failing case.
    pub fn run(name: &str, mut body: impl FnMut(&mut TestRng) -> Result<(), TestCaseError>) {
        let cases = case_count();
        let seed = fnv1a(name);
        let mut passed = 0u64;
        let mut rejected = 0u64;
        let max_rejects = cases.saturating_mul(16).max(1024);
        let mut case = 0u64;
        while passed < cases {
            let mut rng = TestRng(rand::rngs::StdRng::seed_from_u64(seed ^ case));
            case += 1;
            match body(&mut rng) {
                Ok(()) => passed += 1,
                Err(TestCaseError::Reject) => {
                    rejected += 1;
                    assert!(
                        rejected <= max_rejects,
                        "{name}: too many prop_assume rejections ({rejected}) — \
                         strategy and assumptions are incompatible"
                    );
                }
                Err(TestCaseError::Fail(msg)) => {
                    panic!(
                        "{name}: case #{case} (seed {seed:#x} ^ {}) failed: {msg}",
                        case - 1
                    )
                }
            }
        }
    }
}

pub mod prelude {
    //! One-stop import, mirroring `proptest::prelude::*`.

    pub use crate::collection;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::TestCaseError;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

/// Declares deterministic random-input tests; see crate docs.
#[macro_export]
macro_rules! proptest {
    ($( $(#[$meta:meta])* fn $name:ident ( $($arg:ident in $strat:expr),+ $(,)? ) $body:block )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                $crate::test_runner::run(stringify!($name), |__rng| {
                    $(let $arg = $crate::strategy::Strategy::generate(&($strat), __rng);)+
                    let __out: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                        (move || {
                            $body
                            ::std::result::Result::Ok(())
                        })();
                    __out
                });
            }
        )*
    };
}

/// Fails the current case (with formatting) when the condition is false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                ::std::format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                ::std::format!($($fmt)+),
            ));
        }
    };
}

/// Fails the current case when the two expressions are unequal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (__a, __b) = (&$a, &$b);
        if !(*__a == *__b) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                ::std::format!("{:?} != {:?}", __a, __b),
            ));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (__a, __b) = (&$a, &$b);
        if !(*__a == *__b) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                ::std::format!("{:?} != {:?}: {}", __a, __b, ::std::format!($($fmt)+)),
            ));
        }
    }};
}

/// Fails the current case when the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (__a, __b) = (&$a, &$b);
        if *__a == *__b {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                ::std::format!("both sides equal {:?}", __a),
            ));
        }
    }};
}

/// Skips (rejects) the current case when the assumption does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject);
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(x in 0u32..10, y in 1usize..=3) {
            prop_assert!(x < 10);
            prop_assert!((1..=3).contains(&y));
        }

        #[test]
        fn assume_filters(x in 0u64..100) {
            prop_assume!(x % 2 == 0);
            prop_assert_eq!(x % 2, 0);
        }

        #[test]
        fn vec_and_flat_map_compose(
            v in (1usize..=5).prop_flat_map(|n| collection::vec(0u32..100, n..=n))
        ) {
            prop_assert!(!v.is_empty() && v.len() <= 5);
            prop_assert!(v.iter().all(|&x| x < 100));
        }

        #[test]
        fn map_transforms(s in (0u32..50).prop_map(|x| x * 2)) {
            prop_assert!(s % 2 == 0 && s < 100);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        use crate::strategy::Strategy;
        use rand::SeedableRng;
        let strat = 0u64..1_000_000;
        let mut a = crate::TestRng(rand::rngs::StdRng::seed_from_u64(99));
        let mut b = crate::TestRng(rand::rngs::StdRng::seed_from_u64(99));
        for _ in 0..50 {
            assert_eq!(strat.generate(&mut a), strat.generate(&mut b));
        }
    }
}
