//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no network access, so this workspace ships a
//! minimal property-testing harness covering the API subset the test
//! suites use: the [`proptest!`] macro, `prop_assert!`/`prop_assert_eq!`/
//! `prop_assume!`, range and tuple strategies, [`strategy::Strategy::prop_map`],
//! [`collection::vec`] and `num::u64::ANY`.
//!
//! Differences from upstream: cases are generated from a seed derived
//! deterministically from the test name (fully reproducible runs), and
//! failing inputs are reported but **not shrunk**.

#![forbid(unsafe_code)]

/// Test-runner types: configuration, RNG, case errors.
pub mod test_runner {
    /// Per-test configuration (only `cases` is honoured).
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of successful cases required for the test to pass.
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 64 }
        }
    }

    impl ProptestConfig {
        /// A configuration running `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    /// Why a generated case did not pass.
    #[derive(Clone, Debug)]
    pub enum TestCaseError {
        /// `prop_assume!` rejected the input; try another.
        Reject,
        /// An assertion failed; abort the test.
        Fail(String),
    }

    use rand::{Rng, RngCore, SeedableRng};

    /// Deterministic generator seeded from the test name; the stream
    /// itself is the sibling `rand` shim's `StdRng` (one sampler
    /// implementation shared across both shims).
    #[derive(Clone, Debug)]
    pub struct TestRng {
        inner: rand::rngs::StdRng,
    }

    impl TestRng {
        /// Seeds the stream from a test name (FNV-1a over the bytes).
        pub fn deterministic(name: &str) -> Self {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            TestRng {
                inner: rand::rngs::StdRng::seed_from_u64(h),
            }
        }

        /// Next raw 64-bit value.
        pub fn next_u64(&mut self) -> u64 {
            self.inner.next_u64()
        }

        /// Uniform value in `0..bound` (`bound > 0`).
        pub fn below(&mut self, bound: u64) -> u64 {
            self.inner.gen_range(0..bound)
        }

        /// Uniform `f64` in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            self.inner.gen()
        }
    }
}

/// Value-generation strategies.
pub mod strategy {
    use super::test_runner::TestRng;

    /// A recipe for generating values of one type.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn new_value(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }
    }

    /// The strategy returned by [`Strategy::prop_map`].
    #[derive(Clone, Debug)]
    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;

        fn new_value(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.new_value(rng))
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for ::std::ops::Range<$t> {
                type Value = $t;
                fn new_value(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty strategy range");
                    self.start + rng.below((self.end - self.start) as u64) as $t
                }
            }
            impl Strategy for ::std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn new_value(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty strategy range");
                    lo + rng.below((hi - lo) as u64 + 1) as $t
                }
            }
        )*};
    }

    int_range_strategy!(usize, u64, u32, u8);

    impl Strategy for ::std::ops::Range<f64> {
        type Value = f64;

        fn new_value(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty strategy range");
            self.start + (self.end - self.start) * rng.unit_f64()
        }
    }

    /// A strategy always yielding clones of one value (`Just`).
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn new_value(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! tuple_strategy {
        ($(($($s:ident . $idx:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn new_value(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.new_value(rng),)+)
                }
            }
        )*};
    }

    tuple_strategy! {
        (A.0)
        (A.0, B.1)
        (A.0, B.1, C.2)
        (A.0, B.1, C.2, D.3)
        (A.0, B.1, C.2, D.3, E.4)
        (A.0, B.1, C.2, D.3, E.4, F.5)
    }
}

/// Collection strategies.
pub mod collection {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use std::ops::Range;

    /// A strategy for `Vec`s whose length is drawn from `size` and whose
    /// elements are drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    /// The strategy returned by [`vec()`].
    #[derive(Clone, Debug)]
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn new_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.size.clone().new_value(rng);
            (0..len).map(|_| self.element.new_value(rng)).collect()
        }
    }
}

/// Numeric strategies covering the whole value range.
pub mod num {
    /// Strategies for `u64`.
    pub mod u64 {
        use crate::strategy::Strategy;
        use crate::test_runner::TestRng;

        /// Any `u64`, uniformly.
        #[derive(Clone, Copy, Debug)]
        pub struct Any;

        /// Any `u64`, uniformly.
        pub const ANY: Any = Any;

        impl Strategy for Any {
            type Value = u64;

            fn new_value(&self, rng: &mut TestRng) -> u64 {
                rng.next_u64()
            }
        }
    }
}

/// The items a proptest suite conventionally glob-imports.
pub mod prelude {
    pub use crate::collection;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

/// Defines property tests: each `fn name(pat in strategy, ...) { body }`
/// item becomes a `#[test]` running the body over generated inputs.
///
/// Write `#[test]` explicitly on each function, as with upstream proptest.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@impl ($cfg) $($rest)*);
    };
    (@impl ($cfg:expr) $( $(#[$meta:meta])* fn $name:ident ( $($pat:pat in $strat:expr),+ $(,)? ) $body:block )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $cfg;
                let mut rng = $crate::test_runner::TestRng::deterministic(concat!(
                    module_path!(), "::", stringify!($name)
                ));
                let mut passed = 0u32;
                let mut rejected = 0u32;
                while passed < config.cases {
                    let result: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                        (|| {
                            $(let $pat = $crate::strategy::Strategy::new_value(&($strat), &mut rng);)+
                            $body
                            #[allow(unreachable_code)]
                            Ok(())
                        })();
                    match result {
                        Ok(()) => passed += 1,
                        Err($crate::test_runner::TestCaseError::Reject) => {
                            rejected += 1;
                            assert!(
                                rejected <= 100 * config.cases.max(10),
                                "proptest: too many prop_assume! rejections \
                                 ({rejected} rejects for {passed} passes)"
                            );
                        }
                        Err($crate::test_runner::TestCaseError::Fail(msg)) => {
                            panic!("proptest case failed after {passed} passes: {msg}");
                        }
                    }
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@impl ($crate::test_runner::ProptestConfig::default()) $($rest)*);
    };
}

/// Fails the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)));
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                format!($($fmt)*),
            ));
        }
    };
}

/// Fails the current case unless the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{} == {}` (left: `{:?}`, right: `{:?}`)",
            stringify!($left),
            stringify!($right),
            l,
            r
        );
    }};
}

/// Fails the current case if the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: `{} != {}` (both: `{:?}`)",
            stringify!($left),
            stringify!($right),
            l
        );
    }};
}

/// Rejects the current case (drawing a fresh input) unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject);
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_in_bounds(x in 10usize..20, y in 0u64..=5) {
            prop_assert!((10..20).contains(&x));
            prop_assert!(y <= 5);
        }

        #[test]
        fn tuples_and_maps((a, b) in (0usize..5, 0usize..5).prop_map(|(a, b)| (a, a + b))) {
            prop_assert!(b >= a);
            prop_assert_eq!(a, a);
            prop_assert_ne!(a, a + 1);
        }

        #[test]
        fn vec_lengths(v in collection::vec(0u32..9, 2..6)) {
            prop_assert!((2..6).contains(&v.len()));
            prop_assert!(v.iter().all(|&x| x < 9));
        }

        #[test]
        fn assume_rejects_smoothly(x in 0usize..10) {
            prop_assume!(x % 2 == 0);
            prop_assert!(x % 2 == 0);
        }

        #[test]
        fn any_u64_varies(x in crate::num::u64::ANY, y in crate::num::u64::ANY) {
            // Collisions of two independent draws would make the pair
            // constant; the generator never produces that.
            prop_assert_ne!(x, y);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = crate::test_runner::TestRng::deterministic("t");
        let mut b = crate::test_runner::TestRng::deterministic("t");
        assert_eq!(a.next_u64(), b.next_u64());
    }
}
