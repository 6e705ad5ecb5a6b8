//! A minimal, std-only property-testing shim with the subset of the
//! `proptest` API this workspace uses.
//!
//! The build environment has no reachable crates registry, so the workspace
//! vendors this small stand-in instead of depending on the real crate. It
//! keeps the same surface (`proptest!`, strategies, `prop_assert*`) so tests
//! read identically, with two deliberate simplifications:
//!
//! * **Deterministic sampling** — every test case is generated from a seed
//!   derived from the test name and case index, so failures reproduce
//!   without a persistence file.
//! * **No shrinking** — a failing case reports its inputs via the panic
//!   message (the values are in scope), but is not minimized.

pub mod test_runner {
    /// Runner configuration: number of sampled cases per property.
    #[derive(Debug, Clone)]
    pub struct Config {
        pub cases: u32,
    }

    impl Config {
        /// A config running `cases` samples per property.
        pub fn with_cases(cases: u32) -> Self {
            Self { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Self { cases: 64 }
        }
    }

    /// Deterministic per-case random source (SplitMix64 over a seed hashed
    /// from the property name and case index).
    #[derive(Debug, Clone)]
    pub struct TestRunner {
        state: u64,
    }

    impl TestRunner {
        /// Builds the runner for one `(property, case)` pair.
        pub fn deterministic(name: &str, case: u32) -> Self {
            // FNV-1a over the name, mixed with the case index.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            Self {
                state: h ^ (case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            }
        }

        /// Next raw 64-bit sample (SplitMix64).
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform sample in `[0, bound)`; `bound` must be nonzero.
        pub fn below(&mut self, bound: u64) -> u64 {
            ((self.next_u64() as u128 * bound as u128) >> 64) as u64
        }

        /// Uniform sample in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }
}

pub mod strategy {
    use crate::test_runner::TestRunner;
    use std::ops::Range;

    /// A source of sampled values. Unlike real proptest there is no value
    /// tree: `sample` draws directly.
    pub trait Strategy {
        type Value;
        fn sample(&self, runner: &mut TestRunner) -> Self::Value;

        /// Maps sampled values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }
    }

    /// The strategy returned by [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn sample(&self, runner: &mut TestRunner) -> O {
            (self.f)(self.inner.sample(runner))
        }
    }

    /// A strategy that always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn sample(&self, _runner: &mut TestRunner) -> T {
            self.0.clone()
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn sample(&self, runner: &mut TestRunner) -> $t {
                    assert!(self.start < self.end, "empty strategy range");
                    let span = (self.end as u64).wrapping_sub(self.start as u64);
                    self.start.wrapping_add(runner.below(span) as $t)
                }
            }
        )*};
    }
    int_range_strategy!(u8, u16, u32, u64, usize);

    macro_rules! signed_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn sample(&self, runner: &mut TestRunner) -> $t {
                    assert!(self.start < self.end, "empty strategy range");
                    #[expect(
                        clippy::cast_sign_loss,
                        reason = "start < end is asserted, so the span is positive"
                    )]
                    let span = (self.end as i128 - self.start as i128) as u64;
                    (self.start as i128 + runner.below(span) as i128) as $t
                }
            }
        )*};
    }
    signed_range_strategy!(i8, i16, i32, i64, isize);

    impl Strategy for Range<f64> {
        type Value = f64;
        fn sample(&self, runner: &mut TestRunner) -> f64 {
            assert!(self.start < self.end, "empty strategy range");
            self.start + runner.unit_f64() * (self.end - self.start)
        }
    }

    macro_rules! tuple_strategy {
        ($(($($s:ident . $idx:tt),+)),*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn sample(&self, runner: &mut TestRunner) -> Self::Value {
                    ($(self.$idx.sample(runner),)+)
                }
            }
        )*};
    }
    tuple_strategy!(
        (A.0),
        (A.0, B.1),
        (A.0, B.1, C.2),
        (A.0, B.1, C.2, D.3),
        (A.0, B.1, C.2, D.3, E.4),
        (A.0, B.1, C.2, D.3, E.4, F.5),
        (A.0, B.1, C.2, D.3, E.4, F.5, G.6),
        (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7)
    );

    /// Strategy for a type's whole value space (see [`crate::arbitrary`]).
    #[derive(Debug, Clone, Copy)]
    pub struct Any<T>(std::marker::PhantomData<T>);

    impl<T: crate::arbitrary::Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn sample(&self, runner: &mut TestRunner) -> T {
            T::arbitrary(runner)
        }
    }

    /// `any::<T>()` — a strategy over all of `T`'s values.
    pub fn any<T: crate::arbitrary::Arbitrary>() -> Any<T> {
        Any(std::marker::PhantomData)
    }
}

pub mod arbitrary {
    use crate::test_runner::TestRunner;

    /// Types that can be sampled without an explicit strategy.
    pub trait Arbitrary {
        fn arbitrary(runner: &mut TestRunner) -> Self;
    }

    impl Arbitrary for bool {
        fn arbitrary(runner: &mut TestRunner) -> bool {
            runner.next_u64() & 1 == 1
        }
    }

    macro_rules! int_arbitrary {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(runner: &mut TestRunner) -> $t {
                    runner.next_u64() as $t
                }
            }
        )*};
    }
    int_arbitrary!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRunner;
    use std::collections::BTreeSet;
    use std::ops::Range;

    /// Strategy for `Vec`s with lengths drawn from `len`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    /// `proptest::collection::vec(element, len_range)`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        assert!(len.start < len.end, "empty length range");
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, runner: &mut TestRunner) -> Vec<S::Value> {
            let span = (self.len.end - self.len.start) as u64;
            let n = self.len.start + runner.below(span) as usize;
            (0..n).map(|_| self.element.sample(runner)).collect()
        }
    }

    /// Strategy for `BTreeSet`s with target sizes drawn from `len`. A
    /// `BTreeSet` iterates in key order, so a test that walks the set sees
    /// the same sequence for the same seed in every process.
    #[derive(Debug, Clone)]
    pub struct BTreeSetStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    /// `proptest::collection::btree_set(element, len_range)`.
    pub fn btree_set<S>(element: S, len: Range<usize>) -> BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        assert!(len.start < len.end, "empty length range");
        BTreeSetStrategy { element, len }
    }

    impl<S> Strategy for BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;
        fn sample(&self, runner: &mut TestRunner) -> BTreeSet<S::Value> {
            let span = (self.len.end - self.len.start) as u64;
            let n = self.len.start + runner.below(span) as usize;
            let mut out = BTreeSet::new();
            // Bounded attempts: a narrow element domain may not hold `n`
            // distinct values.
            let mut attempts = 0usize;
            while out.len() < n && attempts < n * 32 + 64 {
                out.insert(self.element.sample(runner));
                attempts += 1;
            }
            out
        }
    }
}

pub mod prelude {
    pub use crate::arbitrary::Arbitrary;
    pub use crate::strategy::{any, Just, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Declares property tests. Supports an optional
/// `#![proptest_config(...)]` header, `name in strategy` and `name: Type`
/// parameters, and plain `#[test]`-attributed functions.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items!({$cfg} $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items!(
            {<$crate::test_runner::Config as ::std::default::Default>::default()}
            $($rest)*
        );
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    ({$cfg:expr}) => {};
    ({$cfg:expr}
     $(#[$meta:meta])*
     fn $name:ident($($params:tt)*) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config: $crate::test_runner::Config = $cfg;
            for __case in 0..__config.cases {
                let mut __runner =
                    $crate::test_runner::TestRunner::deterministic(stringify!($name), __case);
                $crate::__proptest_bind!(__runner $($params)*);
                $body
            }
        }
        $crate::__proptest_items!({$cfg} $($rest)*);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_bind {
    ($runner:ident) => {};
    ($runner:ident $var:ident in $strat:expr, $($rest:tt)*) => {
        let $var = $crate::strategy::Strategy::sample(&($strat), &mut $runner);
        $crate::__proptest_bind!($runner $($rest)*);
    };
    ($runner:ident $var:ident in $strat:expr) => {
        let $var = $crate::strategy::Strategy::sample(&($strat), &mut $runner);
    };
    ($runner:ident $var:ident : $ty:ty, $($rest:tt)*) => {
        let $var = <$ty as $crate::arbitrary::Arbitrary>::arbitrary(&mut $runner);
        $crate::__proptest_bind!($runner $($rest)*);
    };
    ($runner:ident $var:ident : $ty:ty) => {
        let $var = <$ty as $crate::arbitrary::Arbitrary>::arbitrary(&mut $runner);
    };
}

/// Asserts a condition inside a property (panics with the inputs in scope).
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// Asserts inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::test_runner::TestRunner;

    #[test]
    fn runner_is_deterministic() {
        let mut a = TestRunner::deterministic("x", 3);
        let mut b = TestRunner::deterministic("x", 3);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = TestRunner::deterministic("x", 4);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn range_strategies_stay_in_bounds() {
        let mut r = TestRunner::deterministic("bounds", 0);
        for _ in 0..200 {
            let v = (5u64..17).sample(&mut r);
            assert!((5..17).contains(&v));
            let f = (-2.0f64..3.0).sample(&mut r);
            assert!((-2.0..3.0).contains(&f));
        }
    }

    #[test]
    fn vec_and_btree_set_respect_lengths() {
        let mut r = TestRunner::deterministic("lens", 0);
        for _ in 0..50 {
            let v = crate::collection::vec(0u64..10, 2..6).sample(&mut r);
            assert!((2..6).contains(&v.len()));
            let s = crate::collection::btree_set(0u64..1000, 1..9).sample(&mut r);
            assert!(s.len() < 9 && !s.is_empty());
        }
    }

    #[test]
    fn prop_map_composes() {
        let mut r = TestRunner::deterministic("map", 0);
        let s = (0u16..4, 0u16..4).prop_map(|(x, y)| (x + 1, y + 1));
        let (x, y) = s.sample(&mut r);
        assert!((1..=4).contains(&x) && (1..=4).contains(&y));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The macro itself: mixed `in`/typed params and doc comments.
        #[test]
        fn macro_binds_parameters(a in 0u64..100, flip: bool, pair in (0u8..4, 1u8..5)) {
            prop_assert!(a < 100);
            // `flip` is a plain bool either way; exercise the typed-param arm.
            let doubled = if flip { a * 2 } else { a };
            prop_assert!(doubled <= 198);
            prop_assert!(pair.0 < 4 && pair.1 >= 1);
            prop_assert_ne!(pair.1, 0);
        }
    }
}
