//! Offline shim for `proptest`: a deterministic, non-shrinking
//! property-testing harness with the strategy-combinator API surface
//! this workspace uses (`proptest!`, `prop_oneof!`, `prop_map`,
//! `prop_recursive`, integer ranges, tuples, `collection::vec`).
//!
//! Differences from the real crate, deliberately accepted:
//!
//! * no shrinking — a failing case reports its inputs verbatim;
//! * the RNG is seeded deterministically (override with the
//!   `PROPTEST_SEED` environment variable), so runs are reproducible;
//! * `prop_recursive` unrolls the recursion to its depth bound instead
//!   of sampling a target size.

pub mod test_runner {
    use std::fmt;

    /// Run configuration: how many random cases per property.
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of cases to execute.
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> ProptestConfig {
            ProptestConfig { cases: 256 }
        }
    }

    impl ProptestConfig {
        /// A config running `cases` cases.
        pub fn with_cases(cases: u32) -> ProptestConfig {
            ProptestConfig { cases }
        }
    }

    /// A failed property case.
    #[derive(Clone, Debug)]
    pub struct TestCaseError(String);

    impl TestCaseError {
        /// Build a failure with a message.
        pub fn fail(msg: impl Into<String>) -> TestCaseError {
            TestCaseError(msg.into())
        }
    }

    impl fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str(&self.0)
        }
    }

    /// The deterministic generator driving all strategies (SplitMix64).
    #[derive(Clone, Debug)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seeded from `PROPTEST_SEED` when set, else a fixed constant.
        pub fn deterministic() -> TestRng {
            let seed = std::env::var("PROPTEST_SEED")
                .ok()
                .and_then(|s| s.parse().ok())
                .unwrap_or(0x243F_6A88_85A3_08D3);
            TestRng { state: seed }
        }

        /// Next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform draw from `[0, bound)`; `bound` must be nonzero.
        pub fn below(&mut self, bound: u64) -> u64 {
            assert!(bound > 0, "empty sampling bound");
            self.next_u64() % bound
        }
    }
}

pub mod strategy {
    use crate::test_runner::TestRng;
    use std::fmt::Debug;
    use std::rc::Rc;

    /// A recipe for generating values of one type.
    pub trait Strategy {
        /// The generated type.
        type Value: Debug;

        /// Generate one value.
        fn gen_value(&self, rng: &mut TestRng) -> Self::Value;

        /// Map generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            O: Debug,
            F: Fn(Self::Value) -> O,
        {
            Map { src: self, f }
        }

        /// Type-erase into a cloneable boxed strategy.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Rc::new(move |rng: &mut TestRng| self.gen_value(rng)))
        }

        /// Build a recursive strategy: `self` is the leaf case and `f`
        /// wraps an inner strategy into the recursive case. The
        /// recursion is unrolled `levels` deep (the real crate's
        /// `depth`); `_desired_size`/`_expected_branch` are accepted for
        /// API compatibility and ignored.
        fn prop_recursive<R, F>(
            self,
            levels: u32,
            _desired_size: u32,
            _expected_branch: u32,
            f: F,
        ) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
            R: Strategy<Value = Self::Value> + 'static,
            F: Fn(BoxedStrategy<Self::Value>) -> R,
        {
            let mut strat = self.boxed();
            for _ in 0..levels {
                strat = f(strat.clone()).boxed();
            }
            strat
        }
    }

    /// A type-erased, cheaply cloneable strategy.
    pub struct BoxedStrategy<T>(Rc<dyn Fn(&mut TestRng) -> T>);

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> BoxedStrategy<T> {
            BoxedStrategy(Rc::clone(&self.0))
        }
    }

    impl<T: Debug> Strategy for BoxedStrategy<T> {
        type Value = T;

        fn gen_value(&self, rng: &mut TestRng) -> T {
            (self.0)(rng)
        }
    }

    /// [`Strategy::prop_map`] combinator.
    pub struct Map<S, F> {
        src: S,
        f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        O: Debug,
        F: Fn(S::Value) -> O,
    {
        type Value = O;

        fn gen_value(&self, rng: &mut TestRng) -> O {
            (self.f)(self.src.gen_value(rng))
        }
    }

    /// Uniform choice between boxed alternatives (`prop_oneof!`).
    pub struct Union<T> {
        options: Vec<BoxedStrategy<T>>,
    }

    impl<T: Debug> Union<T> {
        /// Build from a non-empty list of alternatives.
        pub fn new(options: Vec<BoxedStrategy<T>>) -> Union<T> {
            assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
            Union { options }
        }
    }

    impl<T: Debug> Strategy for Union<T> {
        type Value = T;

        fn gen_value(&self, rng: &mut TestRng) -> T {
            let i = rng.below(self.options.len() as u64) as usize;
            self.options[i].gen_value(rng)
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn gen_value(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end - self.start) as u64;
                    self.start + rng.below(span) as $t
                }
            }
            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;
                fn gen_value(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi - lo) as u64;
                    if span == u64::MAX {
                        return lo + rng.next_u64() as $t;
                    }
                    lo + rng.below(span + 1) as $t
                }
            }
        )*};
    }

    impl_range_strategy!(u8, u16, u32, u64, usize, i32, i64);

    /// The unit strategy (`Just`): always the same cloneable value.
    pub struct Just<T: Clone + Debug>(pub T);

    impl<T: Clone + Debug> Strategy for Just<T> {
        type Value = T;

        fn gen_value(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! impl_tuple_strategy {
        ($(($($s:ident . $idx:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn gen_value(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.gen_value(rng),)+)
                }
            }
        )*};
    }

    impl_tuple_strategy! {
        (A.0)
        (A.0, B.1)
        (A.0, B.1, C.2)
        (A.0, B.1, C.2, D.3)
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::fmt::Debug;

    /// Accepted vector-length specifications.
    #[derive(Clone, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi_inclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange {
                lo: n,
                hi_inclusive: n,
            }
        }
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange {
                lo: r.start,
                hi_inclusive: r.end - 1,
            }
        }
    }

    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> SizeRange {
            assert!(r.start() <= r.end(), "empty vec size range");
            SizeRange {
                lo: *r.start(),
                hi_inclusive: *r.end(),
            }
        }
    }

    /// Generates `Vec`s of `element` with a length in `size`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Strategy for vectors: `vec(element, 0..4)`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S>
    where
        S::Value: Debug,
    {
        type Value = Vec<S::Value>;

        fn gen_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi_inclusive - self.size.lo) as u64;
            let len = self.size.lo
                + if span == 0 {
                    0
                } else {
                    rng.below(span + 1) as usize
                };
            (0..len).map(|_| self.element.gen_value(rng)).collect()
        }
    }
}

/// Namespace alias so `prop::collection::vec(..)` works after
/// `use proptest::prelude::*`, as with the real crate.
pub mod prop {
    pub use crate::collection;
    pub use crate::strategy;
}

pub mod prelude {
    pub use crate::prop;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestRng};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Uniform choice among strategies of one value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

/// Assert inside a property; failure reports the generated inputs.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::core::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)*)),
            );
        }
    };
}

/// Assert equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($lhs:expr, $rhs:expr $(,)?) => {{
        let (lhs, rhs) = (&$lhs, &$rhs);
        $crate::prop_assert!(lhs == rhs, "assertion failed: `{:?}` == `{:?}`", lhs, rhs);
    }};
}

/// Assert inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($lhs:expr, $rhs:expr $(,)?) => {{
        let (lhs, rhs) = (&$lhs, &$rhs);
        $crate::prop_assert!(lhs != rhs, "assertion failed: `{:?}` != `{:?}`", lhs, rhs);
    }};
}

/// Declare property tests: each runs `config.cases` random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_tests!($cfg; $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_tests!(
            $crate::test_runner::ProptestConfig::default(); $($rest)*);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_tests {
    ($cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $cfg;
            let mut rng = $crate::test_runner::TestRng::deterministic();
            for case in 0..config.cases {
                $(let $arg = $crate::strategy::Strategy::gen_value(&($strat), &mut rng);)+
                let outcome: ::core::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| {
                        $body
                        ::core::result::Result::Ok(())
                    })();
                if let ::core::result::Result::Err(e) = outcome {
                    panic!(
                        "proptest case {}/{} failed: {}\ninputs:\n{}",
                        case + 1,
                        config.cases,
                        e,
                        [$(format!("  {} = {:?}", stringify!($arg), &$arg)),+]
                            .join("\n"),
                    );
                }
            }
        }
    )*};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_stay_in_bounds(x in 3u8..7, y in 0usize..=4) {
            prop_assert!((3..7).contains(&x));
            prop_assert!(y <= 4);
        }

        #[test]
        fn map_and_oneof_compose(v in prop_oneof![
            (0u8..3).prop_map(|x| x as u32),
            (10u8..13).prop_map(|x| x as u32),
        ]) {
            prop_assert!(v < 3 || (10..13).contains(&v));
        }

        #[test]
        fn vec_lengths_respect_range(v in prop::collection::vec(0u8..5, 2..6)) {
            prop_assert!((2..6).contains(&v.len()));
            prop_assert!(v.iter().all(|&x| x < 5));
        }
    }

    #[test]
    fn recursive_strategies_bound_depth() {
        #[derive(Clone, Debug)]
        enum T {
            Leaf,
            Node(Vec<T>),
        }
        fn depth(t: &T) -> usize {
            match t {
                T::Leaf => 0,
                T::Node(cs) => 1 + cs.iter().map(depth).max().unwrap_or(0),
            }
        }
        let strat = (0u8..1)
            .prop_map(|_| T::Leaf)
            .prop_recursive(3, 8, 2, |inner| {
                prop::collection::vec(inner, 1..3).prop_map(T::Node)
            });
        let mut rng = TestRng::deterministic();
        for _ in 0..200 {
            assert!(depth(&strat.gen_value(&mut rng)) <= 3);
        }
    }

    #[test]
    #[should_panic(expected = "proptest case")]
    fn failing_property_panics_with_inputs() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(8))]
            #[allow(unused)]
            fn always_fails(x in 0u8..4) {
                prop_assert!(x > 100, "x was {}", x);
            }
        }
        always_fails();
    }
}
