//! Offline stand-in for the `proptest` crate.
//!
//! The build container cannot reach crates.io, so this crate implements
//! the subset of proptest the workspace's property tests rely on: the
//! [`proptest!`] macro, `prop_assert*` macros, [`Strategy`] with
//! `prop_map` / `prop_flat_map` / `prop_filter`, [`Just`], [`any`],
//! numeric range strategies, tuple strategies, and
//! [`collection::vec`]. Differences from upstream:
//!
//! * cases are generated from a fixed per-case seed, so runs are fully
//!   deterministic (upstream randomizes and persists regressions);
//! * there is no shrinking — a failing case panics with the assert
//!   message (inputs are printed via the panic payload only);
//! * `prop_assert*` are plain `assert*` (they panic instead of returning
//!   `Err`), which is observably identical under the test harness;
//! * a body returns `()`, and each case runs in its own closure, so a
//!   `return` in a body ends that case and the next case still runs.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

/// Per-test-case source of randomness.
pub struct TestRng(SmallRng);

impl TestRng {
    /// Deterministic generator for one numbered case of one test.
    pub fn for_case(test_name: &str, case: u64) -> Self {
        // FNV-1a over the test name, mixed with the case index.
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for b in test_name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01B3);
        }
        TestRng(SmallRng::seed_from_u64(
            h ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        ))
    }

    fn next_u64(&mut self) -> u64 {
        self.0.gen::<u64>()
    }

    fn unit_f64(&mut self) -> f64 {
        self.0.gen::<f64>()
    }

    fn below(&mut self, n: usize) -> usize {
        self.0.gen_range(0..n.max(1))
    }
}

/// A generator of test-case values. `generate` returns `None` when a
/// `prop_filter` rejects the draw; the harness retries a fresh draw.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value, or `None` on filter rejection.
    fn generate(&self, rng: &mut TestRng) -> Option<Self::Value>;

    /// Maps generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { base: self, f }
    }

    /// Generates a value, builds a dependent strategy from it, and draws
    /// from that.
    fn prop_flat_map<S2: Strategy, F: Fn(Self::Value) -> S2>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { base: self, f }
    }

    /// Rejects values failing `pred` (the harness redraws).
    fn prop_filter<F: Fn(&Self::Value) -> bool>(
        self,
        reason: &'static str,
        pred: F,
    ) -> Filter<Self, F>
    where
        Self: Sized,
    {
        Filter {
            base: self,
            reason,
            pred,
        }
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    base: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> Option<O> {
        self.base.generate(rng).map(&self.f)
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    base: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;
    fn generate(&self, rng: &mut TestRng) -> Option<S2::Value> {
        (self.f)(self.base.generate(rng)?).generate(rng)
    }
}

/// See [`Strategy::prop_filter`].
pub struct Filter<S, F> {
    base: S,
    #[allow(dead_code)]
    reason: &'static str,
    pred: F,
}

impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
        self.base.generate(rng).filter(|v| (self.pred)(v))
    }
}

/// A strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> Option<T> {
        Some(self.0.clone())
    }
}

macro_rules! int_strategies {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> Option<$t> {
                Some(rng.0.gen_range(self.clone()))
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> Option<$t> {
                Some(rng.0.gen_range(self.clone()))
            }
        }
    )*};
}

int_strategies!(usize, u64, u32, i64, i32, f64);

/// Tuples of strategies generate tuples of values.
macro_rules! tuple_strategies {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Option<Self::Value> {
                Some(($(self.$idx.generate(rng)?,)+))
            }
        }
    )*};
}

tuple_strategies! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
}

/// Types with a canonical "anything" strategy (see [`any`]).
pub trait ArbitraryValue: Sized {
    /// Draws one arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl ArbitraryValue for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl ArbitraryValue for u32 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() as u32
    }
}

impl ArbitraryValue for u64 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64()
    }
}

impl ArbitraryValue for usize {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() as usize
    }
}

impl ArbitraryValue for f64 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        // Finite, sign-symmetric, wide dynamic range.
        let m = rng.unit_f64() * 2.0 - 1.0;
        let e = rng.below(61) as i32 - 30;
        m * 2f64.powi(e)
    }
}

/// The `any::<T>()` strategy.
pub struct Any<T>(PhantomData<T>);

impl<T: ArbitraryValue> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> Option<T> {
        Some(T::arbitrary(rng))
    }
}

/// Strategy producing arbitrary values of `T`.
pub fn any<T: ArbitraryValue>() -> Any<T> {
    Any(PhantomData)
}

/// Collection strategies (`proptest::collection`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::{Range, RangeInclusive};

    /// Length specifications accepted by [`vec`].
    pub struct SizeRange {
        lo: usize,
        hi: usize, // inclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec length range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    /// See [`vec`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<Vec<S::Value>> {
            let span = self.size.hi - self.size.lo + 1;
            let len = self.size.lo + rng.below(span);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// A vector of values from `element`, with length drawn from `size`
    /// (an exact `usize` or a `usize` range).
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

/// Per-block configuration (`#![proptest_config(...)]`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of cases generated per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` cases per test.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// Draws from `strategy`, retrying filter rejections; panics if the
/// filter rejects 1000 consecutive draws.
pub fn generate_one<S: Strategy>(strategy: &S, rng: &mut TestRng) -> S::Value {
    for _ in 0..1000 {
        if let Some(v) = strategy.generate(rng) {
            return v;
        }
    }
    panic!("proptest strategy rejected 1000 consecutive draws (filter too strict)");
}

/// Runs one case's body; [`proptest!`] wraps each body in a closure so a
/// `return` inside it ends only that case.
#[doc(hidden)]
pub fn run_case(body: impl FnOnce()) {
    body()
}

/// Everything the tests import.
pub mod prelude {
    pub use crate::{
        any, collection, generate_one, prop_assert, prop_assert_eq, prop_assert_ne, proptest, Just,
        ProptestConfig, Strategy, TestRng,
    };
}

/// Asserts a condition inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Asserts equality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Asserts inequality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

/// Declares property tests: each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` that runs the body over generated cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[macro_export]
#[doc(hidden)]
macro_rules! __proptest_items {
    ( ($cfg:expr) ) => {};
    ( ($cfg:expr)
      $(#[$meta:meta])*
      fn $name:ident ( $($pat:pat in $strat:expr),* $(,)? ) $body:block
      $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::ProptestConfig = $cfg;
            for __case in 0..u64::from(__cfg.cases) {
                let mut __rng = $crate::TestRng::for_case(stringify!($name), __case);
                let ($($pat,)*) =
                    ($($crate::generate_one(&($strat), &mut __rng),)*);
                $crate::run_case(|| $body);
            }
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(x in 3usize..10, y in 1e-3f64..1.0) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((1e-3..1.0).contains(&y));
        }

        #[test]
        fn vec_lengths_respect_spec(
            v in collection::vec(any::<bool>(), 4),
            w in collection::vec(0usize..5, 1..7),
        ) {
            prop_assert_eq!(v.len(), 4);
            prop_assert!((1..7).contains(&w.len()));
            prop_assert!(w.iter().all(|&e| e < 5));
        }

        #[test]
        fn combinators_compose(
            n in (2usize..6)
                .prop_flat_map(|n| (Just(n), collection::vec(any::<u32>(), n)))
                .prop_map(|(n, v)| (n, v.len()))
                .prop_filter("lens agree", |(n, l)| n == l),
        ) {
            prop_assert_eq!(n.0, n.1);
        }

        #[test]
        fn mut_bindings_work(mut data in collection::vec(0usize..100, 1..20)) {
            data.sort_unstable();
            prop_assert!(data.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    static EARLY_RETURN_CASES: AtomicU64 = AtomicU64::new(0);

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        fn returns_early_on_odd_draws(x in 0u32..100) {
            EARLY_RETURN_CASES.fetch_add(1, Ordering::SeqCst);
            if x % 2 == 1 {
                return;
            }
            prop_assert_eq!(x % 2, 0);
        }
    }

    #[test]
    fn an_early_return_ends_only_its_own_case() {
        returns_early_on_odd_draws();
        assert_eq!(EARLY_RETURN_CASES.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn cases_are_deterministic() {
        let mut a = TestRng::for_case("t", 3);
        let mut b = TestRng::for_case("t", 3);
        let s = 0usize..1000;
        assert_eq!(generate_one(&s, &mut a), generate_one(&s, &mut b));
    }
}
