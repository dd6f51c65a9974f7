//! Offline drop-in subset of the
//! [`proptest`](https://crates.io/crates/proptest) crate.
//!
//! The build environment has no crates.io access, so this workspace
//! vendors the slice of proptest it uses: composable [`Strategy`]
//! values (ranges, tuples, [`Just`], [`prelude::any`], mapped and
//! union strategies, [`collection::vec`]) plus the [`proptest!`],
//! [`prop_oneof!`], [`prop_assert!`], [`prop_assert_eq!`] and
//! [`prop_assume!`] macros.
//!
//! Semantics intentionally kept from upstream:
//!
//! * every generated case is *deterministic* — the RNG stream is
//!   seeded from the test name, so failures reproduce across runs;
//! * `prop_assume!` rejects a case without failing the test;
//! * the `PROPTEST_CASES` environment variable sets the number of cases
//!   each test runs (default [`CASES`]);
//! * `prop_assert*!` failures report the formatted message and panic
//!   the test (upstream additionally shrinks; this shim does not —
//!   cases are small enough here to debug unshrunk).
//!
//! ```
//! use proptest::prelude::*;
//!
//! // `proptest! { #[test] fn f(a in 0i32..100) { .. } }` expands to a
//! // `#[test]` wrapper around this engine:
//! proptest::run_cases("doc", (0i32..100, 0i32..100), |(a, b)| {
//!     prop_assert_eq!(a + b, b + a);
//!     Ok(())
//! });
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use core::ops::Range;

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

/// Number of random cases each `proptest!` test runs unless
/// `PROPTEST_CASES` is set.
pub const CASES: u32 = 192;

/// `PROPTEST_CASES` when it parses as a case count, else [`CASES`].
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(CASES)
}

/// The RNG handed to strategies during generation.
pub type TestRng = SmallRng;

/// Why a single generated case did not pass.
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// `prop_assume!` rejected the inputs; try another case.
    Reject(String),
    /// A `prop_assert*!` failed; the whole test fails.
    Fail(String),
}

impl TestCaseError {
    /// Creates a rejection (used by `prop_assume!`).
    pub fn reject(msg: impl Into<String>) -> Self {
        TestCaseError::Reject(msg.into())
    }

    /// Creates a failure (used by `prop_assert*!`).
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError::Fail(msg.into())
    }
}

/// Result type of one generated case.
pub type TestCaseResult = Result<(), TestCaseError>;

/// A recipe for generating random values of an output type.
///
/// Unlike upstream proptest there is no value tree / shrinking; a
/// strategy is simply a deterministic function of the RNG stream.
pub trait Strategy {
    /// The type of values this strategy produces.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<T, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> T,
    {
        Map { inner: self, f }
    }

    /// Type-erases the strategy so heterogeneous strategies can share
    /// one list (used by `prop_oneof!`).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// A type-erased strategy.
pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

impl<T> Strategy for Box<dyn Strategy<Value = T>> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        (**self).generate(rng)
    }
}

/// Strategy returned by [`Strategy::prop_map`].
#[derive(Clone, Debug)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, T> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> T,
{
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        (self.f)(self.inner.generate(rng))
    }
}

/// A strategy that always yields a clone of one value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Uniform choice between same-valued strategies (see [`prop_oneof!`]).
pub struct Union<T> {
    options: Vec<BoxedStrategy<T>>,
}

impl<T> Union<T> {
    /// Builds a union; panics if `options` is empty.
    pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
        Union { options }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        let i = rng.random_range(0..self.options.len());
        self.options[i].generate(rng)
    }
}

macro_rules! int_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.random_range(self.clone())
            }
        }
    )*};
}

int_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! tuple_strategy {
    ($($name:ident),*) => {
        impl<$($name: Strategy),*> Strategy for ($($name,)*) {
            type Value = ($($name::Value,)*);

            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)*) = self;
                ($($name.generate(rng),)*)
            }
        }
    };
}

tuple_strategy!(A);
tuple_strategy!(A, B);
tuple_strategy!(A, B, C);
tuple_strategy!(A, B, C, D);
tuple_strategy!(A, B, C, D, E);
tuple_strategy!(A, B, C, D, E, F);
tuple_strategy!(A, B, C, D, E, F, G);
tuple_strategy!(A, B, C, D, E, F, G, H);
tuple_strategy!(A, B, C, D, E, F, G, H, I);
tuple_strategy!(A, B, C, D, E, F, G, H, I, J);

/// Types with a canonical "any value" strategy (see [`prelude::any`]).
pub trait Arbitrary: Sized {
    /// The strategy [`prelude::any`] returns for this type.
    type Strategy: Strategy<Value = Self>;

    /// Builds the canonical strategy.
    fn arbitrary() -> Self::Strategy;
}

/// Strategy for a full-range primitive (returned by [`prelude::any`]).
#[derive(Clone, Debug, Default)]
pub struct AnyPrimitive<T> {
    _marker: core::marker::PhantomData<T>,
}

macro_rules! arbitrary_int {
    ($($t:ty),*) => {$(
        impl Strategy for AnyPrimitive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }

        impl Arbitrary for $t {
            type Strategy = AnyPrimitive<$t>;

            fn arbitrary() -> Self::Strategy {
                AnyPrimitive::default()
            }
        }
    )*};
}

arbitrary_int!(u8, u16, u32, u64, i8, i16, i32, i64, usize, isize);

impl Strategy for AnyPrimitive<bool> {
    type Value = bool;

    fn generate(&self, rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for bool {
    type Strategy = AnyPrimitive<bool>;

    fn arbitrary() -> Self::Strategy {
        AnyPrimitive::default()
    }
}

/// Collection strategies (`prop::collection::vec`).
pub mod collection {
    use super::{Strategy, TestRng};
    use core::ops::Range;
    use rand::Rng;

    /// Strategy for `Vec`s with a length drawn from `len`.
    #[derive(Clone, Debug)]
    pub struct VecStrategy<S> {
        elem: S,
        len: Range<usize>,
    }

    /// Generates vectors whose elements come from `elem` and whose
    /// length is uniform in `len`.
    pub fn vec<S: Strategy>(elem: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { elem, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = rng.random_range(self.len.clone());
            (0..n).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

/// Deterministically derives a 64-bit seed from a test's name.
pub fn seed_for(test_name: &str, case: u32) -> u64 {
    // FNV-1a over the name, mixed with the case index.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h ^ ((case as u64) << 32 | case as u64)
}

/// Runs `body` over `PROPTEST_CASES` (default [`CASES`]) generated
/// inputs. This is the engine behind the [`proptest!`] macro; exposed
/// so the macro expansion stays small.
pub fn run_cases<S, F>(test_name: &str, strategy: S, mut body: F)
where
    S: Strategy,
    F: FnMut(S::Value) -> TestCaseResult,
{
    let cases = cases();
    let mut rejected = 0u32;
    let mut ran = 0u32;
    let mut case = 0u32;
    while ran < cases {
        let mut rng = TestRng::seed_from_u64(seed_for(test_name, case));
        case += 1;
        let input = strategy.generate(&mut rng);
        match body(input) {
            Ok(()) => ran += 1,
            Err(TestCaseError::Reject(_)) => {
                rejected += 1;
                assert!(
                    rejected < cases.saturating_mul(16),
                    "{test_name}: too many prop_assume! rejections ({rejected})"
                );
            }
            Err(TestCaseError::Fail(msg)) => {
                panic!("{test_name}: case #{case} failed: {msg}");
            }
        }
    }
}

/// Everything a property test file needs, mirroring
/// `proptest::prelude`.
pub mod prelude {
    pub use crate::collection;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
    pub use crate::{
        Arbitrary, BoxedStrategy, Just, Strategy, TestCaseError, TestCaseResult, Union,
    };

    /// The `prop::` facade (`prop::collection::vec`, ...).
    pub mod prop {
        pub use crate::collection;
    }

    /// Returns the canonical strategy for `T` (full value range).
    pub fn any<T: Arbitrary>() -> T::Strategy {
        T::arbitrary()
    }
}

/// Declares property tests. Each `fn name(pat in strategy, ...) { .. }`
/// expands to a `#[test]` that runs the body over `PROPTEST_CASES`
/// (default [`CASES`]) generated inputs.
#[macro_export]
macro_rules! proptest {
    ($($(#[$meta:meta])* fn $name:ident($($arg:pat in $strat:expr),* $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                $crate::run_cases(
                    stringify!($name),
                    ($($strat,)*),
                    |($($arg,)*)| -> $crate::TestCaseResult {
                        $body
                        Ok(())
                    },
                );
            }
        )*
    };
}

/// Uniformly picks one of several strategies producing the same type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($strat)),+])
    };
}

/// Like `assert!`, but reports through the property-test harness.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        // `{}`-interpolate the stringified condition rather than
        // concat!-ing it into the format string, so conditions that
        // contain braces (`matches!(x, E::V { .. })`) stay valid.
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Like `assert_eq!`, but reports through the property-test harness.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{:?} == {:?}`",
            l,
            r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{:?} == {:?}`: {}",
            l,
            r,
            format!($($fmt)*)
        );
    }};
}

/// Like `assert_ne!`, but reports through the property-test harness.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l != *r, "assertion failed: `{:?} != {:?}`", l, r);
    }};
}

/// Rejects the current case (without failing) unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::TestCaseError::reject(concat!(
                "assume failed: ",
                stringify!($cond)
            )));
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_and_maps(x in 0u8..10, y in (0i32..5).prop_map(|v| v * 2)) {
            prop_assert!(x < 10);
            prop_assert!(y % 2 == 0 && (0..10).contains(&y));
        }

        #[test]
        fn oneof_and_collections(
            v in collection::vec(prop_oneof![Just(1u32), Just(2), 5u32..7], 1..20),
            b in any::<bool>(),
        ) {
            prop_assert!(!v.is_empty() && v.len() < 20);
            prop_assert!(v.iter().all(|&x| x == 1 || x == 2 || x == 5 || x == 6));
            prop_assume!(b);
            prop_assert!(b);
        }

        #[test]
        fn assume_rejects_without_failing(x in 0u32..100) {
            prop_assume!(x % 2 == 0);
            prop_assert_eq!(x % 2, 0);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let one: Vec<u32> = {
            let mut rng = crate::TestRng::seed_from_u64(crate::seed_for("t", 0));
            (0..8).map(|_| (0u32..100).generate(&mut rng)).collect()
        };
        let two: Vec<u32> = {
            let mut rng = crate::TestRng::seed_from_u64(crate::seed_for("t", 0));
            (0..8).map(|_| (0u32..100).generate(&mut rng)).collect()
        };
        assert_eq!(one, two);
    }

    use rand::SeedableRng;
}
