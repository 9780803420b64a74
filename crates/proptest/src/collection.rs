//! Collection strategies.

use std::ops::Range;

use crate::strategy::Strategy;
use crate::test_runner::TestRng;

/// Strategy for `Vec<T>` with element strategy `S`; see [`vec()`].
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    element: S,
    len: Range<usize>,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let len = self.len.clone().generate(rng);
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}

/// A strategy producing vectors whose length is drawn from `len` and
/// whose elements come from `element`.
#[must_use]
pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
    VecStrategy { element, len }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbitrary::any;

    #[test]
    fn lengths_stay_in_range() {
        let strat = vec(any::<u8>(), 3..9);
        let mut rng = TestRng::new(99);
        for _ in 0..64 {
            let v = strat.generate(&mut rng);
            assert!((3..9).contains(&v.len()));
        }
    }
}
