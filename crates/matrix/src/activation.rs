//! Element-wise activation functions (the `sigma` in a GCN layer).

use serde::{Deserialize, Serialize};
use std::fmt;

/// An element-wise non-linearity applied after the dense update.
///
/// The paper's GCN model uses ReLU between layers and no activation on the
/// output layer; both are representable here.
///
/// # Examples
///
/// ```
/// use matrix::Activation;
///
/// assert_eq!(Activation::Relu.apply(-2.0), 0.0);
/// assert_eq!(Activation::Relu.apply(3.0), 3.0);
/// assert_eq!(Activation::Identity.apply(-2.0), -2.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Activation {
    /// `max(0, x)` — the default hidden-layer activation.
    #[default]
    Relu,
    /// Leaky ReLU with a fixed negative slope of 0.01.
    LeakyRelu,
    /// Logistic sigmoid `1 / (1 + e^-x)`.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// No-op; used on output layers that feed a softmax/loss elsewhere.
    Identity,
}

impl Activation {
    /// Applies the activation to a single value.
    pub fn apply(self, x: f32) -> f32 {
        match self {
            Activation::Relu => x.max(0.0),
            Activation::LeakyRelu => {
                if x >= 0.0 {
                    x
                } else {
                    0.01 * x
                }
            }
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Activation::Tanh => x.tanh(),
            Activation::Identity => x,
        }
    }

    /// Applies the activation to every element of `data`, in place.
    ///
    /// [`Activation::Identity`] is a true no-op (no pass over the data), so
    /// output layers pay nothing.
    pub fn apply_in_place(self, data: &mut [f32]) {
        if self == Activation::Identity {
            return;
        }
        for x in data.iter_mut() {
            *x = self.apply(*x);
        }
    }

    /// Approximate FLOPs charged per element, used by the platform timing
    /// models to cost the "glue code" phase.
    pub fn flops_per_element(self) -> f64 {
        match self {
            Activation::Identity => 0.0,
            Activation::Relu | Activation::LeakyRelu => 1.0,
            Activation::Sigmoid | Activation::Tanh => 4.0,
        }
    }
}

impl fmt::Display for Activation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Activation::Relu => "relu",
            Activation::LeakyRelu => "leaky_relu",
            Activation::Sigmoid => "sigmoid",
            Activation::Tanh => "tanh",
            Activation::Identity => "identity",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        assert_eq!(Activation::Relu.apply(-1.0), 0.0);
        assert_eq!(Activation::Relu.apply(0.0), 0.0);
        assert_eq!(Activation::Relu.apply(2.5), 2.5);
    }

    #[test]
    fn leaky_relu_preserves_small_negative_signal() {
        assert!((Activation::LeakyRelu.apply(-1.0) + 0.01).abs() < 1e-7);
        assert_eq!(Activation::LeakyRelu.apply(5.0), 5.0);
    }

    #[test]
    fn sigmoid_is_bounded_and_centered() {
        let s = Activation::Sigmoid;
        assert!((s.apply(0.0) - 0.5).abs() < 1e-6);
        assert!(s.apply(100.0) <= 1.0);
        assert!(s.apply(-100.0) >= 0.0);
    }

    #[test]
    fn tanh_is_odd() {
        let t = Activation::Tanh;
        assert!((t.apply(0.7) + t.apply(-0.7)).abs() < 1e-6);
    }

    #[test]
    fn apply_in_place_matches_scalar_apply() {
        let mut v = vec![-2.0, -0.5, 0.0, 0.5, 2.0];
        let expected: Vec<f32> = v.iter().map(|&x| Activation::Relu.apply(x)).collect();
        Activation::Relu.apply_in_place(&mut v);
        assert_eq!(v, expected);
    }

    #[test]
    fn identity_apply_in_place_is_noop() {
        let mut v = vec![-1.0, 2.0];
        Activation::Identity.apply_in_place(&mut v);
        assert_eq!(v, vec![-1.0, 2.0]);
    }

    #[test]
    fn display_names_are_stable() {
        assert_eq!(Activation::Relu.to_string(), "relu");
        assert_eq!(Activation::Identity.to_string(), "identity");
    }

    #[test]
    fn flop_costs_are_ordered() {
        assert_eq!(Activation::Identity.flops_per_element(), 0.0);
        assert!(Activation::Relu.flops_per_element() < Activation::Sigmoid.flops_per_element());
    }
}
