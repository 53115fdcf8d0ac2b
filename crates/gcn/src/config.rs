//! GCN architecture configuration.

use matrix::Activation;
use serde::{Deserialize, Serialize};

/// Architecture of a GCN model: the per-layer feature dimensions and the
/// hidden activation.
///
/// The dimension list has one more entry than there are layers: layer `t`
/// maps `dims[t] -> dims[t+1]`.
///
/// # Examples
///
/// ```
/// use gcn::GcnConfig;
///
/// // The paper's 3-layer model: input 128, hidden K = 64, output 40.
/// let c = GcnConfig::paper_model(128, 64, 40);
/// assert_eq!(c.num_layers(), 3);
/// assert_eq!(c.dims, vec![128, 64, 64, 40]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GcnConfig {
    /// Feature dimension at each layer boundary (`num_layers + 1` entries).
    pub dims: Vec<usize>,
    /// Activation applied after every hidden layer (the output layer is
    /// always [`Activation::Identity`]).
    pub hidden_activation: Activation,
    /// Whether layers carry a bias vector.
    pub bias: bool,
}

impl GcnConfig {
    /// Builds a config from an explicit dimension list.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two dimensions are given (no layers).
    pub fn from_dims(dims: Vec<usize>) -> Self {
        assert!(dims.len() >= 2, "a GCN needs at least one layer");
        GcnConfig {
            dims,
            hidden_activation: Activation::Relu,
            bias: true,
        }
    }

    /// The paper's three-layer model: `input -> K -> K -> output` with ReLU
    /// hidden activations. `hidden` is the embedding dimension the paper
    /// sweeps from 8 to 256.
    pub fn paper_model(input: usize, hidden: usize, output: usize) -> Self {
        GcnConfig::from_dims(vec![input, hidden, hidden, output])
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.dims.len() - 1
    }

    /// Input feature dimension.
    pub fn input_dim(&self) -> usize {
        self.dims[0]
    }

    /// Output dimension.
    pub fn output_dim(&self) -> usize {
        *self.dims.last().expect("dims is non-empty")
    }

    /// Dimensions of layer `t` as `(in, out)`.
    ///
    /// # Panics
    ///
    /// Panics if `t >= num_layers()`.
    pub fn layer_dims(&self, t: usize) -> (usize, usize) {
        (self.dims[t], self.dims[t + 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_model_is_three_layers() {
        let c = GcnConfig::paper_model(100, 256, 47);
        assert_eq!(c.num_layers(), 3);
        assert_eq!(c.input_dim(), 100);
        assert_eq!(c.output_dim(), 47);
        assert_eq!(c.layer_dims(1), (256, 256));
    }

    #[test]
    #[should_panic(expected = "at least one layer")]
    fn single_dim_is_rejected() {
        GcnConfig::from_dims(vec![8]);
    }
}
