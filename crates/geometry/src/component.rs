//! Component extraction "mappings": project a single channel (or a channel
//! derivative) back out of the MFD. These serve as ablation baselines — the
//! degenerate aggregation that ignores cross-channel geometry.

use crate::mapping::{finite, MappingFunction};
use crate::{GeometryError, Result};
use mfod_fda::{Grid, MultiFunctionalDatum};

/// Extracts channel `channel`'s `deriv`-th derivative evaluated on the grid.
///
/// With `deriv = 0` this is the identity representation of one channel; it
/// deliberately discards all cross-channel structure, which is exactly what
/// the geometric mappings are designed to keep — making this the natural
/// control condition in the mapping ablation (experiment A1).
#[derive(Debug, Clone, Copy)]
pub struct ComponentMapping {
    channel: usize,
    deriv: usize,
}

impl ComponentMapping {
    /// Mapping that evaluates channel `channel` itself.
    pub fn value(channel: usize) -> Self {
        ComponentMapping { channel, deriv: 0 }
    }

    /// Mapping that evaluates the `deriv`-th derivative of `channel`.
    pub fn derivative(channel: usize, deriv: usize) -> Self {
        ComponentMapping { channel, deriv }
    }

    /// The extracted channel index.
    pub fn channel(&self) -> usize {
        self.channel
    }

    /// The derivative order.
    pub fn deriv(&self) -> usize {
        self.deriv
    }
}

impl MappingFunction for ComponentMapping {
    fn name(&self) -> &'static str {
        "component"
    }

    fn snapshot(&self) -> Option<crate::snapshot::MappingSnapshot> {
        Some(crate::snapshot::MappingSnapshot::Component {
            channel: self.channel,
            deriv: self.deriv,
        })
    }

    fn map(&self, datum: &MultiFunctionalDatum, grid: &Grid) -> Result<Vec<f64>> {
        let channel = datum
            .channel(self.channel)
            .ok_or(GeometryError::ChannelOutOfRange {
                channel: self.channel,
                dim: datum.dim(),
            })?;
        finite(channel.eval_grid_deriv(grid, self.deriv))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfod_fda::prelude::*;
    use std::sync::Arc;

    fn datum() -> MultiFunctionalDatum {
        let basis: Arc<dyn Basis> = Arc::new(PolynomialBasis::new(0.0, 1.0, 3).unwrap());
        let x = FunctionalDatum::new(Arc::clone(&basis), vec![1.0, 0.0, 0.0]).unwrap();
        let y = FunctionalDatum::new(basis, vec![0.0, 0.0, 1.0]).unwrap(); // t²
        MultiFunctionalDatum::new(vec![x, y]).unwrap()
    }

    #[test]
    fn value_extraction() {
        let grid = Grid::uniform(0.0, 1.0, 3).unwrap();
        let v = ComponentMapping::value(1).map(&datum(), &grid).unwrap();
        assert_eq!(v.len(), 3);
        assert!((v[1] - 0.25).abs() < 1e-12);
        assert!((v[2] - 1.0).abs() < 1e-12);
        assert_eq!(ComponentMapping::value(1).channel(), 1);
        assert_eq!(ComponentMapping::value(1).deriv(), 0);
    }

    #[test]
    fn derivative_extraction() {
        let grid = Grid::uniform(0.0, 1.0, 3).unwrap();
        let m = ComponentMapping::derivative(1, 1);
        let v = m.map(&datum(), &grid).unwrap();
        // D(t²) = 2t
        assert!((v[1] - 1.0).abs() < 1e-12);
        assert!((v[2] - 2.0).abs() < 1e-12);
        assert_eq!(m.deriv(), 1);
    }

    #[test]
    fn out_of_range_channel() {
        let grid = Grid::uniform(0.0, 1.0, 3).unwrap();
        assert!(matches!(
            ComponentMapping::value(7).map(&datum(), &grid),
            Err(GeometryError::ChannelOutOfRange { .. })
        ));
    }
}
