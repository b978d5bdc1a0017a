//! Graph-quality diagnostics: the out-degree of every node on a layer,
//! which the health report's degree skew reads. A long tail of
//! low-degree nodes or a few hubs on the routing layer explains uneven
//! routing before recall numbers show it.

use crate::HnswIndex;

/// Per-node out-degrees on `layer`, in node-id order (nodes that do
/// not reach the layer are skipped).
pub fn degree_histogram(index: &HnswIndex, layer: usize) -> Vec<usize> {
    (0..index.len() as u32)
        .filter(|&id| index.level_of(id) >= layer)
        .map(|id| index.neighbors(id, layer).len())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HnswParams;
    use vecsim::gen;

    #[test]
    fn layer_populations_shrink_upward() {
        let data = gen::uniform(8, 2_000, 0.0, 1.0, 4).unwrap();
        let idx = HnswIndex::build(data, &HnswParams::new(8, 60).seed(5)).unwrap();
        let nodes: Vec<usize> = (0..=idx.max_level())
            .map(|layer| degree_histogram(&idx, layer).len())
            .collect();
        assert_eq!(nodes[0], 2_000);
        assert!(nodes.windows(2).all(|w| w[0] >= w[1]), "{nodes:?}");
        assert!(degree_histogram(&idx, idx.max_level() + 1).is_empty());
    }

    #[test]
    fn degrees_respect_the_configured_caps() {
        let params = HnswParams::new(6, 40).seed(9);
        let data = gen::uniform(4, 600, 0.0, 1.0, 10).unwrap();
        let idx = HnswIndex::build(data, &params).unwrap();
        let widest = |layer| degree_histogram(&idx, layer).into_iter().max();
        assert!(widest(0).unwrap() <= params.m0());
        for layer in 1..=idx.max_level() {
            assert!(widest(layer).unwrap() <= params.m(), "L{layer}");
        }
    }
}
