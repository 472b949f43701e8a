//! Whole-model specifications, block slicing and cut-point accounting.

use serde::{Deserialize, Serialize};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::OnceLock;

use crate::layer::{LayerSpec, Shape, ShapeError};

/// Lazily-computed derived quantities of a [`ModelSpec`]: the structural
/// hash and the per-layer / total MACC counts. Both are pure functions of
/// the spec, re-derived on demand — so the cache is invisible to equality,
/// serialization, and cloning, and is simply reset whenever the spec
/// changes (every mutation path goes through [`ModelSpec::new`] or
/// [`ModelSpec::set_name`]).
#[derive(Debug, Default)]
struct ModelCache {
    hash: OnceLock<u64>,
    /// `(per-layer MACCs, their sum)`.
    maccs: OnceLock<(Vec<u64>, u64)>,
    /// Cost-class prefix sums, `layers.len() + 1` entries; entry `i`
    /// covers layers `[0, i)`.
    class_prefix: OnceLock<Vec<ClassSums>>,
}

impl Clone for ModelCache {
    fn clone(&self) -> Self {
        let out = Self::default();
        if let Some(&h) = self.hash.get() {
            let _ = out.hash.set(h);
        }
        if let Some(m) = self.maccs.get() {
            let _ = out.maccs.set(m.clone());
        }
        if let Some(p) = self.class_prefix.get() {
            let _ = out.class_prefix.set(p.clone());
        }
        out
    }
}

/// Grouped cost totals for a contiguous layer range: how many layers in
/// the range carry nonzero MACCs, and the MACC total per latency cost
/// class (see [`LayerSpec::cost_class`]).
///
/// Device latency over a range is an exact function of these integers —
/// `overhead · weighted_layers + Σ_class coeff[class] · maccs[class]` —
/// so differences of prefix sums reproduce a scalar walk bit-for-bit:
/// integer sums are associative, and the final float expression is
/// evaluated in one fixed order either way.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClassSums {
    /// Number of layers in the range with nonzero MACC cost (each pays
    /// the device's per-layer overhead once).
    pub weighted_layers: u64,
    /// Total MACCs per cost class.
    pub maccs: [u64; LayerSpec::NUM_COST_CLASSES],
}

impl ClassSums {
    /// Accumulates one layer's contribution.
    fn add_layer(&mut self, class: Option<usize>, maccs: u64) {
        if maccs == 0 {
            return;
        }
        self.weighted_layers += 1;
        // A layer with nonzero MACCs always has a cost class; the
        // fallback keeps the sum total-preserving even if a future layer
        // kind forgets to declare one.
        let class = class.unwrap_or(1);
        self.maccs[class] += maccs;
    }

    /// The range `[start, end)` as a difference of two prefixes
    /// (`self` covers `[0, end)`, `earlier` covers `[0, start)`).
    fn minus(mut self, earlier: &ClassSums) -> ClassSums {
        self.weighted_layers -= earlier.weighted_layers;
        for (m, e) in self.maccs.iter_mut().zip(earlier.maccs) {
            *m -= e;
        }
        self
    }
}

// The cache carries no information beyond what the spec itself determines.
impl PartialEq for ModelCache {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Serialize for ModelCache {
    fn serialize(&self) -> serde::Value {
        serde::Value::Null
    }
}

impl Deserialize for ModelCache {
    fn deserialize(_: &serde::Value) -> Result<Self, serde::DeError> {
        Ok(Self::default())
    }
}

/// A sequential DNN specification: the substrate every search strategy in
/// the paper manipulates.
///
/// The paper's decision engine treats the DNN as a chain of layers grouped
/// into `N` blocks; partition happens at layer granularity, compression at
/// layer granularity within the edge part.
///
/// # Examples
///
/// ```
/// use cadmc_nn::{LayerSpec, ModelSpec, Shape};
///
/// let spec = ModelSpec::new(
///     "toy",
///     Shape::new(3, 32, 32),
///     vec![
///         LayerSpec::conv(3, 1, 1, 16),
///         LayerSpec::max_pool(2, 2),
///         LayerSpec::Flatten,
///         LayerSpec::fc(10),
///     ],
/// ).unwrap();
/// assert_eq!(spec.output_shape(), Shape::features(10));
/// assert!(spec.total_maccs() > 0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelSpec {
    name: String,
    input: Shape,
    layers: Vec<LayerSpec>,
    /// Output shape after each layer (same length as `layers`).
    shapes: Vec<Shape>,
    /// Memoized structural hash and MACC counts (serialized as null,
    /// rebuilt on demand after deserialization).
    cache: ModelCache,
}

impl ModelSpec {
    /// Builds and shape-checks a model.
    ///
    /// # Errors
    ///
    /// Returns the first [`ShapeError`] encountered while propagating the
    /// input shape through `layers`.
    pub fn new(
        name: impl Into<String>,
        input: Shape,
        layers: Vec<LayerSpec>,
    ) -> Result<Self, ShapeError> {
        let mut shapes = Vec::with_capacity(layers.len());
        let mut s = input;
        for layer in &layers {
            s = layer.output_shape(s)?;
            shapes.push(s);
        }
        Ok(Self {
            name: name.into(),
            input,
            layers,
            shapes,
            cache: ModelCache::default(),
        })
    }

    /// Model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the model (used by compression rewrites). Resets the cached
    /// structural hash, which covers the name.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
        self.cache = ModelCache::default();
    }

    /// Input shape.
    pub fn input_shape(&self) -> Shape {
        self.input
    }

    /// Final output shape.
    pub fn output_shape(&self) -> Shape {
        self.shapes.last().copied().unwrap_or(self.input)
    }

    /// The layer sequence.
    pub fn layers(&self) -> &[LayerSpec] {
        &self.layers
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the model has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Input shape of layer `i`.
    pub fn layer_input(&self, i: usize) -> Shape {
        if i == 0 {
            self.input
        } else {
            self.shapes[i - 1]
        }
    }

    /// Output shape of layer `i`.
    pub fn layer_output(&self, i: usize) -> Shape {
        self.shapes[i]
    }

    /// Per-layer MACCs and their sum, computed once per spec. Layer MACC
    /// inference walks the layer's arithmetic every call, and the searches
    /// ask for these counts on every candidate evaluation — memoizing them
    /// is one of the wins that makes parallel rollouts scale.
    fn maccs(&self) -> &(Vec<u64>, u64) {
        self.cache.maccs.get_or_init(|| {
            let per_layer: Vec<u64> = (0..self.layers.len())
                .map(|i| self.layers[i].maccs(self.layer_input(i)))
                .collect();
            let total = per_layer.iter().sum();
            (per_layer, total)
        })
    }

    /// MACCs of layer `i` given its in-network input shape.
    pub fn layer_maccs(&self, i: usize) -> u64 {
        self.maccs().0[i]
    }

    /// Total MACCs of the model (Eqs. 4–5 summed over layers).
    pub fn total_maccs(&self) -> u64 {
        self.maccs().1
    }

    /// Cost-class prefix sums (`len() + 1` entries), built once per spec.
    fn class_prefix(&self) -> &[ClassSums] {
        self.cache.class_prefix.get_or_init(|| {
            let mut prefix = Vec::with_capacity(self.layers.len() + 1);
            let mut acc = ClassSums::default();
            prefix.push(acc);
            for (i, layer) in self.layers.iter().enumerate() {
                acc.add_layer(layer.cost_class(), self.layer_maccs(i));
                prefix.push(acc);
            }
            prefix
        })
    }

    /// Grouped cost totals of layers `[start, end)` in O(1) via prefix-sum
    /// difference. An empty range yields the zero sums.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > len()`.
    pub fn class_sums(&self, start: usize, end: usize) -> ClassSums {
        assert!(
            start <= end && end <= self.layers.len(),
            "bad class-sum range"
        );
        let prefix = self.class_prefix();
        prefix[end].minus(&prefix[start])
    }

    /// Scalar oracle for [`ModelSpec::class_sums`]: walks the range layer
    /// by layer. Exists for differential testing — the prefix-sum path
    /// must agree with this to 0 ULP downstream.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > len()`.
    pub fn class_sums_scalar(&self, start: usize, end: usize) -> ClassSums {
        assert!(
            start <= end && end <= self.layers.len(),
            "bad class-sum range"
        );
        let mut acc = ClassSums::default();
        for i in start..end {
            acc.add_layer(self.layers[i].cost_class(), self.layer_maccs(i));
        }
        acc
    }

    /// Total trainable parameters.
    pub fn total_params(&self) -> u64 {
        (0..self.layers.len())
            .map(|i| self.layers[i].param_count(self.layer_input(i)))
            .sum()
    }

    /// Storage footprint of the weights as 4-byte floats.
    pub fn param_bytes(&self) -> u64 {
        self.total_params() * 4
    }

    /// Bytes transferred if the network is cut *after* layer `i`
    /// (`i == len()` means "run everything on the edge", cutting after the
    /// final layer; `i == 0`..`len()-1` sends the output features of layer
    /// `i`). Cutting "before layer 0" (send raw input) is `input_bytes`.
    pub fn cut_bytes_after(&self, i: usize) -> u64 {
        assert!(i < self.layers.len(), "cut index out of range");
        self.shapes[i].transfer_bytes()
    }

    /// Bytes of the raw input (cut before any layer: full cloud execution).
    pub fn input_bytes(&self) -> u64 {
        self.input.transfer_bytes()
    }

    /// The Eq. 1 state string for the whole model: one encoded layer per
    /// line, prefixed by the input shape.
    pub fn encode(&self) -> String {
        let mut s = format!("{}@{}", self.name, self.input);
        for l in &self.layers {
            s.push(';');
            s.push_str(&l.encode());
        }
        s
    }

    /// A stable 64-bit hash of the structural encoding — the key used by
    /// the search memo pool. Computed once per spec: the memo pool hashes
    /// every candidate it sees, and candidates are re-looked-up far more
    /// often than they are built.
    pub fn structural_hash(&self) -> u64 {
        *self.cache.hash.get_or_init(|| {
            let mut h = DefaultHasher::new();
            self.encode().hash(&mut h);
            h.finish()
        })
    }

    /// Replaces layer `i` with a sequence of layers, revalidating shapes.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] if the replacement breaks shape inference.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn replace_layer(
        &self,
        i: usize,
        replacement: Vec<LayerSpec>,
    ) -> Result<ModelSpec, ShapeError> {
        assert!(i < self.layers.len(), "layer index out of range");
        let mut layers = Vec::with_capacity(self.layers.len() + replacement.len());
        layers.extend_from_slice(&self.layers[..i]);
        layers.extend(replacement);
        layers.extend_from_slice(&self.layers[i + 1..]);
        ModelSpec::new(self.name.clone(), self.input, layers)
    }

    /// Extracts layers `[start, end)` as a standalone sub-model whose input
    /// shape is the in-network input of `start`.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] if the slice is not shape-consistent (it
    /// always is for untouched slices of a valid model).
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or empty.
    pub fn slice(&self, start: usize, end: usize) -> Result<ModelSpec, ShapeError> {
        assert!(start < end && end <= self.layers.len(), "bad slice range");
        ModelSpec::new(
            format!("{}[{start}..{end}]", self.name),
            self.layer_input(start),
            self.layers[start..end].to_vec(),
        )
    }

    /// Concatenates another model after this one.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] if `other`'s layers cannot consume this
    /// model's output shape.
    pub fn concat(&self, other: &ModelSpec) -> Result<ModelSpec, ShapeError> {
        let mut layers = self.layers.clone();
        layers.extend(other.layers.iter().cloned());
        ModelSpec::new(self.name.clone(), self.input, layers)
    }

    /// Splits the model into `n` blocks of roughly equal MACC cost,
    /// returning the block boundaries as layer-index ranges.
    ///
    /// Boundaries never split a layer, every block is non-empty (when
    /// `n <= len()`), and the concatenation of all blocks is the original
    /// layer sequence. This mirrors the paper's "slice the base DNN into
    /// blocks" step (Alg. 3 line 2) with N blocks.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > len()`.
    pub fn block_ranges(&self, n: usize) -> Vec<std::ops::Range<usize>> {
        assert!(n > 0, "block count must be positive");
        assert!(n <= self.layers.len(), "more blocks than layers");
        let total = self.total_maccs().max(1);
        let target = total / n as u64;
        let mut ranges = Vec::with_capacity(n);
        let mut start = 0usize;
        let mut acc = 0u64;
        for i in 0..self.layers.len() {
            acc += self.layer_maccs(i);
            let blocks_left = n - ranges.len();
            let layers_left = self.layers.len() - (i + 1);
            // Close the block when we pass the per-block budget, but always
            // leave at least one layer per remaining block.
            if ranges.len() + 1 < n && (acc >= target || layers_left < blocks_left) {
                ranges.push(start..i + 1);
                start = i + 1;
                acc = 0;
            }
        }
        ranges.push(start..self.layers.len());
        ranges
    }

    /// Splits into `n` block sub-models (see [`ModelSpec::block_ranges`]).
    pub fn blocks(&self, n: usize) -> Vec<ModelSpec> {
        self.block_ranges(n)
            .into_iter()
            .map(|r| self.slice(r.start, r.end).expect("valid block slice"))
            .collect()
    }
}

impl std::fmt::Display for ModelSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{} (input {}, {} layers, {:.1} MMACCs, {:.2} M params)",
            self.name,
            self.input,
            self.layers.len(),
            self.total_maccs() as f64 / 1e6,
            self.total_params() as f64 / 1e6,
        )?;
        for (i, l) in self.layers.iter().enumerate() {
            writeln!(
                f,
                "  {i:2}: {:<20} -> {:<12} {:>12} MACCs",
                l.encode(),
                self.layer_output(i).to_string(),
                self.layer_maccs(i)
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> ModelSpec {
        ModelSpec::new(
            "toy",
            Shape::new(3, 32, 32),
            vec![
                LayerSpec::conv(3, 1, 1, 16),
                LayerSpec::max_pool(2, 2),
                LayerSpec::conv(3, 1, 1, 32),
                LayerSpec::max_pool(2, 2),
                LayerSpec::Flatten,
                LayerSpec::fc(64),
                LayerSpec::fc(10),
            ],
        )
        .unwrap()
    }

    #[test]
    fn shapes_propagate() {
        let m = toy();
        assert_eq!(m.layer_output(0), Shape::new(16, 32, 32));
        assert_eq!(m.layer_output(1), Shape::new(16, 16, 16));
        assert_eq!(m.layer_output(3), Shape::new(32, 8, 8));
        assert_eq!(m.layer_output(4), Shape::features(32 * 8 * 8));
        assert_eq!(m.output_shape(), Shape::features(10));
    }

    #[test]
    fn total_maccs_is_sum_of_layers() {
        let m = toy();
        let sum: u64 = (0..m.len()).map(|i| m.layer_maccs(i)).sum();
        assert_eq!(m.total_maccs(), sum);
    }

    #[test]
    fn slice_concat_roundtrip() {
        let m = toy();
        let a = m.slice(0, 3).unwrap();
        let b = m.slice(3, m.len()).unwrap();
        let joined = a.concat(&b).unwrap();
        assert_eq!(joined.layers(), m.layers());
        assert_eq!(joined.total_maccs(), m.total_maccs());
    }

    #[test]
    fn replace_layer_revalidates() {
        let m = toy();
        // Replace conv(3,1,1,32) with depthwise+pointwise (MobileNet-style).
        let replaced = m
            .replace_layer(
                2,
                vec![
                    LayerSpec::DepthwiseConv2d {
                        kernel: 3,
                        stride: 1,
                        pad: 1,
                    },
                    LayerSpec::conv(1, 1, 0, 32),
                ],
            )
            .unwrap();
        assert_eq!(replaced.len(), m.len() + 1);
        assert_eq!(replaced.output_shape(), m.output_shape());
        assert!(replaced.total_maccs() < m.total_maccs());
    }

    #[test]
    fn replace_layer_rejects_bad_shapes() {
        let m = toy();
        // FC directly on a spatial feature map should fail.
        assert!(m.replace_layer(2, vec![LayerSpec::fc(10)]).is_err());
    }

    #[test]
    fn block_ranges_partition_all_layers() {
        let m = toy();
        for n in 1..=3 {
            let ranges = m.block_ranges(n);
            assert_eq!(ranges.len(), n);
            assert_eq!(ranges[0].start, 0);
            assert_eq!(ranges.last().unwrap().end, m.len());
            for pair in ranges.windows(2) {
                assert_eq!(pair[0].end, pair[1].start);
                assert!(!pair[0].is_empty());
            }
        }
    }

    #[test]
    fn blocks_concat_to_original() {
        let m = toy();
        let blocks = m.blocks(3);
        let mut joined = blocks[0].clone();
        for b in &blocks[1..] {
            joined = joined.concat(b).unwrap();
        }
        assert_eq!(joined.layers(), m.layers());
    }

    #[test]
    fn structural_hash_distinguishes_models() {
        let m = toy();
        let other = m
            .replace_layer(0, vec![LayerSpec::conv(3, 1, 1, 8)])
            .unwrap();
        assert_ne!(m.structural_hash(), other.structural_hash());
        assert_eq!(m.structural_hash(), toy().structural_hash());
    }

    #[test]
    fn cached_hash_tracks_renames() {
        let mut m = toy();
        let h0 = m.structural_hash();
        assert_eq!(m.structural_hash(), h0, "cached lookup is stable");
        m.set_name("renamed");
        assert_ne!(m.structural_hash(), h0, "rename must invalidate the hash");
    }

    #[test]
    fn clone_and_serde_roundtrip_preserve_derived_values() {
        let m = toy();
        let h = m.structural_hash();
        let maccs = m.total_maccs();
        let cloned = m.clone();
        assert_eq!(cloned.structural_hash(), h);
        assert_eq!(cloned.total_maccs(), maccs);
        let back = ModelSpec::deserialize(&m.serialize()).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.structural_hash(), h);
        assert_eq!(back.total_maccs(), maccs);
    }

    #[test]
    fn cut_bytes_match_shapes() {
        let m = toy();
        assert_eq!(m.cut_bytes_after(1), 16 * 16 * 16 * 4);
        assert_eq!(m.input_bytes(), 3 * 32 * 32 * 4);
    }

    #[test]
    fn display_contains_layers() {
        let text = toy().to_string();
        assert!(text.contains("Conv,3,1,1,16"));
        assert!(text.contains("FC,0,0,0,10"));
    }
}
