//! Explicit DAG form of a model.
//!
//! For networks with skip connections the *dataflow graph* is a genuine
//! DAG rather than a chain. [`ModelDag::from_spec`] expands a
//! [`ModelSpec`] — including its composite residual / Fire /
//! inverted-residual blocks — into primitive dataflow nodes with explicit
//! predecessor edges and per-node MACC counts. Its MACC total is an
//! independent check of the chain form's accounting.

use crate::layer::{LayerSpec, Shape};
use crate::model::ModelSpec;

/// The computational role of a DAG node.
#[derive(Debug, Clone, PartialEq)]
pub enum DagOp {
    /// A primitive layer (conv / depthwise / fc / pool / …).
    Layer(LayerSpec),
    /// Elementwise addition joining a residual body and its skip path.
    Add,
    /// Channel concatenation joining Fire-module expand paths.
    Concat,
}

/// One node of the dataflow DAG.
#[derive(Debug, Clone, PartialEq)]
pub struct DagNode {
    /// The operation.
    pub op: DagOp,
    /// Indices of predecessor nodes (empty for nodes fed by the input).
    pub preds: Vec<usize>,
    /// Output shape.
    pub output: Shape,
    /// MACC cost of this node.
    pub maccs: u64,
}

/// A model's dataflow DAG. Nodes are stored in topological order (every
/// predecessor index is smaller than the node's own index).
#[derive(Debug, Clone, PartialEq)]
pub struct ModelDag {
    nodes: Vec<DagNode>,
}

impl ModelDag {
    /// Expands `spec` into its primitive dataflow DAG.
    pub fn from_spec(spec: &ModelSpec) -> Self {
        let mut dag = ModelDag { nodes: Vec::new() };
        // `frontier` is the node producing the current activation
        // (None = the network input).
        let mut frontier: Option<usize> = None;
        let mut shape = spec.input_shape();
        for layer in spec.layers() {
            frontier = Some(dag.expand_layer(layer, frontier, shape));
            shape = layer.output_shape(shape).expect("validated shapes");
        }
        dag
    }

    /// The nodes, topologically ordered.
    pub fn nodes(&self) -> &[DagNode] {
        &self.nodes
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the DAG is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Total MACCs (equals the spec's total).
    pub fn total_maccs(&self) -> u64 {
        self.nodes.iter().map(|n| n.maccs).sum()
    }

    fn push(&mut self, op: DagOp, preds: Vec<usize>, input: Shape) -> usize {
        let (output, maccs) = match &op {
            DagOp::Layer(l) => (
                l.output_shape(input).expect("validated shapes"),
                l.maccs(input),
            ),
            // Joins keep the (already combined) shape and are free.
            DagOp::Add | DagOp::Concat => (input, 0),
        };
        self.nodes.push(DagNode {
            op,
            preds,
            output,
            maccs,
        });
        self.nodes.len() - 1
    }

    fn pred_vec(frontier: Option<usize>) -> Vec<usize> {
        frontier.into_iter().collect()
    }

    /// Expands one spec layer (possibly composite) and returns the node
    /// producing its output.
    fn expand_layer(&mut self, layer: &LayerSpec, frontier: Option<usize>, input: Shape) -> usize {
        match layer {
            LayerSpec::Fire {
                squeeze,
                expand1,
                expand3,
            } => {
                let sq = self.push(
                    DagOp::Layer(LayerSpec::conv(1, 1, 0, *squeeze)),
                    Self::pred_vec(frontier),
                    input,
                );
                let mid = self.nodes[sq].output;
                let e1 = self.push(
                    DagOp::Layer(LayerSpec::conv(1, 1, 0, *expand1)),
                    vec![sq],
                    mid,
                );
                let e3 = self.push(
                    DagOp::Layer(LayerSpec::conv(3, 1, 1, *expand3)),
                    vec![sq],
                    mid,
                );
                let joined = Shape::new(expand1 + expand3, mid.h, mid.w);
                self.push(DagOp::Concat, vec![e1, e3], joined)
            }
            LayerSpec::InvertedResidual {
                expansion,
                stride,
                out_channels,
            } => {
                let hidden = input.c * expansion;
                let expand = self.push(
                    DagOp::Layer(LayerSpec::conv(1, 1, 0, hidden)),
                    Self::pred_vec(frontier),
                    input,
                );
                let mid = self.nodes[expand].output;
                let dw = self.push(
                    DagOp::Layer(LayerSpec::DepthwiseConv2d {
                        kernel: 3,
                        stride: *stride,
                        pad: 1,
                    }),
                    vec![expand],
                    mid,
                );
                let dw_out = self.nodes[dw].output;
                let project = self.push(
                    DagOp::Layer(LayerSpec::conv(1, 1, 0, *out_channels)),
                    vec![dw],
                    dw_out,
                );
                if *stride == 1 && *out_channels == input.c {
                    let mut preds = vec![project];
                    preds.extend(frontier);
                    let out = self.nodes[project].output;
                    self.push(DagOp::Add, preds, out)
                } else {
                    project
                }
            }
            LayerSpec::Residual { body, projection } => {
                let entry = frontier;
                let mut cur = frontier;
                let mut shape = input;
                for l in body {
                    cur = Some(self.expand_layer(l, cur, shape));
                    shape = l.output_shape(shape).expect("validated shapes");
                }
                let body_out = cur.expect("residual body is non-empty");
                let skip = match projection {
                    Some((out_c, stride)) => Some(self.push(
                        DagOp::Layer(LayerSpec::Conv2d {
                            kernel: 1,
                            stride: *stride,
                            pad: 0,
                            out_channels: *out_c,
                        }),
                        Self::pred_vec(entry),
                        input,
                    )),
                    None => entry,
                };
                let mut preds = vec![body_out];
                preds.extend(skip);
                self.push(DagOp::Add, preds, shape)
            }
            primitive => self.push(
                DagOp::Layer(primitive.clone()),
                Self::pred_vec(frontier),
                input,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;

    #[test]
    fn chain_model_expands_to_chain_dag() {
        let spec = zoo::vgg11_cifar();
        let dag = ModelDag::from_spec(&spec);
        assert_eq!(dag.len(), spec.len());
        // Every node has at most one predecessor in a chain.
        for n in dag.nodes() {
            assert!(n.preds.len() <= 1);
        }
        assert_eq!(dag.total_maccs(), spec.total_maccs());
    }

    #[test]
    fn fire_expands_to_diamond() {
        use crate::layer::LayerSpec;
        let spec = ModelSpec::new(
            "fire",
            Shape::new(32, 8, 8),
            vec![LayerSpec::Fire {
                squeeze: 8,
                expand1: 16,
                expand3: 16,
            }],
        )
        .unwrap();
        let dag = ModelDag::from_spec(&spec);
        // squeeze, e1, e3, concat.
        assert_eq!(dag.len(), 4);
        let concat = &dag.nodes()[3];
        assert_eq!(concat.op, DagOp::Concat);
        assert_eq!(concat.preds, vec![1, 2]);
        assert_eq!(concat.output, Shape::new(32, 8, 8));
        assert_eq!(dag.total_maccs(), spec.total_maccs());
    }

    #[test]
    fn resnet_dag_has_skip_edges() {
        let spec = zoo::resnet_imagenet(zoo::ResNetDepth::D50);
        let dag = ModelDag::from_spec(&spec);
        assert_eq!(dag.total_maccs(), spec.total_maccs());
        // Residual adds have two predecessors.
        let adds: Vec<&DagNode> = dag.nodes().iter().filter(|n| n.op == DagOp::Add).collect();
        assert_eq!(adds.len(), 16, "ResNet50 has 16 bottleneck blocks");
        for add in adds {
            assert_eq!(add.preds.len(), 2);
        }
    }

    #[test]
    fn topological_order_holds() {
        let spec = zoo::resnet_imagenet(zoo::ResNetDepth::D50);
        let dag = ModelDag::from_spec(&spec);
        for (i, n) in dag.nodes().iter().enumerate() {
            for &p in &n.preds {
                assert!(p < i, "edge {p} -> {i} violates topological order");
            }
        }
    }

    #[test]
    fn inverted_residual_with_skip() {
        use crate::layer::LayerSpec;
        let spec = ModelSpec::new(
            "ir",
            Shape::new(16, 8, 8),
            vec![LayerSpec::InvertedResidual {
                expansion: 2,
                stride: 1,
                out_channels: 16,
            }],
        )
        .unwrap();
        let dag = ModelDag::from_spec(&spec);
        // expand, dw, project, add (skip from input => add has 1 node pred).
        assert_eq!(dag.len(), 4);
        let add = &dag.nodes()[3];
        assert_eq!(add.op, DagOp::Add);
        // Skip comes from the network input (entry frontier None), so the
        // add has only the project node as an in-graph predecessor.
        assert_eq!(add.preds, vec![2]);
    }
}
