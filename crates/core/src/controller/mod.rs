//! The reinforcement-learning controllers of the decision engine (Fig. 6):
//! a bidirectional-LSTM **partition controller**, a bidirectional-LSTM
//! **compression controller**, and the Monte-Carlo policy-gradient
//! machinery that trains them (§VI-C/D).

mod compression;
mod embed;
mod feature;
mod learning_tests;
mod partition;
mod policy;

pub use compression::{CompressionController, HeadState, NONE_OPTION, NUM_OPTIONS};
pub use embed::{embed_layer, embed_model, EMBED_DIM};
pub use feature::{FeatureController, FEATURE_EMBED_DIM};
pub use partition::{PartitionAction, PartitionController};
pub use policy::{sample_masked, EpisodeTape, ForwardCache, Reinforce};
