//! # cadmc-core
//!
//! The primary contribution of *Context-Aware Deep Model Compression for
//! Edge Cloud Computing* (ICDCS 2020), reproduced in Rust: a
//! reinforcement-learning decision engine that jointly searches DNN
//! **partition** (edge/cloud placement) and **compression** strategies,
//! materializes them as a **context-aware model tree**, and composes the
//! deployed model on the fly as bandwidth fluctuates.
//!
//! Map from paper to modules:
//!
//! | Paper | Module |
//! |---|---|
//! | MDP formulation (§V-A) | [`delta::DeltaState`], [`controller`], [`RewardSpec`] |
//! | Reward function Eq. 7 (§V-B) | [`RewardSpec`] |
//! | LSTM controllers (§VI-C, Fig. 6) | [`controller`] |
//! | Alg. 1 optimal branch search | [`branch`] |
//! | Model tree + Alg. 2 composition (§VI-A) | [`tree`] |
//! | Alg. 3 tree search (§VI-B) | [`tree_search`] |
//! | Dynamic DNN surgery baseline | [`surgery`] (exact cut scan) |
//! | Random / ε-greedy baselines (Fig. 7) | [`baselines`] |
//! | Memo pool (§VII-A) | [`memo`] |
//! | Emulation & field harnesses (§VII-B) | [`executor`], [`experiments`] |
//! | Offline/online façade (Fig. 2) | [`engine`] |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
pub mod branch;
mod candidate;
mod context;
pub mod controller;
pub mod delta;
pub mod engine;
mod env;
pub mod executor;
pub mod experiments;
pub mod memo;
pub mod parallel;
pub mod persist;
mod proptests;
mod reward;
pub mod search;
pub mod surgery;
pub mod tree;
pub mod tree_cache;
pub mod tree_search;
pub mod validate;

pub use candidate::{Candidate, Partition};
pub use context::NetworkContext;
pub use env::EvalEnv;
pub use reward::{Evaluation, RewardSpec};
