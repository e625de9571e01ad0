//! Tabular Q-learning toolkit underpinning the Next agent.
//!
//! The paper models Next as Watkins-style Q-learning (§IV-B, Eq. 3):
//! a table of action values over a discretised state space, an ε-greedy
//! behaviour policy, and the update rule
//!
//! ```text
//! Q(s,a) ← Q(s,a) + α·(r − Q(s,a) + γ·max_a' Q(s',a'))
//! ```
//!
//! This crate provides the reusable machinery:
//!
//! * [`qtable`] — the Q-table with visit counting and a self-contained
//!   text codec for on-device persistence (the paper stores
//!   per-application tables and reloads them on later runs),
//! * [`backend`] — the [`QStore`] storage abstraction with three
//!   backends: the hash map for open-ended key spaces, the
//!   dense-indexed arena ([`DenseQTable`]) whose contiguous rows make
//!   the per-control-period argmax+update loop cache-friendly, and
//!   the copy-on-write [`overlay`] over an `Arc`-shared base,
//! * [`overlay`] — [`OverlayStore`], the campaign's per-device
//!   backend: O(1) warm start from a shared merged global, O(touched)
//!   resident memory and delta extraction,
//! * [`policy`] — ε-greedy action selection with decay schedules,
//! * [`learner`] — the Q-learning update rule,
//! * [`discretize`] — uniform quantisers, including the FPS quantiser
//!   whose bin count the paper sweeps in Fig. 6 (30 bins works best),
//! * [`federated`] — streaming visit-weighted federated averaging of
//!   device tables ([`MergeAccumulator`]: bounded memory, dense arena
//!   fast path) plus the cloud-training time model of §IV-C,
//! * [`codec`] — the compact `NXQT` binary table/delta codec used by
//!   campaign checkpoints and the delta-bytes uplink cost model, and
//!   the bounds-checked wire layer NXQT, NXCP and the tick trace share.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod codec;
pub mod discretize;
pub mod federated;
pub mod learner;
pub mod overlay;
pub mod policy;
pub mod qtable;

pub use backend::{DenseStore, HashStore, QStore};
pub use codec::{apply_delta, decode_table, delta_between, encode_table, CodecError};
pub use discretize::Quantizer;
pub use federated::{CloudModel, MergeAccumulator, MergeError};
pub use learner::QLearning;
pub use overlay::OverlayStore;
pub use policy::EpsilonGreedy;
pub use qtable::{DecodeQTableError, DenseQTable, QTable, StateKey};
