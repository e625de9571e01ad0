//! The Q-table: action values + visit counts over a storage backend.
//!
//! States are pre-encoded by the caller into a [`StateKey`] (the Next
//! agent packs its discretised observation tuple into the key), so the
//! table itself is domain-agnostic. Storage is pluggable through
//! [`QStore`]: [`HashStore`] for open-ended key spaces (federated
//! merging), [`DenseStore`] for the cache-friendly learn/act hot path —
//! see [`crate::backend`]. The text codec is shared, so a table encoded
//! on one backend decodes into the other bit-for-bit.

use std::fmt;
use std::fmt::Write as _;

use crate::backend::{DenseStore, HashStore, QStore};

pub use crate::backend::StateKey;

/// Error returned when decoding a persisted table fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeQTableError {
    line: usize,
    reason: String,
}

impl DecodeQTableError {
    /// 1-based input line the error was detected on.
    #[must_use]
    pub fn line(&self) -> usize {
        self.line
    }
}

impl fmt::Display for DecodeQTableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid q-table at line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for DecodeQTableError {}

/// Action-value table: `Q(s, a)` for a fixed-size action set, stored in
/// backend `S` (hash-map by default; see [`DenseQTable`] for the dense
/// hot-path backend).
///
/// Unvisited state-action pairs read the table's *default value*
/// (0 unless configured). Setting an **optimistic** default — above any
/// realistically achievable return — makes a greedy learner try every
/// action of every visited state at least once, the classic cure for
/// premature exploitation under positive rewards.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QTable<S: QStore = HashStore> {
    default_q: f64,
    store: S,
}

/// A Q-table on the dense-indexed arena backend — the learn/act hot
/// path: values and visits of all actions of a state live contiguously,
/// and argmax is a single probe plus one slice scan.
pub type DenseQTable = QTable<DenseStore>;

impl QTable<HashStore> {
    /// Creates an empty hash-backed table for `n_actions` actions with a
    /// default value of 0.
    ///
    /// # Panics
    ///
    /// Panics if `n_actions` is zero.
    #[must_use]
    pub fn new(n_actions: usize) -> Self {
        QTable::with_default_q(n_actions, 0.0)
    }

    /// Creates an empty hash-backed table whose unvisited pairs read
    /// `default_q` (use an optimistic value to drive exploration).
    ///
    /// # Panics
    ///
    /// Panics if `n_actions` is zero or `default_q` is not finite.
    #[must_use]
    pub fn with_default_q(n_actions: usize, default_q: f64) -> Self {
        QTable::empty(n_actions, default_q)
    }
}

impl QTable<DenseStore> {
    /// Creates an empty dense-backed table for `n_actions` actions with
    /// a default value of 0.
    ///
    /// # Panics
    ///
    /// Panics if `n_actions` is zero.
    #[must_use]
    pub fn dense(n_actions: usize) -> Self {
        QTable::empty(n_actions, 0.0)
    }

    /// Creates an empty dense-backed table whose unvisited pairs read
    /// `default_q`.
    ///
    /// # Panics
    ///
    /// Panics if `n_actions` is zero or `default_q` is not finite.
    #[must_use]
    pub fn dense_with_default_q(n_actions: usize, default_q: f64) -> Self {
        QTable::empty(n_actions, default_q)
    }

    /// Dense table for a **bounded** key space of `n_states` states
    /// (every key must stay below `n_states`, as a `StateSpace`
    /// encoding guarantees). Small spaces get the direct slot-table
    /// index — one array load per probe instead of a hash.
    ///
    /// # Panics
    ///
    /// Panics if `n_actions` is zero or `default_q` is not finite.
    #[must_use]
    pub fn dense_for_space(n_actions: usize, default_q: f64, n_states: u64) -> Self {
        assert!(default_q.is_finite(), "default q must be finite");
        QTable {
            default_q,
            store: DenseStore::with_space(n_actions, n_states),
        }
    }
}

impl<S: QStore> QTable<S> {
    /// Creates an empty table on backend `S`.
    ///
    /// # Panics
    ///
    /// Panics if `n_actions` is zero or `default_q` is not finite.
    #[must_use]
    pub fn empty(n_actions: usize, default_q: f64) -> Self {
        assert!(default_q.is_finite(), "default q must be finite");
        QTable {
            default_q,
            store: S::with_actions(n_actions),
        }
    }

    /// Creates an empty table laid out for a **bounded** key space of
    /// `n_states` states (every key must stay below `n_states`, as a
    /// `StateSpace` encoding guarantees). Space-aware backends use the
    /// hint — the dense backend gets its direct slot-table index — and
    /// the others ignore it.
    ///
    /// # Panics
    ///
    /// Panics if `n_actions` is zero or `default_q` is not finite.
    #[must_use]
    pub fn empty_for_space(n_actions: usize, default_q: f64, n_states: u64) -> Self {
        assert!(default_q.is_finite(), "default q must be finite");
        QTable {
            default_q,
            store: S::with_space(n_actions, n_states),
        }
    }

    /// Returns a table guaranteed to accept every key of a space of
    /// `n_states` states: `self` unchanged when its index already
    /// covers the space (hashed indexes always do), otherwise the rows
    /// re-homed into a store sized for the space. Use when warm-starting
    /// from a table whose declared space may have been smaller (e.g. a
    /// table trained at coarser FPS bins).
    #[must_use]
    pub fn resized_for_space(self, n_states: u64) -> Self {
        if self.store.covers_space(n_states) {
            return self;
        }
        let mut out: QTable<S> =
            QTable::empty_for_space(self.n_actions(), self.default_q, n_states);
        let default_q = self.default_q;
        self.store.for_each_row(&mut |state, values, visits| {
            let (v, n) = out.store.row_mut(state, default_q);
            v.copy_from_slice(values);
            n.copy_from_slice(visits);
        });
        out
    }

    /// Resident heap bytes attributable to this table's own rows (see
    /// [`QStore::resident_bytes`]): deterministic, capacity-blind, and
    /// excluding any storage the backend shares (an overlay's `Arc`
    /// base is counted once by whoever owns the base, not per clone).
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        self.store.resident_bytes()
    }

    /// Number of actions per state.
    #[must_use]
    pub fn n_actions(&self) -> usize {
        self.store.n_actions()
    }

    /// The value unvisited pairs read.
    #[must_use]
    pub fn default_q(&self) -> f64 {
        self.default_q
    }

    /// The storage backend's name (`"hash"`, `"dense"` or
    /// `"overlay"`).
    #[must_use]
    pub fn backend_name(&self) -> &'static str {
        S::backend_name()
    }

    /// Number of states with at least one recorded value.
    #[must_use]
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether the table has no states.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// `Q(state, action)`; unvisited pairs read the table default.
    ///
    /// Unvisited cells of a touched row physically hold the default
    /// (see [`QStore::row_mut`]), so this is a single probe plus one
    /// load — the visit row is never consulted.
    ///
    /// # Panics
    ///
    /// Panics if `action >= n_actions`.
    #[must_use]
    pub fn q(&self, state: StateKey, action: usize) -> f64 {
        assert!(action < self.n_actions(), "action {action} out of range");
        match self.store.row(state) {
            Some((values, _)) => values[action],
            None => self.default_q,
        }
    }

    /// All action values of `state` (defaults where unvisited).
    #[must_use]
    pub fn values(&self, state: StateKey) -> Vec<f64> {
        match self.store.row(state) {
            None => vec![self.default_q; self.n_actions()],
            Some((values, _)) => values.to_vec(),
        }
    }

    /// Overwrites `Q(state, action)` and counts a visit.
    ///
    /// # Panics
    ///
    /// Panics if `action >= n_actions` or `value` is not finite.
    pub fn set(&mut self, state: StateKey, action: usize, value: f64) {
        assert!(action < self.n_actions(), "action {action} out of range");
        assert!(value.is_finite(), "q-values must be finite");
        let (values, visits) = self.store.row_mut(state, self.default_q);
        values[action] = value;
        visits[action] += 1;
    }

    /// Visits recorded for `(state, action)`.
    #[must_use]
    pub fn visits(&self, state: StateKey, action: usize) -> u64 {
        self.store
            .row(state)
            .map_or(0, |(_, visits)| visits[action])
    }

    /// Total visits across the whole table.
    #[must_use]
    pub fn total_visits(&self) -> u64 {
        let mut total = 0u64;
        self.store
            .for_each_row(&mut |_, _, visits| total += visits.iter().sum::<u64>());
        total
    }

    /// The greedy action and its value (defaults apply to unvisited
    /// pairs); ties break towards the lowest action index. Use
    /// [`QTable::best_actions`] for the full argmax set.
    ///
    /// One row fetch, one branch-free contiguous scan of the value
    /// slice — the argmax never probes the backend per action and never
    /// loads the visit row.
    #[must_use]
    pub fn best_action(&self, state: StateKey) -> (usize, f64) {
        match self.store.row(state) {
            None => (0, self.default_q),
            Some((values, _)) => {
                let mut best = 0;
                let mut best_v = values[0];
                for (a, &v) in values.iter().enumerate().skip(1) {
                    if v > best_v {
                        best = a;
                        best_v = v;
                    }
                }
                (best, best_v)
            }
        }
    }

    /// All actions whose value ties the maximum (within `1e-12`).
    #[must_use]
    pub fn best_actions(&self, state: StateKey) -> Vec<usize> {
        let (_, best_v) = self.best_action(state);
        match self.store.row(state) {
            None => (0..self.n_actions()).collect(),
            Some((values, _)) => values
                .iter()
                .enumerate()
                .filter(|&(_, &v)| (v - best_v).abs() <= 1e-12)
                .map(|(a, _)| a)
                .collect(),
        }
    }

    /// `max_a Q(state, a)` (the default for fully unvisited states).
    #[must_use]
    pub fn max_q(&self, state: StateKey) -> f64 {
        self.best_action(state).1
    }

    /// Whether the state has been visited at least once.
    #[must_use]
    pub fn contains(&self, state: StateKey) -> bool {
        self.store.contains(state)
    }

    /// Iterator over `(state, action_values)` in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (StateKey, &[f64])> + '_ {
        self.store.state_keys().into_iter().map(move |k| {
            // qlint::allow(PN01, reason = "k comes from state_keys() of the same store, so the row exists")
            let (values, _) = self.store.row(k).expect("listed key has a row");
            (k, values)
        })
    }

    /// Rebuilds the table on a different storage backend, preserving all
    /// rows (and therefore the encoded form).
    #[must_use]
    pub fn to_backend<T: QStore>(&self) -> QTable<T> {
        let mut out: QTable<T> = QTable::empty(self.n_actions(), self.default_q);
        let default_q = self.default_q;
        self.store.for_each_row(&mut |state, values, visits| {
            let (v, n) = out.store.row_mut(state, default_q);
            v.copy_from_slice(values);
            n.copy_from_slice(visits);
        });
        out
    }

    /// Serialises the table to a line-oriented text format:
    ///
    /// ```text
    /// qtable v2 <n_actions> <default_q>
    /// <state> v0 v1 ... | n0 n1 ...
    /// ```
    ///
    /// The format carries no backend information: both backends encode
    /// identically (keys sorted) and decode into either.
    #[must_use]
    pub fn encode(&self) -> String {
        let mut out = format!("qtable v2 {} {:e}\n", self.n_actions(), self.default_q);
        for k in self.store.state_keys() {
            // qlint::allow(PN01, reason = "k comes from state_keys() of the same store, so the row exists")
            let (values, visits) = self.store.row(k).expect("listed key has a row");
            let vals: Vec<String> = values.iter().map(|v| format!("{v:e}")).collect();
            let vis: Vec<String> = visits.iter().map(u64::to_string).collect();
            let _ = writeln!(out, "{k} {} | {}", vals.join(" "), vis.join(" "));
        }
        out
    }

    /// Parses the format produced by [`QTable::encode`] into this
    /// backend.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeQTableError`] on any malformed input, including a
    /// state key that appears on more than one line (a silent last-wins
    /// merge would mask corrupted or hand-edited files).
    pub fn decode(text: &str) -> Result<Self, DecodeQTableError> {
        let mut lines = text.lines().enumerate();
        let (_, header) = lines.next().ok_or_else(|| DecodeQTableError {
            line: 1,
            reason: "empty input".to_owned(),
        })?;
        let mut parts = header.split_whitespace();
        let magic = parts.next();
        let version = parts.next();
        if magic != Some("qtable") || !matches!(version, Some("v1" | "v2")) {
            return Err(DecodeQTableError {
                line: 1,
                reason: "bad header".to_owned(),
            });
        }
        let n_actions: usize = parts
            .next()
            .and_then(|s| s.parse().ok())
            .filter(|&n| n > 0)
            .ok_or_else(|| DecodeQTableError {
                line: 1,
                reason: "bad action count".to_owned(),
            })?;
        let default_q: f64 = if version == Some("v2") {
            parts
                .next()
                .and_then(|s| s.parse().ok())
                .filter(|q: &f64| q.is_finite())
                .ok_or_else(|| DecodeQTableError {
                    line: 1,
                    reason: "bad default q".to_owned(),
                })?
        } else {
            0.0
        };
        let mut table: QTable<S> = QTable::empty(n_actions, default_q);
        for (idx, line) in lines {
            let lineno = idx + 1;
            if line.trim().is_empty() {
                continue;
            }
            let (left, right) = line.split_once('|').ok_or_else(|| DecodeQTableError {
                line: lineno,
                reason: "missing visit separator".to_owned(),
            })?;
            let mut left_it = left.split_whitespace();
            let state: StateKey =
                left_it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| DecodeQTableError {
                        line: lineno,
                        reason: "bad state key".to_owned(),
                    })?;
            let values: Vec<f64> = left_it
                .map(str::parse)
                .collect::<Result<Vec<f64>, _>>()
                .map_err(|e| DecodeQTableError {
                    line: lineno,
                    reason: e.to_string(),
                })?;
            let visits: Vec<u64> = right
                .split_whitespace()
                .map(str::parse)
                .collect::<Result<Vec<u64>, _>>()
                .map_err(|e| DecodeQTableError {
                    line: lineno,
                    reason: e.to_string(),
                })?;
            if values.len() != n_actions || visits.len() != n_actions {
                return Err(DecodeQTableError {
                    line: lineno,
                    reason: format!(
                        "expected {n_actions} values and visits, got {} and {}",
                        values.len(),
                        visits.len()
                    ),
                });
            }
            if values.iter().any(|v| !v.is_finite()) {
                return Err(DecodeQTableError {
                    line: lineno,
                    reason: "non-finite q-value".to_owned(),
                });
            }
            if table.store.contains(state) {
                return Err(DecodeQTableError {
                    line: lineno,
                    reason: format!("duplicate state {state}"),
                });
            }
            let (v, n) = table.store.row_mut(state, default_q);
            v.copy_from_slice(&values);
            n.copy_from_slice(&visits);
            // Canonicalise: an unvisited cell always *stores* the
            // default it reads as, whatever the input file carried —
            // that stored value is unobservable through q()/argmax.
            for (cell, &count) in v.iter_mut().zip(n.iter()) {
                if count == 0 {
                    *cell = default_q;
                }
            }
        }
        Ok(table)
    }

    /// Wraps a raw store into a table. The caller guarantees the store
    /// upholds the table invariant (unvisited cells physically hold
    /// `default_q`) — used by the federated merge accumulator after it
    /// normalises its weighted sums.
    ///
    /// # Panics
    ///
    /// Panics if `default_q` is not finite.
    pub(crate) fn from_store(default_q: f64, store: S) -> Self {
        assert!(default_q.is_finite(), "default q must be finite");
        QTable { default_q, store }
    }

    /// Read access to the raw store (crate-internal machinery).
    pub(crate) fn store(&self) -> &S {
        &self.store
    }

    /// Raw accessor used by the federated merger.
    pub(crate) fn entry_raw(&self, state: StateKey) -> Option<(&[f64], &[u64])> {
        self.store.row(state)
    }

    /// Raw writer used by the federated merger (replaces values and
    /// visits wholesale; unvisited cells are canonicalised to the
    /// table default they read as).
    pub(crate) fn insert_raw(&mut self, state: StateKey, values: &[f64], visits: &[u64]) {
        debug_assert_eq!(values.len(), self.n_actions());
        debug_assert_eq!(visits.len(), self.n_actions());
        let default_q = self.default_q;
        let (v, n) = self.store.row_mut(state, default_q);
        v.copy_from_slice(values);
        n.copy_from_slice(visits);
        for (cell, &count) in v.iter_mut().zip(n.iter()) {
            if count == 0 {
                *cell = default_q;
            }
        }
    }

    /// All state keys, sorted.
    #[must_use]
    pub fn state_keys(&self) -> Vec<StateKey> {
        self.store.state_keys()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unvisited_states_read_zero() {
        let t = QTable::new(9);
        assert_eq!(t.q(42, 3), 0.0);
        assert_eq!(t.best_action(42), (0, 0.0));
        assert_eq!(t.max_q(42), 0.0);
        assert!(!t.contains(42));
        assert!(t.is_empty());
    }

    #[test]
    fn set_and_best_action() {
        let mut t = QTable::new(3);
        t.set(7, 0, 0.1);
        t.set(7, 1, 0.9);
        t.set(7, 2, 0.5);
        assert_eq!(t.best_action(7), (1, 0.9));
        assert_eq!(t.len(), 1);
        assert_eq!(t.visits(7, 1), 1);
        assert_eq!(t.total_visits(), 3);
    }

    #[test]
    fn dense_matches_hash_on_basics() {
        let mut h = QTable::new(3);
        let mut d = DenseQTable::dense(3);
        for (s, a, v) in [
            (7u64, 0usize, 0.1f64),
            (7, 1, 0.9),
            (3, 2, -0.5),
            (7, 1, 0.7),
        ] {
            h.set(s, a, v);
            d.set(s, a, v);
        }
        assert_eq!(h.best_action(7), d.best_action(7));
        assert_eq!(h.best_actions(3), d.best_actions(3));
        assert_eq!(h.values(7), d.values(7));
        assert_eq!(h.total_visits(), d.total_visits());
        assert_eq!(h.state_keys(), d.state_keys());
        assert_eq!(h.encode(), d.encode());
        assert_eq!(h.backend_name(), "hash");
        assert_eq!(d.backend_name(), "dense");
    }

    #[test]
    fn ties_break_to_lowest_index() {
        let mut t = QTable::new(3);
        t.set(1, 2, 0.5);
        t.set(1, 0, 0.5);
        assert_eq!(t.best_action(1).0, 0);
        let mut d = DenseQTable::dense(3);
        d.set(1, 2, 0.5);
        d.set(1, 0, 0.5);
        assert_eq!(d.best_action(1).0, 0);
    }

    #[test]
    fn codec_roundtrip() {
        let mut t = QTable::new(4);
        t.set(0, 0, -1.25);
        t.set(9_999_999_999, 3, 1e-7);
        t.set(5, 2, 42.0);
        t.set(5, 2, 43.5); // overwrite, second visit
        let text = t.encode();
        let back = QTable::decode(&text).expect("roundtrip");
        assert_eq!(back, t);
        assert_eq!(back.visits(5, 2), 2);
    }

    #[test]
    fn codec_crosses_backends() {
        let mut d = DenseQTable::dense_with_default_q(4, 1.5);
        d.set(11, 3, -2.0);
        d.set(2, 0, 0.25);
        let text = d.encode();
        let h: QTable = QTable::decode(&text).expect("hash decodes dense encoding");
        assert_eq!(h.encode(), text, "hash re-encoding must be byte-identical");
        let d2: DenseQTable = DenseQTable::decode(&h.encode()).expect("dense decodes hash");
        assert_eq!(d2, d);
    }

    #[test]
    fn to_backend_preserves_rows() {
        let mut h = QTable::with_default_q(3, 9.0);
        h.set(1, 0, 2.0);
        h.set(500, 2, -1.0);
        let d: DenseQTable = h.to_backend();
        assert_eq!(d.encode(), h.encode());
        assert_eq!(d.default_q(), 9.0);
        let h2: QTable = d.to_backend();
        assert_eq!(h2, h);
    }

    #[test]
    fn resized_for_space_grows_a_direct_index() {
        let mut small = DenseQTable::dense_for_space(3, 1.5, 100);
        small.set(42, 1, 2.0);
        let grown = small.clone().resized_for_space(1_000);
        // The grown table accepts keys the small one would reject…
        let mut grown = grown;
        grown.set(999, 0, -1.0);
        // …and kept every row and the default.
        assert_eq!(grown.q(42, 1), 2.0);
        assert_eq!(grown.q(42, 0), 1.5, "unvisited cells keep the default");
        assert_eq!(grown.visits(42, 1), 1);
        // A covering index is returned unchanged (no re-homing).
        let same = small.clone().resized_for_space(50);
        assert_eq!(same, small);
    }

    #[test]
    fn decode_rejects_garbage() {
        let dec = QTable::<HashStore>::decode;
        assert!(dec("").is_err());
        assert!(dec("nope v1 3").is_err());
        assert!(dec("qtable v1 0").is_err());
        assert!(
            dec("qtable v1 2\n5 1.0 | 1 1").is_err(),
            "wrong value arity"
        );
        assert!(
            dec("qtable v1 2\n5 1.0 2.0 1 1").is_err(),
            "missing separator"
        );
        assert!(dec("qtable v1 2\nx 1.0 2.0 | 1 1").is_err(), "bad key");
        assert!(dec("qtable v1 2\n5 NaN 2.0 | 1 1").is_err(), "NaN value");
    }

    #[test]
    fn decode_rejects_duplicate_state_lines() {
        let text = "qtable v1 2\n5 1.0 2.0 | 1 1\n7 0.0 0.0 | 0 0\n5 9.0 9.0 | 2 2\n";
        let err = QTable::<HashStore>::decode(text).expect_err("duplicate state must be rejected");
        assert_eq!(err.line(), 4, "error must name the offending line");
        assert!(err.to_string().contains("duplicate state 5"), "got: {err}");
        // Dense backend rejects identically.
        let derr = DenseQTable::decode(text).expect_err("dense rejects too");
        assert_eq!(derr, err);
    }

    #[test]
    fn decode_accepts_blank_lines_and_v1_headers() {
        let t: QTable =
            QTable::decode("qtable v1 2\n\n5 1.0 2.0 | 1 1\n\n").expect("blank lines ok");
        assert_eq!(t.q(5, 1), 2.0);
        assert_eq!(t.default_q(), 0.0, "v1 tables default to 0");
    }

    #[test]
    fn optimistic_default_applies_to_unvisited_pairs_only() {
        let mut t = QTable::with_default_q(3, 25.0);
        assert_eq!(t.q(7, 1), 25.0);
        assert_eq!(t.max_q(7), 25.0);
        t.set(7, 1, 2.0);
        assert_eq!(t.q(7, 1), 2.0, "visited pair reads its learned value");
        assert_eq!(t.q(7, 0), 25.0, "sibling actions stay optimistic");
        assert_eq!(
            t.best_actions(7),
            vec![0, 2],
            "untried actions tie at the optimum"
        );
        let back = QTable::decode(&t.encode()).expect("v2 roundtrip");
        assert_eq!(back, t);
        assert_eq!(back.default_q(), 25.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_out_of_range_panics() {
        let mut t = QTable::new(2);
        t.set(0, 2, 1.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn set_nan_panics() {
        let mut t = QTable::new(2);
        t.set(0, 0, f64::NAN);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_actions_panics() {
        let _ = QTable::new(0);
    }

    #[test]
    fn encode_is_sorted_and_stable() {
        let mut a = QTable::new(2);
        a.set(10, 0, 1.0);
        a.set(3, 1, 2.0);
        let mut b = QTable::new(2);
        b.set(3, 1, 2.0);
        b.set(10, 0, 1.0);
        assert_eq!(
            a.encode(),
            b.encode(),
            "encoding must not depend on insertion order"
        );
    }
}
