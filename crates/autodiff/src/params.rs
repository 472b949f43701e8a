//! Named parameter storage shared by graphs and optimizers.

use std::collections::HashMap;
use std::fmt;

use crate::matrix::Matrix;

/// Handle to a parameter in a [`ParamSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ParamId(pub(crate) usize);

impl ParamId {
    /// Raw index of the parameter within its set.
    pub fn index(self) -> usize {
        self.0
    }
}

/// A set of named trainable matrices.
///
/// Graphs reference parameters by [`ParamId`]; optimizers update them in
/// place from [`Gradients`](crate::Gradients).
///
/// # Examples
///
/// ```
/// use cadmc_autodiff::{Matrix, ParamSet};
///
/// let mut params = ParamSet::new();
/// let w = params.insert("w", Matrix::zeros(2, 2));
/// assert_eq!(params.value(w).shape(), (2, 2));
/// assert_eq!(params.id("w"), Some(w));
/// ```
#[derive(Clone, Default)]
pub struct ParamSet {
    names: Vec<String>,
    by_name: HashMap<String, ParamId>,
    values: Vec<Matrix>,
}

impl fmt::Debug for ParamSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ParamSet({} params, {} scalars)",
            self.len(),
            self.num_scalars()
        )
    }
}

impl ParamSet {
    /// Creates an empty parameter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a parameter under `name` and returns its handle.
    ///
    /// # Panics
    ///
    /// Panics if the name is already taken.
    pub fn insert(&mut self, name: impl Into<String>, value: Matrix) -> ParamId {
        let name = name.into();
        assert!(
            !self.by_name.contains_key(&name),
            "parameter name {name:?} already registered"
        );
        let id = ParamId(self.values.len());
        self.by_name.insert(name.clone(), id);
        self.names.push(name);
        self.values.push(value);
        id
    }

    /// Looks up a parameter handle by name.
    pub fn id(&self, name: &str) -> Option<ParamId> {
        self.by_name.get(name).copied()
    }

    /// Name of a parameter.
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// Current value of a parameter.
    pub fn value(&self, id: ParamId) -> &Matrix {
        &self.values[id.0]
    }

    /// Mutable value of a parameter.
    pub fn value_mut(&mut self, id: ParamId) -> &mut Matrix {
        &mut self.values[id.0]
    }

    /// Number of parameters.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total number of scalar weights across all parameters.
    pub fn num_scalars(&self) -> usize {
        self.values.iter().map(Matrix::len).sum()
    }

    /// Iterates over `(id, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &Matrix)> {
        self.values.iter().enumerate().map(|(i, v)| (ParamId(i), v))
    }

    /// All parameter handles.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> + '_ {
        (0..self.values.len()).map(ParamId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_lookup() {
        let mut set = ParamSet::new();
        let a = set.insert("a", Matrix::zeros(1, 2));
        let b = set.insert("b", Matrix::zeros(3, 4));
        assert_eq!(set.id("a"), Some(a));
        assert_eq!(set.id("b"), Some(b));
        assert_eq!(set.id("c"), None);
        assert_eq!(set.name(b), "b");
        assert_eq!(set.len(), 2);
        assert_eq!(set.num_scalars(), 2 + 12);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn duplicate_name_panics() {
        let mut set = ParamSet::new();
        set.insert("a", Matrix::zeros(1, 1));
        set.insert("a", Matrix::zeros(1, 1));
    }
}
