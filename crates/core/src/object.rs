//! Basic data objects (the leaves of the operator tree).
//!
//! A basic object `o_k` has a size `δ_k` (MB) and an update-download
//! frequency `f_k` (1/s). Every processor that runs an operator needing
//! `o_k` must continuously download it, consuming `rate_k = δ_k · f_k`
//! MB/s on every link and network card the object crosses (paper §2.1).

use crate::ids::TypeId;

/// One basic-object type: a size in MB and a download frequency in Hz.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObjectType {
    /// Object size `δ_k` in MB.
    pub size_mb: f64,
    /// Download frequency `f_k` in 1/s (e.g. `0.5` for the paper's "high"
    /// frequency of one download every 2 s).
    pub freq_hz: f64,
}

impl ObjectType {
    /// Creates an object type, validating that both parameters are finite
    /// and strictly positive.
    pub fn new(size_mb: f64, freq_hz: f64) -> Self {
        assert!(
            size_mb.is_finite() && size_mb > 0.0,
            "object size must be positive, got {size_mb}"
        );
        assert!(
            freq_hz.is_finite() && freq_hz > 0.0,
            "object frequency must be positive, got {freq_hz}"
        );
        ObjectType { size_mb, freq_hz }
    }

    /// Steady-state bandwidth consumed by one download stream of this
    /// object: `rate_k = δ_k · f_k` in MB/s.
    #[inline]
    pub fn rate(&self) -> f64 {
        self.size_mb * self.freq_hz
    }
}

/// The full set of basic-object types of an application.
///
/// The paper's simulations draw every leaf from 15 types; the catalog is the
/// authoritative table mapping a [`TypeId`] to its size and frequency.
#[derive(Debug, Clone, Default)]
pub struct ObjectCatalog {
    types: Vec<ObjectType>,
}

impl ObjectCatalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a new object type and returns its id.
    pub fn add(&mut self, ty: ObjectType) -> TypeId {
        let id = TypeId::from(self.types.len());
        self.types.push(ty);
        id
    }

    /// Number of object types.
    pub fn len(&self) -> usize {
        self.types.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.types.is_empty()
    }

    /// The object type for `id`.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    #[inline]
    pub fn get(&self, id: TypeId) -> &ObjectType {
        &self.types[id.index()]
    }

    /// Convenience accessor for `δ_k`.
    #[inline]
    pub fn size(&self, id: TypeId) -> f64 {
        self.get(id).size_mb
    }

    /// Convenience accessor for `rate_k = δ_k · f_k`.
    #[inline]
    pub fn rate(&self, id: TypeId) -> f64 {
        self.get(id).rate()
    }

    /// Iterates over `(TypeId, &ObjectType)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (TypeId, &ObjectType)> {
        self.types
            .iter()
            .enumerate()
            .map(|(i, t)| (TypeId::from(i), t))
    }

    /// All type ids.
    pub fn ids(&self) -> impl Iterator<Item = TypeId> {
        (0..self.types.len()).map(TypeId::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_is_size_times_frequency() {
        let ty = ObjectType::new(20.0, 0.5);
        assert!((ty.rate() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn low_frequency_rate() {
        // Paper's "low" frequency: one download every 50 s.
        let ty = ObjectType::new(30.0, 1.0 / 50.0);
        assert!((ty.rate() - 0.6).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "size must be positive")]
    fn rejects_zero_size() {
        ObjectType::new(0.0, 0.5);
    }

    #[test]
    #[should_panic(expected = "frequency must be positive")]
    fn rejects_negative_frequency() {
        ObjectType::new(5.0, -1.0);
    }

    #[test]
    fn catalog_roundtrip() {
        let mut cat = ObjectCatalog::new();
        let a = cat.add(ObjectType::new(5.0, 0.5));
        let b = cat.add(ObjectType::new(30.0, 0.02));
        assert_eq!(cat.len(), 2);
        assert_eq!(a, TypeId(0));
        assert_eq!(b, TypeId(1));
        assert!((cat.size(a) - 5.0).abs() < 1e-12);
        assert!((cat.rate(b) - 0.6).abs() < 1e-12);
        assert_eq!(cat.ids().count(), 2);
        assert_eq!(cat.iter().count(), 2);
    }
}
