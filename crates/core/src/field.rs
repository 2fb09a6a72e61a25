//! Field synchronization structures — the paper's Figure 5 API.
//!
//! A [`FieldSync`] describes how Gluon accesses one node field: how to
//! *extract* a proxy's value, how a master *reduces* partial values received
//! from mirrors, how a mirror *resets* after its value has been shipped, and
//! how a mirror *sets* the canonical value received in a broadcast.
//!
//! Ready-made structures cover the reductions the benchmarks use,
//! [`MinField`] (bfs / sssp / cc) and [`SumField`] (pagerank's
//! contributions and out-degrees, k-core's degrees and trims), plus
//! [`MaxField`].
//!
//! # The sum-field contract
//!
//! For reductions whose identity differs from "keep the current value"
//! (e.g. addition), the application must initialize *mirror* proxies to the
//! identity and let only masters carry initial mass; Gluon resets mirrors to
//! the identity after every reduce so that dense-mode retransmissions never
//! double-count. [`init_field`] encodes this convention.

use crate::value::SyncValue;
use gluon_graph::Lid;
use gluon_partition::LocalGraph;

/// How Gluon reads and writes one synchronized node field.
///
/// The four methods correspond one-to-one to the `extract` / `reduce` /
/// `reset` / `set` functions of the paper's reduce and broadcast structures
/// (Figure 5).
pub trait FieldSync {
    /// The label type on the wire.
    type Value: SyncValue;

    /// Reads the field of proxy `lid` (used by both reduce and broadcast
    /// senders).
    fn extract(&self, lid: Lid) -> Self::Value;

    /// Combines `value` into proxy `lid` (called at masters). Returns
    /// whether the stored value changed — Gluon uses this to keep the
    /// dirty set precise.
    fn reduce(&mut self, lid: Lid, value: Self::Value) -> bool;

    /// Resets proxy `lid` to the reduction identity (called at mirrors
    /// after their value has been communicated).
    fn reset(&mut self, lid: Lid);

    /// Overwrites proxy `lid` with the canonical value (called at mirrors
    /// during broadcast).
    fn set(&mut self, lid: Lid, value: Self::Value);
}

/// Minimum reduction over a label slice. Reset keeps the current value
/// (re-reducing a stale minimum is idempotent), matching the paper's note
/// that for sssp "keeping labels of mirror nodes unchanged is sufficient".
#[derive(Debug)]
pub struct MinField<'a, T> {
    data: &'a mut [T],
}

impl<'a, T> MinField<'a, T> {
    /// Wraps the label slice (one entry per proxy).
    pub fn new(data: &'a mut [T]) -> Self {
        MinField { data }
    }
}

impl<T: SyncValue + PartialOrd> FieldSync for MinField<'_, T> {
    type Value = T;

    fn extract(&self, lid: Lid) -> T {
        self.data[lid.index()]
    }

    fn reduce(&mut self, lid: Lid, value: T) -> bool {
        if value < self.data[lid.index()] {
            self.data[lid.index()] = value;
            true
        } else {
            false
        }
    }

    fn reset(&mut self, _lid: Lid) {}

    fn set(&mut self, lid: Lid, value: T) {
        self.data[lid.index()] = value;
    }
}

/// Maximum reduction over a label slice; reset keeps the current value.
#[derive(Debug)]
pub struct MaxField<'a, T> {
    data: &'a mut [T],
}

impl<'a, T> MaxField<'a, T> {
    /// Wraps the label slice (one entry per proxy).
    pub fn new(data: &'a mut [T]) -> Self {
        MaxField { data }
    }
}

impl<T: SyncValue + PartialOrd> FieldSync for MaxField<'_, T> {
    type Value = T;

    fn extract(&self, lid: Lid) -> T {
        self.data[lid.index()]
    }

    fn reduce(&mut self, lid: Lid, value: T) -> bool {
        if value > self.data[lid.index()] {
            self.data[lid.index()] = value;
            true
        } else {
            false
        }
    }

    fn reset(&mut self, _lid: Lid) {}

    fn set(&mut self, lid: Lid, value: T) {
        self.data[lid.index()] = value;
    }
}

/// Numeric zero, for sum identities.
pub trait Zero {
    /// The additive identity.
    const ZERO: Self;
}

macro_rules! zero_impl {
    ($($ty:ty),*) => {$(
        impl Zero for $ty {
            const ZERO: Self = 0 as $ty;
        }
    )*};
}

zero_impl!(u32, u64, i32, i64, f32, f64);

/// Addition reduction: masters accumulate, mirrors reset to zero after
/// sending (pagerank's contributions, k-core's trims).
#[derive(Debug)]
pub struct SumField<'a, T> {
    data: &'a mut [T],
}

impl<'a, T> SumField<'a, T> {
    /// Wraps the label slice (one entry per proxy).
    pub fn new(data: &'a mut [T]) -> Self {
        SumField { data }
    }
}

impl<T> FieldSync for SumField<'_, T>
where
    T: SyncValue + Zero + std::ops::AddAssign,
{
    type Value = T;

    fn extract(&self, lid: Lid) -> T {
        self.data[lid.index()]
    }

    fn reduce(&mut self, lid: Lid, value: T) -> bool {
        if value == T::ZERO {
            return false;
        }
        self.data[lid.index()] += value;
        true
    }

    fn reset(&mut self, lid: Lid) {
        self.data[lid.index()] = T::ZERO;
    }

    fn set(&mut self, lid: Lid, value: T) {
        self.data[lid.index()] = value;
    }
}

/// Initializes a per-proxy field: masters get `master_value`, mirrors get
/// `mirror_value`.
///
/// Use `mirror_value = identity` for sum-style fields (see the module docs)
/// and `mirror_value = master_value` for min/max-style fields.
///
/// # Panics
///
/// Panics if `data` is not one entry per proxy.
pub fn init_field<T: Copy>(graph: &LocalGraph, data: &mut [T], master_value: T, mirror_value: T) {
    assert_eq!(
        data.len(),
        graph.num_proxies() as usize,
        "field must have one entry per proxy"
    );
    for m in graph.masters() {
        data[m.index()] = master_value;
    }
    for m in graph.mirrors() {
        data[m.index()] = mirror_value;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_field_reduces_downward_only() {
        let mut data = vec![10u32, 20];
        let mut f = MinField::new(&mut data);
        assert!(f.reduce(Lid(0), 5));
        assert!(!f.reduce(Lid(0), 7));
        assert_eq!(f.extract(Lid(0)), 5);
        f.reset(Lid(0));
        assert_eq!(f.extract(Lid(0)), 5, "min reset keeps value");
    }

    #[test]
    fn max_field_reduces_upward_only() {
        let mut data = vec![10u32];
        let mut f = MaxField::new(&mut data);
        assert!(!f.reduce(Lid(0), 5));
        assert!(f.reduce(Lid(0), 15));
        assert_eq!(f.extract(Lid(0)), 15);
    }

    #[test]
    fn sum_field_accumulates_and_resets_to_zero() {
        let mut data = vec![1.0f64];
        let mut f = SumField::new(&mut data);
        assert!(f.reduce(Lid(0), 0.5));
        assert!(!f.reduce(Lid(0), 0.0), "adding zero is not a change");
        assert!((f.extract(Lid(0)) - 1.5).abs() < 1e-12);
        f.reset(Lid(0));
        assert_eq!(f.extract(Lid(0)), 0.0);
    }

    #[test]
    fn set_overwrites_unconditionally() {
        let mut data = vec![1u32];
        let mut f = MinField::new(&mut data);
        f.set(Lid(0), 100);
        assert_eq!(f.extract(Lid(0)), 100);
    }

    #[test]
    fn init_field_distinguishes_masters_and_mirrors() {
        use gluon_graph::gen;
        use gluon_partition::{partition_all, Policy};

        let g = gen::rmat(5, 4, Default::default(), 2);
        let parts = partition_all(&g, 2, Policy::Oec);
        let lg = &parts[0];
        let mut data = vec![0.0f64; lg.num_proxies() as usize];
        init_field(lg, &mut data, 0.15, 0.0);
        for m in lg.masters() {
            assert_eq!(data[m.index()], 0.15);
        }
        for m in lg.mirrors() {
            assert_eq!(data[m.index()], 0.0);
        }
    }
}
