//! Metadata-operation census (Figure 3, §6.4).
//!
//! Counts every monitored POSIX metadata/utility operation in a trace,
//! attributed to the layer whose code issued it — "we indicate where the
//! invocations occur, in the MPI library, in HDF5, or in the application
//! or another library".

use std::collections::BTreeMap;

use recorder::{Layer, MetaKind, Record, TraceSet};

/// The census: counts per metadata operation per issuing layer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetadataCensus {
    pub counts: BTreeMap<MetaKind, BTreeMap<Layer, u64>>,
}

impl MetadataCensus {
    /// Count all metadata records in `trace`.
    pub fn from_trace(trace: &TraceSet) -> Self {
        let mut census = MetadataCensus::default();
        for rec in trace.ranks.iter().flatten() {
            census.add(rec);
        }
        census
    }

    /// The one counting rule: a POSIX metadata call counts once, under
    /// the layer whose code issued it; any other record counts nothing.
    /// The streaming analyzer applies it to each record as it drains.
    pub fn add(&mut self, rec: &Record) {
        if rec.layer != Layer::Posix {
            return;
        }
        if let Some(kind) = rec.func.meta_kind() {
            *self
                .counts
                .entry(kind)
                .or_default()
                .entry(rec.origin)
                .or_insert(0) += 1;
        }
    }

    /// Operations used at least once, sorted.
    pub fn used_ops(&self) -> Vec<MetaKind> {
        self.counts
            .iter()
            .filter(|(_, by_layer)| by_layer.values().sum::<u64>() > 0)
            .map(|(&k, _)| k)
            .collect()
    }

    /// Operations never used (Figure 3's empty columns — "many operations
    /// like rename(), chown() and utime() are not used by any
    /// application").
    pub fn unused_ops(&self) -> Vec<MetaKind> {
        MetaKind::ALL
            .iter()
            .copied()
            .filter(|k| !self.counts.contains_key(k))
            .collect()
    }

    /// Layers that issued `op`, sorted.
    pub fn layers_for(&self, op: MetaKind) -> Vec<Layer> {
        self.counts
            .get(&op)
            .map(|m| m.keys().copied().collect())
            .unwrap_or_default()
    }

    pub fn total(&self) -> u64 {
        self.counts.values().flat_map(|m| m.values()).sum()
    }

    pub fn count(&self, op: MetaKind) -> u64 {
        self.counts.get(&op).map(|m| m.values().sum()).unwrap_or(0)
    }

    /// Merge another census in (for aggregating configurations).
    pub fn merge(&mut self, other: &MetadataCensus) {
        for (op, by_layer) in &other.counts {
            let e = self.counts.entry(*op).or_default();
            for (layer, n) in by_layer {
                *e.entry(*layer).or_insert(0) += n;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recorder::{Func, PathId};

    fn meta(rank: u32, t: u64, origin: Layer, op: MetaKind) -> Record {
        Record {
            t_start: t,
            t_end: t + 1,
            rank,
            layer: Layer::Posix,
            origin,
            func: Func::MetaPath {
                op,
                path: PathId(0),
            },
        }
    }

    #[test]
    fn census_attributes_by_origin() {
        let trace = TraceSet {
            paths: vec!["/f".into()],
            ranks: vec![vec![
                meta(0, 1, Layer::App, MetaKind::Stat),
                meta(0, 2, Layer::Hdf5, MetaKind::Stat),
                meta(0, 3, Layer::Hdf5, MetaKind::Ftruncate),
                Record {
                    t_start: 4,
                    t_end: 5,
                    rank: 0,
                    layer: Layer::Hdf5, // not POSIX → not counted
                    origin: Layer::Hdf5,
                    func: Func::H5Fclose { id: 1 },
                },
            ]],
            skews_ns: vec![0],
        };
        let c = MetadataCensus::from_trace(&trace);
        assert_eq!(c.count(MetaKind::Stat), 2);
        assert_eq!(c.layers_for(MetaKind::Stat), vec![Layer::App, Layer::Hdf5]);
        assert_eq!(c.layers_for(MetaKind::Ftruncate), vec![Layer::Hdf5]);
        assert_eq!(c.total(), 3);
        assert!(c.unused_ops().contains(&MetaKind::Rename));
        assert!(!c.used_ops().contains(&MetaKind::Rename));
    }

    #[test]
    fn merge_accumulates() {
        let mut a = MetadataCensus::default();
        a.counts
            .entry(MetaKind::Stat)
            .or_default()
            .insert(Layer::App, 2);
        let mut b = MetadataCensus::default();
        b.counts
            .entry(MetaKind::Stat)
            .or_default()
            .insert(Layer::App, 3);
        b.counts
            .entry(MetaKind::Unlink)
            .or_default()
            .insert(Layer::Adios, 1);
        a.merge(&b);
        assert_eq!(a.count(MetaKind::Stat), 5);
        assert_eq!(a.count(MetaKind::Unlink), 1);
    }
}
