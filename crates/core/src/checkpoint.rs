//! Epoch checkpointing for crash recovery.
//!
//! A [`CheckpointStore`] holds per-host snapshots of owned field state,
//! keyed by `(host, epoch)`. Hosts save through the same [`SyncValue`]
//! codec the wire uses, every `checkpoint_every` rounds; a supervisor
//! rolls the whole cluster back to the newest epoch that *every* host
//! completed ([`CheckpointStore::latest_complete_epoch`]) and re-executes
//! forward. Because the runtime is deterministic, re-execution from a
//! consistent cut reproduces the crash-free run bit for bit — no message
//! logging or in-flight-channel capture is needed, which is what makes
//! checkpoints this cheap (see DESIGN.md, "Fault model and reliability").
//!
//! Two backends share one API: an in-memory map (tests, single-process
//! clusters — the default) and a directory of files (survives the
//! process). Each file is one record closed by a CRC32 trailer; a corrupt
//! or truncated snapshot file is treated as absent rather than trusted, so
//! a torn write or a flipped bit degrades to an older epoch instead of
//! poisoning recovery.

use crate::value::SyncValue;
use gluon_net::crc32_parts;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::path::PathBuf;
use std::sync::Arc;

/// Magic prefix of a serialized snapshot file.
const MAGIC: &[u8; 8] = b"GLUCKPT2";

/// One host's state at one epoch boundary: the algorithm round it
/// completed plus a set of named field payloads.
#[derive(Clone, Debug, PartialEq)]
pub struct CheckpointSnapshot {
    round: u64,
    fields: Vec<(String, Vec<u8>)>,
}

impl CheckpointSnapshot {
    /// An empty snapshot taken after completing `round`.
    pub fn new(round: u64) -> CheckpointSnapshot {
        CheckpointSnapshot {
            round,
            fields: Vec::new(),
        }
    }

    /// The algorithm round this snapshot was taken after.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Serializes `values` under `name` through the wire codec.
    pub fn put_values<V: SyncValue>(&mut self, name: &str, values: &[V]) {
        let mut buf = Vec::with_capacity(values.len() * V::WIRE_BYTES);
        for &v in values {
            v.write_to(&mut buf);
        }
        self.put_raw(name, buf);
    }

    /// Stores an already-encoded payload under `name`, replacing any
    /// previous payload with the same name.
    pub fn put_raw(&mut self, name: &str, data: Vec<u8>) {
        if let Some(slot) = self.fields.iter_mut().find(|(n, _)| n == name) {
            slot.1 = data;
        } else {
            self.fields.push((name.to_owned(), data));
        }
    }

    /// Decodes the payload stored under `name`, or `None` if absent or
    /// not a whole number of values.
    pub fn values<V: SyncValue>(&self, name: &str) -> Option<Vec<V>> {
        let data = self.raw(name)?;
        if !data.len().is_multiple_of(V::WIRE_BYTES) {
            return None;
        }
        Some(data.chunks_exact(V::WIRE_BYTES).map(V::read_from).collect())
    }

    /// The raw payload stored under `name`.
    pub fn raw(&self, name: &str) -> Option<&[u8]> {
        self.fields
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, d)| d.as_slice())
    }

    /// Total payload bytes across all fields (what a save costs).
    pub fn payload_bytes(&self) -> u64 {
        self.fields.iter().map(|(_, d)| d.len() as u64).sum()
    }

    /// The names of the stored fields, in insertion order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.fields.iter().map(|(n, _)| n.as_str())
    }

    /// The on-disk record: magic, round, length-prefixed named fields, and
    /// a CRC32 trailer over everything before it.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(36 + self.payload_bytes() as usize);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&self.round.to_le_bytes());
        out.extend_from_slice(&(self.fields.len() as u32).to_le_bytes());
        for (name, data) in &self.fields {
            out.extend_from_slice(&(name.len() as u32).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(&(data.len() as u64).to_le_bytes());
            out.extend_from_slice(data);
        }
        let crc = crc32_parts(&[&out]);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Fully fallible decode of [`CheckpointSnapshot::to_bytes`]: a CRC
    /// mismatch, truncation or malformed header yields `None` (the
    /// snapshot is then treated as never written).
    pub fn from_bytes(buf: &[u8]) -> Option<CheckpointSnapshot> {
        fn take<'a>(buf: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
            let (head, rest) = buf.split_at_checked(n)?;
            *buf = rest;
            Some(head)
        }
        let (body, crc) = buf.split_at(buf.len().checked_sub(4)?);
        if crc32_parts(&[body]).to_le_bytes() != crc {
            return None;
        }
        let mut b = body.strip_prefix(MAGIC.as_slice())?;
        let round = u64::from_le_bytes(take(&mut b, 8)?.try_into().ok()?);
        let count = u32::from_le_bytes(take(&mut b, 4)?.try_into().ok()?);
        let mut fields = Vec::new();
        for _ in 0..count {
            let name_len = u32::from_le_bytes(take(&mut b, 4)?.try_into().ok()?) as usize;
            let name = String::from_utf8(take(&mut b, name_len)?.to_vec()).ok()?;
            let data_len = u64::from_le_bytes(take(&mut b, 8)?.try_into().ok()?);
            let data = take(&mut b, usize::try_from(data_len).ok()?)?.to_vec();
            fields.push((name, data));
        }
        if !b.is_empty() {
            return None;
        }
        Some(CheckpointSnapshot { round, fields })
    }
}

#[derive(Debug)]
enum Backend {
    Memory(Mutex<HashMap<(usize, u64), CheckpointSnapshot>>),
    Dir(PathBuf),
}

/// Shared store of epoch checkpoints, cloneable across host threads.
#[derive(Clone, Debug)]
pub struct CheckpointStore {
    backend: Arc<Backend>,
}

impl CheckpointStore {
    /// An in-memory store (the default for simulated clusters).
    pub fn in_memory() -> CheckpointStore {
        CheckpointStore {
            backend: Arc::new(Backend::Memory(Mutex::new(HashMap::new()))),
        }
    }

    /// A file-backed store rooted at `dir` (created if missing). Each
    /// snapshot is one file, written to a temporary name and renamed so a
    /// crash mid-save leaves the previous epoch intact.
    pub fn on_disk(dir: impl Into<PathBuf>) -> std::io::Result<CheckpointStore> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(CheckpointStore {
            backend: Arc::new(Backend::Dir(dir)),
        })
    }

    fn file_name(host: usize, epoch: u64) -> String {
        format!("ckpt-h{host}-e{epoch}.bin")
    }

    fn parse_file_name(name: &str) -> Option<(usize, u64)> {
        let rest = name.strip_prefix("ckpt-h")?.strip_suffix(".bin")?;
        let (host, epoch) = rest.split_once("-e")?;
        Some((host.parse().ok()?, epoch.parse().ok()?))
    }

    /// Saves `snap` as host `host`'s state at `epoch`, replacing any
    /// previous snapshot at the same key.
    pub fn save(&self, host: usize, epoch: u64, snap: CheckpointSnapshot) -> std::io::Result<()> {
        match &*self.backend {
            Backend::Memory(map) => {
                map.lock().insert((host, epoch), snap);
                Ok(())
            }
            Backend::Dir(dir) => {
                let tmp = dir.join(format!(".{}.tmp", Self::file_name(host, epoch)));
                let mut f = std::fs::File::create(&tmp)?;
                f.write_all(&snap.to_bytes())?;
                f.sync_all()?;
                drop(f);
                std::fs::rename(&tmp, dir.join(Self::file_name(host, epoch)))
            }
        }
    }

    /// Loads host `host`'s snapshot at `epoch`; `None` if never saved (or,
    /// on disk, unreadable or corrupt).
    pub fn load(&self, host: usize, epoch: u64) -> Option<CheckpointSnapshot> {
        match &*self.backend {
            Backend::Memory(map) => map.lock().get(&(host, epoch)).cloned(),
            Backend::Dir(dir) => {
                let mut buf = Vec::new();
                std::fs::File::open(dir.join(Self::file_name(host, epoch)))
                    .ok()?
                    .read_to_end(&mut buf)
                    .ok()?;
                CheckpointSnapshot::from_bytes(&buf)
            }
        }
    }

    /// Every `(host, epoch)` key present (corrupt disk snapshots excluded).
    fn keys(&self) -> Vec<(usize, u64)> {
        match &*self.backend {
            Backend::Memory(map) => map.lock().keys().copied().collect(),
            Backend::Dir(dir) => std::fs::read_dir(dir)
                .into_iter()
                .flatten()
                .flatten()
                .filter_map(|entry| {
                    let name = entry.file_name();
                    let (host, epoch) = Self::parse_file_name(name.to_str()?)?;
                    // A present-but-corrupt file must not count as saved.
                    self.load(host, epoch).map(|_| (host, epoch))
                })
                .collect(),
        }
    }

    /// The newest epoch that *every* host `0..world_size` has saved — the
    /// consistent cut recovery rolls back to. `None` if no epoch is
    /// complete (recovery must restart from scratch).
    pub fn latest_complete_epoch(&self, world_size: usize) -> Option<u64> {
        let mut per_epoch: HashMap<u64, Vec<bool>> = HashMap::new();
        for (host, epoch) in self.keys() {
            if host < world_size {
                per_epoch
                    .entry(epoch)
                    .or_insert_with(|| vec![false; world_size])[host] = true;
            }
        }
        per_epoch
            .into_iter()
            .filter(|(_, hosts)| hosts.iter().all(|&h| h))
            .map(|(epoch, _)| epoch)
            .max()
    }

    /// Drops every snapshot (a supervisor calls this between unrelated
    /// runs sharing one store).
    pub fn clear(&self) {
        match &*self.backend {
            Backend::Memory(map) => map.lock().clear(),
            Backend::Dir(dir) => {
                for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
                    let name = entry.file_name();
                    if name
                        .to_str()
                        .is_some_and(|n| Self::parse_file_name(n).is_some())
                    {
                        let _ = std::fs::remove_file(entry.path());
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(round: u64) -> CheckpointSnapshot {
        let mut s = CheckpointSnapshot::new(round);
        s.put_values::<u32>("labels", &[1, 2, 3, 4, u32::MAX]);
        s.put_values::<u64>("active_words", &[0b1011, 0]);
        s.put_values::<f64>("rank", &[0.15, 0.425]);
        s
    }

    #[test]
    fn values_round_trip_through_the_codec() {
        let s = sample(9);
        assert_eq!(s.round(), 9);
        assert_eq!(
            s.values::<u32>("labels").unwrap(),
            vec![1, 2, 3, 4, u32::MAX]
        );
        assert_eq!(s.values::<u64>("active_words").unwrap(), vec![0b1011, 0]);
        assert_eq!(s.values::<f64>("rank").unwrap(), vec![0.15, 0.425]);
        assert!(s.values::<u32>("missing").is_none());
        // Wrong-width reads are refused, not mis-sliced.
        assert!(s.values::<u64>("labels").is_none());
    }

    #[test]
    fn put_replaces_by_name() {
        let mut s = CheckpointSnapshot::new(1);
        s.put_values::<u32>("x", &[1]);
        s.put_values::<u32>("x", &[7, 8]);
        assert_eq!(s.values::<u32>("x").unwrap(), vec![7, 8]);
    }

    #[test]
    fn in_memory_store_tracks_complete_epochs() {
        let store = CheckpointStore::in_memory();
        assert_eq!(store.latest_complete_epoch(2), None);
        store.save(0, 1, sample(10)).unwrap();
        assert_eq!(store.latest_complete_epoch(2), None, "host 1 missing");
        store.save(1, 1, sample(10)).unwrap();
        assert_eq!(store.latest_complete_epoch(2), Some(1));
        // A newer but incomplete epoch must not win.
        store.save(0, 2, sample(20)).unwrap();
        assert_eq!(store.latest_complete_epoch(2), Some(1));
        store.save(1, 2, sample(20)).unwrap();
        assert_eq!(store.latest_complete_epoch(2), Some(2));
        assert_eq!(store.load(0, 2).unwrap().round(), 20);
        store.clear();
        assert_eq!(store.latest_complete_epoch(2), None);
    }

    #[test]
    fn disk_store_round_trips_and_survives_reopen() {
        let dir = std::env::temp_dir().join(format!(
            "gluon-ckpt-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::on_disk(&dir).unwrap();
        store.save(0, 3, sample(30)).unwrap();
        store.save(1, 3, sample(30)).unwrap();
        assert_eq!(store.latest_complete_epoch(2), Some(3));
        // A fresh handle over the same directory sees the same state.
        let reopened = CheckpointStore::on_disk(&dir).unwrap();
        let snap = reopened.load(1, 3).expect("snapshot persisted");
        assert_eq!(snap, sample(30));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_disk_snapshots_are_treated_as_absent() {
        let dir = std::env::temp_dir().join(format!(
            "gluon-ckpt-corrupt-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::on_disk(&dir).unwrap();
        store.save(0, 1, sample(10)).unwrap();
        store.save(1, 1, sample(10)).unwrap();
        store.save(0, 2, sample(20)).unwrap();
        store.save(1, 2, sample(20)).unwrap();
        // Truncate host 1's epoch-2 file mid-payload: a torn write.
        let victim = dir.join(CheckpointStore::file_name(1, 2));
        let full = std::fs::read(&victim).unwrap();
        std::fs::write(&victim, &full[..full.len() / 2]).unwrap();
        assert!(store.load(1, 2).is_none(), "torn snapshot must not decode");
        assert_eq!(
            store.latest_complete_epoch(2),
            Some(1),
            "recovery falls back to the older complete epoch"
        );
        // Mend the torn file, then flip one byte inside a field's data of
        // host 0's epoch-2 file: the framing still parses, so only the CRC
        // trailer can refuse it.
        std::fs::write(&victim, &full).unwrap();
        assert_eq!(store.latest_complete_epoch(2), Some(2));
        let victim = dir.join(CheckpointStore::file_name(0, 2));
        let mut flipped = std::fs::read(&victim).unwrap();
        // Magic, round, field count, then the name and length of `labels`.
        let labels_data = MAGIC.len() + 8 + 4 + 4 + "labels".len() + 8;
        flipped[labels_data] ^= 0x01;
        std::fs::write(&victim, &flipped).unwrap();
        assert!(
            store.load(0, 2).is_none(),
            "flipped snapshot must not decode"
        );
        assert_eq!(
            store.latest_complete_epoch(2),
            Some(1),
            "a flipped byte falls back to the older complete epoch too"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(CheckpointSnapshot::from_bytes(b"").is_none());
        assert!(CheckpointSnapshot::from_bytes(b"GLU").is_none());
        assert!(CheckpointSnapshot::from_bytes(b"GLUCKPT2").is_none());
        assert!(
            CheckpointSnapshot::from_bytes(b"NOTMAGIC\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0").is_none()
        );
        let good = sample(4).to_bytes();
        assert_eq!(CheckpointSnapshot::from_bytes(&good).unwrap(), sample(4));
        assert_eq!(
            sample(4).names().collect::<Vec<_>>(),
            ["labels", "active_words", "rank"]
        );
        // Trailing junk is rejected too.
        let mut long = good.clone();
        long.push(0);
        assert!(CheckpointSnapshot::from_bytes(&long).is_none());
    }
}
