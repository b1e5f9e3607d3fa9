//! Where results *live*: the durable on-disk cell cache and the one
//! atomic write every durable file in the workspace goes through.
//!
//! A cell's result is a sealed (CRC32-framed) [`RunMetrics`] record at
//! [`cache_entry_path`], keyed by [`Cell::key`](crate::matrix::Cell::key).
//! `load` serves a hit or quarantines a corrupt record; `store` writes
//! one through [`write_atomic`]. The records are all the state a
//! campaign leaves behind: resuming a killed campaign is hitting them.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::codec::ByteWriter;
use crate::metrics::RunMetrics;

/// Sharded on-disk location of one cache entry:
/// `<dir>/<xx>/<key:016x>.rpav`, where `xx` is the key's top byte in hex —
/// a 256-way fan-out so million-entry campaigns never pile every record
/// into one directory.
pub fn cache_entry_path(dir: &Path, key: u64) -> PathBuf {
    dir.join(format!("{:02x}", (key >> 56) as u8))
        .join(format!("{key:016x}.rpav"))
}

/// A cache file that exists but fails the envelope or the structural
/// decode; [`load`] has already moved it out of the way.
pub(crate) struct CorruptRecord;

/// Read one sealed cache record into the worker's recycled buffer and
/// decode it. A miss (`Ok(None)`) is one failed `open`. A corrupt file is
/// *quarantined*: moved to `<dir>/quarantine/` (deleted if the move
/// fails) and treated as a miss by the caller, so one corrupt file costs
/// one re-simulation, never the run.
pub(crate) fn load(
    dir: &Path,
    key: u64,
    record: &mut Vec<u8>,
) -> Result<Option<RunMetrics>, CorruptRecord> {
    use std::io::Read as _;
    let path = cache_entry_path(dir, key);
    record.clear();
    let read = std::fs::File::open(&path).and_then(|mut f| {
        // Grow the recycled buffer to this record's size exactly:
        // `read_to_end` alone doubles it whenever a record outgrows it, so
        // it would settle at twice the largest record seen. A size no
        // allocation can hold is a failed read (a miss), not an abort.
        let len = usize::try_from(f.metadata()?.len()).map_err(std::io::Error::other)?;
        record
            .try_reserve_exact(len)
            .map_err(std::io::Error::other)?;
        f.read_to_end(record)
    });
    if read.is_err() {
        return Ok(None);
    }
    if let Some(metrics) = RunMetrics::from_cache_bytes(record) {
        return Ok(Some(metrics));
    }
    let qdir = dir.join("quarantine");
    let moved = std::fs::create_dir_all(&qdir).is_ok()
        && std::fs::rename(&path, qdir.join(format!("{key:016x}.rpav"))).is_ok();
    if !moved {
        let _ = std::fs::remove_file(&path);
    }
    eprintln!(
        "rpav: quarantined corrupt cache file {} ({})",
        path.display(),
        if moved { "moved" } else { "deleted" }
    );
    Err(CorruptRecord)
}

/// Durably store one sealed cache record into its prefix shard
/// ([`write_atomic`]). A failure (full disk, unwritable directory) costs
/// the cache entry, not the run: the caller counts it in
/// [`EngineReport::store_failed`](crate::exec::EngineReport::store_failed).
pub(crate) fn store(
    dir: &Path,
    key: u64,
    metrics: &RunMetrics,
    record: &mut Vec<u8>,
) -> std::io::Result<()> {
    let path = cache_entry_path(dir, key);
    std::fs::create_dir_all(path.parent().expect("cache entries live in a shard dir"))?;
    // Encode into the worker's recycled buffer and stream the sealed
    // envelope straight to the file — no per-cell payload allocation.
    let mut w = ByteWriter::with_buf(std::mem::take(record));
    metrics.write_into(&mut w);
    *record = w.into_bytes();
    write_atomic(&path, |f| crate::codec::seal_to(record, f))
}

/// Durably replace `path` with what `write` puts into a fresh file: the
/// bytes go to a `.tmp` sibling named for this process and this call
/// (concurrent writers — threads or processes — never share one), are
/// `fsync`'d, and the tmp file is renamed over `path` — a kill at any
/// instant leaves the old file or the complete new one, never a hybrid.
/// On any failure the tmp file is removed and the error returned; `path`
/// is untouched.
pub fn write_atomic(
    path: &Path,
    write: impl FnOnce(&mut std::fs::File) -> std::io::Result<()>,
) -> std::io::Result<()> {
    use std::fmt::Write as _;
    static CALLS: AtomicU64 = AtomicU64::new(0);
    let call = CALLS.fetch_add(1, Ordering::Relaxed);
    let mut tmp = std::ffi::OsString::with_capacity(path.as_os_str().len() + 32);
    tmp.push(path);
    write!(tmp, ".{}.{call}.tmp", std::process::id()).expect("OsString writes cannot fail");
    let tmp = PathBuf::from(tmp);
    let written = std::fs::File::create(&tmp).and_then(|mut f| {
        write(&mut f)?;
        f.sync_all()?;
        drop(f);
        std::fs::rename(&tmp, path)
    });
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;

    fn fresh_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rpav-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn leftover_tmps(dir: &Path) -> usize {
        std::fs::read_dir(dir)
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .count()
    }

    #[test]
    fn write_atomic_replaces_the_target_or_leaves_everything_as_it_was() {
        let dir = fresh_dir("atomic");
        let file = dir.join("record.json");
        write_atomic(&file, |f| f.write_all(b"old")).unwrap();
        write_atomic(&file, |f| f.write_all(b"new")).unwrap();
        assert_eq!(std::fs::read(&file).unwrap(), b"new");
        assert_eq!(leftover_tmps(&dir), 0);

        // A failing writer: the target keeps its old bytes.
        let failed = write_atomic(&file, |f| {
            f.write_all(b"partial")?;
            Err(std::io::Error::other("disk full"))
        });
        assert!(failed.is_err());
        assert_eq!(std::fs::read(&file).unwrap(), b"new");
        assert_eq!(leftover_tmps(&dir), 0);

        // A destination that is an existing directory: the rename fails,
        // the directory and its contents stay, no tmp file survives.
        let target = dir.join("occupied");
        std::fs::create_dir(&target).unwrap();
        std::fs::write(target.join("inside"), b"kept").unwrap();
        assert!(write_atomic(&target, |f| f.write_all(b"bytes")).is_err());
        assert!(target.is_dir());
        assert_eq!(std::fs::read(target.join("inside")).unwrap(), b"kept");
        assert_eq!(std::fs::read_dir(&target).unwrap().count(), 1);
        assert_eq!(leftover_tmps(&dir), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_writers_of_one_path_all_succeed() {
        // Racing writers of one path — two identical `POST /campaigns`,
        // two engines over one cache — each get their own tmp file: every
        // call succeeds, a reader only ever sees one writer's whole
        // payload, and no tmp file is left behind.
        const WRITERS: usize = 4;
        const ROUNDS: usize = 100;
        const LEN: usize = 4096;
        let dir = fresh_dir("race");
        let file = dir.join("spec.json");
        write_atomic(&file, |f| f.write_all(&[0; LEN])).unwrap();
        let whole = |bytes: &[u8]| bytes.len() == LEN && bytes.iter().all(|&b| b == bytes[0]);
        // Every thread starts writing (or reading) at once.
        let start = std::sync::Barrier::new(WRITERS + 1);
        std::thread::scope(|s| {
            let writers: Vec<_> = (1..=WRITERS as u8)
                .map(|id| {
                    let (file, start) = (&file, &start);
                    s.spawn(move || {
                        start.wait();
                        (0..ROUNDS)
                            .filter(|_| write_atomic(file, |f| f.write_all(&[id; LEN])).is_err())
                            .count()
                    })
                })
                .collect();
            let reader = s.spawn(|| {
                start.wait();
                for _ in 0..ROUNDS {
                    let bytes = std::fs::read(&file).unwrap();
                    assert!(whole(&bytes), "a reader saw a torn or mixed file");
                }
            });
            let failed: usize = writers.into_iter().map(|w| w.join().unwrap()).sum();
            reader.join().unwrap();
            assert_eq!(failed, 0, "{failed} of {} writes failed", WRITERS * ROUNDS);
        });
        assert!(whole(&std::fs::read(&file).unwrap()));
        assert_eq!(leftover_tmps(&dir), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
